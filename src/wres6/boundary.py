"""Boundary engine: eta_n-rational calculus, projections, and the five cases.

Symbols are stored in the real gauge of the ``symbols`` module, xi = -i eta.
On the boundary slice |xi'| = 1 every integrand is a rational function of
eta_n = i xi_n with poles only at eta_n = -1 and +1 (the images of xi_n = +i
and -i) and coefficients in the scalar ring, times a tangential monomial and
a Clifford word.  ``XiRat`` keeps such a function as its partial-fraction
expansion over eta_n^k, (eta_n + 1)^-k and (eta_n - 1)^-k.  The expansion is
unique, so equal values have equal terms, and each operation is a rule on
the terms: d/deta_n acts term by term, the projection onto the principal
part at eta_n = -1 (the content of the upper half-plane projection on
rational symbols) keeps the (eta_n + 1)^-k terms, and the line integral
over xi_n is 2 pi times the (eta_n + 1)^-1 coefficient.  ``XiRat`` and
``BoundaryExpr`` are ``scalars.SparseSum``s, which hold their storage, their
linear structure and their product; this module gives the products of their
keys and the eta_n calculus.

The five boundary contributions are assembled from their definitions: the
(r, l, j, k, alpha) data fixes which derivatives hit the projected factor
and which hit the plain factor, the spinor trace removes Clifford content,
odd tangential monomials integrate to zero and even ones to exact multiples
of the S^4 volume, and the line integral is evaluated by residues.
"""

from __future__ import annotations

from functools import lru_cache
from fractions import Fraction
from math import comb, factorial

from .calculus import build_q_symbols, invert_symbol
from .clifford import TRACE_ID, CliffordElement, word_str
from .interior import sphere_moment
from .scalars import (
    N,
    ScalarExpr,
    SparseSum,
    _accumulate,
    _as_scalar,
    omega4,
    pi_atom,
    sc,
)
from .symbols import BOUNDARY, SymbolExpr


class DecayError(ValueError):
    """Contour integral of a non-decaying rational function."""


# ---------------------------------------------------------------------------
# XiRat

# A basis element (s, k) is eta_n^k for s = 0 (k >= 0) and (eta_n + s)^-k
# for s = +1 or -1 (k >= 1).
_UNIT = (0, 0)


def _pole(s: int, k: int) -> tuple:
    return (s, k) if k else _UNIT


@lru_cache(maxsize=None)
def _basis_mul(u: tuple, v: tuple) -> tuple:
    """The product of two basis elements as ((basis, rational), ...).

    Uses eta (eta + s)^-k = (eta + s)^-(k-1) - s (eta + s)^-k and
    1/((eta + 1)(eta - 1)) = 1/2 [1/(eta - 1) - 1/(eta + 1)].
    """
    if u == _UNIT or v == _UNIT:
        return ((v if u == _UNIT else u, 1),)
    if u[0] == v[0]:
        return (((u[0], u[1] + v[1]), 1),)
    if u[0] and v[0]:
        (_, a), (_, b) = sorted((u, v), reverse=True)   # (eta+1)^-a (eta-1)^-b
        parts = ((Fraction(-1, 2), (1, a), _pole(-1, b - 1)),
                 (Fraction(1, 2), _pole(1, a - 1), (-1, b)))
    else:
        (_, m), (t, k) = sorted((u, v), key=lambda e: e[0] != 0)  # eta^m (eta + t)^-k
        parts = ((1, (0, m - 1), _pole(t, k - 1)),
                 (-t, (0, m - 1), (t, k)))
    out: dict = {}
    for c, x, y in parts:
        for w, d in _basis_mul(x, y):
            _accumulate(out, w, c * d)
    return tuple(out.items())


class XiRat(SparseSum):
    """A rational function of eta_n with poles only at -1 and +1, kept as its
    partial-fraction expansion ``terms: {(s, k): ScalarExpr}`` (see
    ``_basis_mul`` for the basis)."""

    __slots__ = ()
    _value = ScalarExpr
    _key_mul = staticmethod(_basis_mul)

    @staticmethod
    def xin(power: int = 1) -> "XiRat":
        return XiRat({(0, power): ScalarExpr.one()})

    @staticmethod
    def ratio(num, a: int = 0, b: int = 0) -> "XiRat":
        """num(eta_n) / ((eta_n + 1)^a (eta_n - 1)^b), num ascending in eta_n."""
        if a < 0 or b < 0:
            raise ValueError("pole orders must be nonnegative")
        poly = XiRat({(0, k): _as_scalar(c) for k, c in enumerate(num)})
        one = ScalarExpr.one()
        return poly * XiRat({_pole(1, a): one}) * XiRat({_pole(-1, b): one})

    @staticmethod
    def inv_norm(p: int) -> "XiRat":
        """(eta_n^2 - 1)^(-p) for p >= 0."""
        return XiRat.ratio((ScalarExpr.one(),), p, p)

    __mul__ = SparseSum.mul

    def derive(self) -> "XiRat":
        """d/deta_n, term by term."""
        out = {}
        for (s, k), c in self.terms.items():
            if s:
                out[(s, k + 1)] = c * -k
            elif k:
                out[(0, k - 1)] = c * k
        return XiRat(out)

    # -- the upper-half-plane data ------------------------------------------

    def pi_plus(self) -> "XiRat":
        """Principal part at eta_n = -1, which is xi_n = +i (poles at +1 and
        polynomials die)."""
        return XiRat({key: c for key, c in self.terms.items() if key[0] == 1})

    def decays(self) -> bool:
        return all(s for s, _ in self.terms)

    def contour_integral(self) -> ScalarExpr:
        """The line integral over xi_n, 2 pi i Res_{xi_n = i}, which is
        2 pi Res_{eta_n = -1}.  Valid for decaying integrands; returns a
        ScalarExpr multiple of the pi atom.
        """
        if not self.decays():
            raise DecayError("integrand does not decay at infinity")
        return self.terms.get((1, 1), ScalarExpr.zero()) * sc(2) * pi_atom()

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (s, k), c in sorted(self.terms.items()):
            if s:
                base = f"(etan{'+' if s > 0 else '-'}1)^-{k}"
            else:
                base = "1" if k == 0 else ("etan" if k == 1 else f"etan^{k}")
            parts.append(f"({c})*{base}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# BoundaryExpr: tangential monomial x Clifford word -> XiRat


class BoundaryExpr(SparseSum):
    """Symbol content on the slice |xi'| = 1 with free eta_n:
    ``terms: {(tangential xi exponents, Clifford word): XiRat}``.

    A term of odd tangential degree t carries one implicit factor i: the
    restriction of a real-gauge term is i^t times a real function of eta_n.
    Such terms integrate to zero over the tangential sphere.
    """

    __slots__ = ()
    _value = XiRat

    @staticmethod
    def _key_mul(u: tuple, v: tuple) -> tuple:
        """The product of two keys; two implicit factors i make the sign -1."""
        (xp1, w1), (xp2, w2) = u, v
        ((w, sign),) = CliffordElement._key_mul(w1, w2)
        if sum(xp1) % 2 and sum(xp2) % 2:
            sign = -sign
        return (((tuple(a + b for a, b in zip(xp1, xp2)), w), sign),)

    @staticmethod
    def from_symbol(S: SymbolExpr) -> "BoundaryExpr":
        """Restrict to |xi'| = 1.

        A stored term r eta^e |eta|^(2p) is c xi^e |xi|^(2p) with c = i^deg r;
        at |xi'| = 1 with xi_n = -i eta_n it is i^t r eta_n^e_n (eta_n^2 - 1)^p,
        t the tangential degree.  The sign (-1)^(t // 2) is folded in and
        i^(t % 2) stays implicit.
        """
        out: dict = {}
        for (exps, p), el in S.terms.items():
            xp = tuple(exps[:N - 1])
            n_pow = exps[N - 1]
            if p >= 0:
                norm = XiRat({(0, 2 * k): sc(comb(p, k) * (-1) ** (p - k))
                              for k in range(p + 1)})
            else:
                norm = XiRat.inv_norm(-p)
            base = XiRat.xin(n_pow) * norm
            if sum(xp) // 2 % 2:
                base = -base
            for w, coeff in el.terms.items():
                _accumulate(out, (xp, w), base.scale(coeff))
        return BoundaryExpr(out)

    def derive_xin(self) -> "BoundaryExpr":
        return self.map(XiRat.derive)

    def pi_plus(self) -> "BoundaryExpr":
        return self.map(XiRat.pi_plus)

    def trace(self) -> "BoundaryExpr":
        """Spinor trace: keeps the empty word, times tr[id] = TRACE_ID."""
        return BoundaryExpr({key: r.scale(sc(TRACE_ID))
                             for key, r in self.terms.items() if not key[1]})

    def integrate_tangential(self) -> XiRat:
        """Integrate over |xi'| = 1 (S^(N-2) moments); result times Omega_4."""
        total = XiRat.zero()
        for (xp, w), r in self.terms.items():
            if w:
                raise ValueError("trace before tangential integration")
            m = sphere_moment(xp)
            if not m:
                continue
            total = total + r.scale(ScalarExpr.const(m) * omega4())
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        lines = []
        for (xp, w), r in sorted(self.terms.items()):
            mono = "*".join(f"xi{j+1}^{e}" if e > 1 else f"xi{j+1}"
                            for j, e in enumerate(xp) if e) or "1"
            lines.append(f"xiprime={mono} | cliff={word_str(w)} | {r}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Boundary inverse symbols


@lru_cache(maxsize=None)
def boundary_parametrix():
    return invert_symbol(build_q_symbols(BOUNDARY), BOUNDARY)


# ---------------------------------------------------------------------------
# The five cases


CASE_DATA = {
    "a.I": dict(r=-2, l=-2, j=0, k=0, nalpha=1),
    "a.II": dict(r=-2, l=-2, j=1, k=0, nalpha=0),
    "a.III": dict(r=-2, l=-2, j=0, k=1, nalpha=0),
    "b": dict(r=-2, l=-3, j=0, k=0, nalpha=0),
    "c": dict(r=-3, l=-2, j=0, k=0, nalpha=0),
}


def phi_case_value(case: str) -> ScalarExpr:
    """Exact value of one boundary contribution (multiple of pi Omega_4)."""
    data = CASE_DATA[case]
    r, l, j, k, nalpha = data["r"], data["l"], data["j"], data["k"], data["nalpha"]
    par = boundary_parametrix()

    alphas = [()] if nalpha == 0 else [(a,) for a in range(1, N)]
    total = XiRat.zero()
    for alpha in alphas:
        left_sym = par.b2 if r == -2 else par.b3
        for _ in range(j):
            left_sym = left_sym.derive_x(N, BOUNDARY)
        for a in alpha:
            left_sym = left_sym.derive_xi(a)
        left = BoundaryExpr.from_symbol(left_sym).pi_plus()
        for _ in range(k):
            left = left.derive_xin()

        right_sym = par.b2 if l == -2 else par.b3
        for a in alpha:
            right_sym = right_sym.derive_x(a, BOUNDARY)
        for _ in range(k):
            right_sym = right_sym.derive_x(N, BOUNDARY)
        right = BoundaryExpr.from_symbol(right_sym)
        for _ in range(j + 1):
            right = right.derive_xin()

        total = total + left.mul(right).trace().integrate_tangential()

    # in xi the prefactor is (-i)^(|alpha| + j + k + 1) / (j + k + 1)!; each
    # of those xi-derivatives is taken in eta, which is -i d/dxi
    return total.contour_integral() * sc(1, factorial(j + k + 1))


def phi_total() -> ScalarExpr:
    total = ScalarExpr.zero()
    for case in CASE_DATA:
        total = total + phi_case_value(case)
    return total
