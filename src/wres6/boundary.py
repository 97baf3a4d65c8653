"""Boundary engine: xi_n-rational calculus, projections, and the five cases.

On the boundary slice |xi'| = 1 every integrand is a rational function of
xi_n with poles only at +-i and coefficients in the scalar ring (tensored
with the Gaussian rationals), times a tangential monomial and a Clifford
word.  ``XiRat`` keeps such a function as its partial-fraction expansion
over xi_n^k, (xi_n - i)^-k and (xi_n + i)^-k.  The expansion is unique, so
equal values have equal terms, and each operation is a rule on the terms:
d/dxi_n acts term by term, the projection onto the principal part at +i
(the content of the upper half-plane projection on rational symbols) keeps
the (xi_n - i)^-k terms, and the closed contour integral around +i reads
the (xi_n - i)^-1 coefficient.  ``XiRat`` and ``BoundaryExpr`` are
``scalars.SparseSum``s, which hold their storage and their linear
structure; this module adds their products and the xi_n calculus.

The five boundary contributions are assembled from their definitions: the
(r, l, j, k, alpha) data fixes which derivatives hit the projected factor
and which hit the plain factor, the spinor trace removes Clifford content,
odd tangential monomials integrate to zero and even ones to exact multiples
of the S^4 volume, and the xi_n line integral is evaluated by residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import comb, factorial

from .calculus import build_q_symbols, invert_symbol
from .clifford import TRACE_ID, _merge_words, word_str
from .interior import sphere_moment
from .scalars import (
    G_I,
    G_ONE,
    GaussRat,
    ScalarExpr,
    SparseSum,
    _accumulate,
    _as_scalar,
    omega4,
    pi_atom,
    sc,
)
from .symbols import (
    BOUNDARY,
    N_COORD,
    SymbolExpr,
)


class DecayError(ValueError):
    """Contour integral of a non-decaying rational function."""


# ---------------------------------------------------------------------------
# XiRat

# A basis element (s, k) is xi_n^k for s = 0 (k >= 0) and (xi_n - s i)^-k
# for s = +1 or -1 (k >= 1).
_UNIT = (0, 0)
_HALF_OVER_I = GaussRat(0, Fraction(-1, 2))     # 1/(2i)


def _pole(s: int, k: int) -> tuple:
    return (s, k) if k else _UNIT


@lru_cache(maxsize=None)
def _basis_mul(u: tuple, v: tuple) -> tuple:
    """The product of two basis elements as ((basis, GaussRat), ...).

    Uses xi (xi - p)^-k = (xi - p)^-(k-1) + p (xi - p)^-k and
    1/((xi - i)(xi + i)) = (1/2i) [1/(xi - i) - 1/(xi + i)].
    """
    if u == _UNIT or v == _UNIT:
        return ((v if u == _UNIT else u, G_ONE),)
    if u[0] == v[0]:
        return (((u[0], u[1] + v[1]), G_ONE),)
    if u[0] and v[0]:
        (_, a), (_, b) = sorted((u, v), reverse=True)   # (xi-i)^-a (xi+i)^-b
        parts = ((_HALF_OVER_I, (1, a), _pole(-1, b - 1)),
                 (-_HALF_OVER_I, _pole(1, a - 1), (-1, b)))
    else:
        (_, m), (t, k) = sorted((u, v), key=lambda e: e[0] != 0)  # xi^m (xi - t i)^-k
        parts = ((G_ONE, (0, m - 1), _pole(t, k - 1)),
                 (GaussRat(0, t), (0, m - 1), (t, k)))
    out: dict = {}
    for c, x, y in parts:
        for w, d in _basis_mul(x, y):
            _accumulate(out, w, c * d)
    return tuple(out.items())


class XiRat(SparseSum):
    """A rational function of xi_n with poles only at +-i, kept as its
    partial-fraction expansion ``terms: {(s, k): ScalarExpr}`` (see
    ``_basis_mul`` for the basis)."""

    __slots__ = ()

    @staticmethod
    def const(e) -> "XiRat":
        return XiRat({_UNIT: _as_scalar(e)})

    @staticmethod
    def xin(power: int = 1) -> "XiRat":
        return XiRat({(0, power): ScalarExpr.one()})

    @staticmethod
    def ratio(num, a: int = 0, b: int = 0) -> "XiRat":
        """num(xi_n) / ((xi_n - i)^a (xi_n + i)^b), num ascending in xi_n."""
        if a < 0 or b < 0:
            raise ValueError("pole orders must be nonnegative")
        poly = XiRat({(0, k): _as_scalar(c) for k, c in enumerate(num)})
        one = ScalarExpr.one()
        return poly * XiRat({_pole(1, a): one}) * XiRat({_pole(-1, b): one})

    @staticmethod
    def inv_norm(p: int) -> "XiRat":
        """(1 + xi_n^2)^(-p) for p >= 0."""
        return XiRat.ratio((ScalarExpr.one(),), p, p)

    def __mul__(self, other: "XiRat") -> "XiRat":
        if not isinstance(other, XiRat):
            return NotImplemented
        out: dict = {}
        for u, c in self.terms.items():
            for v, d in other.terms.items():
                cd = c * d
                for w, g in _basis_mul(u, v):
                    _accumulate(out, w, cd * g)
        return XiRat(out)

    def scale(self, e) -> "XiRat":
        e = _as_scalar(e)
        return XiRat({key: c * e for key, c in self.terms.items()})

    def derive(self) -> "XiRat":
        """d/dxi_n, term by term."""
        out = {}
        for (s, k), c in self.terms.items():
            if s:
                out[(s, k + 1)] = c * -k
            elif k:
                out[(0, k - 1)] = c * k
        return XiRat(out)

    # -- the upper-half-plane data ------------------------------------------

    def pi_plus(self) -> "XiRat":
        """Principal part at xi_n = +i (poles at -i and polynomials die)."""
        return XiRat({key: c for key, c in self.terms.items() if key[0] == 1})

    def residue_at_i(self) -> ScalarExpr:
        return self.terms.get((1, 1), ScalarExpr.zero())

    def decays(self) -> bool:
        return all(s for s, _ in self.terms)

    def contour_integral(self) -> ScalarExpr:
        """Closed-contour integral around +i: 2 pi i x residue.

        Equals the real-line integral for decaying integrands with poles
        only at +-i.  Returns a ScalarExpr multiple of the pi atom.
        """
        if not self.decays():
            raise DecayError("integrand does not decay at infinity")
        res = self.residue_at_i()
        return res * ScalarExpr.const(GaussRat(2) * G_I) * pi_atom()

    def contour_integral_cauchy(self) -> ScalarExpr:
        """Independent route: (2 pi i/(a-1)!) d^(a-1)/dxi^(a-1)[(xi-i)^a r] at i."""
        if not self.decays():
            raise DecayError("integrand does not decay at infinity")
        a = max((k for s, k in self.terms if s == 1), default=0)
        if a == 0:
            return ScalarExpr.zero()
        g = self * XiRat({(0, j): ScalarExpr.const(comb(a, j) * (-G_I) ** (a - j))
                          for j in range(a + 1)})
        for _ in range(a - 1):
            g = g.derive()
        # (xi - i)^a r has no pole at +i: xi^k -> i^k, (xi + i)^-k -> (2i)^-k
        val = ScalarExpr.zero()
        for (s, k), c in g.terms.items():
            if s == 1:
                raise ValueError("(xi_n - i)^a r keeps a pole at +i")
            val = val + c * (G_I ** k if s == 0 else GaussRat(0, 2) ** -k)
        scale = GaussRat(2) * G_I / GaussRat(factorial(a - 1))
        return val * ScalarExpr.const(scale) * pi_atom()

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (s, k), c in sorted(self.terms.items()):
            if s:
                base = f"(xin{'-' if s > 0 else '+'}i)^-{k}"
            else:
                base = "1" if k == 0 else ("xin" if k == 1 else f"xin^{k}")
            parts.append(f"({c})*{base}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# BoundaryExpr: tangential monomial x Clifford word -> XiRat


class BoundaryExpr(SparseSum):
    """Symbol content on the slice |xi'| = 1 with free xi_n:
    ``terms: {(tangential xi exponents, Clifford word): XiRat}``."""

    __slots__ = ()

    @staticmethod
    def from_symbol(S: SymbolExpr) -> "BoundaryExpr":
        """Restrict to |xi'| = 1: |xi|^2 -> 1 + xi_n^2, xi_n powers folded in."""
        out: dict = {}
        for (exps, p), el in S.terms.items():
            xp = tuple(exps[:N_COORD - 1])
            n_pow = exps[N_COORD - 1]
            if p >= 0:
                norm = XiRat({(0, 2 * k): sc(comb(p, k)) for k in range(p + 1)})
            else:
                norm = XiRat.inv_norm(-p)
            base = XiRat.xin(n_pow) * norm
            for w, coeff in el.terms.items():
                _accumulate(out, (xp, w), base.scale(coeff))
        return BoundaryExpr(out)

    def mul(self, other: "BoundaryExpr") -> "BoundaryExpr":
        out: dict = {}
        for (xp1, w1), r1 in self.terms.items():
            for (xp2, w2), r2 in other.terms.items():
                sign, w = _merge_words(w1, w2)
                xp = tuple(a + b for a, b in zip(xp1, xp2))
                rat = r1 * r2
                _accumulate(out, (xp, w), -rat if sign < 0 else rat)
        return BoundaryExpr(out)

    def derive_xin(self) -> "BoundaryExpr":
        return BoundaryExpr({k: r.derive() for k, r in self.terms.items()})

    def pi_plus(self) -> "BoundaryExpr":
        return BoundaryExpr({k: r.pi_plus() for k, r in self.terms.items()})

    def trace(self) -> "BoundaryExpr":
        """Spinor trace: keeps the empty word, multiplied by tr[id] = 8."""
        return BoundaryExpr({key: r.scale(sc(TRACE_ID))
                             for key, r in self.terms.items() if not key[1]})

    def integrate_tangential(self) -> XiRat:
        """Integrate over |xi'| = 1 (S^4 moments); result times Omega_4."""
        total = XiRat.zero()
        for (xp, w), r in self.terms.items():
            if w:
                raise ValueError("trace before tangential integration")
            m = sphere_moment(xp, n=5)
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


@dataclass(frozen=True)
class BoundaryCaseResult:
    case: str
    value: ScalarExpr          # multiple of pi * Omega_4
    paper: ScalarExpr
    verdict: str               # "match" | "diff (ledgered)" | "diff"
    ledger_key: str | None = None


CASE_DATA = {
    "a.I": dict(r=-2, l=-2, j=0, k=0, nalpha=1),
    "a.II": dict(r=-2, l=-2, j=1, k=0, nalpha=0),
    "a.III": dict(r=-2, l=-2, j=0, k=1, nalpha=0),
    "b": dict(r=-2, l=-3, j=0, k=0, nalpha=0),
    "c": dict(r=-3, l=-2, j=0, k=0, nalpha=0),
}

CASE_ALIASES = {"a1": "a.I", "a2": "a.II", "a3": "a.III", "b": "b", "c": "c",
                "a.I": "a.I", "a.II": "a.II", "a.III": "a.III"}


def phi_case_value(case: str) -> ScalarExpr:
    """Exact value of one boundary contribution (multiple of pi Omega_4)."""
    data = CASE_DATA[case]
    r, l, j, k, nalpha = data["r"], data["l"], data["j"], data["k"], data["nalpha"]
    par = boundary_parametrix()
    prefactor = ((-G_I) ** (nalpha + j + k + 1)
                 * GaussRat(Fraction(1, factorial(j + k + 1))))

    alphas = [()] if nalpha == 0 else [(a,) for a in range(1, N_COORD)]
    total = XiRat.zero()
    for alpha in alphas:
        left_sym = par.b2 if r == -2 else par.b3
        for _ in range(j):
            left_sym = left_sym.derive_x(N_COORD, BOUNDARY)
        for a in alpha:
            left_sym = left_sym.derive_xi(a)
        left = BoundaryExpr.from_symbol(left_sym).pi_plus()
        for _ in range(k):
            left = left.derive_xin()

        right_sym = par.b2 if l == -2 else par.b3
        for a in alpha:
            right_sym = right_sym.derive_x(a, BOUNDARY)
        for _ in range(k):
            right_sym = right_sym.derive_x(N_COORD, BOUNDARY)
        right = BoundaryExpr.from_symbol(right_sym)
        for _ in range(j + 1):
            right = right.derive_xin()

        total = total + left.mul(right).trace().integrate_tangential()

    line_integral = total.contour_integral()
    return line_integral * ScalarExpr.const(prefactor)


def phi_case(case: str, specialize=None, ledger=None) -> BoundaryCaseResult:
    from . import tables

    case = CASE_ALIASES[case]
    return BoundaryCaseResult(case, *tables.judge(
        f"boundary/case-{case}", phi_case_value(case),
        tables.printed_boundary_value(case), specialize, ledger))


def phi_total(specialize=None) -> ScalarExpr:
    total = ScalarExpr.zero()
    for case in CASE_DATA:
        total = total + phi_case_value(case)
    if specialize is not None:
        total = total.map_func_atoms(specialize)
    return total
