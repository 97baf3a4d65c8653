"""Boundary engine: xi_n-rational calculus, projections, and the five cases.

On the boundary slice |xi'| = 1 every integrand is a rational function of
xi_n with poles only at +-i and coefficients in the scalar ring (tensored
with the Gaussian rationals), times a tangential monomial and a Clifford
word.  ``XiRat`` implements that rational-function arithmetic exactly:
sums and products kept as built and compared by value, d/dxi_n, the
projection onto the principal part at +i (the content of the upper
half-plane projection on rational symbols), and the closed contour
integral around +i by the Cauchy derivative formula.

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
from .clifford import TRACE_ID
from .interior import sphere_moment
from .scalars import (
    G_I,
    G_ONE,
    G_ZERO,
    GaussRat,
    ScalarExpr,
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
    apply_context,
)


class DecayError(ValueError):
    """Contour integral of a non-decaying rational function."""


# ---------------------------------------------------------------------------
# Polynomial helpers (coefficients are ScalarExpr, variable is xi_n)


def _poly_trim(cs: list[ScalarExpr]) -> tuple[ScalarExpr, ...]:
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def _poly_add(p, q):
    n = max(len(p), len(q))
    out = []
    for k in range(n):
        a = p[k] if k < len(p) else ScalarExpr.zero()
        b = q[k] if k < len(q) else ScalarExpr.zero()
        out.append(a + b)
    return _poly_trim(out)


def _poly_mul(p, q):
    if not p or not q:
        return ()
    out = [ScalarExpr.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return _poly_trim(out)


def _poly_scale(p, s: ScalarExpr):
    return _poly_trim([c * s for c in p])


def _poly_eval(p, z: GaussRat) -> ScalarExpr:
    out = ScalarExpr.zero()
    zk = G_ONE
    for c in p:
        out = out + c * zk
        zk = zk * z
    return out


def _linear_power(r: GaussRat, k: int):
    """(x - r)^k as an ascending coefficient tuple over ScalarExpr."""
    cs = []
    for j in range(k + 1):
        coeff = GaussRat(comb(k, j)) * (-r) ** (k - j)
        cs.append(ScalarExpr.const(coeff))
    return _poly_trim(cs)


_PLUS_I = G_I
_MINUS_I = -G_I


# ---------------------------------------------------------------------------
# XiRat


class XiRat:
    """num(xi_n) / ((xi_n - i)^a (xi_n + i)^b), coefficients in ScalarExpr."""

    __slots__ = ("num", "a", "b")

    def __init__(self, num, a: int = 0, b: int = 0):
        if a < 0 or b < 0:
            raise ValueError("pole orders must be nonnegative")
        num = _poly_trim([_as_scalar(c) for c in num])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("XiRat is immutable")

    @staticmethod
    def zero() -> "XiRat":
        return XiRat((), 0, 0)

    @staticmethod
    def const(e) -> "XiRat":
        return XiRat((_as_scalar(e),), 0, 0)

    @staticmethod
    def xin(power: int = 1) -> "XiRat":
        return XiRat([ScalarExpr.zero()] * power + [ScalarExpr.one()], 0, 0)

    @staticmethod
    def inv_norm(p: int) -> "XiRat":
        """(1 + xi_n^2)^(-p) for p >= 0."""
        return XiRat((ScalarExpr.one(),), p, p)

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, XiRat):
            return NotImplemented
        return not (self - other).num

    def __add__(self, other: "XiRat") -> "XiRat":
        if not isinstance(other, XiRat):
            return NotImplemented
        a = max(self.a, other.a)
        b = max(self.b, other.b)
        p = _poly_mul(self.num, _poly_mul(_linear_power(_PLUS_I, a - self.a),
                                          _linear_power(_MINUS_I, b - self.b)))
        q = _poly_mul(other.num, _poly_mul(_linear_power(_PLUS_I, a - other.a),
                                           _linear_power(_MINUS_I, b - other.b)))
        return XiRat(_poly_add(p, q), a, b)

    def __neg__(self):
        return XiRat(tuple(-c for c in self.num), self.a, self.b)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "XiRat") -> "XiRat":
        if not isinstance(other, XiRat):
            return NotImplemented
        return XiRat(_poly_mul(self.num, other.num), self.a + other.a, self.b + other.b)

    def scale(self, e) -> "XiRat":
        return XiRat(_poly_scale(self.num, _as_scalar(e)), self.a, self.b)

    def derive(self) -> "XiRat":
        """d/dxi_n by the quotient rule; only a pole already present rises."""
        n = list(self.num)
        dnum = _poly_trim([n[k] * GaussRat(k) for k in range(1, len(n))])
        # d/dx [N / (Lm^a Lp^b)] with Lm = x - i, Lp = x + i is
        #   [N' Lm Lp - a N Lp - b N Lm] / (Lm^(a+1) Lp^(b+1));
        # a factor whose exponent is 0 cancels, so it is left out
        lin_m = _linear_power(_PLUS_I, 1 if self.a else 0)
        lin_p = _linear_power(_MINUS_I, 1 if self.b else 0)
        term1 = _poly_mul(dnum, _poly_mul(lin_m, lin_p))
        corr = _poly_add(_poly_scale(lin_p, ScalarExpr.const(GaussRat(self.a))),
                         _poly_scale(lin_m, ScalarExpr.const(GaussRat(self.b))))
        term2 = _poly_mul(self.num, corr)
        return XiRat(_poly_add(term1, tuple(-c for c in term2)),
                     self.a + (self.a > 0), self.b + (self.b > 0))

    # -- the upper-half-plane data ------------------------------------------

    def _upper_taylor(self, count: int):
        """Taylor coefficients of num(i+t)/(t+2i)^b in t, first ``count``."""
        # num(i + t)
        shifted = [ScalarExpr.zero()] * len(self.num)
        for k, c in enumerate(self.num):
            for j in range(k + 1):
                coeff = GaussRat(comb(k, j)) * _PLUS_I ** (k - j)
                shifted[j] = shifted[j] + c * coeff
        # (t + 2i)^(-b) expanded at t = 0
        out = []
        for m in range(count):
            acc = ScalarExpr.zero()
            for j in range(m + 1):
                if j >= len(shifted):
                    break
                k = m - j
                coeff = (GaussRat((-1) ** k * comb(self.b + k - 1, k))
                         * (GaussRat(2) * _PLUS_I) ** (-self.b - k)) if self.b else \
                    (G_ONE if k == 0 else G_ZERO)
                acc = acc + shifted[j] * coeff
            out.append(acc)
        return out

    def pi_plus(self) -> "XiRat":
        """Principal part at xi_n = +i (poles at -i and polynomials die)."""
        if self.a == 0:
            return XiRat.zero()
        coeffs = self._upper_taylor(self.a)
        num = ()
        for m, c in enumerate(coeffs):
            num = _poly_add(num, _poly_scale(_linear_power(_PLUS_I, m), c))
        return XiRat(num, self.a, 0)

    def pi_minus(self) -> "XiRat":
        return self - self.pi_plus()

    def residue_at_i(self) -> ScalarExpr:
        if self.a == 0:
            return ScalarExpr.zero()
        return self._upper_taylor(self.a)[self.a - 1]

    def decays(self) -> bool:
        return len(self.num) - 1 < self.a + self.b if self.num else True

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
        if self.a == 0:
            return ScalarExpr.zero()
        g = XiRat(self.num, 0, self.b)
        for _ in range(self.a - 1):
            g = g.derive()
        val = _poly_eval(g.num, _PLUS_I)
        denom_val = (GaussRat(2) * G_I) ** g.b
        scale = G_ONE / denom_val / GaussRat(factorial(self.a - 1))
        return val * ScalarExpr.const(scale * GaussRat(2) * G_I) * pi_atom()

    def evaluate_complex(self, assign, z: complex) -> complex:
        num = sum(c.evaluate_complex(assign) * z ** k for k, c in enumerate(self.num))
        return num / ((z - 1j) ** self.a * (z + 1j) ** self.b)

    def __str__(self):
        if not self.num:
            return "0"
        terms = []
        for k, c in enumerate(self.num):
            if c.is_zero():
                continue
            mono = "" if k == 0 else ("xin" if k == 1 else f"xin^{k}")
            terms.append(f"({c})" + (f"*{mono}" if mono else ""))
        num = " + ".join(terms)
        den = []
        if self.a:
            den.append(f"(xin-i)^{self.a}" if self.a > 1 else "(xin-i)")
        if self.b:
            den.append(f"(xin+i)^{self.b}" if self.b > 1 else "(xin+i)")
        return f"[{num}]" + (f" / ({'*'.join(den)})" if den else "")

    def __repr__(self):
        return f"<XiRat {self}>"


# ---------------------------------------------------------------------------
# BoundaryExpr: tangential monomial x Clifford word -> XiRat


class BoundaryExpr:
    """Symbol content on the slice |xi'| = 1 with free xi_n."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, rat in terms.items():
                if rat:
                    clean[key] = rat
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BoundaryExpr is immutable")

    @staticmethod
    def zero() -> "BoundaryExpr":
        return BoundaryExpr({})

    @staticmethod
    def from_symbol(S: SymbolExpr) -> "BoundaryExpr":
        """Restrict to |xi'| = 1: |xi|^2 -> 1 + xi_n^2, xi_n powers folded in."""
        out: dict = {}
        for o, terms in S.orders.items():
            for (exps, p), el in terms.items():
                xp = tuple(exps[:N_COORD - 1])
                n_pow = exps[N_COORD - 1]
                if p >= 0:
                    base = XiRat.xin(n_pow) * XiRat(
                        _poly_mul_pow((ScalarExpr.one(), ScalarExpr.zero(),
                                       ScalarExpr.one()), p), 0, 0)
                else:
                    base = XiRat.xin(n_pow) * XiRat.inv_norm(-p)
                for w, coeff in el.terms.items():
                    _accumulate(out, (xp, w), base.scale(coeff))
        return BoundaryExpr(out)

    def __add__(self, other):
        out = dict(self.terms)
        for key, rat in other.terms.items():
            _accumulate(out, key, rat)
        return BoundaryExpr(out)

    def __neg__(self):
        return BoundaryExpr({k: -r for k, r in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        if not isinstance(other, BoundaryExpr):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def mul(self, other: "BoundaryExpr") -> "BoundaryExpr":
        from .clifford import _merge_words
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
            from .clifford import word_str
            mono = "*".join(f"xi{j+1}^{e}" if e > 1 else f"xi{j+1}"
                            for j, e in enumerate(xp) if e) or "1"
            lines.append(f"xiprime={mono} | cliff={word_str(w)} | {r}")
        return "\n".join(lines)


def _poly_mul_pow(base, p: int):
    out = (ScalarExpr.one(),)
    for _ in range(p):
        out = _poly_mul(out, base)
    return out


# ---------------------------------------------------------------------------
# Boundary inverse symbols


@lru_cache(maxsize=None)
def boundary_parametrix():
    q = apply_context(build_q_symbols(), BOUNDARY)
    return invert_symbol(q, BOUNDARY)


def boundary_sigma(k: int) -> BoundaryExpr:
    """sigma_k of Q^-1 at the boundary point restricted to |xi'| = 1."""
    par = boundary_parametrix()
    if k == -2:
        return BoundaryExpr.from_symbol(par.b2)
    if k == -3:
        return BoundaryExpr.from_symbol(par.b3)
    raise ValueError("boundary symbols are computed at orders -2 and -3 only")


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
