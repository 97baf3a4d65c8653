"""Graded symbol algebra in xi with ScalarExpr x Clifford coefficients.

A symbol is a ``scalars.SparseSum`` over xi-monomials: one flat map from
xi-monomial to Clifford element (whose coefficients are ScalarExpr).  A
xi-monomial is a pair ``(exps, p)`` meaning ``xi_1^e1 ... xi_6^e6 *
|xi|^(2p)``; |xi|^2 is a first-class generator so negative powers stay
exact, and the relation sum_j xi_j^2 = |xi|^2 is applied only by the
restriction maps and by sphere integration.  A term's homogeneity order is
the degree of its monomial, so it is read from the key and never stored;
``SymbolExpr.orders`` is the view grouped by order.  The product is the
one of ``scalars.SparseSum``; this module gives the product of two
xi-monomials.

Point contexts fix the evaluation rules at the computation point:

* Interior: normal coordinates at an interior point.  Connection atoms
  vanish, x-derivatives of metric quantities vanish, d/dx of c(xi) vanishes.
* Boundary: collar coordinates at a boundary point.  d/dx_n |xi|^2 produces
  w'(0)|xi'|^2 and the connection atoms take their boundary values
  (Gam[n] -> 5/2 w', sig[k] -> 1/4 w' c_k c_n for k < n, sig[n] -> 0).

Connection atoms are evaluated by ``apply_context`` before Q is assembled and
the curvature enters only through the imported Riemann term of b_-4 (see the
calculus module), so ``derive_x`` raises on a curvature or connection atom.

The real gauge
--------------
Cl_{0,6} is the real matrix algebra M_8(R) (Lawson and Michelsohn, "Spin
Geometry", Ch. I 4), so every coefficient of xi-degree k of the symbols
this computation builds lies in i^k Q.  Each term is therefore stored as the
rational r = i^-k c of its coefficient c, which is the substitution
xi = -i eta: a stored symbol is p(x, -i eta) written in the variable eta,
and the monomial keys keep the names xi.  Pointwise products and
x-derivatives act on r as on c; d/d eta = -i d/d xi, so the composition sum
loses its factors (-i)^|alpha|.  The number i appears at two edges only:
``tables`` reads the printed symbols, which are written in xi, into the
gauge, and ``SymbolExpr.dump_lines`` writes each coefficient back as i^k r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement
from math import factorial

from .clifford import CliffordElement, word_str
from .scalars import (
    CONNECTION_KINDS,
    ScalarExpr,
    SparseSum,
    _accumulate,
    _as_scalar,
    mul_into,
    sc,
    wp,
)

N_COORD = 6  # the distinguished normal coordinate index is 6

XiMon = tuple  # ((e1..e6), p)

XIM_ONE: XiMon = ((0, 0, 0, 0, 0, 0), 0)


def xim_xi(j: int) -> XiMon:
    e = [0] * 6
    e[j - 1] = 1
    return (tuple(e), 0)


def xim_norm(p: int) -> XiMon:
    return ((0, 0, 0, 0, 0, 0), p)


def xim_mul(a: XiMon, b: XiMon) -> XiMon:
    return (tuple(x + y for x, y in zip(a[0], b[0])), a[1] + b[1])


def xim_degree(a: XiMon) -> int:
    return sum(a[0]) + 2 * a[1]


def xim_str(a: XiMon) -> str:
    parts = []
    for j, e in enumerate(a[0], start=1):
        if e == 1:
            parts.append(f"xi{j}")
        elif e:
            parts.append(f"xi{j}^{e}")
    if a[1]:
        parts.append(f"|xi|^{2 * a[1]}")
    return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointContext:
    """Evaluation mode at the computation point; dimension fixed at 6."""

    mode: str  # "interior" | "boundary"

    def __post_init__(self):
        if self.mode not in ("interior", "boundary"):
            raise ValueError("mode must be 'interior' or 'boundary'")

    @property
    def is_boundary(self) -> bool:
        return self.mode == "boundary"


INTERIOR = PointContext("interior")
BOUNDARY = PointContext("boundary")


class SymbolExpr(SparseSum):
    """Graded symbol: ``terms: {xi-monomial: CliffordElement}``.

    A term's homogeneity order is the degree of its xi-monomial;
    ``orders`` groups the terms by it.  ``mul`` is the pointwise product,
    without the derivative corrections of ``compose``.
    """

    __slots__ = ()
    _value = CliffordElement

    @staticmethod
    def _key_mul(m1: XiMon, m2: XiMon) -> tuple:
        return ((xim_mul(m1, m2), 1),)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def term(mono: XiMon, el: CliffordElement) -> "SymbolExpr":
        return SymbolExpr({mono: el})

    @staticmethod
    def scalar_term(mono: XiMon, coeff: ScalarExpr) -> "SymbolExpr":
        return SymbolExpr.term(mono, CliffordElement.identity(coeff))

    @staticmethod
    def xi_covector() -> "SymbolExpr":
        """c(xi) = sum_j xi_j c_j as an order-1 symbol."""
        return xi_linear(CliffordElement.generator)

    @staticmethod
    def norm_sq(p: int = 1, coeff=1) -> "SymbolExpr":
        return SymbolExpr.scalar_term(xim_norm(p), _as_scalar(coeff))

    def cliff_lmul(self, c: CliffordElement) -> "SymbolExpr":
        return self.map(c.mul)

    # -- homogeneity orders ----------------------------------------------------

    @property
    def orders(self) -> dict:
        """The terms grouped by order: {order: {xi-monomial: CliffordElement}}."""
        out: dict = {}
        for mono, el in self.terms.items():
            out.setdefault(xim_degree(mono), {})[mono] = el
        return out

    def order_part(self, k: int) -> "SymbolExpr":
        return SymbolExpr({m: el for m, el in self.terms.items()
                           if xim_degree(m) == k})

    def top_order(self) -> int:
        if not self.terms:
            raise ValueError("zero symbol has no top order")
        return max(map(xim_degree, self.terms))

    def sorted_terms(self):
        """Terms by order descending, then by xi-monomial."""
        return sorted(self.terms.items(), key=lambda kv: (-xim_degree(kv[0]), kv[0]))

    # -- xi-derivative ---------------------------------------------------------

    def derive_xi(self, mu: int) -> "SymbolExpr":
        """d/dxi_mu; every term drops by one homogeneity order."""
        if not 1 <= mu <= 6:
            raise ValueError("xi index out of range")
        out: dict = {}
        for (exps, p), el in self.terms.items():
            e_mu = exps[mu - 1]
            if e_mu:
                new = list(exps)
                new[mu - 1] -= 1
                _accumulate(out, (tuple(new), p), el.scale(sc(e_mu)))
            if p:
                new = list(exps)
                new[mu - 1] += 1
                _accumulate(out, (tuple(new), p - 1), el.scale(sc(2 * p)))
        return SymbolExpr(out)

    # -- x-derivative under a point context -----------------------------------

    def derive_x(self, j: int, ctx: PointContext) -> "SymbolExpr":
        """d/dx_j at the computation point under the context rules.

        Scalar coefficients differentiate by ``ScalarExpr.derive_x``, which
        raises on a curvature or connection atom; |xi|^(2p) contributes
        p * w'(0) |xi'|^2 |xi|^(2p-2) in boundary mode for j = n and nothing
        otherwise; Clifford words are covariantly constant at the point in
        interior mode.
        """
        out: dict = {}
        boundary_n = ctx.is_boundary and j == N_COORD
        for (exps, p), el in self.terms.items():
            dcoeff = el.map(lambda c: c.derive_x(j))
            if dcoeff:
                _accumulate(out, (exps, p), dcoeff)
            if boundary_n:
                if any(w for w in el.terms):
                    # d/dx_n of Clifford content at the boundary point is
                    # a frame derivative this computation never needs
                    raise NotImplementedError(
                        "normal derivative of Clifford content")
                if p:
                    # d/dx_n |xi|^(2p) = p w'(0) |xi'|^2 |xi|^(2p-2),
                    # with |xi'|^2 = |xi|^2 - xi_n^2
                    base = el.scale(wp() * sc(p))
                    _accumulate(out, (exps, p), base)
                    xn2 = list(exps)
                    xn2[N_COORD - 1] += 2
                    _accumulate(out, (tuple(xn2), p - 1), -base)
        return SymbolExpr(out)

    # -- display ----------------------------------------------------------------

    def dump_lines(self) -> list[str]:
        """One line per term, its coefficient written as i^k r in xi."""
        return [f"order={xim_degree(mono)} | {_xi_gauge_str(c, xim_degree(mono))} "
                f"| xi={xim_str(mono)} | cliff={word_str(w)}"
                for mono, el in self.sorted_terms() for w, c in el.sorted_terms()]

    def __str__(self):
        return "\n".join(self.dump_lines()) or "0"

    def __repr__(self):
        return (f"<SymbolExpr orders={sorted(self.orders, reverse=True)} "
                f"terms={len(self.terms)}>")


def _xi_gauge_str(r: ScalarExpr, k: int) -> str:
    """i^k r, the coefficient in xi of a term of degree k stored as r."""
    sign = -1 if k % 4 >= 2 else 1
    if k % 2 == 0:
        return str(r if sign > 0 else -r)

    def imaginary(b):  # sign * b * i, written as the product of its parts
        b *= sign
        return False, "i" if b == 1 else "-i" if b == -1 else f"{b}*i"

    return r.render(imaginary)


def _xi_form(coeffs: dict) -> SymbolExpr:
    """The symbol {xi-monomial: coefficient}, scalar coefficients as the
    identity element times the scalar."""
    return SymbolExpr({
        m: c if isinstance(c, CliffordElement) else CliffordElement.identity(c)
        for m, c in coeffs.items()})


def xi_linear(v) -> SymbolExpr:
    """sum_j v(j) xi_j; v(j) is a ScalarExpr or a CliffordElement."""
    return _xi_form({xim_xi(j): v(j) for j in range(1, 7)})


def xi_quadratic(q) -> SymbolExpr:
    """sum_jl q(j, l) xi_j xi_l with scalar q(j, l)."""
    coeffs: dict = {}
    for j in range(1, 7):
        for l in range(1, 7):
            _accumulate(coeffs, xim_mul(xim_xi(j), xim_xi(l)), q(j, l))
    return _xi_form(coeffs)


# ---------------------------------------------------------------------------
# Context evaluation of connection atoms
#
# At a boundary point in collar coordinates only three connection quantities
# are nonzero (Wang, Lett. Math. Phys. 2007): Gam^n = 5/2 w'(0),
# sig^k = 1/4 w'(0) c_k c_n and omega_{n,k}(e_k) = 1/2 w'(0) for k < n, the
# last stored as om[k, k, n] = -1/2 w'(0).

_BOUNDARY_CONNECTION = {
    ("Gam", N_COORD): CliffordElement.identity(sc(5, 2) * wp()),
    **{("sig", k): CliffordElement.word((k, N_COORD), sc(1, 4) * wp())
       for k in range(1, N_COORD)},
    **{("om", k, k, N_COORD): CliffordElement.identity(sc(-1, 2) * wp())
       for k in range(1, N_COORD)},
}


def _connection_value(atom, ctx: PointContext) -> CliffordElement:
    """Value of a connection atom at the point: the table above at a
    boundary point, zero for every other atom and at an interior point."""
    if ctx.is_boundary:
        return _BOUNDARY_CONNECTION.get(atom, CliffordElement.zero())
    return CliffordElement.zero()


def apply_context(S: SymbolExpr, ctx: PointContext) -> SymbolExpr:
    """Evaluate the connection atoms (Gam, sig, om, curv0) at the point.

    Each scalar monomial keeps its other atoms as one monomial (a sub-tuple
    of a canonical monomial is canonical), is multiplied by the values of
    its connection atoms in canonical atom order and then by its Clifford
    word on the right, so sig values multiply from the left.  Q is assembled
    after this is applied to sigma(D^2) and sigma(D), where no monomial has
    two connection atoms, so the order of that fold never matters.
    """
    raw: dict = {}
    for xm, el in S.terms.items():
        acc = raw.setdefault(xm, {})
        for w, coeff in el.terms.items():
            word = CliffordElement({w: ScalarExpr.one()})
            for mono, c in coeff.terms.items():
                keep = tuple((a, e) for a, e in mono
                             if a[0] not in CONNECTION_KINDS)
                value = CliffordElement.identity(ScalarExpr({keep: c}))
                for atom, exp in mono:
                    if atom[0] in CONNECTION_KINDS:
                        for _ in range(exp):
                            value = value * _connection_value(atom, ctx)
                mul_into(acc, value, word)
    return SymbolExpr._of_raw(raw)


# ---------------------------------------------------------------------------
# Composition


def compose(A: SymbolExpr, B: SymbolExpr, lowest_order: int,
            ctx: PointContext = INTERIOR) -> SymbolExpr:
    """Asymptotic product sum_alpha 1/a! d_eta^a A * d_x^a B.

    In the real gauge this is the usual sum_alpha (-i)^|a|/a! d_xi^a A d_x^a B:
    each d/d eta is -i d/d xi.  Truncated below ``lowest_order``; the
    multi-index sum runs over every alpha that can still contribute at or
    above the truncation.  Order pairs falling below the cutoff are skipped
    before any derivative is taken, so the derivative-order bound is never
    exercised by discarded terms, and every product that is made lies at or
    above the cutoff.  All products add, with 1/a! folded into their
    coefficients, into one raw dict.
    """
    if not A or not B:
        return SymbolExpr.zero()
    top = A.top_order() + B.top_order()
    if top < lowest_order:
        raise ValueError("truncation bound incompatible with input orders")
    max_k = top - lowest_order
    parts_a = {o: SymbolExpr(t) for o, t in A.orders.items()}
    parts_b = {o: SymbolExpr(t) for o, t in B.orders.items()}
    raw: dict = {}
    for k in range(max_k + 1):
        for alpha in combinations_with_replacement(range(1, 7), k):
            fact = 1
            for j in set(alpha):
                fact *= factorial(alpha.count(j))
            scale = 1 if fact == 1 else Fraction(1, fact)
            dA_cache: dict[int, SymbolExpr] = {}
            dB_cache: dict[int, SymbolExpr] = {}
            for a, part_a in parts_a.items():
                for b, part_b in parts_b.items():
                    if a - k + b < lowest_order:
                        continue
                    if a not in dA_cache:
                        dA_cache[a] = reduce(SymbolExpr.derive_xi, alpha, part_a)
                    dA = dA_cache[a]
                    if not dA:
                        continue
                    if b not in dB_cache:
                        dB_cache[b] = reduce(lambda p, mu: p.derive_x(mu, ctx),
                                             alpha, part_b)
                    mul_into(raw, dA, dB_cache[b], scale)
    return SymbolExpr._of_raw(raw)
