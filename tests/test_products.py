"""The flat products against a term-by-term reference.

``CliffordElement.__mul__``, ``SymbolExpr.mul`` and ``compose`` add every
key x word x monomial product into one raw nested dict through
``scalars.mul_into``, the product loop that every ``SparseSum`` container
shares; a container gives only the product of two of its keys.  The
reference below is the direct algorithm: one ``ScalarExpr`` product per pair
of terms, a canonical word from ``_merge_words`` with its sign, and the
pieces summed with ``+``; ``compose`` differentiates whole symbols and
truncates at the end.  Inputs are seeded random elements and symbols, plus
products built to cancel.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod

import pytest

from wres6.clifford import CliffordElement, _merge_words
from wres6.scalars import (
    ScalarExpr,
    _mono_mul,
    f_pow,
    fh_pow,
    h_pow,
    s_atom,
    wp,
)
from wres6.symbols import (
    BOUNDARY,
    INTERIOR,
    XIM_ONE,
    SymbolExpr,
    compose,
    xim_degree,
    xim_mul,
    xim_xi,
)

from oracles import dfunc

# scalar factors; the underived ones may be differentiated twice, so they
# make the right factor of compose, and s, a value at the point, may not
UNDERIVED = [f_pow(1), h_pow(-1), fh_pow(-2), wp()]
FACTORS = UNDERIVED + [s_atom(), dfunc("f", 1), dfunc("h", 2, 6), dfunc("f", 3, 3)]


def ref_clifford_mul(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    total = CliffordElement.zero()
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            sign, w = _merge_words(w1, w2)
            c = c1 * c2
            total = total + CliffordElement({w: c if sign > 0 else -c})
    return total


def ref_symbol_mul(a: SymbolExpr, b: SymbolExpr) -> SymbolExpr:
    total = SymbolExpr.zero()
    for m1, e1 in a.terms.items():
        for m2, e2 in b.terms.items():
            total = total + SymbolExpr({xim_mul(m1, m2): ref_clifford_mul(e1, e2)})
    return total


def ref_compose(a: SymbolExpr, b: SymbolExpr, lowest: int, ctx) -> SymbolExpr:
    total = SymbolExpr.zero()
    for k in range(a.top_order() + b.top_order() - lowest + 1):
        for alpha in combinations_with_replacement(range(1, 7), k):
            da, db = a, b
            for mu in alpha:
                da = da.derive_xi(mu)
                db = db.derive_x(mu, ctx)
            fact = prod(factorial(alpha.count(j)) for j in set(alpha))
            coeff = ScalarExpr.const(Fraction(1, fact))
            total = total + ref_symbol_mul(da, db).scale(coeff)
    return SymbolExpr({m: el for m, el in total.terms.items()
                       if xim_degree(m) >= lowest})


def rand_scalar(r: random.Random, factors=FACTORS) -> ScalarExpr:
    """One to three monomials with integral or fractional coefficients."""
    out = ScalarExpr.zero()
    for _ in range(r.randint(1, 3)):
        term = ScalarExpr.const(r.choice([r.randint(-3, 3),
                                          Fraction(r.randint(-3, 3), 2)]))
        for _ in range(r.randint(0, 2)):
            term = term * r.choice(factors)
        out = out + term
    return out


def rand_element(r: random.Random, scalar_only=False,
                 factors=FACTORS) -> CliffordElement:
    terms = {}
    for _ in range(r.randint(1, 3)):
        word = () if scalar_only else tuple(sorted(r.sample(range(1, 7),
                                                            r.randint(0, 3))))
        terms[word] = rand_scalar(r, factors)
    return CliffordElement(terms)


def rand_symbol(r: random.Random, orders, scalar_only=False,
                factors=FACTORS) -> SymbolExpr:
    """A few terms of the given orders, each a xi-monomial of that degree."""
    out = SymbolExpr.zero()
    for _ in range(r.randint(1, 3)):
        order = r.choice(orders)
        p = r.randint(-2, 1)
        while order - 2 * p < 0:
            p -= 1
        exps = [0] * 6
        for _ in range(order - 2 * p):
            exps[r.randint(0, 5)] += 1
        out = out + SymbolExpr.term(
            (tuple(exps), p), rand_element(r, scalar_only, factors))
    return out


def test_clifford_product_matches_reference_randomized():
    r = random.Random(7)
    for _ in range(200):
        a, b = rand_element(r), rand_element(r)
        assert a * b == ref_clifford_mul(a, b)


def test_symbol_product_matches_reference_randomized():
    r = random.Random(8)
    for _ in range(60):
        a = rand_symbol(r, (2, 1, 0))
        b = rand_symbol(r, (0, -1, -2))
        assert a.mul(b) == ref_symbol_mul(a, b)


@pytest.mark.parametrize("ctx", [INTERIOR, BOUNDARY], ids=lambda c: c.mode)
def test_compose_matches_reference_randomized(ctx):
    # the normal derivative of Clifford content is not defined at a boundary
    # point, so there the right factor is scalar
    r = random.Random(9)
    for _ in range(25):
        a = rand_symbol(r, (2, 1, 0))
        b = rand_symbol(r, (0, -1), scalar_only=ctx.is_boundary,
                        factors=UNDERIVED)
        lowest = a.top_order() + b.top_order() - 2
        assert compose(a, b, lowest, ctx) == ref_compose(a, b, lowest, ctx)


def test_products_that_cancel_leave_no_entries():
    e1, e2 = CliffordElement.generator(1), CliffordElement.generator(2)
    one = CliffordElement.identity()
    # (1 + c1)(1 - c1) = 1 - c1 c1 = 2: the c1 words cancel
    x, y = one + e1, one - e1
    assert (x * y).terms == {(): ScalarExpr.const(2)} == ref_clifford_mul(x, y).terms
    # (c1 + c2)^2 = -2: the signed c1 c2 and c2 c1 cancel
    s = e1 + e2
    assert (s * s).terms == {(): ScalarExpr.const(-2)} == ref_clifford_mul(s, s).terms
    # c(xi)^2 = -sum xi_j^2: every mixed xi_j xi_l with j != l cancels
    cxi = SymbolExpr.xi_covector()
    sq = cxi.mul(cxi)
    assert sq == ref_symbol_mul(cxi, cxi)
    assert set(sq.terms) == {xim_mul(xim_xi(j), xim_xi(j)) for j in range(1, 7)}


def test_compose_correction_that_cancels_leaves_no_entry():
    # A = xi_1 d_2 f - xi_2 d_1 f, B = f: the order-0 correction
    # d_2 f d_1 f - d_1 f d_2 f cancels, so A o B = A B
    a = (SymbolExpr.scalar_term(xim_xi(1), dfunc("f", 2))
         - SymbolExpr.scalar_term(xim_xi(2), dfunc("f", 1)))
    b = SymbolExpr.scalar_term(XIM_ONE, f_pow(1))
    got = compose(a, b, 0)
    assert XIM_ONE not in got.terms
    assert got == a.mul(b) == ref_compose(a, b, 0, INTERIOR)


def test_memoized_monomial_product_matches_the_function():
    r = random.Random(10)
    monos = [()] + [m for _ in range(40) for m in rand_scalar(r).terms]
    for _ in range(400):
        m1, m2 = r.choice(monos), r.choice(monos)
        assert _mono_mul(m1, m2) == _mono_mul.__wrapped__(m1, m2)


def test_unit_scale_costs_no_coefficient_product(monkeypatch):
    # on the empty word the sign is +1 and the scale is 1, so an n-monomial
    # by m-monomial product of Fraction coefficients takes exactly n*m
    # Fraction products
    half, third = Fraction(1, 2), Fraction(1, 3)
    a = CliffordElement.identity((f_pow(1) + h_pow(-1) + wp() + fh_pow(-2)) * half)
    b = CliffordElement.identity(s_atom() * third + dfunc("f", 1) * third)
    want = ref_clifford_mul(a, b)
    calls = []
    mul = Fraction.__mul__

    def counting_mul(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Fraction, "__mul__", counting_mul)
    got = a * b
    monkeypatch.undo()
    assert len(calls) == 4 * 2
    assert got == want
