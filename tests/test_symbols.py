import random

import pytest

from wres6.boundary import BoundaryExpr, XiRat
from wres6.calculus import build_q_symbols, interior_parametrix
from wres6.clifford import CliffordElement
from wres6.interior import integrate_trace
from wres6.scalars import (
    CONNECTION_KINDS,
    ScalarExpr,
    area_s6,
    atom_str,
    fh_pow,
    riem,
    sc,
    wp,
)
from wres6.symbols import (
    BOUNDARY,
    INTERIOR,
    SymbolExpr,
    XIM_ONE,
    apply_context,
    xi_linear,
    xi_quadratic,
    xim_degree,
    xim_mul,
    xim_norm,
    xim_xi,
)

from oracles import atoms, dfunc

rng = random.Random(31)


def test_derive_xi_norm_square():
    S = SymbolExpr.norm_sq(1)
    for mu in range(1, 7):
        got = S.derive_xi(mu)
        assert got == SymbolExpr.scalar_term(xim_xi(mu), sc(2))


def test_derive_xi_covector_gives_generator():
    S = SymbolExpr.xi_covector()
    for mu in range(1, 7):
        got = S.derive_xi(mu)
        assert got == SymbolExpr.term(XIM_ONE, CliffordElement.generator(mu))


def test_second_xi_derivative_on_boundary_slice():
    # a stored symbol is a function of eta = i xi (the real gauge); at
    # |xi'| = 1 its |eta|^2 is eta_n^2 - 1, so d^2/deta_n^2 of
    # (fh)^-2 |eta|^-2 restricts to (fh)^-2 (6 eta_n^2 + 2) / (eta_n^2 - 1)^3
    S = SymbolExpr.scalar_term(xim_norm(-1), fh_pow(-2))
    dd = S.derive_xi(6).derive_xi(6)
    got = BoundaryExpr.from_symbol(dd)
    want = BoundaryExpr({((0, 0, 0, 0, 0), ()): XiRat.ratio(
        (fh_pow(-2) * sc(2), ScalarExpr.zero(), fh_pow(-2) * sc(6)), 3, 3)})
    assert got.terms == want.terms


def test_derive_x_interior_composite():
    S = SymbolExpr.scalar_term(xim_norm(-1), fh_pow(-2))
    got = S.derive_x(3, INTERIOR)
    want = SymbolExpr.scalar_term(xim_norm(-1), fh_pow(-2).derive_x(3))
    assert got == want


def test_derive_x_interior_kills_xi_covector():
    S = SymbolExpr.xi_covector()
    for j in range(1, 7):
        assert not S.derive_x(j, INTERIOR)


def test_derive_x_boundary_normal_direction():
    # d/dx_n[(fh)^-2 |xi|^-2] = d_n[(fh)^-2] |xi|^-2
    #                           - (fh)^-2 w'(0) |xi'|^2 |xi|^-4
    # (the sign is forced by the chain rule; the reference computation
    # prints the opposite sign on the w' term, see the discrepancy ledger)
    S = SymbolExpr.scalar_term(xim_norm(-1), fh_pow(-2))
    got = S.derive_x(6, BOUNDARY)
    want = SymbolExpr.scalar_term(
        xim_norm(-1), fh_pow(-2).derive_x(6) - fh_pow(-2) * wp())
    want = want + SymbolExpr.scalar_term(((0, 0, 0, 0, 0, 2), -2), fh_pow(-2) * wp())
    assert got == want
    # the same formula holds in eta = i xi; restricted to |xi'| = 1, where
    # |eta'|^2 = -1 and |eta|^2 = eta_n^2 - 1, this is
    # d_n[(fh)^-2]/(eta_n^2 - 1) + (fh)^-2 w'(0)/(eta_n^2 - 1)^2
    restricted = BoundaryExpr.from_symbol(got)
    want_rat = (XiRat.inv_norm(1).scale(fh_pow(-2).derive_x(6))
                + XiRat.inv_norm(2).scale(fh_pow(-2) * wp()))
    assert restricted.terms == {((0, 0, 0, 0, 0), ()): want_rat}


def test_derive_x_boundary_tangential_vanishes_on_norm():
    S = SymbolExpr.norm_sq(-1)
    for j in range(1, 6):
        assert not S.derive_x(j, BOUNDARY)


def rand_symbol(orders=(1, 0, -1, -2), max_terms=3):
    S = SymbolExpr.zero()
    for _ in range(rng.randint(1, max_terms)):
        p = rng.randint(-2, 1)
        exps = [0] * 6
        for _ in range(rng.randint(0, 2)):
            exps[rng.randint(0, 5)] += 1
        coeff = fh_pow(rng.choice([-2, -1, 1])) * sc(rng.randint(-4, 4))
        if not coeff:
            continue
        word = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 2))))
        S = S + SymbolExpr.term((tuple(exps), p),
                                CliffordElement({word: coeff}))
    return S


def test_euler_identity_randomized():
    # sum_mu xi_mu d_xi_mu S = (order) S, modulo sum_j xi_j^2 = |xi|^2
    from xihelpers import xi_equal

    for _ in range(60):
        S = rand_symbol()
        for order in list(S.orders):
            part = S.order_part(order)
            acc = SymbolExpr.zero()
            for mu in range(1, 7):
                piece = part.derive_xi(mu)
                acc = acc + piece.mul(
                    SymbolExpr.scalar_term(xim_xi(mu), ScalarExpr.one()))
            assert xi_equal(acc, part.scale(sc(order)))


def test_mixed_partials_commute_randomized():
    for _ in range(60):
        S = rand_symbol()
        mu, nu = rng.randint(1, 6), rng.randint(1, 6)
        assert S.derive_xi(mu).derive_xi(nu) == S.derive_xi(nu).derive_xi(mu)
        j, l = rng.randint(1, 6), rng.randint(1, 6)
        assert (S.derive_x(j, INTERIOR).derive_x(l, INTERIOR)
                == S.derive_x(l, INTERIOR).derive_x(j, INTERIOR))
        assert (S.derive_xi(mu).derive_x(j, INTERIOR)
                == S.derive_x(j, INTERIOR).derive_xi(mu))


def test_mixed_partials_commute_boundary_normal():
    # the boundary normal derivative (which produces w'-terms) commutes
    # with d/dxi_n on scalar-content symbols; tangential xi-derivatives
    # would need the raised-index metric factor tracked (g^{mu mu} = h(x_n)
    # for mu < n), which no quantity in this computation ever composes
    for _ in range(60):
        S = rand_symbol()
        scalar_only = SymbolExpr.zero()
        for o, terms in S.orders.items():
            for mono, el in terms.items():
                kept = CliffordElement({w: c for w, c in el.terms.items() if not w})
                if kept:
                    scalar_only = scalar_only + SymbolExpr.term(mono, kept)
        a = scalar_only.derive_xi(6).derive_x(6, BOUNDARY)
        b = scalar_only.derive_x(6, BOUNDARY).derive_xi(6)
        assert a == b


def test_homogeneity_bookkeeping():
    for _ in range(40):
        S = rand_symbol()
        for mu in range(1, 7):
            d = S.derive_xi(mu)
            for order in d.orders:
                assert order + 1 in S.orders
        T = rand_symbol()
        prod = S.mul(T)
        for order in prod.orders:
            assert any(a + b == order for a in S.orders for b in T.orders)


def _scalar_pair():
    x = fh_pow(1) + wp() * sc(1, 2)
    y = fh_pow(1) * sc(-1) + sc(2)
    return x, y


def _xirat_pair():
    x = XiRat.ratio((fh_pow(1), wp()), 1, 0)
    y = XiRat.ratio((fh_pow(-1),), 1, 0) + XiRat.xin(2).scale(wp())
    return x, y


def _clifford_pair():
    x = CliffordElement({(): fh_pow(1), (1, 2): wp()})
    y = CliffordElement({(): fh_pow(1) * sc(-1), (3,): sc(2)})
    return x, y


def _symbol_pair():
    x = SymbolExpr.xi_covector().scale(fh_pow(-1)) + SymbolExpr.norm_sq(1, wp())
    y = SymbolExpr.norm_sq(1, -1) + SymbolExpr.scalar_term(XIM_ONE, sc(3))
    return x, y


def _boundary_pair():
    x, y = _symbol_pair()
    return BoundaryExpr.from_symbol(x), BoundaryExpr.from_symbol(y)


@pytest.mark.parametrize("pair", [
    _scalar_pair, _xirat_pair, _clifford_pair, _symbol_pair, _boundary_pair,
], ids=["scalar", "xirat", "clifford", "symbol", "boundary"])
def test_cancelled_sums_leave_no_entries(pair):
    # x and y share keys, so each sum below cancels some entries and must
    # drop them instead of keeping zeros
    x, y = pair()
    for z in (x + (-x), (x + y) - y - x):
        assert z.terms == {}
        assert not z
    assert ((x + y) - y).terms == x.terms
    assert (x + y) - y == x


# one nonzero value, one zero value and one key of each container
_SPARSE_SUMS = {
    ScalarExpr: (((("f", ()), 1),), 3, 0),
    CliffordElement: ((1, 2), wp(), ScalarExpr.zero()),
    XiRat: ((1, 2), fh_pow(-2), ScalarExpr.zero()),
    SymbolExpr: (xim_xi(1), CliffordElement.generator(2), CliffordElement.zero()),
    BoundaryExpr: (((0, 1, 0, 0, 0), (6,)), XiRat.inv_norm(1), XiRat.zero()),
}


@pytest.mark.parametrize("cls", list(_SPARSE_SUMS), ids=lambda c: c.__name__)
def test_sparse_sum_containers_share_one_format(cls):
    key, value, zero = _SPARSE_SUMS[cls]
    x = cls({key: value, "other": zero})
    assert x.terms == {key: value}            # the zero entry is dropped
    assert cls({"other": zero}) == cls.zero() and not cls.zero()
    with pytest.raises(AttributeError):
        x.terms = {}
    for other_cls, (k, v, _) in _SPARSE_SUMS.items():
        if other_cls is not cls:
            y = other_cls({k: v})
            with pytest.raises(TypeError):
                x + y
            assert not x == y
    assert repr(x).startswith(f"<{cls.__name__} ")


def test_restrict_sphere_norm_powers():
    # on the unit sphere |xi|^(2p) is 1: 5 |xi|^-6 integrates like 5, and
    # 3 xi_1^2 |xi|^-8 like 3 xi_1^2, whose moment is 1/6 of the area; the
    # trace gives 8 and the gauge i^-6 = -1
    S = SymbolExpr.scalar_term(xim_norm(-3), sc(5))
    T = SymbolExpr.scalar_term((xim_mul(xim_xi(1), xim_xi(1))[0], -4), sc(3))
    assert integrate_trace(S) == sc(-40) * area_s6()
    assert integrate_trace(S + T) == sc(-44) * area_s6()


def test_restrict_boundary_norm_power():
    S = SymbolExpr.norm_sq(-2)
    got = BoundaryExpr.from_symbol(S)
    assert got.terms == {((0, 0, 0, 0, 0), ()): XiRat.inv_norm(2)}


def test_restrict_boundary_covector_splits():
    got = BoundaryExpr.from_symbol(SymbolExpr.xi_covector())
    # c(xi) = c(xi') + xi_n c(dx_n)
    want = {}
    for a in range(1, 6):
        exps = [0] * 5
        exps[a - 1] = 1
        want[(tuple(exps), (a,))] = XiRat.xin(0)
    want[((0, 0, 0, 0, 0), (6,))] = XiRat.xin(1)
    assert got.terms == want


# Connection atoms at a boundary point in collar coordinates: the only
# nonzero ones, as (Clifford word, coefficient).  Every other connection
# atom, and every connection atom at an interior point, is zero.
BOUNDARY_CONNECTION = {
    ("Gam", 6): ((), sc(5, 2) * wp()),
    **{("sig", k): ((k, 6), sc(1, 4) * wp()) for k in range(1, 6)},
    **{("om", k, k, 6): ((), sc(-1, 2) * wp()) for k in range(1, 6)},
}

CONNECTION_ATOMS = (
    [("Gam", mu) for mu in range(1, 7)]
    + [("sig", mu) for mu in range(1, 7)]
    + [("om", i, s, t) for i in range(1, 7)
       for s in range(1, 7) for t in range(s + 1, 7)]
    + [("curv0",)])


def _on_word(coeff, word=(6,)):
    # c_6 on the right tells left from right multiplication by c_k c_6
    return SymbolExpr.term(xim_norm(-1), CliffordElement({word: coeff}))


@pytest.mark.parametrize("atom", CONNECTION_ATOMS, ids=atom_str)
def test_point_context_values(atom):
    assert {a[0] for a in CONNECTION_ATOMS} == CONNECTION_KINDS
    rest = fh_pow(-2) * dfunc("h", 6) * sc(3)
    S = _on_word(rest * ScalarExpr.atom(atom))
    assert not apply_context(S, INTERIOR)
    got = apply_context(S, BOUNDARY)
    if atom not in BOUNDARY_CONNECTION:
        assert not got
        return
    word, value = BOUNDARY_CONNECTION[atom]
    left = CliffordElement.word(word, value)
    right = CliffordElement({(6,): rest})
    assert got == SymbolExpr.term(xim_norm(-1), left * right)
    if word:
        assert got != SymbolExpr.term(xim_norm(-1), right * left)


def test_point_context_multiplies_values_in_atom_order():
    # Gam[6]^2 sig[1] sig[2] om[3,3,6] -> (5/2 w')^2 (1/4 w')^2 (-1/2 w')
    # * c_1 c_6 c_2 c_6, with sig[1] left of sig[2]
    mono = (ScalarExpr.atom(("Gam", 6), 2) * ScalarExpr.atom(("sig", 1))
            * ScalarExpr.atom(("sig", 2)) * ScalarExpr.atom(("om", 3, 3, 6)))
    got = apply_context(_on_word(mono, ()), BOUNDARY)
    cliff = CliffordElement.word((1, 6)) * CliffordElement.word((2, 6))
    value = (sc(5, 2) * wp()) ** 2 * (sc(1, 4) * wp()) ** 2 * sc(-1, 2) * wp()
    assert got == _on_word(value, ()).cliff_lmul(cliff)
    assert not apply_context(_on_word(mono, ()), INTERIOR)


def test_apply_context_leaves_no_connection_atom():
    q = build_q_symbols()
    for ctx in (INTERIOR, BOUNDARY):
        found = {a for row in apply_context(q, ctx).orders.values()
                 for el in row.values() for c in el.terms.values()
                 for a in atoms(c)}
        assert not {a for a in found if a[0] in CONNECTION_KINDS}
        assert (("wp",) in found) == ctx.is_boundary


# ---------------------------------------------------------------------------
# xi-forms


def _random_vector(r):
    """Six random scalars, some of them zero."""
    return [sum((sc(r.randint(-3, 3)) * dfunc(r.choice("fh"), r.randint(1, 6))
                 for _ in range(r.randint(0, 2))), ScalarExpr.zero())
            for _ in range(6)]


def test_quadratic_form_of_a_product_is_the_product_of_linear_forms():
    r = random.Random(2024)
    for _ in range(20):
        a, b = _random_vector(r), _random_vector(r)
        got = xi_quadratic(lambda j, l: a[j - 1] * b[l - 1])
        assert got == xi_linear(lambda j: a[j - 1]).mul(xi_linear(lambda j: b[j - 1]))


def test_xi_forms_with_zero_coefficients_are_empty():
    assert xi_linear(lambda j: ScalarExpr.zero()).orders == {}
    assert xi_quadratic(lambda j, l: ScalarExpr.zero()).orders == {}
    assert xi_linear(lambda j: CliffordElement.zero()).orders == {}


def test_xi_quadratic_of_riemann_is_the_index_expanded_form():
    want = SymbolExpr.zero()
    for a in range(1, 7):
        for m in range(1, 7):
            e = [0] * 6
            e[a - 1] += 1
            e[m - 1] += 1
            want = want + SymbolExpr.scalar_term((tuple(e), 0), riem(a, m))
    assert xi_quadratic(riem) == want
    # R is symmetric, so each off-diagonal monomial carries twice its atom
    assert xi_quadratic(riem).orders[2][((1, 1, 0, 0, 0, 0), 0)] == \
        CliffordElement.identity(riem(1, 2) * sc(2))


def test_xi_linear_of_generators_is_c_xi():
    assert xi_linear(CliffordElement.generator) == SymbolExpr({
        xim_xi(j): CliffordElement.generator(j) for j in range(1, 7)})


def test_orders_group_the_flat_terms_by_degree():
    S = interior_parametrix().full_symbol()
    assert set(S.orders) == {xim_degree(m) for m in S.terms} == {-2, -3, -4}
    parts = [SymbolExpr(S.orders[k]) for k in S.orders]
    assert parts == [S.order_part(k) for k in S.orders]
    assert sum(parts, SymbolExpr.zero()) == S
