import pytest

from wres6 import tables
from wres6.calculus import (
    build_d2_symbols,
    build_d_symbols,
    build_q_symbols,
    interior_parametrix,
    interior_q,
    invert_symbol,
    qinv_square_sigma6,
)
from wres6.clifford import CliffordElement
from wres6.scalars import (
    CONNECTION_KINDS,
    ScalarExpr,
    fh_pow,
    gam,
    h_pow,
    sc,
    sig,
)
from wres6.symbols import (
    BOUNDARY,
    INTERIOR,
    SymbolExpr,
    XIM_ONE,
    apply_context,
    compose,
    xim_norm,
    xim_xi,
)

from oracles import build_fdh_symbols, dfunc


def strip_geom(S: SymbolExpr) -> SymbolExpr:
    """Drop every term carrying a geometric atom (keep pure f/h content)."""
    out = SymbolExpr.zero()
    for mono, el in S.terms.items():
        kept = el.map(
            lambda c: ScalarExpr({m: x for m, x in c.terms.items()
                                  if all(a[0] in ("f", "h", "u") for a, _ in m)}))
        if kept:
            out = out + SymbolExpr.term(mono, kept)
    return out


def set_f_h_to_one(S: SymbolExpr) -> SymbolExpr:
    out = SymbolExpr.zero()
    for mono, el in S.terms.items():
        el2 = el.map(lambda c: c.map_func_atoms(
            {"f": ScalarExpr.one(), "h": ScalarExpr.one()}))
        if el2:
            out = out + SymbolExpr.term(mono, el2)
    return out


def commutator(S: SymbolExpr, u: ScalarExpr) -> SymbolExpr:
    """Symbol of [S, u] for a multiplication operator u, through compose."""
    return compose(S, SymbolExpr.scalar_term(XIM_ONE, u), 0) - S.scale(u)


# Every expected symbol below is written in the real gauge: a term of
# xi-degree k whose coefficient is c in xi is stored as i^-k c, so
# |xi|^2 = i^2 (-|xi|^2), i xi_j = i^1 xi_j, and an order -6 coefficient c
# is stored as -c.


# ---------------------------------------------------------------------------
# composition and commutators


def test_compose_with_scalar_left_factor():
    a = fh_pow(-2) * sc(3)
    A = SymbolExpr.scalar_term(XIM_ONE, a)
    B = build_d2_symbols()
    assert compose(A, B, 0, INTERIOR) == B.scale(a)


def test_compose_truncation_bound_error():
    A = SymbolExpr.norm_sq(-1)
    with pytest.raises(ValueError):
        compose(A, A, 0, INTERIOR)


def test_commutator_top_order_of_squared_dirac():
    # -2i d_j h xi_j
    got = commutator(build_d2_symbols(), h_pow(1)).order_part(1)
    want = SymbolExpr.zero()
    for j in range(1, 7):
        want = want + SymbolExpr.scalar_term(xim_xi(j), dfunc("h", j) * sc(-2))
    assert got == want


def test_commutator_of_dirac_gives_clifford_gradient():
    got = commutator(build_d_symbols(), h_pow(1)).order_part(0)
    cdh = CliffordElement.covector([dfunc("h", j) for j in range(1, 7)])
    assert got == SymbolExpr.term(XIM_ONE, cdh)


def test_commutator_with_constant_vanishes():
    assert not commutator(build_d2_symbols(), ScalarExpr.one())


# ---------------------------------------------------------------------------
# Q symbols


def test_q_symbol_orders():
    q = build_q_symbols()
    assert set(q.orders) == {2, 1, 0}


def test_q_order_two():
    q = build_q_symbols()
    # (fh)^2 |xi|^2
    assert q.order_part(2) == SymbolExpr.scalar_term(xim_norm(1), -fh_pow(2))


def test_q_order_one_flat_rescaling_keeps_connection_atoms():
    q = set_f_h_to_one(build_q_symbols()).order_part(1)
    want = SymbolExpr.zero()
    for mu in range(1, 7):  # i (Gam^mu - 2 sig^mu) xi_mu
        want = want + SymbolExpr.scalar_term(xim_xi(mu), gam(mu) - sc(2) * sig(mu))
    assert q == want


def test_q_order_one_clifford_part():
    q = build_q_symbols().order_part(1)
    cdhf = CliffordElement.covector([fh_pow(1).derive_x(j) for j in range(1, 7)])
    # i fh c(d(hf)) c(xi)
    want_full = SymbolExpr.xi_covector().cliff_lmul(cdhf).scale(fh_pow(1))
    want = SymbolExpr.zero()
    for mono, el in want_full.terms.items():
        kept = CliffordElement({w: c for w, c in el.terms.items() if w})
        if kept:
            want = want + SymbolExpr.term(mono, kept)
    # isolate the terms with nonempty Clifford words and no connection atoms
    got = SymbolExpr.zero()
    for mono, el in q.terms.items():
        kept = {}
        for w, coeff in el.terms.items():
            if not w:
                continue
            coeff = ScalarExpr({m: c for m, c in coeff.terms.items()
                                if all(a[0] in ("f", "h") for a, _ in m)})
            if coeff:
                kept[w] = coeff
        if kept:
            got = got + SymbolExpr.term(mono, CliffordElement(kept))
    assert got == want


@pytest.mark.parametrize("ctx", [INTERIOR, BOUNDARY], ids=lambda c: c.mode)
def test_context_first_q_is_the_evaluated_generic_q(ctx):
    # build_q_symbols(ctx) evaluates the connection atoms in sigma(D^2) and
    # sigma(D) before Q is assembled; that must be the generic Q evaluated
    assert build_q_symbols(ctx) == apply_context(build_q_symbols(), ctx)


def test_generic_q_has_at_most_one_connection_atom_per_monomial():
    # the property that lets the point context be applied before assembly:
    # Q is linear in the connection atoms
    q = build_q_symbols()
    degrees = {sum(exp for atom, exp in mono if atom[0] in CONNECTION_KINDS)
               for el in q.terms.values() for coeff in el.terms.values()
               for mono in coeff.terms}
    assert degrees == {0, 1}


def test_fdh_square_matches_q_on_function_content():
    from xihelpers import xi_equal

    # the right factor is x-differentiated, so its connection atoms are
    # evaluated at the point first
    fdh = apply_context(build_fdh_symbols(INTERIOR), INTERIOR)
    square = compose(fdh, fdh, 0, INTERIOR)
    q = build_q_symbols()
    assert xi_equal(strip_geom(square), strip_geom(apply_context(q, INTERIOR)))


# ---------------------------------------------------------------------------
# parametrix


def test_leading_inverse():
    par = interior_parametrix()
    # (fh)^-2 |xi|^-2
    assert par.b2 == SymbolExpr.scalar_term(xim_norm(-1), -fh_pow(-2))


def test_non_invertible_leading_symbol_rejected():
    bad = SymbolExpr.scalar_term(xim_norm(1), fh_pow(1) + sc(1)) \
        + SymbolExpr.scalar_term(XIM_ONE, sc(1))
    with pytest.raises(ValueError):
        invert_symbol(bad, INTERIOR)


def test_b3_flat_rescaling_vanishes():
    par = interior_parametrix()
    assert not set_f_h_to_one(par.b3)


def test_b3_matches_printed():
    par = interior_parametrix()
    assert par.b3 == tables.printed_qinv_order(-3)


def test_b2_matches_printed():
    par = interior_parametrix()
    assert par.b2 == tables.printed_qinv_order(-2)


def test_b4_matches_printed_up_to_ledgered_typo():
    par = interior_parametrix()
    diff = par.b4 - tables.printed_qinv_order(-4)
    assert diff == tables.forced_qinv4_correction()


@pytest.mark.xfail(strict=True,
                   reason="the printed order -4 symbol carries a spurious "
                          "factor f on its second-derivative term; the forced "
                          "recursion contradicts it (ledgered)")
def test_b4_matches_printed_literally():
    par = interior_parametrix()
    assert par.b4 == tables.printed_qinv_order(-4)


def test_b3_clifford_term_present():
    par = interior_parametrix()
    cdhf = CliffordElement.covector([fh_pow(1).derive_x(j) for j in range(1, 7)])
    want = SymbolExpr.xi_covector().cliff_lmul(cdhf).scale(-fh_pow(-3)).mul(
        SymbolExpr.scalar_term(xim_norm(-2), ScalarExpr.one()))
    got = SymbolExpr.zero()
    for mono, el in par.b3.terms.items():
        kept = CliffordElement({w: c for w, c in el.terms.items() if w})
        if kept:
            got = got + SymbolExpr.term(mono, kept)
    # the only Clifford content of b_-3 is -i (fh)^-3 |xi|^-4 c(d(hf)) c(xi)
    bivector_part = SymbolExpr.zero()
    for mono, el in want.terms.items():
        kept = CliffordElement({w: c for w, c in el.terms.items() if w})
        if kept:
            bivector_part = bivector_part + SymbolExpr.term(mono, kept)
    assert got == bivector_part


# ---------------------------------------------------------------------------
# the order -6 symbol


def test_sigma6_routes_agree():
    # the constructor runs both routes and raises on disagreement
    s6 = qinv_square_sigma6()
    assert set(s6.orders) == {-6}


def test_sigma6_flat_case_is_pure_curvature():
    from wres6.scalars import riem

    # -1/2 s |xi|^-6 + 2 R_{a m} xi_a xi_m |xi|^-8, negated at order -6
    s6 = set_f_h_to_one(qinv_square_sigma6())
    want = SymbolExpr.scalar_term(xim_norm(-3), sc(1, 2) * ScalarExpr.atom(("s", ())))
    for a in range(1, 7):
        for m in range(1, 7):
            e = [0] * 6
            e[a - 1] += 1
            e[m - 1] += 1
            want = want + SymbolExpr.scalar_term((tuple(e), -4), sc(-2) * riem(a, m))
    assert s6 == want


def test_sigma6_vs_printed_expansion_is_the_frozen_diff():
    s6 = qinv_square_sigma6()
    printed = SymbolExpr.zero()
    for idx in range(1, 22):
        printed = printed + tables.printed_expansion_line(idx)
    assert s6 - printed == tables.expected_sigma6_diff()


def test_specialization_coherence_numeric():
    """Substituting f = u^p, h = u^q before or after the parametrix agrees."""
    from wres6.cli import parse_specialization

    spec = parse_specialization("f=u^3,h=u^-2")

    def map_symbol(S):
        out = SymbolExpr.zero()
        for mono, el in S.terms.items():
            el2 = el.map(lambda c: c.map_func_atoms(spec))
            if el2:
                out = out + SymbolExpr.term(mono, el2)
        return out

    # after: substitute into the computed inverse symbols
    after = map_symbol(interior_parametrix().b3)
    # before: substitute into Q, then invert
    q_sub = map_symbol(interior_q())
    before = invert_symbol(q_sub, INTERIOR).b3
    assert before == after
