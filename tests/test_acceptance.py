"""Acceptance gate: one test per criterion, exact tolerances throughout.

Arithmetic is exact, so every comparison is structural equality of
canonical forms; the only 1e-9 tolerances are the two named numeric
oracles (finite representation quadrature and float evaluation).  Each test
prints its own PASS line; run with ``pytest -v -s`` for the full listing.

Two printed reference values are contradicted by the forced algebra (the
order -4 symbol's second-derivative coefficient and the lone value of the
(r, l) = (-2, -3) boundary case); the corresponding literal assertions are
kept as strict xfails with the forced difference pinned exactly by a
passing companion test and recorded in the bundled discrepancy ledger.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from wres6 import tables
from wres6.tables import boundary_case_correction
from wres6.boundary import XiRat, phi_case_value, phi_total
from wres6.calculus import (
    interior_parametrix,
    interior_q,
    qinv_square_sigma6,
    riemann_contraction_term,
)
from wres6.clifford import CliffordElement
from wres6.interior import (
    sphere_moment,
    term_table,
    theorem_check_interior,
)
from wres6.scalars import (
    DerivativeOrderError,
    ScalarExpr,
    fh_pow,
    omega4,
    pi_atom,
    s_atom,
    sc,
    wp,
)
from wres6.symbols import INTERIOR, SymbolExpr, XIM_ONE, compose, xim_norm

from oracles import (
    contour_quadrature,
    element_to_matrix,
    evaluate,
    evaluate_complex,
    gamma_moment,
    mat_trace,
    ratio_at,
)

ONE = SymbolExpr.scalar_term(XIM_ONE, ScalarExpr.one())


def _ok(n, msg):
    print(f"\nACCEPTANCE {n}: PASS - {msg}")


# ---------------------------------------------------------------------------
# 1. Parametrix identity


def test_criterion_1_parametrix_identity():
    q = interior_q()
    par = interior_parametrix()
    ident = compose(q, par.b2 + par.b3 + par.b4_recursion, -2, INTERIOR)
    assert ident == ONE
    # with the imported curvature term included, the only residual is the
    # import itself propagated through the leading symbol: sigma_2 * import
    full = compose(q, par.full_symbol(), -2, INTERIOR)
    rider = q.order_part(2).mul(par.curvature_import)
    assert full == ONE + rider
    # sigma_2(Q) = (fh)^2 |xi|^2 is stored as -(fh)^2 |xi|^2 (real gauge)
    assert rider == riemann_contraction_term().mul(
        SymbolExpr.scalar_term(xim_norm(1), -fh_pow(2)))
    _ok(1, "compose(sigma(Q), parametrix) = 1 exactly at every order the "
           "depth-3 recursion determines (0, -1, -2); curvature import "
           "rider pinned exactly")


def test_criterion_1_deeper_truncation_is_rejected():
    # orders -3 and -4 of the composition would need the depth-5 inverse
    # symbols and third derivatives of f and h; both sit outside the
    # declared derivative cap, and the ring rejects the request
    q = interior_q()
    par = interior_parametrix()
    with pytest.raises(DerivativeOrderError):
        compose(q, par.b2 + par.b3 + par.b4_recursion, -4, INTERIOR)
    _ok(1, "composition below the recursion depth is rejected as a "
           "mis-sized computation (derivative cap)")


# ---------------------------------------------------------------------------
# 2. Reproduction of the printed inverse symbols


def test_criterion_2_order_minus2_and_minus3_exact():
    par = interior_parametrix()
    assert par.b2 == tables.printed_qinv_order(-2)
    assert par.b3 == tables.printed_qinv_order(-3)
    _ok(2, "orders -2 and -3 of the inverse match the printed expressions "
           "exactly in canonical form")


def test_criterion_2_order_minus4_modulo_ledgered_typo():
    par = interior_parametrix()
    diff = par.b4 - tables.printed_qinv_order(-4)
    assert diff == tables.forced_qinv4_correction()
    assert any(e["location"] == "qinv/order-4/second-derivative-term"
               for e in tables.discrepancy_ledger())
    _ok(2, "order -4 matches on every term except the ledgered spurious "
           "factor f on the second-derivative term; diff pinned exactly")


@pytest.mark.xfail(strict=True,
                   reason="printed order -4 symbol carries a spurious factor "
                          "f (ledgered as qinv/order-4/second-derivative-term)")
def test_criterion_2_order_minus4_literal():
    par = interior_parametrix()
    assert par.b4 == tables.printed_qinv_order(-4)


# ---------------------------------------------------------------------------
# 3. Route agreement for the order -6 symbol


def test_criterion_3_route_agreement():
    from wres6.calculus import _route_direct, _route_reduced, invert_symbol

    q = interior_q()
    par = invert_symbol(q, INTERIOR)
    assert _route_direct(par) == _route_reduced(q, par)
    # the public constructor asserts the same and returns the shared value
    s6 = qinv_square_sigma6()
    assert s6 == _route_reduced(q, par)
    _ok(3, "direct composition and reduced assembly of the order -6 symbol "
           "agree exactly")


# ---------------------------------------------------------------------------
# 4. Term table


def test_criterion_4_term_table():
    records = {r["index"]: r for r in term_table()}
    for idx in range(1, 22):
        if idx in (8, 13, 17):
            assert records[idx]["verdict"] == "diff (ledgered)", f"term {idx}"
            assert records[idx]["computed"] == (
                tables.printed_term_value(idx)
                + tables.FROZEN_DIFFERENCES[f"interior/term-{idx:02d}"]())
        else:
            assert records[idx]["verdict"] == "match", f"term {idx}"
    _ok(4, "forced evaluation reproduces the printed results for all terms "
           "except (8), (13), (17), whose diffs are ledgered and pinned")


# ---------------------------------------------------------------------------
# 5. Flat-rescaling specialization


def test_criterion_5_kkw_specialization():
    from wres6.interior import interior_density
    from wres6.scalars import subst_area

    one = {"f": ScalarExpr.one(), "h": ScalarExpr.one()}
    dens = subst_area(interior_density()).map_func_atoms(one)
    assert dens == sc(-4, 3) * s_atom() * pi_atom(3)
    _ok(5, "f = h = 1 interior density is exactly -(4/3) pi^3 s")


# ---------------------------------------------------------------------------
# 6. Assembled density comparison


def test_criterion_6_density_diff_ledgered_and_stable():
    cmp1 = theorem_check_interior()
    assert cmp1["verdict"] == "diff (ledgered)"
    diff1 = cmp1["computed"] - cmp1["paper"]
    assert diff1 == tables.expected_density_diff()
    cmp2 = theorem_check_interior()
    assert str(diff1) == str(cmp2["computed"] - cmp2["paper"])
    assert str(cmp1["computed"]) == str(cmp2["computed"])
    _ok(6, "density diff vs the printed density is confined exactly to the "
           "ledgered coefficients and is byte-stable")


# ---------------------------------------------------------------------------
# 7. Boundary values


def test_criterion_7_boundary_values():
    phi1 = phi_case_value("a.I")
    phi2 = phi_case_value("a.II")
    phi3 = phi_case_value("a.III")
    phi4 = phi_case_value("b")
    phi5 = phi_case_value("c")
    assert phi1.is_zero()
    assert (phi2 + phi3).is_zero()
    assert (phi4 + phi5).is_zero()
    assert phi_total().is_zero()
    # the projected-order case value matches the printed magnitude exactly
    # (the two ledgered sign slips compensate)
    assert phi2 == tables.printed_boundary_value("a.II")
    # the warp content of the (-2,-3) case is exactly -15/8 (fh)^-4 w' pi Om4
    piom = pi_atom() * omega4()
    warp_part = ScalarExpr(
        {m: c for m, c in phi4.terms.items() if any(a == ("wp",) for a, _ in m)})
    assert warp_part == fh_pow(-4) * sc(-15, 8) * wp() * piom
    assert phi4 - tables.printed_boundary_value("b") == boundary_case_correction()
    _ok(7, "Phi_1 = 0, Phi_2 + Phi_3 = 0, Phi_4 + Phi_5 = 0, total = 0, all "
           "exactly; |Phi_2| matches the printed magnitude; the (-2,-3) "
           "case matches -15/8 (fh)^-4 w' pi Om4 on its warp content with "
           "the ledgered normal-derivative correction pinned exactly")


@pytest.mark.xfail(strict=True,
                   reason="the printed (-2,-3) case value omits the "
                          "normal-derivative terms of the order -3 symbol "
                          "(ledgered as boundary/case-b); they cancel against "
                          "the mirrored case in the total")
def test_criterion_7_phi4_literal():
    assert phi_case_value("b") == tables.printed_boundary_value("b")


# ---------------------------------------------------------------------------
# 8. Property suites at the required sizes


def test_criterion_8_clifford_properties_1000():
    rng = random.Random(808)

    def rand_element():
        el = CliffordElement.zero()
        for _ in range(rng.randint(1, 3)):
            word = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 4))))
            coeff = sc(rng.randint(-5, 5)) + sc(rng.randint(-2, 2), 3)
            el = el + CliffordElement({word: coeff})
        return el

    for _ in range(1000):
        a, b, c = rand_element(), rand_element(), rand_element()
        assert (a * b) * c == a * (b * c)
        assert (a * b).trace() == (b * a).trace()
        word = tuple(sorted(rng.sample(range(1, 7), rng.choice([1, 3, 5]))))
        assert CliffordElement({word: ScalarExpr.one()}).trace().is_zero()
    _ok(8, "Clifford associativity, trace cyclicity and odd-word "
           "tracelessness on 1000 randomized cases")


def test_criterion_8_projection_properties_500():
    rng = random.Random(515)

    def rand_rat():
        num = [sc(rng.randint(-5, 5), rng.randint(1, 3))
               for _ in range(rng.randint(1, 4))]
        return XiRat.ratio(num, rng.randint(0, 3), rng.randint(0, 3))

    for _ in range(500):
        r = rand_rat()
        pp = r.pi_plus()
        assert pp.pi_plus() == pp
        assert pp + (r - r.pi_plus()) == r
        assert (r - r.pi_plus()).pi_plus().is_zero()
        assert r.derive().pi_plus() == pp.derive()
    _ok(8, "projection idempotence, complement and derivative commutation "
           "on 500 randomized rational functions")


def test_criterion_8_moment_recurrence_vs_gamma_oracle():
    checked = 0
    for degs in itertools.product(range(0, 7), repeat=6):
        if sum(degs) > 6:
            continue
        if any(d % 2 for d in degs):
            assert sphere_moment(degs) == 0
            continue
        assert sphere_moment(degs) == gamma_moment(degs)
        checked += 1
    assert checked >= 10
    _ok(8, "sphere-moment recurrence equals the Gamma-formula oracle on "
           "every even key of degree <= 6")


def test_criterion_8_numeric_oracles_100():
    rng = random.Random(606)
    # contour quadrature oracle
    count = 0
    while count < 100:
        num = [sc(rng.randint(-5, 5), rng.randint(1, 3))
               for _ in range(rng.randint(1, 4))]
        a, b = rng.randint(0, 4), rng.randint(0, 4)
        r = XiRat.ratio(num, a, b)
        if not r.decays() or r.is_zero():
            continue
        count += 1
        exact = evaluate_complex(r.contour_integral(), {("pi",): math.pi})
        total = contour_quadrature(lambda z: ratio_at(num, a, b, z))
        assert abs(exact - total) <= 1e-9 * max(1.0, abs(exact), abs(total))
    # matrix-trace oracle on randomized symbolic elements
    atoms = [("f", ()), ("h", ()), ("f", (3,)), ("h", (6,))]
    for _ in range(100):
        el = CliffordElement.zero()
        for _ in range(rng.randint(1, 3)):
            word = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 3))))
            coeff = ScalarExpr.one()
            for _ in range(rng.randint(0, 2)):
                coeff = coeff * ScalarExpr.atom(rng.choice(atoms))
            el = el + CliffordElement({word: coeff * sc(rng.randint(-4, 4))})
        assign = {a: Fraction(rng.randint(1, 7), rng.randint(1, 3))
                  for a in atoms}
        assert evaluate(el.trace(), assign) == mat_trace(element_to_matrix(el, assign))
    _ok(8, "contour quadrature and matrix-trace oracles agree with the "
           "exact engine on 100+100 randomized instantiations at 1e-9")
