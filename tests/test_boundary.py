import math
import random
from fractions import Fraction

import pytest

from wres6 import tables
from wres6.tables import FROZEN_DIFFERENCES, boundary_case_correction
from wres6.boundary import (
    CASE_DATA,
    BoundaryExpr,
    DecayError,
    XiRat,
    boundary_parametrix,
    phi_case_value,
    phi_total,
)
from wres6.scalars import (
    ScalarExpr,
    fh_pow,
    omega4,
    pi_atom,
    sc,
    wp,
)
from wres6.symbols import SymbolExpr

from oracles import (
    contour_integral_cauchy,
    contour_quadrature,
    evaluate_complex,
    atoms,
    evaluate_xirat,
    ratio_at,
    to_complex,
)
from test_products import rand_symbol

rng = random.Random(2718)


def rand_num(max_num_deg=3, gen=rng):
    return [ScalarExpr.const(Fraction(gen.randint(-5, 5), gen.randint(1, 3)))
            for _ in range(gen.randint(1, max_num_deg + 1))]


def rand_ratio_args(max_num_deg=3, max_pole=3, gen=rng):
    num = rand_num(max_num_deg, gen)
    a = gen.randint(0, max_pole)
    b = gen.randint(0, max_pole)
    return num, a, b


def rand_rat(max_num_deg=3, max_pole=3, gen=rng):
    return XiRat.ratio(*rand_ratio_args(max_num_deg, max_pole, gen))


def numeric(rat, z, assign=None):
    return evaluate_xirat(rat, assign or {}, z)


# ---------------------------------------------------------------------------
# XiRat arithmetic


def test_trace_keeps_empty_words_times_8():
    xp, xq = (0, 0, 0, 0, 0), (2, 0, 0, 0, 0)
    r1, r2, r3 = XiRat.inv_norm(2), XiRat.xin(1), XiRat.xin(0).scale(wp())
    e = BoundaryExpr({(xp, ()): r1, (xp, (1, 6)): r2,
                      (xq, ()): r3, (xq, (2,)): r1})
    assert e.trace().terms == {(xp, ()): r1.scale(sc(8)),
                               (xq, ()): r3.scale(sc(8))}


def test_normalization_cancels_common_factors():
    # (etan^2 - 1) / ((etan + 1)(etan - 1)) == 1, as values: nothing is cancelled
    num = (-ScalarExpr.one(), ScalarExpr.zero(), ScalarExpr.one())
    r = XiRat.ratio(num, 1, 1)
    assert r == XiRat.xin(0)
    assert r != XiRat.xin(0).scale(sc(2))
    with pytest.raises(ValueError, match="pole orders must be nonnegative"):
        XiRat.ratio(num, -1, 0)


def test_common_factor_changes_no_value_randomized():
    """Multiplying by (etan^2 - 1) / ((etan + 1)(etan - 1)) changes no value,
    so every operation sees the same result."""
    local = random.Random(1978)
    unit = XiRat.ratio((-ScalarExpr.one(), ScalarExpr.zero(), ScalarExpr.one()), 1, 1)
    for _ in range(200):
        r = rand_rat(gen=local)
        s = r * unit
        assert s == r
        assert s.pi_plus() == r.pi_plus()
        assert s.derive() == r.derive()
        if r.decays():
            assert s.contour_integral() == r.contour_integral()
        # d/detan adds no pole where r has none
        d = r.derive()
        for pole in (1, -1):
            if not any(key[0] == pole for key in r.terms):
                assert not any(key[0] == pole for key in d.terms)


def test_common_factor_gives_the_same_terms_randomized():
    """The partial-fraction terms are unique: a numerator times etan^2 - 1
    over both pole orders raised by one gives the same dict."""
    local = random.Random(4242)
    for _ in range(200):
        num = rand_num(gen=local)
        a, b = local.randint(0, 3), local.randint(0, 3)
        wide = [ScalarExpr.zero()] * (len(num) + 2)
        for k, c in enumerate(num):
            wide[k] = wide[k] - c
            wide[k + 2] = wide[k + 2] + c
        assert XiRat.ratio(wide, a + 1, b + 1).terms == XiRat.ratio(num, a, b).terms


def test_restricted_norm_power_is_its_binomial_expansion():
    # |xi|^4 = (1 + xin^2)^2 = (etan^2 - 1)^2 at |xi'| = 1
    got = BoundaryExpr.from_symbol(SymbolExpr.norm_sq(2))
    assert got.terms == {((0, 0, 0, 0, 0), ()): XiRat.ratio((1, 0, -2, 0, 1))}


def test_arithmetic_matches_numeric():
    for _ in range(200):
        r, s = rand_rat(), rand_rat()
        z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 2))
        lhs = numeric(r + s, z)
        rhs = numeric(r, z) + numeric(s, z)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
        lhs = numeric(r * s, z)
        rhs = numeric(r, z) * numeric(s, z)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_derivative_matches_numeric():
    for _ in range(100):
        r = rand_rat()
        z = complex(rng.uniform(-2, 2), rng.uniform(0.3, 1.5))
        h = 1e-6
        fd = (numeric(r, z + h) - numeric(r, z - h)) / (2 * h)
        assert abs(numeric(r.derive(), z) - fd) <= 1e-6 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# projection


def test_pi_plus_first_order():
    got = XiRat.inv_norm(1).pi_plus()
    want = XiRat.ratio((sc(-1, 2),), 1, 0)
    assert got == want


def test_pi_plus_kills_polynomials():
    assert XiRat.xin(0).scale(sc(7)).pi_plus().is_zero()
    assert XiRat.xin(2).pi_plus().is_zero()


def test_pi_plus_second_order_forced_sign():
    # Taylor-expanding 1/(etan-1)^2 about -1 to first order gives the
    # principal part (2 + etan)/(4 (etan + 1)^2), which is
    # -(2 + i xin)/(4 (xin - i)^2) in xi; the reference prints the opposite
    # sign (ledgered)
    got = XiRat.inv_norm(2).pi_plus()
    want = XiRat.ratio((sc(1, 2), sc(1, 4)), 2, 0)
    assert got == want


def test_pi_plus_properties_randomized():
    for _ in range(500):
        r = rand_rat()
        pp = r.pi_plus()
        assert pp.pi_plus() == pp                      # idempotent
        assert pp + (r - r.pi_plus()) == r             # complement
        assert (r - r.pi_plus()).pi_plus().is_zero()   # image has no +i pole
        assert r.derive().pi_plus() == pp.derive()     # commutes with d/dxin


# ---------------------------------------------------------------------------
# contour integration


def test_contour_simple_pole():
    got = XiRat.ratio((ScalarExpr.one(),), 1, 0).contour_integral()
    assert got == sc(2) * pi_atom()


def test_contour_no_pole_inside():
    got = XiRat.ratio((ScalarExpr.one(),), 0, 1).contour_integral()
    assert got.is_zero()


def test_contour_divergent_rejected():
    with pytest.raises(DecayError):
        XiRat.ratio((ScalarExpr.zero(), ScalarExpr.one()), 1, 0).contour_integral()


def test_contour_fourth_order_against_quadrature():
    r = XiRat.ratio((ScalarExpr.one(),), 4, 1)  # 1/((x+1)^4 (x-1))
    exact = r.contour_integral()
    val = evaluate_complex(exact, {("pi",): math.pi})
    quad = contour_quadrature(lambda z: ratio_at((ScalarExpr.one(),), 4, 1, z))
    assert abs(val - quad) <= 1e-9 * max(1.0, abs(val))


def test_contour_two_exact_routes_agree_randomized():
    for _ in range(300):
        r = rand_rat()
        if not r.decays():
            continue
        assert r.contour_integral() == contour_integral_cauchy(r)


def test_cauchy_route_rejects_an_uncleared_pole(monkeypatch):
    # a product that fails to clear the pole at -1 must not be evaluated
    # as if the leftover (etan + 1)^-k were a (etan - 1)^-k term
    r = XiRat.ratio((ScalarExpr.one(),), 2, 1)
    monkeypatch.setattr(XiRat, "__mul__", lambda self, other: self)
    with pytest.raises(ValueError, match="keeps a pole at"):
        contour_integral_cauchy(r)


def test_contour_quadrature_oracle_randomized():
    count = 0
    while count < 100:
        num, a, b = rand_ratio_args()
        r = XiRat.ratio(num, a, b)
        if not r.decays() or r.is_zero():
            continue
        count += 1
        exact = evaluate_complex(r.contour_integral(), {("pi",): math.pi})
        quad = contour_quadrature(lambda z: ratio_at(num, a, b, z))
        assert abs(exact - quad) <= 1e-9 * max(1.0, abs(exact), abs(quad))


def test_integration_by_parts():
    # int tr[d_etan A . B] = -int tr[A . d_etan B] for decaying products
    for _ in range(100):
        a = rand_rat(max_num_deg=1, max_pole=3)
        b = rand_rat(max_num_deg=1, max_pole=3)
        if not (a * b).decays() or a.is_zero() or b.is_zero():
            continue
        lhs = (a.derive() * b).contour_integral()
        rhs = (a * b.derive()).contour_integral()
        assert lhs == -rhs


# ---------------------------------------------------------------------------
# boundary symbols


def test_boundary_sigma_minus2():
    got = BoundaryExpr.from_symbol(boundary_parametrix().b2)
    # (fh)^-2/(1 + xin^2) = -(fh)^-2/(etan^2 - 1)
    want = {((0, 0, 0, 0, 0), ()): XiRat.inv_norm(1).scale(-fh_pow(-2))}
    assert got.terms == want


def test_boundary_sigma_minus3_warp_part():
    """The w'(0)-content matches the evaluated connection data exactly:
    (fh)^-2 [ -i/(1+xin^2)^2 (5/2 w' xin - 1/2 w' sum_k xi_k c_k c_6)
              - 2 i w' xin/(1+xin^2)^3 ],
    which is, with xin = -i etan and the factor i of the odd tangential
    terms left implicit,
    (fh)^-2 [ -1/(etan^2-1)^2 (5/2 w' etan - 1/2 w' sum_k xi_k c_k c_6)
              + 2 w' etan/(etan^2-1)^3 ].
    """
    got = BoundaryExpr.from_symbol(boundary_parametrix().b3)
    keep = {}
    for key, rat in got.terms.items():
        r = XiRat({basis: ScalarExpr({m: c for m, c in coeff.terms.items()
                                      if any(a == ("wp",) for a, _ in m)})
                   for basis, coeff in rat.terms.items()})
        if r:
            keep[key] = r
    C = fh_pow(-2) * wp()
    want = {}
    # scalar piece: -(5/2) C etan (etan^2-1)^-2 + 2 C etan (etan^2-1)^-3
    want[((0, 0, 0, 0, 0), ())] = (
        XiRat.ratio((ScalarExpr.zero(), C * sc(-5, 2)), 2, 2)
        + XiRat.ratio((ScalarExpr.zero(), C * sc(2)), 3, 3))
    # bivector pieces: + (1/2) C xi_k c_k c_6 / (etan^2-1)^2, times i
    for k in range(1, 6):
        exps = [0] * 5
        exps[k - 1] = 1
        want[(tuple(exps), (k, 6))] = XiRat.ratio((C * sc(1, 2),), 2, 2)
    assert keep == want


def test_boundary_sigma_flat_product_case_vanishes():
    got = BoundaryExpr.from_symbol(boundary_parametrix().b3)
    flat = {}
    for key, rat in got.terms.items():
        def kill(coeff):
            return ScalarExpr({m: c for m, c in coeff.terms.items()
                               if not any(a == ("wp",) or (a[0] in ("f", "h") and a[1])
                                          for a, _ in m)})
        r = XiRat({basis: kill(c) for basis, c in rat.terms.items()})
        if r:
            flat[key] = r
    assert flat == {}


def test_boundary_restriction_is_multiplicative():
    # the restriction to |xi'| = 1 is a ring map: the sign (-1)^(t // 2) of
    # from_symbol and the -1 of two implicit factors i in BoundaryExpr.mul
    # must agree with the symbol product for every parity of t
    r = random.Random(11)
    for _ in range(60):
        S = rand_symbol(r, (2, 1, 0))
        T = rand_symbol(r, (1, 0, -1, -2))
        assert (BoundaryExpr.from_symbol(S.mul(T))
                == BoundaryExpr.from_symbol(S).mul(BoundaryExpr.from_symbol(T)))
    cxi = BoundaryExpr.from_symbol(SymbolExpr.xi_covector())
    cxi_sq = BoundaryExpr.from_symbol(
        SymbolExpr.xi_covector().mul(SymbolExpr.xi_covector()))
    assert cxi.mul(cxi) == cxi_sq


# ---------------------------------------------------------------------------
# the five cases


def test_phi_1_vanishes():
    assert phi_case_value("a.I").is_zero()


def test_phi_2_matches_printed():
    v = phi_case_value("a.II")
    assert v == tables.printed_boundary_value("a.II")


def test_phi_2_magnitude_structure():
    piom = pi_atom() * omega4()
    want = (fh_pow(-2) * sc(1, 2) * fh_pow(-2).derive_x(6)
            + fh_pow(-4) * sc(-5, 8) * wp()) * piom
    assert phi_case_value("a.II") == want


def test_phi_3_is_minus_phi_2():
    assert (phi_case_value("a.II") + phi_case_value("a.III")).is_zero()


def test_phi_4_forced_value():
    assert phi_case_value("b") == (tables.printed_boundary_value("b")
                                   + FROZEN_DIFFERENCES["boundary/case-b"]())


def test_phi_4_plus_phi_5_vanishes():
    assert (phi_case_value("b") + phi_case_value("c")).is_zero()


def test_phi_total_vanishes():
    assert phi_total().is_zero()


def test_phi_total_vanishes_with_constant_warp():
    kill_wp = lambda e: ScalarExpr(
        {m: c for m, c in e.terms.items() if not any(a == ("wp",) for a, _ in m)})
    a2 = kill_wp(phi_case_value("a.II"))
    a3 = kill_wp(phi_case_value("a.III"))
    b = kill_wp(phi_case_value("b"))
    c = kill_wp(phi_case_value("c"))
    assert (a2 + a3).is_zero() and (b + c).is_zero()
    assert not a2.is_zero() and not b.is_zero()


def test_case_table_is_the_order_constraint():
    """The boundary term sums over r + l - k - |alpha| - j - 1 = -6 with
    r, l <= -2 and j, k, |alpha| >= 0.  Then j + k + |alpha| = r + l + 5 <= 1
    and r, l >= -3, so the box below holds every solution."""
    solutions = {(r, l, j, k, nalpha)
                 for r in range(-8, -1) for l in range(-8, -1)
                 for j in range(4) for k in range(4) for nalpha in range(4)
                 if r + l - k - nalpha - j - 1 == -6}
    table = [(d["r"], d["l"], d["j"], d["k"], d["nalpha"])
             for d in CASE_DATA.values()]
    assert len(table) == len(set(table)) == 5
    assert solutions == set(table)


def _case_verdict(case):
    return tables.judge(f"boundary/case-{case}", phi_case_value(case),
                        tables.printed_boundary_value(case))["verdict"]


def test_case_verdicts():
    assert _case_verdict("a.I") == "match"
    assert _case_verdict("a.II") == "match"
    assert _case_verdict("a.III") == "match"
    assert _case_verdict("b") == "diff (ledgered)"
    assert _case_verdict("c") == "diff (ledgered)"


def test_case_b_diff_is_exactly_the_ledgered_correction():
    diff = phi_case_value("b") - tables.printed_boundary_value("b")
    assert diff == boundary_case_correction()


def test_phi_case_values_against_quadrature():
    """End-to-end numeric oracle for the definitional case integrands."""
    par = boundary_parametrix()
    found = set()
    for S in (par.b2, par.b3):
        for o, terms in S.orders.items():
            for mono, el in terms.items():
                for w, c in el.terms.items():
                    found |= atoms(c)
    local = random.Random(5151)
    for case in ("b", "c"):
        left_order = CASE_DATA[case]["r"]
        right_order = CASE_DATA[case]["l"]
        left = BoundaryExpr.from_symbol(par.b2 if left_order == -2 else par.b3).pi_plus()
        right = BoundaryExpr.from_symbol(par.b2 if right_order == -2 else par.b3).derive_xin()
        integ = left.mul(right).trace().integrate_tangential()
        exact = integ.contour_integral()
        for _ in range(3):
            assign = {a: Fraction(local.randint(1, 7), local.randint(1, 3))
                      for a in sorted(found)}
            num_assign = {a: to_complex(v) for a, v in assign.items()}
            num_assign[("Om4",)] = 1.0
            quad = contour_quadrature(
                lambda z: evaluate_xirat(integ, num_assign, z))
            ex_assign = dict(num_assign)
            ex_assign[("pi",)] = math.pi
            val = evaluate_complex(exact, ex_assign)
            assert abs(val - quad) <= 1e-9 * max(1.0, abs(val))
        got = phi_case_value(case)
        want_assign = dict(num_assign)
        want_assign[("pi",)] = math.pi
        assert abs(evaluate_complex(got, want_assign) - val) <= 1e-9 * max(1.0, abs(val))
