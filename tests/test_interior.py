import itertools
import random
from fractions import Fraction

import pytest

from wres6 import tables
from wres6.calculus import qinv_square_sigma6
from wres6.interior import (
    FreeIndexError,
    integrate_trace,
    interior_density,
    sphere_moment,
    term_table,
    theorem_check_interior,
)
from wres6.scalars import (
    ScalarExpr,
    area_s6,
    f_pow,
    fh_pow,
    h_pow,
    pi_atom,
    riem,
    s_atom,
    sc,
    subst_area,
)
from wres6.symbols import SymbolExpr, xim_degree, xim_norm

from oracles import (
    atoms,
    evaluate,
    gamma_moment,
    mat_identity,
    mat_mul,
    mat_trace,
    matrix_oracle,
)

rng = random.Random(404)


def test_second_moment():
    assert sphere_moment((2, 0, 0, 0, 0, 0)) == Fraction(1, 6)


def test_odd_moment_vanishes():
    assert sphere_moment((1, 1, 0, 0, 0, 0)) == 0
    assert sphere_moment((3, 0, 0, 1, 0, 0)) == 0


def test_sixth_moment_distinct_pairs():
    assert sphere_moment((2, 2, 2, 0, 0, 0)) == Fraction(1, 480)


def test_moment_normalization():
    total = sum(sphere_moment(tuple(2 if i == j else 0 for i in range(6)))
                for j in range(6))
    assert total == 1


def test_recurrence_matches_gamma_formula_all_keys():
    # every even key of total degree <= 6 over six variables
    for degs in itertools.product(range(0, 7, 2), repeat=6):
        if sum(degs) > 6:
            continue
        assert sphere_moment(degs) == gamma_moment(degs)


def test_s4_moments_match_gamma():
    # every even key of total degree <= 6 on S^2, S^3 and S^4: the sphere's
    # dimension is read from the length of the key
    for n in (3, 4, 5):
        for degs in itertools.product(range(0, 7, 2), repeat=n):
            if sum(degs) <= 6:
                assert sphere_moment(degs) == gamma_moment(degs)
    assert sphere_moment((2, 0, 0, 0, 0)) == Fraction(1, 5)
    assert sphere_moment((2, 2, 0, 0, 0)) == Fraction(1, 35)
    assert sphere_moment((4, 0, 0, 0, 0)) == Fraction(3, 35)
    assert sphere_moment((1, 1, 0, 0, 0)) == 0


def test_integrate_scalar_curvature_line():
    line = tables.printed_expansion_line(1)
    got = integrate_trace(line)
    assert got == fh_pow(-4) * sc(-4) * s_atom() * area_s6()


def test_integrate_riemann_contraction_line():
    line = tables.printed_expansion_line(2)
    got = integrate_trace(line)
    assert got == fh_pow(-4) * sc(8, 3) * s_atom() * area_s6()


def test_integrate_second_derivative_line():
    got = integrate_trace(tables.printed_expansion_line(7))
    lap_h = ScalarExpr.zero()
    for j in range(1, 7):
        lap_h = lap_h + h_pow(1).derive_x(j).derive_x(j)
    assert got == fh_pow(-5) * f_pow(1) * sc(-16) * lap_h * area_s6()


def test_integrate_vanishing_line():
    assert integrate_trace(tables.printed_expansion_line(19)).is_zero()


@pytest.mark.parametrize("idx", [0, 22])
def test_printed_tables_reject_out_of_range_index(idx):
    with pytest.raises(ValueError, match="out of range"):
        tables.printed_term_value(idx)
    with pytest.raises(ValueError, match="out of range"):
        tables.printed_expansion_line(idx)


def test_odd_integrand_integrates_to_zero():
    # any integrand odd under xi -> -xi integrates to zero
    for _ in range(50):
        exps = [0] * 6
        for _ in range(rng.choice([1, 3])):
            exps[rng.randint(0, 5)] += 1
        S = SymbolExpr.scalar_term((tuple(exps), -3),
                                   fh_pow(-2) * sc(rng.randint(1, 5)))
        assert integrate_trace(S).is_zero()


def test_free_riemann_index_rejected():
    S = SymbolExpr.scalar_term(xim_norm(-3), riem(1, 1))
    with pytest.raises(FreeIndexError):
        integrate_trace(S)


def test_term_table_verdicts():
    verdicts = {r["index"]: r["verdict"] for r in term_table()}
    for idx in range(1, 22):
        if idx in (8, 13, 17):
            assert verdicts[idx] == "diff (ledgered)"
        else:
            assert verdicts[idx] == "match", f"term {idx}"


def _printed_plus_frozen(idx):
    diff = tables.FROZEN_DIFFERENCES[f"interior/term-{idx:02d}"]()
    return tables.printed_term_value(idx) + diff


def test_term_table_ledgered_rows_match_frozen_forced_values():
    records = {r["index"]: r for r in term_table()}
    for idx in (8, 13, 17):
        assert records[idx]["computed"] == _printed_plus_frozen(idx)


def test_term_record_2_value():
    records = {r["index"]: r for r in term_table()}
    assert records[2]["computed"] == fh_pow(-4) * sc(1, 3) * s_atom() * sc(8) * area_s6()


def test_term_record_4_value():
    records = {r["index"]: r for r in term_table()}
    grad = ScalarExpr.zero()
    for j in range(1, 7):
        grad = grad + h_pow(1).derive_x(j) * fh_pow(1).derive_x(j)
    want = fh_pow(-6) * f_pow(1) * sc(22, 3) * grad * sc(8) * area_s6()
    assert records[4]["computed"] == want


def test_partition_property():
    """Integrating the whole symbol equals summing over a term partition.

    The Riemann contraction is only defined on complete diagonal families,
    so the terms that carry an R atom stay together in one part; every
    other term is a part of its own.
    """
    s6 = qinv_square_sigma6()
    curved = SymbolExpr({mono: el for mono, el in s6.terms.items()
                         if any(a[0] == "R" for c in el.terms.values()
                                for a in atoms(c))})
    assert curved
    acc = integrate_trace(curved)
    for mono, el in s6.terms.items():
        if mono not in curved.terms:
            acc = acc + integrate_trace(SymbolExpr.term(mono, el))
    assert acc == integrate_trace(s6)


def test_flat_density_is_kkw_value():
    one = {"f": ScalarExpr.one(), "h": ScalarExpr.one()}
    dens = subst_area(interior_density()).map_func_atoms(one)
    assert dens == sc(-4, 3) * s_atom() * pi_atom(3)


def test_theorem_diff_is_frozen_and_ledgered():
    cmp1 = theorem_check_interior()
    assert cmp1["verdict"] == "diff (ledgered)"
    assert cmp1["computed"] - cmp1["paper"] == tables.expected_density_diff()


def test_theorem_diff_byte_stable():
    a, b = (str(row["computed"] - row["paper"])
            for row in (theorem_check_interior(), theorem_check_interior()))
    assert a == b and a


def test_theorem_flat_specialization_matches():
    one = {"f": ScalarExpr.one(), "h": ScalarExpr.one()}
    cmp1 = theorem_check_interior(specialize=one)
    assert cmp1["verdict"] == "match"


def test_theorem_fh_constant_specialization_matches():
    from wres6.cli import parse_specialization

    cmp1 = theorem_check_interior(specialize=parse_specialization("fh=1"))
    assert cmp1["verdict"] == "match"


def _word_traces():
    """Trace of each word's matrix product in the 8x8 representation."""
    mats = matrix_oracle()
    cache = {}

    def trace_of(word):
        if word not in cache:
            m = mat_identity()
            for i in word:
                m = mat_mul(m, mats[i - 1])
            cache[word] = mat_trace(m)
        return cache[word]

    return trace_of


def _numeric_integrate_trace(S: SymbolExpr, assign, trace_of) -> Fraction:
    """Independent route: matrix-representation trace + Gamma moments.

    A term of even degree k stored in the real gauge is i^k = (-1)^(k/2)
    times its coefficient in xi.
    """
    total = Fraction(0)
    for (exps, p), el in S.terms.items():
        m = gamma_moment(exps)
        if not m:
            continue
        phase = -1 if xim_degree((exps, p)) % 4 else 1
        for w, c in el.terms.items():
            tw = trace_of(w)
            if tw:
                total += evaluate(c, assign) * tw * m * phase
    return total


def test_term_13_numeric_oracle():
    """The four-generator trace term, checked against the matrix/Gamma path."""
    line = tables.printed_expansion_line(13)
    forced = _printed_plus_frozen(13)
    assert integrate_trace(line) == forced
    trace_of = _word_traces()
    local = random.Random(131)
    for _ in range(20):
        found = set()
        for o, terms in line.orders.items():
            for mono, el in terms.items():
                for w, cf in el.terms.items():
                    found |= atoms(cf)
        assign = {a: Fraction(local.randint(1, 9), local.randint(1, 4))
                  for a in sorted(found)}
        assign[("S6",)] = 1
        assert evaluate(forced, assign) == _numeric_integrate_trace(line, assign, trace_of)


def test_density_numeric_oracle_matrix_trace_and_gamma_moments():
    """Record-13-style oracle on the full computed symbol, 100 draws."""
    s6 = qinv_square_sigma6()
    found = set()
    for o, terms in s6.orders.items():
        for mono, el in terms.items():
            for w, c in el.terms.items():
                found |= atoms(c)
    dens = interior_density()
    trace_of = _word_traces()
    local = random.Random(17)
    for _ in range(100):
        assign = {}
        for a in sorted(found):
            if a[0] in ("f", "h") and not a[1]:
                assign[a] = Fraction(local.randint(1, 9), local.randint(1, 4))
            else:
                assign[a] = Fraction(local.randint(-6, 6), local.randint(1, 5))
        # contract the diagonal Riemann family consistently with s
        assign[("s", ())] = sum(assign.get(("R", a, a, ()), 0) for a in range(1, 7))
        assign[("S6",)] = 1
        exact = evaluate(dens, assign)
        oracle = _numeric_integrate_trace(s6, assign, trace_of)
        assert exact == oracle
