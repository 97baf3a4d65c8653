"""Reality grading: every symbol is real up to the phase of its xi-degree.

Cl_{0,6} is the real matrix algebra M_8(R) (Lawson and Michelsohn, "Spin
Geometry", Ch. I 4), so D has real coefficients in a real representation
and its symbol satisfies p(x, -xi) = conj p(x, xi).  Composition and
inversion keep that property.  So every coefficient of a term of xi-degree
k lies in i^k Q, and the package stores it as the rational i^-k c (the real
gauge of the ``symbols`` module).  The checks read no frozen value: a
coefficient that is not an exact rational in canonical form fails them, and
so does a printed symbol read with a factor i its degrees do not allow.
"""

from fractions import Fraction

import pytest

from wres6 import tables
from wres6.boundary import CASE_DATA, boundary_parametrix, phi_case_value
from wres6.calculus import (
    build_d2_symbols,
    build_d_symbols,
    build_q_symbols,
    interior_parametrix,
    qinv_square_sigma6,
)
from wres6.scalars import sc
from wres6.symbols import BOUNDARY, INTERIOR, SymbolExpr, xim_degree


def entries(S):
    """Every (xi-monomial, word, monomial, coefficient) entry of a symbol."""
    for xim, el in S.terms.items():
        for word, coeff in el.terms.items():
            for mono, g in coeff.terms.items():
                yield xim, word, mono, g


SYMBOLS = {
    "D": lambda: [build_d_symbols()],
    "D2": lambda: [build_d2_symbols()],
    "Q": lambda: [build_q_symbols(), build_q_symbols(INTERIOR),
                  build_q_symbols(BOUNDARY)],
    "interior-parametrix": lambda: [interior_parametrix().b2,
                                    interior_parametrix().b3,
                                    interior_parametrix().b4],
    "sigma6": lambda: [qinv_square_sigma6()],
    "boundary-parametrix": lambda: [boundary_parametrix().b2,
                                    boundary_parametrix().b3],
    "printed-lines": lambda: [tables.printed_expansion_line(idx)
                              for idx in range(1, 22)],
    "printed-qinv": lambda: [tables.printed_qinv_order(k) for k in (-2, -3, -4)],
    "frozen-differences": lambda: [tables.forced_qinv4_correction(),
                                   tables.expected_sigma6_diff()],
}


def is_rational(g) -> bool:
    return type(g) is int or type(g) is Fraction


@pytest.mark.parametrize("name", SYMBOLS)
def test_symbol_is_real_up_to_its_degree_phase(name):
    symbols = SYMBOLS[name]()
    assert any(symbols)  # printed line 19 is zero on its own
    for S in symbols:
        assert [e for e in entries(S) if not is_rational(e[3])] == []


def non_canonical(coeffs):
    """Coefficients that are not an int or a Fraction with denominator > 1:
    a float, a complex, or an integral Fraction that should be an int."""
    return [g for g in coeffs
            if not (type(g) is int
                    or (type(g) is Fraction and g.denominator > 1))]


@pytest.mark.parametrize("name", SYMBOLS)
def test_symbol_coefficient_parts_are_canonical(name):
    for S in SYMBOLS[name]():
        coeffs = [g for *_, g in entries(S)]
        assert all(coeffs)  # sums built without a copy keep no zero entry
        assert non_canonical(coeffs) == []


def test_phi_case_value_parts_are_canonical():
    for case in CASE_DATA:
        assert non_canonical(phi_case_value(case).terms.values()) == []


def test_canonical_check_flags_a_float_and_an_integral_fraction():
    assert non_canonical([1, -7, Fraction(2, 3)]) == []
    bad = [0.5, Fraction(3, 1), 2j, True]
    assert [type(g) for g in non_canonical(bad)] == [float, Fraction, complex, bool]


def test_phi_case_values_are_real():
    values = [phi_case_value(case) for case in CASE_DATA]
    assert any(values)  # a.I is zero
    for value in values:
        assert all(map(is_rational, value.terms.values()))


def test_grading_flags_a_stray_i():
    # the printed-table edge reads i^phase S into the real gauge only when
    # every term's degree has the parity of the phase
    cxi, norm = SymbolExpr.xi_covector(), SymbolExpr.norm_sq(1)
    assert tables._read_printed(cxi, 1) == cxi                  # i c(xi)
    assert tables._read_printed(norm, 0) == norm.scale(sc(-1))  # |xi|^2
    for S, phase in ((cxi, 0), (norm, 1), (build_d_symbols(), 1),
                     (build_d_symbols(), 0), (tables.printed_expansion_line(4), 1)):
        with pytest.raises(ValueError, match="cannot carry the phase"):
            tables._read_printed(S, phase)


# ---------------------------------------------------------------------------
# Weight grading
#
# Under f -> a f and h -> b h, Q = (fDh)^2 scales as a^2 b^2, so every
# scalar monomial of sigma_k(Q^-1) has f-weight -2 and h-weight -2.  A
# derivative counts 1, and so does each connection atom and w'(0); the
# curvature atoms s, R and curv0 count 2.  sigma_k(Q^-1) has order -2 - j
# after j derivatives, so a monomial of sigma_k carries -2 - k of them;
# sigma_-6(Q^-2) carries 2, with weights (-4, -4).  Like the phase check,
# this reads no frozen value.

_DERIVATIVE_WEIGHT = {"wp": 1, "Gam": 1, "sig": 1, "om": 1,
                      "s": 2, "R": 2, "curv0": 2}


def monomial_weights(mono):
    """(f-weight, h-weight, derivative count) of one scalar monomial."""
    fw = hw = d = 0
    for atom, exp in mono:
        kind = atom[0]
        if kind == "f":
            fw += exp
        elif kind == "h":
            hw += exp
        else:
            d += exp * _DERIVATIVE_WEIGHT[kind]
        if kind in ("f", "h", "s"):
            d += exp * len(atom[1])
    return fw, hw, d


def weight_violations(S, fw, hw, shift):
    """Entries of S whose monomial weights are not (fw, hw, shift - degree)."""
    return [(xim, word, mono) for xim, word, mono, _ in entries(S)
            if monomial_weights(mono) != (fw, hw, shift - xim_degree(xim))]


WEIGHTED = {
    # name -> (symbols, f-weight, h-weight, derivatives + order)
    "Q": (lambda: [build_q_symbols(), build_q_symbols(INTERIOR),
                   build_q_symbols(BOUNDARY)], 2, 2, 2),
    "interior-parametrix": (lambda: [interior_parametrix().b2,
                                     interior_parametrix().b3,
                                     interior_parametrix().b4], -2, -2, -2),
    "boundary-parametrix": (lambda: [boundary_parametrix().b2,
                                     boundary_parametrix().b3], -2, -2, -2),
    "sigma6": (lambda: [qinv_square_sigma6()], -4, -4, -4),
    "printed-lines": (lambda: [tables.printed_expansion_line(idx)
                               for idx in range(1, 22)], -4, -4, -4),
    "printed-qinv-2-3": (lambda: [tables.printed_qinv_order(k)
                                  for k in (-2, -3)], -2, -2, -2),
}


@pytest.mark.parametrize("name", WEIGHTED)
def test_symbol_has_the_weights_of_its_operator(name):
    build, fw, hw, shift = WEIGHTED[name]
    for S in build():
        assert weight_violations(S, fw, hw, shift) == []


def test_weights_flag_the_spurious_factor_of_printed_b4():
    """The printed order -4 symbol breaks the f-weight exactly on its
    second-derivative term, found without reading the ledger."""
    printed = tables.printed_qinv_order(-4)
    bad = weight_violations(printed, -2, -2, -2)
    assert len(bad) == 78
    # forced minus printed holds the printed term, of f-weight -1, and the
    # forced one; adding it leaves no violation
    correction = tables.forced_qinv4_correction()
    assert set(bad) == {(xim, word, mono) for xim, word, mono, _ in entries(correction)
                        if monomial_weights(mono)[0] == -1}
    assert weight_violations(printed + correction, -2, -2, -2) == []
