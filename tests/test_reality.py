"""Reality grading: every symbol is real up to the phase of its xi-degree.

Cl_{0,6} is the real matrix algebra M_8(R) (Lawson and Michelsohn, "Spin
Geometry", Ch. I 4), so D has real coefficients in a real representation
and its symbol satisfies p(x, -xi) = conj p(x, xi).  Composition and
inversion keep that property.  So every coefficient of a term of xi-degree
k lies in i^k Q: it is real for even k and imaginary for odd k.  The check
reads no frozen value, so a dropped or extra i in a symbol the pipeline
builds, or in a printed line, fails it on its own.
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
from wres6.scalars import G_I, GaussRat
from wres6.symbols import BOUNDARY, INTERIOR, SymbolExpr, xim_degree


def entries(S):
    """Every (xi-monomial, word, monomial, coefficient) entry of a symbol."""
    for xim, el in S.terms.items():
        for word, coeff in el.terms.items():
            for mono, g in coeff.terms.items():
                yield xim, word, mono, g


def grading_violations(S):
    """The entries of S whose coefficient is off the phase of its degree."""
    return [(xim, word, mono, g) for xim, word, mono, g in entries(S)
            if (g.re if xim_degree(xim) % 2 else g.im)]


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


@pytest.mark.parametrize("name", SYMBOLS)
def test_symbol_is_real_up_to_its_degree_phase(name):
    symbols = SYMBOLS[name]()
    assert any(symbols)  # printed line 19 is zero on its own
    for S in symbols:
        assert grading_violations(S) == []


def non_canonical_parts(coeffs):
    """Parts that are not an int or a Fraction with denominator > 1: a float,
    or an integral Fraction that should have been stored as an int."""
    return [part for g in coeffs for part in (g.re, g.im)
            if not (type(part) is int
                    or (type(part) is Fraction and part.denominator > 1))]


@pytest.mark.parametrize("name", SYMBOLS)
def test_symbol_coefficient_parts_are_canonical(name):
    for S in SYMBOLS[name]():
        coeffs = [g for *_, g in entries(S)]
        assert all(coeffs)  # sums built without a copy keep no zero entry
        assert non_canonical_parts(coeffs) == []


def test_phi_case_value_parts_are_canonical():
    for case in CASE_DATA:
        assert non_canonical_parts(phi_case_value(case).terms.values()) == []


def _raw_gauss(re, im):
    """A GaussRat with its parts set as given, bypassing normalization."""
    g = object.__new__(GaussRat)
    object.__setattr__(g, "re", re)
    object.__setattr__(g, "im", im)
    return g


def test_canonical_check_flags_a_float_and_an_integral_fraction():
    assert non_canonical_parts([GaussRat(1), GaussRat(0, Fraction(2, 3))]) == []
    bad = [_raw_gauss(0.5, 0), _raw_gauss(Fraction(3, 1), Fraction(1, 2))]
    assert [type(p) for p in non_canonical_parts(bad)] == [float, Fraction]


def test_phi_case_values_are_real():
    for case in CASE_DATA:
        value = phi_case_value(case)
        assert [g for g in value.terms.values() if g.im] == []


def test_grading_flags_a_stray_i():
    S = build_d_symbols()
    assert len(grading_violations(S.scale(G_I))) == len(list(entries(S)))
    # one wrong entry among right ones
    xim, el = next(iter(S.terms.items()))
    bad = S + SymbolExpr.term(xim, el.scale(G_I * 3))
    assert grading_violations(bad)
