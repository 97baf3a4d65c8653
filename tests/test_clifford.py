import random
from fractions import Fraction

import pytest

from wres6.clifford import CliffordElement
from wres6.scalars import ScalarExpr, sc

from oracles import (
    element_to_matrix,
    evaluate,
    mat_identity,
    mat_mul,
    mat_scale,
    mat_trace,
    matrix_oracle,
)

rng = random.Random(99)


def c(i):
    return CliffordElement.generator(i)


def test_square_is_minus_one():
    assert c(1) * c(1) == CliffordElement.identity(sc(-1))


@pytest.mark.parametrize("i", range(1, 7))
def test_square_plus_identity_cancels(i):
    z = c(i) * c(i) + CliffordElement.identity()
    assert not z
    assert z.terms == {}


def test_anticommutation():
    assert c(1) * c(2) == CliffordElement.word((1, 2))
    assert c(2) * c(1) == CliffordElement.word((1, 2), coeff=sc(-1))


def test_double_swap_contracts():
    w = CliffordElement.word((1, 2))
    assert w * w == CliffordElement.identity(sc(-1))


def test_trace_identity_and_words():
    assert CliffordElement.identity().trace() == sc(8)
    assert CliffordElement.word((1, 2)).trace() == sc(0)
    assert (c(1) * c(1)).trace() == sc(-8)


def test_trace_two_generators_is_minus_8_delta():
    for i in range(1, 7):
        for j in range(1, 7):
            t = (c(i) * c(j)).trace()
            assert t == (sc(-8) if i == j else sc(0))


def test_four_generator_trace_against_matrices():
    mats = matrix_oracle()
    pairs = {(i, j): mat_mul(mats[i - 1], mats[j - 1])
             for i in range(1, 7) for j in range(1, 7)}
    for i in range(1, 7):
        for j in range(1, 7):
            a = pairs[(i, j)]
            for k in range(1, 7):
                for l in range(1, 7):
                    b = pairs[(k, l)]
                    # tr(AB) without forming the product
                    want = sum(a[r][s] * b[s][r]
                               for r in range(8) for s in range(8))
                    sym = (c(i) * c(j) * c(k) * c(l)).trace()
                    assert sym == ScalarExpr.const(want)


def test_matrix_relations_exact():
    mats = matrix_oracle()
    for m in mats:
        for row in m:
            for x in row:
                assert type(x) is int and x in (0, 1, -1)
    minus2 = mat_scale(mat_identity(), -2)
    zero = mat_scale(mat_identity(), 0)
    for i in range(6):
        for j in range(6):
            anti = _mat_add(mat_mul(mats[i], mats[j]), mat_mul(mats[j], mats[i]))
            assert anti == (minus2 if i == j else zero)
    assert mat_trace(mat_identity()) == 8


def _mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def rand_element(max_terms=3):
    el = CliffordElement.zero()
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 4))))
        coeff = ScalarExpr.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        el = el + CliffordElement({word: coeff})
    return el


def test_associativity_randomized():
    for _ in range(1000):
        a, b, cc = rand_element(), rand_element(), rand_element()
        assert (a * b) * cc == a * (b * cc)


def test_trace_cyclicity_randomized():
    for _ in range(1000):
        a, b = rand_element(), rand_element()
        assert (a * b).trace() == (b * a).trace()


def test_odd_word_traceless():
    for _ in range(1000):
        word = tuple(sorted(rng.sample(range(1, 7), rng.choice([1, 3, 5]))))
        el = CliffordElement({word: ScalarExpr.one()})
        assert el.trace().is_zero()


def test_symbolic_trace_matches_matrix_trace():
    for _ in range(100):
        el = CliffordElement.zero()
        atoms = [("f", ()), ("h", ()), ("f", (1,)), ("h", (2,))]
        for _ in range(rng.randint(1, 3)):
            word = tuple(sorted(rng.sample(range(1, 7), rng.randint(0, 3))))
            coeff = ScalarExpr.one()
            for _ in range(rng.randint(0, 2)):
                coeff = coeff * ScalarExpr.atom(rng.choice(atoms))
            coeff = coeff * sc(rng.randint(-4, 4))
            el = el + CliffordElement({word: coeff})
        assign = {a: Fraction(rng.randint(1, 7), rng.randint(1, 3))
                  for a in atoms}
        sym = evaluate(el.trace(), assign)
        mat = mat_trace(element_to_matrix(el, assign))
        assert sym == mat
