import random
import re
from fractions import Fraction

import pytest

from wres6.scalars import (
    DerivativeOrderError,
    ScalarExpr,
    area_s6,
    curv0,
    f_pow,
    fh_pow,
    group_for_display,
    gam,
    h_pow,
    omega,
    omega4,
    pi_atom,
    riem,
    s_atom,
    sc,
    sig,
    subst_area,
    u_pow,
    wp,
)

from oracles import _solver_patterns, atoms, dfunc, evaluate, rref_grouping

rng = random.Random(20240811)


def rand_coeff():
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def rand_expr(max_terms=4, allow_derivs=True):
    e = ScalarExpr.zero()
    for _ in range(rng.randint(1, max_terms)):
        mono = ScalarExpr.const(rand_coeff())
        for _ in range(rng.randint(0, 3)):
            kind = rng.randint(0, 3 if allow_derivs else 1)
            if kind == 0:
                mono = mono * f_pow(rng.choice([-2, -1, 1, 2]))
            elif kind == 1:
                mono = mono * h_pow(rng.choice([-2, -1, 1, 2]))
            elif kind == 2:
                mono = mono * dfunc(rng.choice("fh"), rng.randint(1, 6))
            else:
                mono = mono * wp()
        e = e + mono
    return e


def test_commutativity_cancels():
    assert (f_pow(1) * h_pow(1) - h_pow(1) * f_pow(1)).is_zero()


def test_power_composites_expand():
    assert fh_pow(-2) == f_pow(-2) * h_pow(-2)
    assert (f_pow(-2) * h_pow(-3)) == fh_pow(-3) * f_pow(1)


def test_ring_laws_randomized():
    for _ in range(120):
        a, b, c = rand_expr(), rand_expr(), rand_expr()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def _f_h_to_u(e):
    return e.map_func_atoms({"f": u_pow(2), "h": u_pow(-1)})


@pytest.mark.parametrize("rewrite, expr, want", [
    (subst_area, area_s6() ** 2 * sc(3), pi_atom(6) * sc(3)),
    (subst_area, area_s6() * s_atom() + riem(1, 2) * wp() * f_pow(-1),
     pi_atom(3) * s_atom() + riem(1, 2) * wp() * f_pow(-1)),
    (_f_h_to_u, f_pow(2) * s_atom() + h_pow(-1) * riem(1, 2) * wp(),
     u_pow(4) * s_atom() + u_pow(1) * riem(1, 2) * wp()),
    (_f_h_to_u, s_atom() * pi_atom(2) * sc(5) + wp(),
     s_atom() * pi_atom(2) * sc(5) + wp()),
], ids=["area-squared", "area-others-kept", "func-atoms", "geometric-only"])
def test_atom_rewrites_touch_only_their_atoms(rewrite, expr, want):
    assert rewrite(expr) == want


def test_derive_chain_rule_simple():
    assert (f_pow(2)).derive_x(1) == sc(2) * f_pow(1) * dfunc("f", 1)


def test_derive_product_inverse():
    for j in range(1, 7):
        got = (f_pow(-1) * h_pow(-1)).derive_x(j)
        want = (-f_pow(-2) * h_pow(-1) * dfunc("f", j)
                - f_pow(-1) * h_pow(-2) * dfunc("h", j))
        assert got == want


# curvature and connection atoms are values at the point: no derivative
POINT_VALUES = [s_atom(), riem(1, 2), gam(6), sig(1), omega(3, 3, 6), curv0()]


@pytest.mark.parametrize("atom", POINT_VALUES, ids=str)
def test_derivative_of_a_point_value_raises(atom):
    e = f_pow(2) * atom + h_pow(-1)
    for j in (1, 6):
        with pytest.raises(DerivativeOrderError, match=re.escape(str(atom))):
            e.derive_x(j)


@pytest.mark.parametrize("const", [wp(), area_s6(), omega4(), pi_atom()],
                         ids=str)
def test_constants_differentiate_to_zero(const):
    for j in range(1, 7):
        assert const.derive_x(j).is_zero()
        assert (const * f_pow(1)).derive_x(j) == const * dfunc("f", j)


def test_derived_curvature_atoms_are_rejected():
    for atom in (("s", (3,)), ("R", 1, 2, (4,))):
        with pytest.raises(ValueError, match="no derivative"):
            ScalarExpr.atom(atom)


def test_derive_leibniz_randomized():
    for _ in range(100):
        a = rand_expr(allow_derivs=False)
        b = rand_expr(allow_derivs=False)
        j = rng.randint(1, 6)
        assert (a * b).derive_x(j) == a.derive_x(j) * b + a * b.derive_x(j)
    # first-order atoms and wp in one factor; three factors
    for _ in range(60):
        a, b, c = rand_expr(3), rand_expr(3, False), rand_expr(3, False)
        j = rng.randint(1, 6)
        want = (a.derive_x(j) * b * c + a * b.derive_x(j) * c
                + a * b * c.derive_x(j))
        assert (a * b * c).derive_x(j) == want


def test_derivative_cap_rejected():
    e = dfunc("h", 1, 2)
    with pytest.raises(DerivativeOrderError, match="exceeds order"):
        e.derive_x(3)
    # the cap fires on the second-order atom wherever it sits in a sum
    e = f_pow(-2) * h_pow(1) + wp() * dfunc("f", 2, 5) * sc(3, 2)
    with pytest.raises(DerivativeOrderError, match="exceeds order"):
        e.derive_x(1)


def test_derive_linearity_randomized():
    local = random.Random(11)
    for _ in range(60):
        a, b = rand_expr(), rand_expr()
        k = ScalarExpr.const(rand_coeff())
        j = local.randint(1, 6)
        got = (a * k + b).derive_x(j)
        assert got == a.derive_x(j) * k + b.derive_x(j)


# -- canonical coefficients -------------------------------------------------


def _assert_canonical(c):
    """An int exactly when integral, else a Fraction with denominator > 1."""
    assert type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _coeff(e):
    (_, c), = e.terms.items()
    return c


def test_int_parts_never_divide_into_a_float():
    local = random.Random(29)
    for _ in range(300):
        y = local.randint(-6, 6) or 1
        inv = (f_pow(local.randint(-3, 3) or 1) * sc(y)).inverse_monomial()
        _assert_canonical(_coeff(inv))
        assert _coeff(inv) == Fraction(1, y)
        n, d = local.randint(-12, 12) or 1, local.randint(1, 6)
        c = _coeff(sc(n, d))
        _assert_canonical(c)
        assert c == Fraction(n, d)
        # products, sums and derivatives that come out integral are ints
        for e in (sc(n, d) * sc(d), sc(n, d) + sc(n * (d - 1), d),
                  (f_pow(2) * sc(n, 2 * d)).derive_x(1) * sc(d)):
            _assert_canonical(_coeff(e))
            assert type(_coeff(e)) is int


def test_scalarexpr_hash_agrees_with_equality():
    for n in (3, 0, Fraction(-1, 6)):
        c = ScalarExpr.const(n)
        assert c == n
        assert hash(c) == hash(n)
        assert {c: 1}.get(n) == 1
        assert {n: 1}.get(c) == 1
    assert hash(ScalarExpr.zero()) == hash(0)
    e = f_pow(2) * h_pow(-1) + sc(3)
    assert hash(e) == hash(sc(3) + h_pow(-1) * f_pow(2))


def _poly_jets(rng):
    """Random quadratic jets for f and h: values, gradients, Hessians."""
    jets = {}
    for base in ("f", "h"):
        val = Fraction(rng.randint(2, 5), rng.randint(1, 2))
        grad = [Fraction(rng.randint(-3, 3), 7) for _ in range(6)]
        hess = [[Fraction(rng.randint(-2, 2), 11) for _ in range(6)]
                for _ in range(6)]
        for j in range(6):
            for l in range(j):
                hess[j][l] = hess[l][j]
        jets[base] = (val, grad, hess)
    return jets


def _jet_assign(jets, x):
    """Atom values of f, h and their derivatives at the shifted point x."""
    out = {}
    for base, (val, grad, hess) in jets.items():
        v = val + sum(grad[j] * x[j] for j in range(6))
        v += Fraction(1, 2) * sum(hess[j][l] * x[j] * x[l]
                                  for j in range(6) for l in range(6))
        out[(base, ())] = v
        for j in range(6):
            dv = grad[j] + sum(hess[j][l] * x[l] for l in range(6))
            out[(base, (j + 1,))] = dv
            for l in range(j, 6):
                out[(base, tuple(sorted((j + 1, l + 1))))] = hess[j][l]
    return out


def _numeric(e, jets, x):
    return complex(evaluate(e, _jet_assign(jets, x)))


def test_derive_matches_finite_differences():
    """Finite-difference oracle on power composites, tolerance 1e-9."""
    targets = [
        f_pow(-2) * h_pow(-3),            # (fh)^-3 f
        fh_pow(-2),
        f_pow(3) * h_pow(-1),
        f_pow(1) * h_pow(1),
    ]
    local = random.Random(11)
    for e in targets:
        jets = _poly_jets(local)
        j = local.randint(1, 6)
        sym = e.derive_x(j)
        x0 = [Fraction(0)] * 6
        exact = _numeric(sym, jets, x0).real
        h1 = 1e-4
        for step in (h1, h1 / 2):
            xp = list(x0)
            xm = list(x0)
            xp[j - 1] = Fraction(step).limit_denominator(10**12)
            xm[j - 1] = -xp[j - 1]
            if step == h1:
                d1 = (_numeric(e, jets, xp).real - _numeric(e, jets, xm).real) / (2 * step)
            else:
                d2 = (_numeric(e, jets, xp).real - _numeric(e, jets, xm).real) / (2 * step)
        richardson = (4 * d2 - d1) / 3
        assert abs(richardson - exact) <= 1e-9 * max(1.0, abs(exact))


def test_evaluation_commutes_with_operations():
    local = random.Random(5)
    for _ in range(50):
        a = rand_expr(allow_derivs=False)
        b = rand_expr(allow_derivs=False)
        assign = {}
        for atom in atoms(a * b + a):
            assign[atom] = Fraction(local.randint(1, 9), local.randint(1, 4))
        va, vb = evaluate(a, assign), evaluate(b, assign)
        assert evaluate(a + b, assign) == va + vb
        assert evaluate(a * b, assign) == va * vb


def test_group_display_gradient_square():
    e = fh_pow(-6) * f_pow(2) * sc(-2) * _grad(h_pow(1), h_pow(1))
    assert group_for_display(e) == "-2*(fh)^-6*f^2*|grad[h]|^2"
    # a sum missing one coordinate stays expanded
    f = f_pow(1)
    e = sum((fh_pow(-2) * f.derive_x(j) * f.derive_x(j) for j in range(1, 6)),
            ScalarExpr.zero())
    assert group_for_display(e) == (
        "f^-2*d[1]f^2*h^-2 + f^-2*d[2]f^2*h^-2 + f^-2*d[3]f^2*h^-2"
        " + f^-2*d[4]f^2*h^-2 + f^-2*d[5]f^2*h^-2")
    # a complete group prints grouped beside a term of no group
    e = fh_pow(-1) * _grad(f, h_pow(1)) + sc(-1, 2) * fh_pow(-2) * s_atom()
    assert group_for_display(e) == (
        "(fh)^-1*g(grad[f],grad[h]) -(1/2)*f^-2*h^-2*s")


def test_group_display_laplacian():
    e = _lap(h_pow(1))
    assert group_for_display(e) == "lap[h]"
    # unequal coefficients across the coordinates stay expanded
    h = h_pow(1)
    e = sum((sc(j) * h.derive_x(j).derive_x(j) for j in range(1, 7)),
            ScalarExpr.zero())
    assert group_for_display(e) == (
        "d[1,1]h + 2*d[2,2]h + 3*d[3,3]h + 4*d[4,4]h + 5*d[5,5]h"
        " + 6*d[6,6]h")
    assert group_for_display(_lap(fh_pow(-2))) == (
        "6*(fh)^-4*h^2*|grad[f]|^2 +8*(fh)^-3*g(grad[f],grad[h])"
        " +6*(fh)^-4*f^2*|grad[h]|^2 -2*(fh)^-3*h*lap[f]"
        " -2*(fh)^-3*f*lap[h]")
    # u atoms belong to no group
    e = _lap(u_pow(3)) + _grad(u_pow(2), u_pow(-1))
    assert group_for_display(e) == (
        "-2*u^-1*d[1]u^2 - 2*u^-1*d[2]u^2 - 2*u^-1*d[3]u^2"
        " - 2*u^-1*d[4]u^2 - 2*u^-1*d[5]u^2 - 2*u^-1*d[6]u^2"
        " + 6*u*d[1]u^2 + 6*u*d[2]u^2 + 6*u*d[3]u^2"
        " + 6*u*d[4]u^2 + 6*u*d[5]u^2 + 6*u*d[6]u^2"
        " + 3*u^2*d[1,1]u + 3*u^2*d[2,2]u + 3*u^2*d[3,3]u"
        " + 3*u^2*d[4,4]u + 3*u^2*d[5,5]u + 3*u^2*d[6,6]u")


def test_group_display_roundtrip_equivalence():
    # the grouped text of an expanded dictionary pattern re-expands to it
    original = _grad(fh_pow(-3), fh_pow(1))
    text = group_for_display(original)
    assert text == ("-3*(fh)^-4*h^2*|grad[f]|^2 -6*(fh)^-3*g(grad[f],grad[h]) "
                    "-3*(fh)^-4*f^2*|grad[h]|^2")
    rebuilt = (fh_pow(-4) * h_pow(2) * sc(-3) * _grad(f_pow(1), f_pow(1))
               + fh_pow(-3) * sc(-6) * _grad(f_pow(1), h_pow(1))
               + fh_pow(-4) * f_pow(2) * sc(-3) * _grad(h_pow(1), h_pow(1)))
    assert rebuilt == original


def test_group_display_matches_row_reduction_oracle():
    # patterns of the old composite dictionary times f/h/constant
    # prefactors; half the cases get terms that break the grouping
    local = random.Random(2020)
    patterns = [pat for _, pat in _solver_patterns()]
    extras = [area_s6(), pi_atom(), s_atom(), wp()]
    noise = [dfunc("f", 1) * dfunc("f", 1), dfunc("h", 2, 2),
             dfunc("f", 3) * dfunc("h", 3), dfunc("f", 1) * dfunc("h", 2),
             dfunc("f", 1, 2), s_atom(), dfunc("h", 4)]
    for n in range(60):
        e = ScalarExpr.zero()
        for _ in range(local.randint(1, 3)):
            pre = (f_pow(local.randint(-4, 2)) * h_pow(local.randint(-4, 2))
                   * sc(local.randint(-9, 9) or 1, local.randint(1, 4)))
            for x in local.sample(extras, local.randint(0, 2)):
                pre = pre * x
            if local.random() < 0.2:
                pre = pre * sc(-1, 3)
            e = e + pre * local.choice(patterns)
        if n % 2:
            for _ in range(local.randint(1, 2)):
                e = e + (fh_pow(local.randint(-3, 0)) * local.choice(noise)
                         * sc(local.randint(1, 5)))
        assert group_for_display(e) == rref_grouping(e)


def _grad(u, v):
    out = ScalarExpr.zero()
    for j in range(1, 7):
        out = out + u.derive_x(j) * v.derive_x(j)
    return out


def _lap(u):
    out = ScalarExpr.zero()
    for j in range(1, 7):
        out = out + u.derive_x(j).derive_x(j)
    return out
