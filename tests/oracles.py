"""Floating-point oracles: complex evaluation and contour quadrature.

The package computes exactly and never produces a float; these helpers turn
its exact values into complex numbers so the tests can check them against
independent numeric routes.
"""

import cmath
import math


def to_complex(g) -> complex:
    """A GaussRat as a complex number."""
    return complex(g.re) + 1j * complex(g.im)


def evaluate_complex(e, assign) -> complex:
    """A ScalarExpr at complex atom values ``assign: {atom: number}``."""
    total = 0j
    for mono, coeff in e.terms.items():
        val = to_complex(coeff)
        for atom, exp in mono:
            val *= complex(assign[atom]) ** exp
        total += val
    return total


def evaluate_xirat(rat, assign, z: complex) -> complex:
    """A XiRat at xi_n = z, its coefficients evaluated at ``assign``."""
    total = 0j
    for (s, k), c in rat.terms.items():
        base = z ** k if s == 0 else (z - s * 1j) ** -k
        total += evaluate_complex(c, assign) * base
    return total


def ratio_at(num, a, b, z: complex) -> complex:
    """sum(num[k] z^k) / ((z - i)^a (z + i)^b) for constant coefficients,
    evaluated from the inputs of ``XiRat.ratio`` and not from its terms."""
    top = sum(evaluate_complex(c, {}) * z ** k for k, c in enumerate(num))
    return top / ((z - 1j) ** a * (z + 1j) ** b)


def contour_quadrature(f, nodes=2048, radius=0.5) -> complex:
    """Trapezoidal rule for the integral of ``f(z)`` around the circle
    |z - i| = radius, which encloses the pole at +i only."""
    total = 0j
    for k in range(nodes):
        th = 2 * math.pi * k / nodes
        z = 1j + radius * cmath.exp(1j * th)
        dz = radius * 1j * cmath.exp(1j * th) * 2 * math.pi / nodes
        total += f(z) * dz
    return total
