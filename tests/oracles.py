"""Independent routes the tests check the package against.

Floating-point oracles: the package computes exactly and never produces a
float; these helpers turn its exact values into complex numbers so the tests
can check them against independent numeric routes.

Grouping oracle: ``rref_grouping`` renders a value the way the package once
did, by an exact row-reduction solve over a dictionary of composite
patterns, so the tests can check ``group_for_display`` against it.
"""

import cmath
import math

from wres6.scalars import (
    G_ONE,
    G_ZERO,
    ScalarExpr,
    _atom_key,
    _format_piece,
    _is_derivative_atom,
    _mono_key,
    _power_label,
    _prefactor_split,
    f_pow,
    fh_pow,
    grad_dot,
    h_pow,
    lap,
)


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


# ---------------------------------------------------------------------------
# Grouping by row reduction over a composite dictionary


def _grad_label(lu, lv):
    return f"|grad[{lu}]|^2" if lu == lv else f"g(grad[{lu}],grad[{lv}])"


def _solver_patterns():
    """Ranked, low-degeneracy dictionary for the exact grouping solver.

    Gradients of power composites are proportional to gradients of fh, so the
    solver works over gradients of the basic functions plus Laplacians of
    the basic functions and of the power composites; preference follows list
    order.
    """
    f, h, fh = f_pow(1), h_pow(1), f_pow(1) * h_pow(1)
    basics = [("f", f), ("h", h), ("fh", fh)]
    composites = [
        ("(fh)^-3f", f_pow(-2) * h_pow(-3)),
        ("(fh)^-3", fh_pow(-3)),
        ("(fh)^-2", fh_pow(-2)),
        ("(fh)^-1", fh_pow(-1)),
    ]
    pats = []
    for i, (lu, eu) in enumerate(basics):
        for lv, ev in basics[i:]:
            pats.append((_grad_label(lu, lv), grad_dot(eu, ev)))
    for lu, eu in basics + composites:
        pats.append((f"lap[{lu}]", lap(eu)))
    return pats


_SOLVER_PATTERNS = None


def rref_grouping(e: ScalarExpr) -> str:
    """Best-effort grouped rendering of a canonical expression.

    Builds the candidate set "dictionary pattern times f/h-power prefactor"
    suggested by the expression itself and solves for an exact combination
    by row reduction; whatever cannot be expressed that way is rendered in
    expanded form.  Display only; equality checks always run on the expanded
    basis.
    """
    if e.is_zero():
        return "0"
    pieces, remaining = _solve_grouping(e)
    if remaining.terms:
        tail = str(remaining)
        pieces.append(("+" + tail) if not tail.startswith("-") else tail)
    if not pieces:
        return "0"
    text = " ".join(pieces).strip()
    if text.startswith("+"):
        text = text[1:].lstrip()
    return text


def _candidate_set(e: ScalarExpr):
    """All (label, prefactor-shift, expanded pattern) hinted by e's terms."""
    global _SOLVER_PATTERNS
    if _SOLVER_PATTERNS is None:
        _SOLVER_PATTERNS = _solver_patterns()
    seen = set()
    cands = []
    for rank, (label, pat) in enumerate(_SOLVER_PATTERNS):
        sigs = {}
        for p_mono, _ in pat.sorted_terms():
            pb, pr = _prefactor_split(p_mono)
            sigs.setdefault(pr, pb)
        for mono in e.terms:
            base, rest = _prefactor_split(mono)
            pb = sigs.get(rest)
            if pb is None:
                continue
            shift = _mono_div(base, pb)
            if shift is None:
                continue
            key = (label, shift)
            if key in seen:
                continue
            seen.add(key)
            shifted = ScalarExpr({shift: G_ONE}) * pat
            cands.append((rank, label, shift, shifted))
    cands.sort(key=lambda c: (c[0], c[2]))
    return [(label, shift, pat) for _, label, shift, pat in cands]


def _solve_grouping(e: ScalarExpr):
    """Exact row-reduction solve of e over the candidate patterns.

    Monomials no candidate can reach are split off as a residual before
    solving; the system itself must then balance exactly or the whole
    expression is left to the expanded rendering.
    """
    cands = _candidate_set(e)
    if not cands:
        return [], e
    covered = {m for _, _, pat in cands for m in pat.terms}
    residual = ScalarExpr({m: c for m, c in e.terms.items() if m not in covered})
    target = ScalarExpr({m: c for m, c in e.terms.items() if m in covered})
    if target.is_zero():
        return [], e
    monos = sorted(covered, key=_mono_key)
    cols = len(cands)
    rows = []
    for m in monos:
        row = [pat.terms.get(m, G_ZERO) for _, _, pat in cands]
        row.append(target.terms.get(m, G_ZERO))
        rows.append(row)
    # row reduce
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = G_ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break
    # inconsistent?
    for i in range(r, len(rows)):
        if rows[i][cols]:
            return [], e
    coeffs = [G_ZERO] * cols
    for row_i, c in enumerate(pivot_cols):
        coeffs[c] = rows[row_i][cols]
    pieces = []
    for (label, shift, _), coeff in zip(cands, coeffs):
        if not coeff:
            continue
        pieces.append(_format_piece(coeff, _power_label(shift), label))
    return pieces, residual


def _mono_div(mono, by):
    acc = {a: e for a, e in mono}
    for atom, exp in by:
        acc[atom] = acc.get(atom, 0) - exp
    for atom, exp in list(acc.items()):
        if exp == 0:
            del acc[atom]
        elif _is_derivative_atom(atom):
            return None
    return tuple(sorted(acc.items(), key=lambda ae: _atom_key(ae[0])))

