"""Independent routes the tests check the package against, and the builders
the tests use.

Builders: ``dfunc`` makes a derived function atom, ``atoms`` lists the atoms
of a value, and ``build_fdh_symbols`` composes sigma(fDh) from sigma(D).

Exact oracles: ``gamma_moment`` takes a sphere moment in closed form,
``evaluate`` takes a value at rational atom values, the matrix oracle
represents the Clifford algebra by six integer 8x8 matrices, and
``contour_integral_cauchy`` takes a line integral by the Cauchy formula
instead of reading a residue.

Floating-point oracles: the package computes exactly and never produces a
float; these helpers turn its exact values into complex numbers so the tests
can check them against independent numeric routes.

Grouping oracle: ``rref_grouping`` renders a value the way the package once
did, by an exact row-reduction solve over a dictionary of composite
patterns, so the tests can check ``group_for_display`` against it.
"""

import cmath
import math
from fractions import Fraction
from math import comb, factorial

from wres6.boundary import DecayError, XiRat
from wres6.calculus import build_d_symbols
from wres6.scalars import (
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
    pi_atom,
)
from wres6.symbols import XIM_ONE, SymbolExpr, compose


def dfunc(base: str, *beta: int) -> ScalarExpr:
    """The derived function atom d[beta]base."""
    return ScalarExpr.atom((base, tuple(sorted(beta))))


def atoms(e: ScalarExpr) -> set:
    """The atoms that occur in e."""
    return {atom for mono in e.terms for atom, _ in mono}


def build_fdh_symbols(ctx) -> SymbolExpr:
    """sigma(fDh) built by composing sigma(D) with multiplication by h."""
    h_sym = SymbolExpr.scalar_term(XIM_ONE, h_pow(1))
    dh = compose(build_d_symbols(), h_sym, 0, ctx)
    return dh.scale(f_pow(1))


def gamma_moment(exps, n: int = 6) -> Fraction:
    """Closed-form oracle: 2 prod((2a_i)! / (4^a_i a_i!)) / binomial growth.

    For even exponents 2a_i the sphere moment divided by the area equals
    Gamma(n/2) * prod Gamma(a_i + 1/2) / (pi^(n/2) Gamma(|a| + n/2)); for
    even n every factor is rational after the pi powers cancel.
    """
    exps = tuple(exps)
    if any(e % 2 for e in exps):
        return Fraction(0)
    a = [e // 2 for e in exps]
    if n % 2:
        raise ValueError("gamma_moment oracle implemented for even n only")
    num = Fraction(1)
    for ai in a:
        num *= Fraction(factorial(2 * ai), 4 ** ai * factorial(ai))
    half = n // 2
    return num * Fraction(factorial(half - 1), factorial(sum(a) + half - 1))


def evaluate(e: ScalarExpr, assign):
    """A ScalarExpr at exact atom values ``assign: {atom: rational}``."""
    total = Fraction(0)
    for mono, coeff in e.terms.items():
        val = Fraction(coeff)
        for atom, exp in mono:
            val *= Fraction(assign[atom]) ** exp
        total += val
    return total


# ---------------------------------------------------------------------------
# Matrix oracle: Cl_{0,6} is M_8(R), so six anticommuting integer 8x8
# matrices with M_i^2 = -Id exist.  Each is a tensor product of three 2x2
# blocks: X and Z square to Id, J to -Id, and any two distinct non-identity
# blocks anticommute, so a product anticommutes with another when an odd
# number of slots do, and squares to -Id when it holds an odd number of J.

Matrix = tuple  # tuple of rows of ints or Fractions

_BLOCKS = {"I": ((1, 0), (0, 1)), "X": ((0, 1), (1, 0)),
           "Z": ((1, 0), (0, -1)), "J": ((0, -1), (1, 0))}
_GENERATORS = ("IIJ", "IJX", "XJZ", "ZJZ", "JIZ", "JXX")


def _mat(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n = len(A)
    return _mat([[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)])


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return _mat([[A[i][j] + B[i][j] for j in range(len(A))] for i in range(len(A))])


def mat_scale(A: Matrix, s) -> Matrix:
    return _mat([[x * s for x in row] for row in A])


def mat_trace(A: Matrix):
    return sum(A[i][i] for i in range(len(A)))


def mat_identity(n: int = 8) -> Matrix:
    return _mat([[int(i == j) for j in range(n)] for i in range(n)])


def _kron(A: Matrix, B: Matrix) -> Matrix:
    na, nb = len(A), len(B)
    return _mat([[A[i // nb][j // nb] * B[i % nb][j % nb]
                  for j in range(na * nb)] for i in range(na * nb)])


def matrix_oracle() -> list:
    """[M_1, ..., M_6]: integer 8x8 matrices with M_i M_j + M_j M_i = -2 delta_ij."""
    return [_kron(_BLOCKS[a], _kron(_BLOCKS[b], _BLOCKS[c]))
            for a, b, c in _GENERATORS]


def element_to_matrix(el, assign) -> Matrix:
    """A CliffordElement at exact atom values, in the oracle representation."""
    mats = matrix_oracle()
    out = mat_scale(mat_identity(), 0)
    for w, coeff in el.terms.items():
        m = mat_identity()
        for i in w:
            m = mat_mul(m, mats[i - 1])
        out = mat_add(out, mat_scale(m, evaluate(coeff, assign)))
    return out


# ---------------------------------------------------------------------------
# Line integrals in eta_n = i xi_n


def contour_integral_cauchy(rat: XiRat) -> ScalarExpr:
    """2 pi times the residue at eta_n = -1 by the Cauchy formula:
    (2 pi/(a-1)!) d^(a-1)/deta^(a-1) [(eta + 1)^a r] at eta = -1."""
    if not rat.decays():
        raise DecayError("integrand does not decay at infinity")
    a = max((k for s, k in rat.terms if s == 1), default=0)
    if a == 0:
        return ScalarExpr.zero()
    g = rat * XiRat({(0, j): ScalarExpr.const(comb(a, j)) for j in range(a + 1)})
    for _ in range(a - 1):
        g = g.derive()
    # (eta + 1)^a r has no pole at -1: eta^k -> (-1)^k, (eta - 1)^-k -> (-2)^-k
    val = ScalarExpr.zero()
    for (s, k), c in g.terms.items():
        if s == 1:
            raise ValueError("(eta_n + 1)^a r keeps a pole at -1")
        val = val + c * ScalarExpr.const(Fraction(-1) ** k if s == 0
                                         else Fraction(-2) ** -k)
    return val * ScalarExpr.const(Fraction(2, factorial(a - 1))) * pi_atom()


def to_complex(g) -> complex:
    """An exact rational as a complex number."""
    return complex(g)


def evaluate_complex(e, assign) -> complex:
    """A ScalarExpr at complex atom values ``assign: {atom: number}``."""
    total = 0j
    for mono, coeff in e.terms.items():
        val = complex(coeff)
        for atom, exp in mono:
            val *= complex(assign[atom]) ** exp
        total += val
    return total


def evaluate_xirat(rat, assign, z: complex) -> complex:
    """A XiRat at eta_n = z, its coefficients evaluated at ``assign``."""
    total = 0j
    for (s, k), c in rat.terms.items():
        base = z ** k if s == 0 else (z + s) ** -k
        total += evaluate_complex(c, assign) * base
    return total


def ratio_at(num, a, b, z: complex) -> complex:
    """sum(num[k] z^k) / ((z + 1)^a (z - 1)^b) for constant coefficients,
    evaluated from the inputs of ``XiRat.ratio`` and not from its terms."""
    top = sum(evaluate_complex(c, {}) * z ** k for k, c in enumerate(num))
    return top / ((z + 1) ** a * (z - 1) ** b)


def contour_quadrature(f, nodes=2048, radius=0.5) -> complex:
    """Trapezoidal rule for 2 pi times the residue of ``f`` at -1: the
    integral around the circle |z + 1| = radius, which encloses the pole at
    -1 only, divided by i."""
    total = 0j
    for k in range(nodes):
        th = 2 * math.pi * k / nodes
        z = -1 + radius * cmath.exp(1j * th)
        dz = radius * 1j * cmath.exp(1j * th) * 2 * math.pi / nodes
        total += f(z) * dz
    return total / 1j


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
            shifted = ScalarExpr({shift: 1}) * pat
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
        row = [pat.terms.get(m, 0) for _, _, pat in cands]
        row.append(target.terms.get(m, 0))
        rows.append(row)
    # row reduce
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / Fraction(rows[r][c])
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
    coeffs = [0] * cols
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

