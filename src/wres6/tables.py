"""Bundled reference data: the printed values this tool verifies against.

Everything here is a transcription of displayed formulas from the reference
computation (the inverse-symbol expansions, the 21 sphere-integral items,
the assembled interior density, and the five boundary cases), expressed
through the package's own constructors so comparisons run on canonical
forms; the printed symbols, written in xi, are read into the real gauge of
the ``symbols`` module by one function, ``_read_printed``.  The discrepancy
ledger at the bottom records every printed value the forced algebra
contradicts.  ``judge`` gives every verdict: a ledger entry excuses a row
only when forced minus printed equals the difference frozen for that row,
so a changed printed value still reads "diff"; the test suite re-derives
each frozen difference through independent oracles.
"""

from __future__ import annotations

from functools import lru_cache, reduce

from .clifford import c_of_d
from .scalars import (
    ScalarExpr,
    area_s6,
    f_pow,
    fh_pow,
    grad_dot,
    h_pow,
    lap,
    omega4,
    pi_atom,
    riem,
    s_atom,
    sc,
    wp,
)
from .symbols import XIM_ONE, SymbolExpr, xi_linear, xi_quadratic, xim_degree

# ---------------------------------------------------------------------------
# Printed symbols as products of xi-forms


def _printed(p: int, prefactor: ScalarExpr, *factors: SymbolExpr,
             phase: int = 0) -> SymbolExpr:
    """factors[0] * factors[1] * ... * i^phase prefactor |xi|^(2p), read
    into the real gauge.

    The factors multiply first and in the order given: Clifford factors do
    not commute, and the prefactor is cheaper applied once to the product.
    """
    return _read_printed(
        reduce(SymbolExpr.mul, (*factors, SymbolExpr.norm_sq(p, prefactor))), phase)


def _read_printed(S: SymbolExpr, phase: int) -> SymbolExpr:
    """The real gauge of i^phase S, S a printed symbol written in xi.

    A term of degree k and coefficient i^phase c is stored as
    i^(phase - k) c, which is rational only when phase - k is even; any
    other term is a misprint or a misreading of a factor i.
    """
    out = {}
    for mono, el in S.terms.items():
        shift = phase - xim_degree(mono)
        if shift % 2:
            raise ValueError(f"printed term of degree {xim_degree(mono)} "
                             f"cannot carry the phase i^{phase}")
        out[mono] = el if shift % 4 == 0 else -el
    return SymbolExpr(out)


def _cd_cd(u: ScalarExpr, v: ScalarExpr) -> SymbolExpr:
    """c(du) c(dv) as an order-0 symbol."""
    return SymbolExpr.term(XIM_ONE, c_of_d(u) * c_of_d(v))


def _xi_hess(u: ScalarExpr) -> SymbolExpr:
    """sum_jl d_j d_l u xi_j xi_l."""
    return xi_quadratic(lambda j, l: u.derive_x(j).derive_x(l))


@lru_cache(maxsize=None)
def _cdhf_cxi() -> SymbolExpr:
    """c(d(hf)) c(xi)."""
    return SymbolExpr.xi_covector().cliff_lmul(c_of_d(fh_pow(1)))


def _cliff_hessian_form() -> SymbolExpr:
    """sum_mu c(d(d_mu(fh))) c(xi) xi_mu."""
    return xi_linear(lambda mu: c_of_d(fh_pow(1).derive_x(mu))).mul(
        SymbolExpr.xi_covector())


# ---------------------------------------------------------------------------
# Printed expansion of the order -6 symbol (21 displayed groups)


def printed_expansion_line(idx: int) -> SymbolExpr:
    f, h, fh = f_pow(1), h_pow(1), fh_pow(1)
    # <xi, grad h>, <xi, grad(fh)> and c(d(hf)) c(xi)
    xi_h, xi_fh, cc = xi_linear(h.derive_x), xi_linear(fh.derive_x), _cdhf_cxi()
    if idx == 1:
        return _printed(-3, fh_pow(-4) * sc(-1, 2) * s_atom())
    if idx == 2:
        return _printed(-4, fh_pow(-4) * sc(2), xi_quadratic(riem))
    if idx == 3:
        return _printed(-4, fh_pow(-6) * f_pow(2) * sc(-12), xi_h, xi_h)
    if idx == 4:
        return _printed(-4, fh_pow(-6) * f * sc(44), xi_h, xi_fh)
    if idx == 5:
        return _printed(-3, fh_pow(-6) * f * sc(-10) * grad_dot(h, fh))
    if idx == 6:
        # (fh)^-3 f = f^-2 h^-3
        return _printed(-4, fh_pow(-2) * sc(-12),
                        xi_linear((f_pow(-2) * h_pow(-3)).derive_x), xi_h)
    if idx == 7:
        return _printed(-4, fh_pow(-5) * f * sc(-12), _xi_hess(h))
    if idx == 8:
        return _printed(-4, fh_pow(-2) * sc(24), xi_linear(fh_pow(-3).derive_x), xi_fh)
    if idx == 9:
        return _printed(-4, fh_pow(-5) * sc(24), _xi_hess(fh))
    if idx == 10:
        return _printed(-3, fh_pow(-2) * sc(3) * lap(fh_pow(-2)))
    if idx == 11:
        return _printed(-4, fh_pow(-6) * f * sc(14), xi_h, cc)
    if idx == 12:
        return _printed(-4, fh_pow(-6) * sc(-28), xi_fh, cc)
    if idx == 13:
        return _printed(-4, fh_pow(-6) * sc(-4), cc, cc)
    if idx == 14:
        return _printed(-3, fh_pow(-6) * sc(6), _cd_cd(fh, fh))
    if idx == 15:
        return _printed(-3, fh_pow(-5) * f * sc(2) * lap(h))
    if idx == 16:
        return _printed(-3, fh_pow(-6) * f * sc(-2), _cd_cd(fh, h))
    if idx == 17:
        return _printed(-4, fh_pow(-2) * sc(2), _xi_hess(fh_pow(-2)))
    if idx == 18:
        return _printed(-4, fh_pow(-6) * sc(-42), xi_fh, xi_fh)
    if idx == 19:
        # sum_j c(d(hf)) d/dx_j[c(xi)] xi_j vanishes identically at the
        # interior point; the printed line is retained as an exact zero
        return SymbolExpr.zero()
    if idx == 20:
        return _printed(-3, fh_pow(-6) * sc(8) * grad_dot(fh, fh))
    if idx == 21:
        return _printed(-4, fh_pow(-2) * sc(6), xi_linear(fh_pow(-3).derive_x), cc)
    raise ValueError(f"expansion line index {idx} out of range")


# ---------------------------------------------------------------------------
# Printed values of the 21 sphere integrals (multiples of tr[id] area(S_6))


# Each entry builds one printed value on demand; (fh)^-3 f = f^-2 h^-3.
_PRINTED_TERM_VALUES = {
    1: lambda: fh_pow(-4) * sc(-1, 2) * s_atom(),
    2: lambda: fh_pow(-4) * sc(1, 3) * s_atom(),
    3: lambda: fh_pow(-6) * f_pow(2) * sc(-2) * grad_dot(h_pow(1), h_pow(1)),
    4: lambda: fh_pow(-6) * f_pow(1) * sc(22, 3) * grad_dot(h_pow(1), fh_pow(1)),
    5: lambda: fh_pow(-6) * f_pow(1) * sc(-10) * grad_dot(h_pow(1), fh_pow(1)),
    6: lambda: fh_pow(-2) * sc(-2) * grad_dot(f_pow(-2) * h_pow(-3), h_pow(1)),
    7: lambda: fh_pow(-5) * f_pow(1) * sc(-2) * lap(h_pow(1)),
    8: lambda: fh_pow(-2) * f_pow(1) * sc(4) * grad_dot(fh_pow(-3), h_pow(1)),
    9: lambda: fh_pow(-5) * sc(4) * lap(fh_pow(1)),
    10: lambda: fh_pow(-2) * sc(3) * lap(fh_pow(-2)),
    11: lambda: fh_pow(-6) * f_pow(1) * sc(-7, 3) * grad_dot(h_pow(1), fh_pow(1)),
    12: lambda: fh_pow(-6) * sc(14, 3) * grad_dot(fh_pow(1), fh_pow(1)),
    13: lambda: fh_pow(-6) * sc(-2, 3) * grad_dot(fh_pow(1), fh_pow(1)),
    14: lambda: fh_pow(-6) * sc(-6) * grad_dot(fh_pow(1), fh_pow(1)),
    15: lambda: fh_pow(-5) * f_pow(1) * sc(2) * lap(h_pow(1)),
    16: lambda: fh_pow(-6) * f_pow(1) * sc(2) * grad_dot(fh_pow(1), h_pow(1)),
    17: lambda: fh_pow(-2) * sc(-2, 3) * lap(fh_pow(-2)),
    18: lambda: fh_pow(-6) * sc(-7) * grad_dot(fh_pow(1), fh_pow(1)),
    19: ScalarExpr.zero,
    20: lambda: fh_pow(-6) * sc(8) * grad_dot(fh_pow(1), fh_pow(1)),
    21: lambda: fh_pow(-2) * sc(-1) * grad_dot(fh_pow(-3), fh_pow(1)),
}


def printed_term_value(idx: int) -> ScalarExpr:
    build = _PRINTED_TERM_VALUES.get(idx)
    if build is None:
        raise ValueError(f"term index {idx} out of range")
    return build() * sc(8) * area_s6()


def printed_theorem_density() -> ScalarExpr:
    """The assembled reference density, 8 pi^3 times the printed bracket."""
    f, h, fh = f_pow(1), h_pow(1), fh_pow(1)
    comp_f = f_pow(-2) * h_pow(-3)
    bracket = (
        fh_pow(-4) * sc(-1, 6) * s_atom()
        + fh_pow(-6) * f_pow(2) * sc(-2) * grad_dot(h, h)
        + fh_pow(-6) * f * sc(-3) * grad_dot(h, fh)
        + fh_pow(-2) * sc(-2) * grad_dot(comp_f, h)
        + fh_pow(-2) * f * sc(4) * grad_dot(fh_pow(-3), h)
        + fh_pow(-5) * sc(4) * lap(fh)
        + fh_pow(-2) * sc(3) * lap(fh_pow(-2))
        + fh_pow(-6) * sc(-1) * grad_dot(fh, fh)
        + fh_pow(-2) * sc(-2, 3) * lap(fh_pow(-2))
        + fh_pow(-2) * sc(-1) * grad_dot(fh_pow(-3), fh)
    )
    return bracket * sc(8) * pi_atom(3)


# ---------------------------------------------------------------------------
# Printed inverse symbols (interior point, connection atoms evaluated)


def printed_qinv_order(k: int) -> SymbolExpr:
    """Printed sigma_k of Q^-1 at the interior point, k in {-2, -3, -4}.

    Transcribed as displayed, including the extra factor f on the
    second-derivative term of the order -4 symbol that the forced recursion
    contradicts (see the discrepancy ledger).
    """
    f, h, fh = f_pow(1), h_pow(1), fh_pow(1)
    xi_h, xi_fh, cc = xi_linear(h.derive_x), xi_linear(fh.derive_x), _cdhf_cxi()
    if k == -2:
        return _printed(-1, fh_pow(-2))
    if k == -3:
        return _printed(-2, fh_pow(-3), xi_h.scale(f * sc(2)) - xi_fh.scale(sc(4)) - cc,
                        phase=1)
    if k == -4:
        return (_printed(-2, fh_pow(-2) * sc(-1, 4) * s_atom())
                + _printed(-3, fh_pow(-2) * sc(2, 3), xi_quadratic(riem))
                + _printed(-3, fh_pow(-4) * f_pow(2) * sc(-4), xi_h, xi_h)
                + _printed(-3, fh_pow(-4) * f * sc(8), xi_h, xi_fh)
                + _printed(-2, fh_pow(-4) * f * sc(-4) * grad_dot(h, fh))
                + _printed(-3, sc(-4),
                           xi_linear((f_pow(-2) * h_pow(-3)).derive_x), xi_h)
                + _printed(-3, fh_pow(-3) * f * sc(-4), _xi_hess(h))
                + _printed(-3, sc(8), xi_linear(fh_pow(-3).derive_x), xi_fh)
                + _printed(-3, fh_pow(-3) * f * sc(8), _xi_hess(fh))  # as printed
                + _printed(-2, lap(fh_pow(-2)))
                + _printed(-3, fh_pow(-4) * f * sc(4), xi_h, cc)
                + _printed(-3, fh_pow(-4) * sc(-4), xi_fh, cc)
                + _printed(-3, fh_pow(-4) * sc(-1), cc, cc)
                + _printed(-2, fh_pow(-4) * sc(2), _cd_cd(fh, fh))
                + _printed(-2, fh_pow(-3) * f * lap(h))
                + _printed(-2, fh_pow(-4) * f * sc(-1), _cd_cd(fh, h))
                + _printed(-3, sc(2), xi_linear(fh_pow(-3).derive_x), cc)
                + _printed(-3, fh_pow(-3) * sc(2), _cliff_hessian_form()))
    raise ValueError(f"no printed inverse symbol at order {k}")


# ---------------------------------------------------------------------------
# Printed boundary case values (multiples of pi * Omega_4)


def printed_boundary_value(case: str) -> ScalarExpr:
    piom = pi_atom(1) * omega4()
    dxn_fh2 = fh_pow(-2).derive_x(6)
    vals = {
        "a.I": ScalarExpr.zero(),
        "a.II": (fh_pow(-2) * sc(1, 2) * dxn_fh2
                 + fh_pow(-4) * sc(-5, 8) * wp()) * piom,
        "a.III": (fh_pow(-2) * sc(-1, 2) * dxn_fh2
                  + fh_pow(-4) * sc(5, 8) * wp()) * piom,
        "b": fh_pow(-4) * sc(-15, 8) * wp() * piom,
        "c": fh_pow(-4) * sc(15, 8) * wp() * piom,
    }
    return vals[case]


# ---------------------------------------------------------------------------
# Forced-vs-printed discrepancy ledger
#
# Every printed value the forced algebra contradicts, and ``judge``, the one
# rule that turns a comparison into a verdict.


def forced_qinv4_correction() -> SymbolExpr:
    """Forced minus printed order -4 symbol: the spurious f factor."""
    return _printed(-3, (fh_pow(-3) - fh_pow(-3) * f_pow(1)) * sc(8),
                    _xi_hess(fh_pow(1)))


def expected_sigma6_diff() -> SymbolExpr:
    """Forced minus printed order -6 expansion, in composite form (frozen).

    Eight composite classes; the last one (second-derivative Clifford
    content) is absent from the printed expansion altogether.
    """
    f, h, fh = f_pow(1), h_pow(1), fh_pow(1)
    xi_h, xi_fh, cc = xi_linear(h.derive_x), xi_linear(fh.derive_x), _cdhf_cxi()
    return (
        # printed 44, forced 48
        _printed(-4, fh_pow(-6) * f * sc(4), xi_h, xi_fh)
        # printed -42, forced -48
        + _printed(-4, fh_pow(-6) * sc(-6), xi_fh, xi_fh)
        # printed +2, forced -4
        + _printed(-4, fh_pow(-2) * sc(-6), _xi_hess(fh_pow(-2)))
        # printed 14, forced 12
        + _printed(-4, fh_pow(-6) * f * sc(-2), xi_h, cc)
        # printed -28, forced -24
        + _printed(-4, fh_pow(-6) * sc(4), xi_fh, cc)
        # printed -4, forced -3
        + _printed(-4, fh_pow(-6), cc, cc)
        # printed -10, forced -12
        + _printed(-3, fh_pow(-6) * f * sc(-2) * grad_dot(h, fh))
        # class missing from the printed expansion
        + _printed(-4, fh_pow(-5) * sc(6), _cliff_hessian_form()))


def expected_density_diff() -> ScalarExpr:
    """Forced density minus the printed assembled density (pi^3 units)."""
    f, h, fh = f_pow(1), h_pow(1), fh_pow(1)
    return (fh_pow(-6) * f * sc(-1) * grad_dot(h, fh)
            + fh_pow(-6) * h * sc(-12) * grad_dot(f, fh)
            + fh_pow(-6) * grad_dot(fh, fh)
            + fh_pow(-5) * sc(-1) * lap(fh)) * sc(8) * pi_atom(3)


def boundary_case_correction() -> ScalarExpr:
    """Forced minus printed value of the order (-2,-3) boundary case.

    The normal-derivative content of the order -3 symbol survives the
    tangential parity argument; its contribution is this exact multiple of
    pi Omega_4, and the mirrored case carries the opposite sign so the two
    cancel in the total.
    """
    return (fh_pow(-5) * sc(-1, 2)
            * (f_pow(1) * h_pow(1).derive_x(6)
               + sc(3) * h_pow(1) * f_pow(1).derive_x(6))
            * pi_atom() * omega4())


# Forced minus printed value of each ledgered verdict row, frozen on its own
# so that a changed printed value is not excused.
FROZEN_DIFFERENCES = {
    "interior/term-08": lambda: fh_pow(-2) * h_pow(1) * sc(4) * grad_dot(
        fh_pow(-3), f_pow(1)) * sc(8) * area_s6(),
    "interior/term-13": lambda: fh_pow(-6) * sc(10, 3) * grad_dot(
        fh_pow(1), fh_pow(1)) * sc(8) * area_s6(),
    "interior/term-17": lambda: fh_pow(-2) * lap(fh_pow(-2)) * sc(8) * area_s6(),
    "interior/theorem-density": expected_density_diff,
    "boundary/case-b": boundary_case_correction,
    "boundary/case-c": lambda: -boundary_case_correction(),
}


def judge(location: str, computed: ScalarExpr, paper: ScalarExpr,
          specialize=None, ledger=None) -> dict:
    """One verdict row ``{"computed", "paper", "verdict", "ledger"}``.

    ``specialize``, the images of ``cli.parse_specialization``, is
    substituted into both sides, which stay ``ScalarExpr``s, and into the
    frozen difference; "ledger" is ``location`` on a diff.  ``ledger``
    defaults to the bundled one.
    """
    def spec(e: ScalarExpr) -> ScalarExpr:
        return e if specialize is None else e.map_func_atoms(specialize)

    computed, paper = spec(computed), spec(paper)
    row = {"computed": computed, "paper": paper, "verdict": "match", "ledger": None}
    if computed == paper:
        return row
    if ledger is None:
        ledger = discrepancy_ledger()
    excused = (location in FROZEN_DIFFERENCES
               and any(e["location"] == location for e in ledger)
               and computed - paper == spec(FROZEN_DIFFERENCES[location]()))
    return {**row, "verdict": "diff (ledgered)" if excused else "diff",
            "ledger": location}


def discrepancy_ledger() -> list[dict]:
    """Machine-readable list of printed values contradicted by the algebra."""
    return [
        {
            "location": "qinv/order-4/second-derivative-term",
            "printed": "+8*(fh)^-3*f*|xi|^-6*sum_jl d[j]d[l](fh)*xi_j*xi_l",
            "forced": "+8*(fh)^-3*|xi|^-6*sum_jl d[j]d[l](fh)*xi_j*xi_l",
            "note": ("the printed factor f breaks the scaling weight of the "
                     "order -4 inverse symbol and is not produced by the "
                     "recursion; the assembled order -6 expansion uses the "
                     "corrected coefficient"),
        },
        {
            "location": "sigma6/line-04",
            "printed": "coefficient 44 on (fh)^-6*f*d[j]h*d[l](fh)*xi_j*xi_l*|xi|^-8",
            "forced": "coefficient 48",
            "note": "forced by both assembly routes",
        },
        {
            "location": "sigma6/line-05",
            "printed": "coefficient -10 on (fh)^-6*f*sum_j d[j]h*d[j](fh)*|xi|^-6",
            "forced": "coefficient -12",
            "note": "forced by both assembly routes",
        },
        {
            "location": "sigma6/line-11",
            "printed": "coefficient 14 on (fh)^-6*f*d[j]h*xi_j*c(d(hf))c(xi)*|xi|^-8",
            "forced": "coefficient 12",
            "note": "forced by both assembly routes",
        },
        {
            "location": "sigma6/line-12",
            "printed": "coefficient -28 on (fh)^-6*d[j](fh)*xi_j*c(d(hf))c(xi)*|xi|^-8",
            "forced": "coefficient -24",
            "note": "forced by both assembly routes",
        },
        {
            "location": "sigma6/line-13",
            "printed": "coefficient -4 on (fh)^-6*[c(d(hf))c(xi)]^2*|xi|^-8",
            "forced": "coefficient -3",
            "note": "forced by both assembly routes",
        },
        {
            "location": "sigma6/line-17",
            "printed": "coefficient +2 on (fh)^-2*d[j]d[l][(fh)^-2]*xi_j*xi_l*|xi|^-8",
            "forced": "coefficient -4",
            "note": ("the reduced assembly formula itself carries -4; the "
                     "sphere-integral item uses -4 as well, so the printed "
                     "+2 does not propagate to the printed density"),
        },
        {
            "location": "sigma6/line-18",
            "printed": "coefficient -42 on (fh)^-6*d[j](fh)*d[l](fh)*xi_j*xi_l*|xi|^-8",
            "forced": "coefficient -48",
            "note": "forced by both assembly routes",
        },
        {
            "location": "sigma6/missing-second-derivative-clifford-class",
            "printed": "absent",
            "forced": "+6*(fh)^-5*|xi|^-8*sum_mu c(d(d[mu](fh)))c(xi)*xi_mu",
            "note": ("three times the corresponding order -4 term; dropped "
                     "from the printed expansion"),
        },
        {
            "location": "interior/term-08",
            "printed": "4*(fh)^-2*f*g(grad[(fh)^-3],grad[h]) * tr[id] * area(S_6)",
            "forced": "4*(fh)^-2*g(grad[(fh)^-3],grad[fh]) * tr[id] * area(S_6)",
            "note": ("the printed grouping replaces grad(fh) by f*grad(h), "
                     "losing the h*grad(f) half of the product rule"),
        },
        {
            "location": "interior/term-13",
            "printed": "-2/3*(fh)^-6*|grad[fh]|^2 * tr[id] * area(S_6)",
            "forced": "+8/3*(fh)^-6*|grad[fh]|^2 * tr[id] * area(S_6)",
            "note": ("the printed trace step drops the -4(fh)^-6 prefactor "
                     "and the |u|^2|xi|^2 part of the four-generator trace"),
        },
        {
            "location": "interior/term-17",
            "printed": "-2/3*(fh)^-2*lap[(fh)^-2] * tr[id] * area(S_6)",
            "forced": "+1/3*(fh)^-2*lap[(fh)^-2] * tr[id] * area(S_6)",
            "note": ("forced integral of the printed expansion line (+2); "
                     "the printed item value is consistent with the reduced "
                     "assembly coefficient -4 instead"),
        },
        {
            "location": "interior/theorem-density",
            "printed": "the assembled reference density",
            "forced": ("printed + 8*pi^3*[ -(fh)^-6*f*g(grad[h],grad[fh]) "
                       "- 12*(fh)^-6*h*g(grad[f],grad[fh]) "
                       "+ (fh)^-6*|grad[fh]|^2 - (fh)^-5*lap[fh] ]"),
            "note": ("net effect of the ledgered expansion and item "
                     "discrepancies; vanishes when fh is constant, in "
                     "particular for f = h = 1"),
        },
        {
            "location": "boundary/normal-derivative-order-2",
            "printed": "d[6][(fh)^-2]/(1+xin^2) + ((fh)^-2*wp)/(1+xin^2)^2",
            "forced": "d[6][(fh)^-2]/(1+xin^2) - ((fh)^-2*wp)/(1+xin^2)^2",
            "note": ("chain rule on |xi|^-2 with d_n|xi|^2 = w'(0)|xi'|^2 "
                     "forces the minus sign"),
        },
        {
            "location": "boundary/pi-plus-second-order",
            "printed": "pi+[1/(1+xin^2)^2] = +(2+i*xin)/(4*(xin-i)^2)",
            "forced": "pi+[1/(1+xin^2)^2] = -(2+i*xin)/(4*(xin-i)^2)",
            "note": ("principal part at +i; this sign and the "
                     "normal-derivative sign cancel, so the printed "
                     "projected normal derivative and the printed second "
                     "case value are both reproduced exactly"),
        },
        {
            "location": "boundary/case-b",
            "printed": "-15/8*(fh)^-4*wp*pi*Om4",
            "forced": ("-15/8*(fh)^-4*wp*pi*Om4 "
                       "- 1/2*(fh)^-5*(f*d[6]h + 3*h*d[6]f)*pi*Om4"),
            "note": ("the normal-derivative terms of the order -3 symbol "
                     "are even in the tangential variables and survive the "
                     "parity argument used to drop them"),
        },
        {
            "location": "boundary/case-c",
            "printed": "+15/8*(fh)^-4*wp*pi*Om4",
            "forced": ("+15/8*(fh)^-4*wp*pi*Om4 "
                       "+ 1/2*(fh)^-5*(f*d[6]h + 3*h*d[6]f)*pi*Om4"),
            "note": ("mirror of case b; the two corrections cancel, so the "
                     "vanishing of the total boundary term is unaffected"),
        },
    ]
