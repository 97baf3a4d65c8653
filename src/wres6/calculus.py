"""Operator-level constructions for Q = (fDh)^2 and its inverse powers.

The symbols of the Dirac operator and its square are taken as given, and
evaluated at the point before the rescaled operator's symbol is assembled
from the operator identity

    Q = fhfh D^2 + fhf [D^2, h] + fh c(d(hf)) D + f c(d(hf)) c(dh)

with the commutator formed by the same composition as every other product,
sigma([D^2, h]) = sigma(D^2) o h - h sigma(D^2).  Q is linear in the
connection atoms, whose Clifford-valued (sig) values meet only scalar
factors, so this is the evaluated generic symbol, built without
multiplying out the 180-term cubic of sigma(D) by c(d(hf)).  The inverse
is built by the triangular parametrix recursion; the square's order -6
symbol is produced both by direct composition and by the reduced
combination  3 s2^-1 b_-4 + s2^-3 s0 + b_-3 b_-3 + s2^-2 s1 b_-3 + ... ,
and the two routes are required to agree exactly.

Curvature closure
-----------------
The curvature is not re-derived from metric jets.  ``apply_context``
evaluates the connection atoms (Gam, sig, om and the remainder ``curv0`` of
the order-0 symbol of D^2) at the point before Q is assembled, and the
Riemann term of the order -4 inverse symbol is imported verbatim:

    b_-4  +=  2/3 (fh)^-2 |xi|^-6 R_{alpha a alpha mu} xi_a xi_mu.

``derive_x`` raises on a curvature or connection atom, and none reaches it:
the recursion differentiates only the partial inverse, never q, and the
order pair (-2, -4) of b_-4 at order -6 admits |alpha| = 0 only.

The scalar-curvature part -1/4 (fh)^-2 |xi|^-4 s emerges from the recursion
on its own through the retained 1/4 s term of the order-0 symbol.  Because
b_-4 then satisfies the recursion only up to the imported term, the direct
composition route is completed by the forced residue  b_-2 * import  so the
two routes are comparable term by term; the completion is asserted, never
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .clifford import CliffordElement, c_of_d
from .scalars import (
    COORDS,
    curv0,
    f_pow,
    fh_pow,
    gam,
    h_pow,
    omega,
    riem,
    s_atom,
    sc,
    sig,
)
from .symbols import (
    INTERIOR,
    PointContext,
    SymbolExpr,
    XIM_ONE,
    apply_context,
    compose,
    xi_linear,
    xi_quadratic,
    xim_norm,
)


class RouteDisagreement(RuntimeError):
    """The two order -6 assembly routes produced different symbols."""


# ---------------------------------------------------------------------------
# Base operator symbols


def build_d_symbols() -> SymbolExpr:
    """sigma(D): order 1 is i c(xi), stored in the real gauge as c(xi);
    order 0 the frame-connection cubic -1/4 omega_{s,t}(e_i) c_i c_s c_t,
    which is -1/2 sum_i c_i sum_{s<t} omega_{s,t}(e_i) c_s c_t."""
    cubic = CliffordElement.zero()
    for i in COORDS:
        cubic = cubic + CliffordElement.generator(i) * CliffordElement(
            {(s, t): omega(i, s, t) for s, t in combinations(COORDS, 2)})
    return SymbolExpr.xi_covector() + SymbolExpr.term(XIM_ONE, cubic.scale(sc(-1, 2)))


def build_d2_symbols() -> SymbolExpr:
    """sigma(D^2): |xi|^2 + i(Gam^mu - 2 sig^mu) xi_mu + (curv0 + s/4), in
    the real gauge -|xi|^2 + (Gam^mu - 2 sig^mu) xi_mu + (curv0 + s/4)."""
    return (SymbolExpr.norm_sq(1, -1)
            + xi_linear(lambda mu: gam(mu) - sc(2) * sig(mu))
            + SymbolExpr.norm_sq(0, curv0() + sc(1, 4) * s_atom()))


# ---------------------------------------------------------------------------
# Q = (fDh)^2


@lru_cache(maxsize=None)
def build_q_symbols(ctx: PointContext | None = None) -> SymbolExpr:
    """Orders 2, 1, 0 of Q; connection atoms symbolic without ``ctx``.

    With ``ctx`` they are evaluated in sigma(D^2) and sigma(D) before Q is
    assembled.  That equals ``apply_context`` of the generic symbol: the one
    left product, c(d(hf)) sigma(D), meets only om values, which are scalars.
    """
    f = f_pow(1)
    h = h_pow(1)
    fh = fh_pow(1)
    d2 = build_d2_symbols()
    d1 = build_d_symbols()
    if ctx is not None:
        d2 = apply_context(d2, ctx)
        d1 = apply_context(d1, ctx)
    c_dhf = c_of_d(fh)  # hf = fh as scalar functions
    c_dh = c_of_d(h)
    # [D^2, h]: the right factor is a function, so no context rule applies
    h_sym = SymbolExpr.scalar_term(XIM_ONE, h)
    comm = compose(d2, h_sym, 0) - d2.scale(h)

    q = d2.scale(fh * fh)
    q = q + comm.scale(fh * f)
    q = q + d1.cliff_lmul(c_dhf).scale(fh)
    q = q + SymbolExpr.term(XIM_ONE, c_dhf * c_dh).scale(f)
    if set(q.orders) != {2, 1, 0}:
        raise AssertionError(f"Q symbol orders {sorted(q.orders)}")
    return q


# ---------------------------------------------------------------------------
# Parametrix


@dataclass(frozen=True)
class Parametrix:
    """Inverse symbols b_-2, b_-3, b_-4 with the curvature import split out."""

    b2: SymbolExpr
    b3: SymbolExpr
    b4_recursion: SymbolExpr
    curvature_import: SymbolExpr
    ctx: PointContext

    @property
    def b4(self) -> SymbolExpr:
        return self.b4_recursion + self.curvature_import

    def full_symbol(self) -> SymbolExpr:
        return self.b2 + self.b3 + self.b4


def riemann_contraction_term() -> SymbolExpr:
    """2/3 (fh)^-2 |xi|^-6 R_{alpha a alpha mu} xi_a xi_mu."""
    return xi_quadratic(riem).mul(SymbolExpr.norm_sq(-3, fh_pow(-2) * sc(2, 3)))


def invert_symbol(q: SymbolExpr, ctx: PointContext) -> Parametrix:
    """Solve the triangular recursion for the inverse symbols.

    ``q`` must already be context-evaluated.  The order-2 part must be an
    invertible scalar monomial times |xi|^2.  An interior point needs
    b_-2, b_-3 and b_-4; a boundary point needs b_-2 and b_-3 only.
    """
    depth = 2 if ctx.is_boundary else 3
    top = q.order_part(2)
    if list(top.terms) != [xim_norm(1)]:
        raise ValueError("leading symbol is not a multiple of |xi|^2")
    lead = top.terms[xim_norm(1)]
    s2 = lead.scalar_part()
    if len(lead.terms) != 1 or not s2:
        raise ValueError("leading symbol is not scalar")
    s2_inv = s2.inverse_monomial()
    b2 = SymbolExpr.scalar_term(xim_norm(-1), s2_inv)

    partial = b2
    bs = {-2: b2}
    for k in range(1, depth):
        res = compose(q, partial, -k, ctx).order_part(-k)
        nxt = -(b2.mul(res))
        bs[-2 - k] = nxt
        partial = partial + nxt

    imp = SymbolExpr.zero() if ctx.is_boundary else riemann_contraction_term()
    return Parametrix(
        b2=bs[-2],
        b3=bs.get(-3, SymbolExpr.zero()),
        b4_recursion=bs.get(-4, SymbolExpr.zero()),
        curvature_import=imp,
        ctx=ctx,
    )


def interior_q() -> SymbolExpr:
    return build_q_symbols(INTERIOR)


@lru_cache(maxsize=None)
def interior_parametrix() -> Parametrix:
    return invert_symbol(interior_q(), INTERIOR)


# ---------------------------------------------------------------------------
# Order -6 symbol of Q^-2


@lru_cache(maxsize=None)
def qinv_square_sigma6() -> SymbolExpr:
    """Order -6 symbol of Q^-2 at the interior point, both routes checked."""
    q = interior_q()
    par = interior_parametrix()
    route_a = _route_direct(par)
    route_b = _route_reduced(q, par)
    if route_a != route_b:
        diff = route_a - route_b
        raise RouteDisagreement(
            "direct composition and reduced assembly differ:\n%s" % diff)
    return route_b


def _route_direct(par: Parametrix) -> SymbolExpr:
    """compose(sigma(Q^-1), sigma(Q^-1)) at order -6, plus the forced
    completion b_-2 * import coming from the imported curvature term."""
    full = par.full_symbol()
    direct = compose(full, full, -6, par.ctx).order_part(-6)
    completion = par.b2.mul(par.curvature_import)
    return direct + completion


def _route_reduced(q: SymbolExpr, par: Parametrix) -> SymbolExpr:
    """The reduced combination obtained by eliminating the mixed derivative
    term with the recursion identities.  In xi it subtracts i x the first-
    and 1/2 x the second-derivative terms; d/deta = -i d/dxi makes both adds.
    """
    ctx = par.ctx
    s2inv = par.b2
    s2 = q.order_part(2)
    s1 = q.order_part(1)
    s0 = q.order_part(0)
    b3 = par.b3
    b4 = par.b4

    s2inv_sq = s2inv.mul(s2inv)
    dx_s2inv = {mu: s2inv.derive_x(mu, ctx) for mu in COORDS}

    out = s2inv.mul(b4).scale(sc(3))
    out = out + s2inv_sq.mul(s2inv).mul(s0)
    out = out + b3.mul(b3)
    out = out + s2inv_sq.mul(s1).mul(b3)

    for mu, dx in dx_s2inv.items():
        if dx:
            out = out + (s2inv_sq.mul(s1.derive_xi(mu)) + b3.derive_xi(mu)).mul(dx)
    for mu, dx in dx_s2inv.items():
        for nu in COORDS:
            ddx = dx.derive_x(nu, ctx)
            if ddx:
                dd = (s2inv_sq.mul(s2.derive_xi(mu).derive_xi(nu))
                      + s2inv.derive_xi(mu).derive_xi(nu))
                out = out + dd.mul(ddx).scale(sc(1, 2))
    return out.order_part(-6)


# ---------------------------------------------------------------------------
# Named operator access (CLI dumps)

# --operator name -> its symbol, given a point context or None: Q is then
# generic, and Qinv is taken at the interior point
OPERATORS = {
    "D": lambda ctx: build_d_symbols(),
    "D2": lambda ctx: build_d2_symbols(),
    "Q": build_q_symbols,
    "Qinv": lambda ctx: invert_symbol(
        build_q_symbols(ctx or INTERIOR), ctx or INTERIOR).full_symbol(),
    "Qinv2": lambda ctx: qinv_square_sigma6(),
}
