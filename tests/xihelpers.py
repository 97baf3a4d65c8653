"""Test helper: compare symbols modulo the relation sum_j xi_j^2 = |xi|^2.

The engine keeps |xi|^2 as an independent generator; identities like the
Euler relation or products of Clifford covectors hold only modulo the
defining relation, which this helper applies by clearing denominators and
expanding the remaining nonnegative powers multinomially.
"""

from wres6.scalars import _accumulate
from wres6.symbols import SymbolExpr


def _expand_norm_power(p: int):
    """(sum_j xi_j^2)^p as a dict {exps: multiplicity} for p >= 0."""
    out = {(0,) * 6: 1}
    for _ in range(p):
        nxt = {}
        for exps, mult in out.items():
            for j in range(6):
                e = list(exps)
                e[j] += 2
                key = tuple(e)
                nxt[key] = nxt.get(key, 0) + mult
        out = nxt
    return out


def normalize_pair(S: SymbolExpr, T: SymbolExpr):
    """Clear |xi|-denominators jointly and expand; returns comparable dicts."""
    ps = [p for sym in (S, T) for _, p in sym.terms]
    pmin = min(ps) if ps else 0
    return _expand(S, -pmin), _expand(T, -pmin)


def _expand(S: SymbolExpr, shift: int):
    out = {}
    for (exps, p), el in S.terms.items():
        for mono, mult in _expand_norm_power(p + shift).items():
            key = tuple(a + b for a, b in zip(exps, mono))
            for w, c in el.terms.items():
                _accumulate(out, (key, w), c * mult)
    return out


def xi_equal(S: SymbolExpr, T: SymbolExpr) -> bool:
    a, b = normalize_pair(S, T)
    return a == b
