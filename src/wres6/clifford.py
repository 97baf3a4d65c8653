"""Clifford algebra on six generators c(dx_1)..c(dx_6).

Relations: c_i c_j + c_j c_i = -2 delta_ij at the computation point (the
orthonormal frame of normal coordinates, so c(e_i) and c(dx_i) coincide).
Words are strictly increasing index tuples; the empty word is the identity.
The spinor trace sends the identity to 2^(6/2) = 8 and every nonempty
canonical word to 0.

``CliffordElement`` is a ``scalars.SparseSum`` (word -> ScalarExpr), which
holds its storage, its linear structure and its product; this module gives
the product of two words.  The relations have real structure constants
(Cl_{0,6} is the real matrix algebra M_8(R)), so every coefficient stays
rational.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .scalars import ScalarExpr, SparseSum, _as_scalar

TRACE_ID = 8  # 2^(n/2) with n = 6, fixed for this artifact


def _merge_words(w1: tuple, w2: tuple) -> tuple[int, tuple]:
    """Concatenate two canonical words; return (sign, canonical word)."""
    out = list(w1)
    sign = 1
    for g in w2:
        pos = len(out)
        while pos > 0 and out[pos - 1] > g:
            pos -= 1
        swaps = len(out) - pos
        if pos > 0 and out[pos - 1] == g:
            # move g next to its twin, then contract c_g c_g = -1
            sign *= (-1) ** swaps * (-1)
            del out[pos - 1]
        else:
            sign *= (-1) ** swaps
            out.insert(pos, g)
    return sign, tuple(out)


class CliffordElement(SparseSum):
    """Canonical-form element: map from word to ScalarExpr coefficient."""

    __slots__ = ()
    _value = ScalarExpr

    @staticmethod
    @lru_cache(maxsize=None)
    def _key_mul(w1: tuple, w2: tuple) -> tuple:
        """The product of two words, ((word, sign),)."""
        sign, w = _merge_words(w1, w2)
        return ((w, sign),)

    @staticmethod
    def identity(coeff=1) -> "CliffordElement":
        return CliffordElement({(): _as_scalar(coeff)})

    @staticmethod
    def generator(i: int) -> "CliffordElement":
        if not 1 <= i <= 6:
            raise ValueError("generator index out of range")
        return CliffordElement({(i,): ScalarExpr.one()})

    @staticmethod
    def word(indices: Iterable[int], coeff=1) -> "CliffordElement":
        w = tuple(indices)
        if any(w[k] >= w[k + 1] for k in range(len(w) - 1)):
            raise ValueError("word indices must be strictly increasing")
        return CliffordElement({w: _as_scalar(coeff)})

    @staticmethod
    def covector(components: list[ScalarExpr]) -> "CliffordElement":
        """c(v) = sum_j v_j c_j for a covector with given components."""
        return CliffordElement({(j,): components[j - 1] for j in range(1, 7)})

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self.mul(other)

    def trace(self) -> ScalarExpr:
        """Spinor trace: tr(id) = 8, nonempty canonical words trace to 0."""
        return self.terms.get((), ScalarExpr.zero()) * TRACE_ID

    def scalar_part(self) -> ScalarExpr:
        return self.terms.get((), ScalarExpr.zero())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, c in self.sorted_terms():
            wtxt = word_str(w)
            parts.append(f"({c})" + ("" if not w else "*" + wtxt))
        return " + ".join(parts)


def c_of_d(u: ScalarExpr) -> CliffordElement:
    """c(du) = sum_j (d_j u) c_j for a scalar function u."""
    return CliffordElement.covector([u.derive_x(j) for j in range(1, 7)])


def word_str(w: tuple) -> str:
    if not w:
        return "1"
    return "".join(f"c[{i}]" for i in w)
