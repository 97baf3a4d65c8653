"""Clifford algebra on six generators c(dx_1)..c(dx_6).

Relations: c_i c_j + c_j c_i = -2 delta_ij at the computation point (the
orthonormal frame of normal coordinates, so c(e_i) and c(dx_i) coincide).
Words are strictly increasing index tuples; the empty word is the identity.
The spinor trace sends the identity to 2^(6/2) = 8 and every nonempty
canonical word to 0.

``CliffordElement`` is a ``scalars.SparseSum`` (word -> ScalarExpr), which
holds its storage and its linear structure; this module adds the product.
Every product adds into a raw ``{word: {monomial: GaussRat}}`` dict
(``mul_into``), whose parts are ints wherever they are integral, and each
``ScalarExpr`` is built once (``raw_element``).

``matrix_oracle`` returns six concrete 8x8 matrices over exact Gaussian
rationals satisfying the same relations; tests use it as an independent
check of products and traces.
"""

from __future__ import annotations

from typing import Iterable

from .scalars import (G_ONE, GaussRat, ScalarExpr, SparseSum, _accumulate,
                      _as_scalar, _mono_mul)

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


def mul_into(raw: dict, a: "CliffordElement", b: "CliffordElement",
             scale: GaussRat = G_ONE) -> None:
    """Add scale * a * b into ``raw``, a {word: {monomial: GaussRat}} dict."""
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            sign, w = _merge_words(w1, w2)
            acc = raw.setdefault(w, {})
            k = scale if sign > 0 else -scale
            for m1, g1 in c1.terms.items():
                g = g1 if k is G_ONE else g1 * k
                for m2, g2 in c2.terms.items():
                    _accumulate(acc, _mono_mul(m1, m2), g * g2)


def raw_element(raw: dict) -> "CliffordElement":
    """The element of a {word: {monomial: nonzero GaussRat}} dict."""
    return CliffordElement({w: ScalarExpr._adopt(t) for w, t in raw.items()})


class CliffordElement(SparseSum):
    """Canonical-form element: map from word to ScalarExpr coefficient."""

    __slots__ = ()

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

    def scale(self, s) -> "CliffordElement":
        s = _as_scalar(s)
        return CliffordElement({w: c * s for w, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        raw: dict = {}
        mul_into(raw, self, other)
        return raw_element(raw)

    def __hash__(self):
        return hash(frozenset((w, hash(c)) for w, c in self.terms.items()))

    def trace(self) -> ScalarExpr:
        """Spinor trace: tr(id) = 8, nonempty canonical words trace to 0."""
        return self.terms.get((), ScalarExpr.zero()) * TRACE_ID

    def scalar_part(self) -> ScalarExpr:
        return self.terms.get((), ScalarExpr.zero())

    def map_scalars(self, fn) -> "CliffordElement":
        return CliffordElement({w: fn(c) for w, c in self.terms.items()})

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


# ---------------------------------------------------------------------------
# Matrix oracle: six anticommuting 8x8 matrices with M_i^2 = -Id, entries in
# {0, +-1, +-i}, built from Pauli blocks.

Matrix = tuple  # tuple of 8 tuples of GaussRat


def _mat(rows) -> Matrix:
    return tuple(tuple(x for x in row) for row in rows)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n = len(A)
    return _mat([[sum((A[i][k] * B[k][j] for k in range(n)), GaussRat(0))
                  for j in range(n)] for i in range(n)])


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return _mat([[A[i][j] + B[i][j] for j in range(len(A))] for i in range(len(A))])


def mat_scale(A: Matrix, s: GaussRat) -> Matrix:
    return _mat([[x * s for x in row] for row in A])


def mat_trace(A: Matrix) -> GaussRat:
    return sum((A[i][i] for i in range(len(A))), GaussRat(0))


def mat_identity(n: int = 8) -> Matrix:
    return _mat([[GaussRat(1) if i == j else GaussRat(0) for j in range(n)]
                 for i in range(n)])


def _kron(A: Matrix, B: Matrix) -> Matrix:
    na, nb = len(A), len(B)
    return _mat([[A[i // nb][j // nb] * B[i % nb][j % nb]
                  for j in range(na * nb)] for i in range(na * nb)])


def matrix_oracle() -> list[Matrix]:
    """Concrete representation: returns [M_1, ..., M_6], 8x8 exact matrices."""
    o, l, mi = GaussRat(1), GaussRat(0), GaussRat(0, 1)
    sx = _mat([[l, o], [o, l]])
    sy = _mat([[l, -mi], [mi, l]])
    sz = _mat([[o, l], [l, -o]])
    i2 = _mat([[o, l], [l, o]])
    pre = [
        _kron(sx, _kron(i2, i2)),
        _kron(sy, _kron(i2, i2)),
        _kron(sz, _kron(sx, i2)),
        _kron(sz, _kron(sy, i2)),
        _kron(sz, _kron(sz, sx)),
        _kron(sz, _kron(sz, sy)),
    ]
    return [mat_scale(m, mi) for m in pre]


def element_to_matrix(el: CliffordElement, assign) -> Matrix:
    """Evaluate an element numerically into the oracle representation."""
    mats = matrix_oracle()
    out = mat_scale(mat_identity(), GaussRat(0))
    for w, coeff in el.terms.items():
        m = mat_identity()
        for i in w:
            m = mat_mul(m, mats[i - 1])
        out = mat_add(out, mat_scale(m, coeff.evaluate(assign)))
    return out
