"""Exact coefficient ring for the residue computation.

Everything downstream (Clifford coefficients, symbol coefficients, boundary
rational functions) is a ``ScalarExpr``: a canonical sum of monomials with
rational coefficients; the real gauge of the ``symbols`` module keeps the
symbol coefficients rational.  A monomial is a multiset of atoms:

* function atoms -- ``f``, ``h`` (and ``u`` after a specialization) with an
  optional derivative multi-index of order <= 2.  Powers are only carried by
  underived atoms; derived atoms enter with positive multiplicity.
* geometric atoms -- scalar curvature ``s``, the contracted Riemann atom
  ``R[a,b]``, the boundary warp derivative ``wp`` (w'(0)), contracted
  connection atoms ``Gam[mu]`` / ``sig[mu]``, frame connection ``om[i,s,t]``,
  the opaque curvature remainder ``curv0`` of the squared Dirac operator's
  order-0 symbol, and the constants ``S6`` (area of the unit 5-sphere in R^6),
  ``Om4`` (area of the unit 4-sphere in R^5) and ``pi``.

Arithmetic is exact and never produces a float: each coefficient is an
``int`` when integral and a ``Fraction`` otherwise.  All values are immutable
after construction, so expressions are safe to share freely.

``SparseSum`` holds the storage, the linear structure (an immutable
``{key: nonzero value}`` dict with ``+``, ``-`` and ``==``) and the product
of five containers: ``ScalarExpr`` and the Clifford, symbol and two boundary
containers built on it.  ``mul_into`` is the one product loop; a container
gives only the type of its values and the product of two of its keys.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from typing import Callable, Mapping

MAX_DERIV_ORDER = 2

def _rational(x) -> int | Fraction:
    """An int or Fraction in canonical form: an int when integral."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"cannot coerce {x!r} to a rational")
    return x.numerator if x.denominator == 1 else x


# ---------------------------------------------------------------------------
# Atoms
#
# Atom encodings (plain tuples so monomials are hashable):
#   ("f"|"h"|"u", beta)        function atom, beta a sorted tuple of coords
#   ("s", ())                  scalar curvature, never differentiated
#   ("R", a, b, ())            Riemann contraction R_{alpha a alpha b}, a<=b
#   ("wp",)                    w'(0), warp derivative at the boundary point
#   ("Gam", mu)                contracted Christoffel Gamma^mu
#   ("sig", mu)                contracted spin connection sigma^mu
#   ("om", i, s, t)            frame connection omega_{s,t}(e_i), s < t
#   ("curv0",)                 order-0 curvature remainder of D^2
#   ("S6",), ("Om4",), ("pi",) exact constants kept symbolic

FUNC_BASES = ("f", "h", "u")
CONSTANT_ATOMS = frozenset([("wp",), ("S6",), ("Om4",), ("pi",)])
CONNECTION_KINDS = frozenset(["Gam", "sig", "om", "curv0"])

_KIND_RANK = {"f": 0, "h": 1, "u": 2, "s": 3, "R": 4, "wp": 5, "Gam": 6,
              "sig": 7, "om": 8, "curv0": 9, "S6": 10, "Om4": 11, "pi": 12}


def _atom_key(atom):
    return (_KIND_RANK[atom[0]],) + atom[1:]


def atom_str(atom) -> str:
    kind = atom[0]
    if kind in FUNC_BASES:
        beta = atom[1]
        if not beta:
            return kind
        return "d[%s]%s" % (",".join(map(str, beta)), kind)
    if kind == "R":
        return "R[%d,%d]" % (atom[1], atom[2])
    if kind in ("Gam", "sig", "om"):
        return "%s[%s]" % (kind, ",".join(map(str, atom[1:])))
    if kind in _KIND_RANK:  # s, wp, curv0 and the constants
        return kind
    raise ValueError(f"unknown atom {atom!r}")


class DerivativeOrderError(ValueError):
    """Raised when a derivative would exceed the supported order bound."""


# ---------------------------------------------------------------------------
# Sparse sums


def _accumulate(out: dict, key, value) -> None:
    """Add value to out[key] in place, dropping the entry when it cancels.

    The one sparse-sum step of every container: values are rationals,
    ScalarExpr, CliffordElement or XiRat, anything with ``+`` whose zero is
    falsy.  An integral Fraction is stored as its int.
    """
    acc = out.get(key)
    if acc is not None:
        value = acc + value
        if not value:
            del out[key]
            return
    if type(value) is Fraction and value.denominator == 1:
        value = value.numerator
    out[key] = value


def mul_into(raw: dict, a: "SparseSum", b: "SparseSum", scale=1) -> None:
    """Add scale * a * b into ``raw``, the product loop of every container.

    ``raw`` nests one dict per level down to {monomial: rational}: a
    ``ScalarExpr`` product adds into {monomial: rational}, a product of
    ``CliffordElement``s into {word: {monomial: rational}}, and so on.  Keys
    multiply by ``a._key_mul``, which gives ((key, rational), ...), and their
    values multiply one level down.  A factor of exactly 1 costs no product.
    """
    unit = scale == 1
    if type(a) is ScalarExpr:
        for m1, c1 in a.terms.items():
            k = c1 if unit else c1 * scale
            for m2, c2 in b.terms.items():
                _accumulate(raw, _mono_mul(m1, m2), k * c2)
        return
    key_mul = a._key_mul
    for u, x in a.terms.items():
        for v, y in b.terms.items():
            for w, g in key_mul(u, v):
                mul_into(raw.setdefault(w, {}), x, y, g if unit else g * scale)


class SparseSum:
    """An immutable sum ``terms: {key: nonzero value}``.

    The storage, the linear structure and the product of five containers:
    ``ScalarExpr``, ``CliffordElement``, ``SymbolExpr``, ``XiRat`` and
    ``BoundaryExpr``.  Construction drops falsy values (``_adopt`` takes a
    dict that has none), so equal sums have equal dicts and ``==`` is a dict
    compare.  A container gives ``_value``, the type of its values, and
    ``_key_mul`` for ``mul_into``; it adds only its printing and its own
    calculus.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        clean = {}
        if terms:
            for key, value in terms.items():
                if value:
                    clean[key] = value
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _adopt(cls, clean: dict):
        """The sum of a dict that holds no falsy value, taken without a copy."""
        s = object.__new__(cls)
        object.__setattr__(s, "terms", clean)
        return s

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for key, value in other.terms.items():
            _accumulate(out, key, value)
        return type(self)._adopt(out)

    def __neg__(self):
        return type(self)._adopt({key: -value for key, value in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def mul(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot multiply {type(self).__name__} "
                            f"by {type(other).__name__}")
        raw: dict = {}
        mul_into(raw, self, other)
        return self._of_raw(raw)

    @classmethod
    def _of_raw(cls, raw: dict):
        """The sum of a dict that ``mul_into`` filled; an inner dict may have
        cancelled to empty."""
        of = cls._value._of_raw
        return cls({key: of(r) for key, r in raw.items()})

    def map(self, fn):
        """The sum with every value v replaced by fn(v)."""
        return type(self)({key: fn(value) for key, value in self.terms.items()})

    def scale(self, s):
        """The sum times the scalar s."""
        s = _as_scalar(s)
        return self.map(lambda value: value.scale(s))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


# ---------------------------------------------------------------------------
# ScalarExpr


class ScalarExpr(SparseSum):
    """Canonical sum of monomials over the atom alphabet.

    ``terms`` maps a monomial (sorted tuple of (atom, exponent) pairs) to its
    nonzero rational coefficient, an int when integral.  A number equals, and
    hashes like, its constant.
    """

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "ScalarExpr":
        return _SE_ZERO

    @staticmethod
    def one() -> "ScalarExpr":
        return _SE_ONE

    @staticmethod
    def const(c) -> "ScalarExpr":
        c = _rational(c)
        if not c:
            return _SE_ZERO
        return ScalarExpr({(): c})

    @staticmethod
    def atom(atom, exp: int = 1) -> "ScalarExpr":
        if exp == 0:
            return _SE_ONE
        _validate_atom(atom, exp)
        return ScalarExpr({((atom, exp),): 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _as_scalar(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        return SparseSum.__add__(self, other)

    __radd__ = __add__

    def __rsub__(self, other):
        return _as_scalar(other) + (-self)

    def __mul__(self, other):
        other = _as_scalar(other)
        if not self.terms or not other.terms:
            return _SE_ZERO
        out: dict = {}
        mul_into(out, self, other)
        return ScalarExpr._adopt(out)

    __rmul__ = scale = __mul__

    @classmethod
    def _of_raw(cls, raw: dict) -> "ScalarExpr":
        return cls._adopt(raw)

    def __pow__(self, k: int):
        if k == 0:
            return _SE_ONE
        if k < 0:
            return self.inverse_monomial() ** (-k)
        out = _SE_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse_monomial(self) -> "ScalarExpr":
        """Invert a single-monomial expression (used for leading symbols)."""
        if len(self.terms) != 1:
            raise ValueError("only monomial expressions are invertible")
        (mono, coeff), = self.terms.items()
        inv = []
        for atom, exp in mono:
            if atom[0] not in FUNC_BASES or atom[1]:
                raise ValueError(f"cannot invert atom {atom!r}")
            inv.append((atom, -exp))
        return ScalarExpr({tuple(inv): _rational(1 / Fraction(coeff))})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ScalarExpr.const(other)
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant hashes like the number it compares equal to
        if not self.terms:
            return hash(0)
        if len(self.terms) == 1 and () in self.terms:
            return hash(self.terms[()])
        return hash(frozenset(self.terms.items()))

    # -- differentiation ---------------------------------------------------

    def derive_x(self, j: int) -> "ScalarExpr":
        """Coordinate derivative d/dx_j.

        Leibniz over monomials; chain rule on powers.  A function atom gains
        the index j, up to ``MAX_DERIV_ORDER``; the constants (wp, S6, Om4,
        pi) differentiate to zero.  A curvature or connection atom raises
        ``DerivativeOrderError``: it is a value at the computation point,
        with no derivative there.
        """
        if not 1 <= j <= 6:
            raise ValueError("coordinate index out of range")
        out: dict = {}
        for mono, coeff in self.terms.items():
            for idx, (atom, exp) in enumerate(mono):
                datom = _atom_derivative(atom, j)
                if datom is None:
                    continue
                rest = _mono_with_exp(mono, idx, exp - 1)
                _accumulate(out, _mono_mul(rest, ((datom, 1),)), coeff * exp)
        return ScalarExpr(out)

    # -- substitution --------------------------------------------------------

    def map_func_atoms(self, images: Mapping[str, "ScalarExpr"]) -> "ScalarExpr":
        """Substitute images[b] for each function b in ``images``; the chain
        rule sends d[beta]b to d_beta images[b], and other atoms pass."""
        return _rewrite_atoms(self, lambda a: reduce(
            ScalarExpr.derive_x, a[1], images[a[0]]) if a[0] in images else None)

    # -- display -----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0]))

    def __str__(self):
        return self.render(_signed_str)

    def render(self, coeff_str: Callable[[int | Fraction], tuple]) -> str:
        """The sum as text, each coefficient written by ``coeff_str``, which
        returns (leading minus, text of the rest)."""
        if not self.terms:
            return "0"
        parts = [_scaled_str(*coeff_str(coeff), "*".join(
                     atom_str(a) + ("" if e == 1 else f"^{e}") for a, e in mono))
                 for mono, coeff in self.sorted_terms()]
        return parts[0] + "".join(" - " + p[1:] if p.startswith("-") else " + " + p
                                  for p in parts[1:])


def _as_scalar(x) -> ScalarExpr:
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return ScalarExpr.const(x)
    raise TypeError(f"cannot coerce {x!r} to ScalarExpr")


def _validate_atom(atom, exp):
    kind = atom[0]
    if kind not in _KIND_RANK:
        raise ValueError(f"unknown atom kind {kind!r}")
    if kind in FUNC_BASES:
        beta = atom[1]
        if len(beta) > MAX_DERIV_ORDER:
            raise DerivativeOrderError(f"derivative order {len(beta)} exceeds bound")
        if tuple(sorted(beta)) != beta:
            raise ValueError("derivative multi-index must be sorted")
        if beta and exp < 0:
            raise ValueError("derived atoms only enter with positive powers")
    if kind in ("s", "R") and atom[-1]:
        raise ValueError("curvature atoms carry no derivative")
    if kind == "R" and atom[1] > atom[2]:
        raise ValueError("R indices must be sorted")
    if kind == "om" and atom[2] >= atom[3]:
        raise ValueError("om atom requires s < t")


def _rewrite_atoms(e: ScalarExpr,
                   rewrite: Callable[[tuple], ScalarExpr | None]) -> ScalarExpr:
    """Replace each atom for which ``rewrite(atom)`` is not None, then expand;
    a monomial's other atoms stay one (canonical) sub-monomial."""
    raw: dict = {}
    for mono, coeff in e.terms.items():
        keep, images = [], _SE_ONE
        for atom, exp in mono:
            rep = rewrite(atom)
            if rep is None:
                keep.append((atom, exp))
            else:
                images = images * rep ** exp
        mul_into(raw, ScalarExpr._adopt({tuple(keep): coeff}), images)
    return ScalarExpr._adopt(raw)


def _pair_key(ae):
    return _atom_key(ae[0])


@lru_cache(maxsize=None)
def _mono_mul(m1, m2):
    """The product of two canonical monomials; the same few thousand pairs
    recur throughout one verification, so the results are memoized."""
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for atom, exp in m2:
        acc[atom] = acc.get(atom, 0) + exp
    return tuple(sorted([ae for ae in acc.items() if ae[1]], key=_pair_key))


def _mono_with_exp(mono, idx, new_exp):
    items = list(mono)
    atom, _ = items[idx]
    if new_exp == 0:
        del items[idx]
    else:
        items[idx] = (atom, new_exp)
    return tuple(items)


def _atom_derivative(atom, j):
    """Derivative of a single atom, or None for a constant."""
    kind = atom[0]
    if kind in FUNC_BASES:
        beta = atom[1]
        if len(beta) >= MAX_DERIV_ORDER:
            raise DerivativeOrderError(
                f"derivative of {atom_str(atom)} exceeds order {MAX_DERIV_ORDER}")
        return (kind, tuple(sorted(beta + (j,))))
    if atom in CONSTANT_ATOMS:
        return None
    raise DerivativeOrderError(
        f"{atom_str(atom)} is a value at the point and has no derivative")


def _mono_key(mono):
    return tuple(_atom_key(a) + (e,) for a, e in mono)


def _signed_str(coeff) -> tuple[bool, str]:
    """A rational as (leading minus, text of its magnitude)."""
    return (True, str(-coeff)) if coeff < 0 else (False, str(coeff))


def _scaled_str(neg: bool, cstr: str, body: str) -> str:
    """cstr*body, with a leading minus when ``neg``: the coefficient is
    bracketed when it is a quotient or a product and left out when it is 1."""
    if not body:
        out = cstr
    elif cstr == "1":
        out = body
    else:
        if ("/" in cstr or "*" in cstr) and not cstr.startswith("("):
            cstr = f"({cstr})"
        out = f"{cstr}*{body}"
    return ("-" + out) if neg else out


_SE_ZERO = ScalarExpr({})
_SE_ONE = ScalarExpr({(): 1})


# ---------------------------------------------------------------------------
# Builders for the atoms this computation actually uses


def f_pow(p: int = 1) -> ScalarExpr:
    return ScalarExpr.atom(("f", ()), p)


def h_pow(p: int = 1) -> ScalarExpr:
    return ScalarExpr.atom(("h", ()), p)


def u_pow(p: int = 1) -> ScalarExpr:
    return ScalarExpr.atom(("u", ()), p)


def fh_pow(p: int = 1) -> ScalarExpr:
    """(fh)^p in the canonical basis, i.e. f^p h^p."""
    return f_pow(p) * h_pow(p)


def s_atom() -> ScalarExpr:
    return ScalarExpr.atom(("s", ()))


def riem(a: int, b: int) -> ScalarExpr:
    a, b = sorted((a, b))
    return ScalarExpr.atom(("R", a, b, ()))


def wp() -> ScalarExpr:
    return ScalarExpr.atom(("wp",))


def gam(mu: int) -> ScalarExpr:
    return ScalarExpr.atom(("Gam", mu))


def sig(mu: int) -> ScalarExpr:
    return ScalarExpr.atom(("sig", mu))


def omega(i: int, s: int, t: int) -> ScalarExpr:
    """omega_{s,t}(e_i) for s < t."""
    return ScalarExpr.atom(("om", i, s, t))


def curv0() -> ScalarExpr:
    return ScalarExpr.atom(("curv0",))


def area_s6() -> ScalarExpr:
    return ScalarExpr.atom(("S6",))


def omega4() -> ScalarExpr:
    return ScalarExpr.atom(("Om4",))


def pi_atom(power: int = 1) -> ScalarExpr:
    return ScalarExpr.atom(("pi",), power)


def sc(n, d=1) -> ScalarExpr:
    return ScalarExpr.const(Fraction(n, d))


def subst_area(e: ScalarExpr) -> ScalarExpr:
    """Substitution area(S_6) -> pi^3, applied at report time only."""
    return _rewrite_atoms(e, lambda atom: pi_atom(3) if atom == ("S6",) else None)


def grad_dot(u: ScalarExpr, v: ScalarExpr) -> ScalarExpr:
    """g(grad u, grad v) = sum_j (d_j u)(d_j v) at the computation point."""
    total = ScalarExpr.zero()
    for j in range(1, 7):
        total = total + u.derive_x(j) * v.derive_x(j)
    return total


def lap(u: ScalarExpr) -> ScalarExpr:
    """Delta u = sum_j d_j d_j u at the computation point."""
    total = ScalarExpr.zero()
    for j in range(1, 7):
        total = total + u.derive_x(j).derive_x(j)
    return total


# ---------------------------------------------------------------------------
# Display grouping: print the five basic sums |grad f|^2, g(grad f, grad h),
# |grad h|^2, lap f and lap h, each times a prefactor, in the paper's
# notation.  Display only; equality always runs on the expanded basis.

# derivative part of the j-th term of each basic sum -> (rank, label, j);
# rank is the print order
_SUM_TERMS = {
    term: (rank, label, j)
    for j in range(1, 7)
    for rank, (label, term) in enumerate((
        ("|grad[f]|^2", ((("f", (j,)), 2),)),
        ("g(grad[f],grad[h])", ((("f", (j,)), 1), (("h", (j,)), 1))),
        ("|grad[h]|^2", ((("h", (j,)), 2),)),
        ("lap[f]", ((("f", (j, j)), 1),)),
        ("lap[h]", ((("h", (j, j)), 1),)),
    ))
}


def _is_derivative_atom(atom) -> bool:
    return atom[0] in FUNC_BASES and bool(atom[1])


def _prefactor_split(mono):
    """Split a monomial into (prefactor part, derivative-atom part).

    The prefactor collects plain function powers and constant/geometric
    atoms (pi, areas, curvature); only derivative atoms decide which basic
    sum a term belongs to.
    """
    base, rest = [], []
    for atom, exp in mono:
        if _is_derivative_atom(atom):
            rest.append((atom, exp))
        else:
            base.append((atom, exp))
    return tuple(base), tuple(rest)


def _power_label(base_mono) -> str:
    a = b = 0
    extra = []
    for atom, exp in base_mono:
        if atom == ("f", ()):
            a = exp
        elif atom == ("h", ()):
            b = exp
        else:
            s = atom_str(atom)
            extra.append(s if exp == 1 else f"{s}^{exp}")
    k = min(a, b)
    parts = []
    if k != 0:
        parts.append(f"(fh)^{k}" if k != 1 else "fh")
    if a - k:
        parts.append("f" if a - k == 1 else f"f^{a-k}")
    if b - k:
        parts.append("h" if b - k == 1 else f"h^{b-k}")
    parts.extend(extra)
    return "*".join(parts)


def group_for_display(e: ScalarExpr) -> str:
    """Grouped rendering of a canonical expression.

    Terms of a basic sum that share a prefactor print as one piece when all
    six coordinates carry the same coefficient; terms of no basic sum print
    expanded after the pieces.  If any group is incomplete or uneven, the
    whole expression prints expanded.  Display only; equality checks always
    run on the expanded basis.
    """
    if e.is_zero():
        return "0"
    groups: dict = {}
    rest = {}
    for mono, coeff in e.terms.items():
        pre, deriv = _prefactor_split(mono)
        hit = _SUM_TERMS.get(deriv)
        if hit is None:
            rest[mono] = coeff
            continue
        rank, label, j = hit
        _, coeffs = groups.setdefault((rank, pre), (label, {}))
        coeffs[j] = coeff
    pieces = []
    for (_, pre), (label, coeffs) in sorted(groups.items()):
        values = set(coeffs.values())
        if len(coeffs) != 6 or len(values) != 1:
            return str(e)
        pieces.append(_format_piece(values.pop(), _power_label(pre), label))
    if rest:
        tail = str(ScalarExpr(rest))
        pieces.append(tail if tail.startswith("-") else "+" + tail)
    text = " ".join(pieces)
    return text[1:] if text.startswith("+") else text


def _format_piece(coeff, pre: str, label: str) -> str:
    piece = _scaled_str(*_signed_str(coeff), label if not pre else f"{pre}*{label}")
    return piece if piece.startswith("-") else "+" + piece
