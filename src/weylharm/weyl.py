"""The Weyl algebra on 2d generators in canonical normal-ordered form.

Elements are finite Q(i)-linear combinations of normal monomials
(a_1+)^b1 ... (a_d+)^bd a_1^a1 ... a_d^ad: all creation generators to the
left of all annihilation generators, modes in ascending index order.
Multiplication rewrites to this form through the commutation rule
a_j a_k+ = a_k+ a_j + delta_jk, so equality of elements is structural
equality of their term maps.  Everything but that product lives in the base
class `TermMap`, which `poly.CPolynomial` shares: the ordering map is a
linear isomorphism between two spaces of the same shape.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product as _product
from math import comb, factorial
from types import MappingProxyType
from typing import Iterator, NamedTuple

from .scalars import GR_ONE, GR_ZERO, GaussRational, ScalarLike, _power


class ModeMismatchError(ValueError):
    """Raised when elements over different mode counts are combined."""


class NormalMonomial(NamedTuple):
    """Creation exponents ``beta`` and annihilation exponents ``alpha``."""

    beta: tuple
    alpha: tuple

    @property
    def degree(self) -> int:
        return sum(self.beta) + sum(self.alpha)


def check_exponents(*vectors) -> None:
    """Raise ValueError unless every entry of every vector is an int >= 0.

    Called where exponents enter from outside (the public `TermMap`
    constructor, which `monomial` and JSON go through); the internal hot
    paths only ever produce valid vectors and build through `_trusted`.
    """
    for vec in vectors:
        if not all(isinstance(e, int) and e >= 0 for e in vec):
            raise ValueError(f"exponents must be nonnegative integers, got {tuple(vec)}")


def term_sort_key(mono):
    """Canonical output order: by (total degree, beta, alpha)."""
    return (mono.degree, mono.beta, mono.alpha)


def _check_mode(d: int, j: int):
    if not 1 <= j <= d:
        raise IndexError(f"mode index {j} out of range 1..{d}")


_SCALARS = (int, Fraction, GaussRational)


class TermMap:
    """An immutable Q(i)-combination of monomials over d modes.

    A monomial is a ``_mono`` named tuple of two exponent vectors, each of
    length d; every method that takes exponent vectors takes them in
    ``_mono._fields`` order.  Zero coefficients are dropped on construction,
    so callers may accumulate into a plain dict and leave cancelled keys in
    it.  Subclasses set ``_mono`` and supply the product.
    """

    __slots__ = ("d", "terms")
    _mono: type

    def __new__(cls, d: int, terms: dict | None = None):
        if d < 1:
            raise ValueError("mode count d must be >= 1")
        clean: dict = {}
        for mono, coeff in (terms or {}).items():
            check_exponents(*mono)
            clean[mono] = GaussRational.coerce(coeff)
            if clean[mono] and (len(mono.beta) != d or len(mono.alpha) != d):
                raise ModeMismatchError(f"monomial {mono} does not have {d} modes")
        return cls._trusted(d, clean)

    @classmethod
    def _trusted(cls, d: int, terms: dict):
        """Build from an internal accumulator: GaussRational coefficients on
        monomials of d modes.  Zeros are dropped; nothing is re-validated."""
        return cls._wrap(d, {m: c for m, c in terms.items() if c})

    @classmethod
    def _wrap(cls, d: int, clean: dict):
        """Build from a fresh dict of nonzero GaussRational coefficients on
        monomials of d modes, which becomes the terms as it is."""
        x = object.__new__(cls)
        object.__setattr__(x, "d", d)
        object.__setattr__(x, "terms", MappingProxyType(clean))
        return x

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self.d, dict(self.terms))

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, d: int):
        return cls(d, {})

    @classmethod
    def one(cls, d: int):
        z = (0,) * d
        return cls(d, {cls._mono(z, z): GR_ONE})

    @classmethod
    def monomial(cls, d: int, first, second, coeff: ScalarLike = 1):
        return cls(d, {cls._mono(tuple(first), tuple(second)): coeff})

    @classmethod
    def _generator(cls, d: int, j: int, field: int):
        """Exponent 1 at mode j (1 <= j <= d) in ``_mono`` field 0 or 1."""
        _check_mode(d, j)
        e = tuple(1 if k == j - 1 else 0 for k in range(d))
        z = (0,) * d
        return cls(d, {cls._mono(*((e, z) if field == 0 else (z, e))): GR_ONE})

    @classmethod
    def _diagonal_sum(cls, d: int):
        """The sum over j of the monomial with exponent 1 at mode j in both
        fields."""
        terms = {}
        for j in range(d):
            e = tuple(1 if k == j else 0 for k in range(d))
            terms[cls._mono(e, e)] = GR_ONE
        return cls(d, terms)

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero element."""
        if not self.terms:
            return -1
        return max(m.degree for m in self.terms)

    def coefficient(self, first, second) -> GaussRational:
        return self.terms.get(self._mono(tuple(first), tuple(second)), GR_ZERO)

    def sorted_terms(self) -> Iterator[tuple]:
        for mono in sorted(self.terms, key=term_sort_key):
            yield mono, self.terms[mono]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.d, frozenset(self.terms.items())))

    # -- linear structure ---------------------------------------------------

    def _check_same(self, other):
        if self.d != other.d:
            raise ModeMismatchError(f"mode counts differ: {self.d} vs {other.d}")

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = self.one(self.d).scale(other)
        elif type(other) is not type(self):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            cur = out.get(mono)
            out[mono] = c if cur is None else cur + c
        return self._trusted(self.d, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            return self + (-GaussRational.coerce(other))
        if type(other) is not type(self):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            cur = out.get(mono)
            out[mono] = -c if cur is None else cur - c
        return self._trusted(self.d, out)

    def __neg__(self):
        return self._trusted(self.d, {m: -c for m, c in self.terms.items()})

    def scale(self, coeff: ScalarLike):
        c = GaussRational.coerce(coeff)
        if c.is_zero():
            return self.zero(self.d)
        return self._trusted(self.d, {m: v * c for m, v in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        return _power(self, n, self.one(self.d))

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        fields = self._mono._fields
        return {
            "d": self.d,
            "terms": [
                {**{f: list(v) for f, v in zip(fields, m)},
                 "re": str(c.re), "im": str(c.im)}
                for m, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict):
        d = int(data["d"])
        terms = {}
        for t in data["terms"]:
            vectors = [tuple(t[f]) for f in cls._mono._fields]
            terms[cls._mono(*vectors)] = GaussRational(
                Fraction(t["re"]), Fraction(t["im"])
            )
        return cls(d, terms)


class WeylElement(TermMap):
    """A finite Q(i)-combination of normal monomials over d modes."""

    __slots__ = ()
    _mono = NormalMonomial

    @classmethod
    def unit(cls, d: int) -> "WeylElement":
        """The identity, the same as `one`."""
        return cls.one(d)

    @classmethod
    def annihilator(cls, d: int, j: int) -> "WeylElement":
        """The generator a_j, 1 <= j <= d."""
        return cls._generator(d, j, 1)

    @classmethod
    def creator(cls, d: int, j: int) -> "WeylElement":
        """The generator a_j+, 1 <= j <= d."""
        return cls._generator(d, j, 0)

    def __mul__(self, other) -> "WeylElement":
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return weyl_mul(self, other)

    def __repr__(self) -> str:
        from .expr import format_weyl

        return f"<WeylElement d={self.d}: {format_weyl(self)}>"


@lru_cache(maxsize=None)
def contractions(ann: tuple, cre: tuple) -> tuple:
    """Wick expansion of a^ann (a+)^cre, the one contraction primitive.

    Per mode, a^m (a+)^n = sum_i C(m,i) C(n,i) i! (a+)^(n-i) a^(m-i); the
    multi-mode expansion is the product over modes.  Returns a tuple of
    (ivec, weight) pairs: ``ivec`` is the per-mode contraction count to
    subtract from both exponent vectors, ``weight`` the integer coefficient.
    Memoised, since products and orderings revisit the same exponent pairs.
    """
    per_mode = [
        [(i, comb(m, i) * comb(n, i) * factorial(i)) for i in range(min(m, n) + 1)]
        for m, n in zip(ann, cre)
    ]
    out = []
    for combo in _product(*per_mode):
        weight = 1
        for _, c in combo:
            weight *= c
        out.append((tuple(i for i, _ in combo), weight))
    return tuple(out)


def weyl_mul(x: WeylElement, y: WeylElement) -> WeylElement:
    """Exact product, rewritten to normal form via the commutation rule."""
    x._check_same(y)
    d = x.d
    acc: dict = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            c12 = c1 * c2
            for ivec, weight in contractions(m1.alpha, m2.beta):
                beta = tuple(
                    b1 + b2 - i for b1, b2, i in zip(m1.beta, m2.beta, ivec)
                )
                alpha = tuple(
                    a1 + a2 - i for a1, a2, i in zip(m1.alpha, m2.alpha, ivec)
                )
                mono = NormalMonomial(beta, alpha)
                cur = acc.get(mono)
                acc[mono] = c12 * weight if cur is None else cur + c12 * weight
    return WeylElement._trusted(d, acc)


def commutator(x: WeylElement, y: WeylElement) -> WeylElement:
    """[x, y] = xy - yx."""
    return weyl_mul(x, y) - weyl_mul(y, x)


def anticommutator(x: WeylElement, y: WeylElement) -> WeylElement:
    """{x, y} = xy + yx."""
    return weyl_mul(x, y) + weyl_mul(y, x)


def ad(x: WeylElement):
    """The derivation ad_x : w |-> [x, w]."""

    def action(w: WeylElement) -> WeylElement:
        return commutator(x, w)

    return action


def number_operator(d: int) -> WeylElement:
    """N = sum_j a_j+ a_j, already in normal form."""
    return WeylElement._diagonal_sum(d)


def compositions(total: int, parts: int) -> Iterator[tuple]:
    """All tuples of ``parts`` nonnegative ints summing to ``total``, in
    lexicographic order."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if parts == 1:
        yield (total,)
        return
    for v in range(total + 1):
        for rest in compositions(total - v, parts - 1):
            yield (v,) + rest
