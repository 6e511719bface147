"""The Weyl algebra on 2d generators in canonical normal-ordered form.

Elements are finite Q(i)-linear combinations of normal monomials
(a_1+)^b1 ... (a_d+)^bd a_1^a1 ... a_d^ad: all creation generators to the
left of all annihilation generators, modes in ascending index order.
Multiplication rewrites to this form through the commutation rule
a_j a_k+ = a_k+ a_j + delta_jk, so equality of elements is structural
equality of their term maps.  Everything but that product lives in the base
class `TermMap`, which `poly.CPolynomial` shares: the ordering map is a
linear isomorphism between two spaces of the same shape.

Inside a `TermMap` a monomial is one packed int (Monagan-Pearce packed
exponent vectors, as in FLINT's ``fmpz_mpoly``): 32-bit field j holds
``alpha[j]`` and field d + j ``beta[j]``, by name, so z^alpha zbar^beta and
its ordering-map image (a+)^beta a^alpha share a key.  A monomial shift is
one int add: R and L add or subtract a mode's step, a contraction
subtracts an offset, a Weyl product key is k1 + k2 - offset.  Fields never
carry, since exponents stay below EXPONENT_BOUND = 2^31: larger ones are
refused on entry, and so are products in which the two factors' largest
exponents in some field sum to it, powers that would reach it (before
any product) and raisings that would reach it.

The coefficients are stored as FLINT's ``fmpq_mpoly`` stores them: one
int denominator per map and, per key, a list [re, im] holding the
Gaussian-integer numerator.  Every kernel (products, sums, scaling, the
ordering map, the triple) reads those ints, accumulates fresh lists and
hands them to `TermMap._wrap`, which takes one gcd per result and owns
them from then on; a GaussRational is built only where a coefficient is
read (``terms``, ``coefficient``, JSON, pickling).

Every memo of the package is a `functools.lru_cache` made by `_memo`,
which registers it, so `clear_caches` empties them all in one call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from itertools import product as _product
from math import gcd, lcm
from struct import Struct
from types import MappingProxyType
from typing import Iterator, NamedTuple

from .scalars import GR_ZERO, GaussRational, ScalarLike, _gr, _parts, _power

FIELD_BITS = 32
EXPONENT_BOUND = 1 << (FIELD_BITS - 1)


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
    """Raise ValueError unless every entry of every vector is an int in
    0 <= e < EXPONENT_BOUND.

    Called where exponents enter from outside (the public `TermMap`
    constructor, which `monomial` and JSON go through); the internal
    kernels only ever produce valid keys and build through `_wrap`.
    """
    for vec in vectors:
        if not all(isinstance(e, int) and 0 <= e < EXPONENT_BOUND for e in vec):
            raise ValueError("exponents must be nonnegative integers below "
                             f"2^{FIELD_BITS - 1}, got {tuple(vec)}")


# the most modes a packed layout takes.  Its d steps hold 64d bits each, so
# a layout grows as d^2: 2 MB at the bound.  Cold, on a 2-core x86-64
# machine, `weylharm normal-order --d 512 -- a1` took 17 MB and
# `verify sl2 --d 512 --deg 2 --count 2` 0.7 s and 40 MB; at d = 3000 the
# first took 70 MB to print `a1`
MODES_MAX = 512


def check_modes(d: int) -> None:
    """Raise ValueError unless the mode count d is in 1..MODES_MAX; called
    wherever d enters, before anything of size d is built."""
    if d < 1:
        raise ValueError("mode count d must be >= 1")
    if d > MODES_MAX:
        raise ValueError(f"mode count d must be <= {MODES_MAX}")


_MEMOS: list = []


def _memo(maxsize=None):
    """Decorator: memoise with ``lru_cache(maxsize)`` and register the
    wrapper for `clear_caches`."""
    def register(fn):
        _MEMOS.append(memo := lru_cache(maxsize)(fn))
        return memo
    return register


def clear_caches() -> None:
    """Empty every memo of the package: the packed layouts, the
    contraction kernel, the radial and rising-factorial chains and the
    battery's samples.  Values and outputs do not change; the memos
    refill on demand."""
    for memo in _MEMOS:
        memo.cache_clear()


class _Layout:
    """Packed keys over d modes: field j holds alpha[j], field d + j beta[j].

    ``step[j]`` has a one in both fields of mode j and ``ones`` a one in
    every field; ``shift`` is the bit offset of the beta half and ``low``
    masks the alpha half.
    """

    __slots__ = ("shift", "low", "step", "ones", "high", "_struct")

    def __init__(self, d: int):
        check_modes(d)
        self.shift = FIELD_BITS * d
        self.low = (1 << self.shift) - 1
        self.step = tuple((1 << FIELD_BITS * j) * (1 + (1 << self.shift)) for j in range(d))
        self.ones = sum(self.step)
        self.high = self.ones << (FIELD_BITS - 1)  # the top bit of every field
        self._struct = Struct(f"<{2 * d}I")  # unsigned 32-bit, low field first

    def key(self, alpha, beta) -> int:
        return int.from_bytes(self._struct.pack(*alpha, *beta), "little")

    def fields(self, k: int) -> tuple:
        """alpha + beta of key k as one tuple of 2d exponents; of an alpha
        half, or a beta half shifted down, the first d are its exponents."""
        return self._struct.unpack(k.to_bytes(self._struct.size, "little"))

    def degree(self, k: int) -> int:
        return sum(self.fields(k))


_layout = _memo()(_Layout)


def _check_mode(d: int, j: int):
    if not 1 <= j <= d:
        raise IndexError(f"mode index {j} out of range 1..{d}")


def _check_product(x, y) -> None:
    """Same mode count, and no exponent of the product can reach the bound.

    A product's field is at most the sum of the operands' largest entries
    in that field; the total degrees bound those sums cheaply, and the
    per-field maxima are compared only when the degrees do not.
    """
    x._check_same(y)
    dx, dy = x.degree(), y.degree()
    if dx + dy >= EXPONENT_BOUND and any(
            a + b >= EXPONENT_BOUND for a, b in zip(_field_max(x), _field_max(y))):
        raise ValueError(f"product of degrees {dx} and {dy} would reach the "
                         f"exponent bound 2^{FIELD_BITS - 1}")


def _field_max(x) -> list:
    """The largest exponent in each of the 2d fields over the terms of x."""
    return list(map(max, zip(*map(_layout(x.d).fields, x._terms))))


_SCALARS = (int, Fraction, GaussRational)


class TermMap:
    """An immutable Q(i)-combination of monomials over d modes.

    A monomial is a ``_mono`` named tuple of two exponent vectors, each of
    length d; every method that takes exponent vectors takes them in
    ``_mono._fields`` order.  Coefficient k is (re + im*i)/_den for
    ``_terms[k] = [re, im]``; the canonical form has _den > 0, no [0, 0]
    pair and gcd(_den, every numerator) = 1 (so the zero map has _den = 1),
    and equal values have equal parts.  ``terms`` is the read-only view
    keyed by ``_mono``, built on first access.  Subclasses set ``_mono``
    and supply the product.
    """

    __slots__ = ("d", "_den", "_terms", "_view")
    _mono: type

    def __new__(cls, d: int, terms: dict | None = None):
        key = _layout(d).key
        clean: dict = {}
        for mono, coeff in (terms or {}).items():
            check_exponents(*mono)
            c = GaussRational.coerce(coeff)
            if c:
                if len(mono.beta) != d or len(mono.alpha) != d:
                    raise ModeMismatchError(f"monomial {mono} does not have {d} modes")
                clean[key(mono.alpha, mono.beta)] = c
        return cls._from_scalars(d, clean)

    @classmethod
    def _from_scalars(cls, d: int, coeffs: dict):
        """Build from ``{packed key: GaussRational}``, over the lcm of the
        denominators."""
        den = lcm(*(c.den for c in coeffs.values()))
        return cls._wrap(d, {k: [c.n * (f := den // c.den), c.m * f]
                             for k, c in coeffs.items()}, den)

    @classmethod
    def _wrap(cls, d: int, acc: dict, den: int = 1):
        """Build from an accumulator ``{packed key: [re, im]}`` of ints over
        den > 0: the one place that drops [0, 0] pairs and takes one gcd per
        result.  The map owns ``acc`` and its lists from then on, so no
        caller may keep or share them."""
        if [0, 0] in acc.values():
            acc = {k: v for k, v in acc.items() if v[0] or v[1]}
        g = gcd(den, *chain.from_iterable(acc.values()))  # den itself when acc is empty
        if g != 1:
            den //= g
            acc = {k: [re // g, im // g] for k, (re, im) in acc.items()}
        x = _new(cls)
        _set_d(x, d)
        _set_den(x, den)
        _set_terms(x, acc)
        _set_view(x, None)
        return x

    @property
    def terms(self) -> MappingProxyType:
        """Read-only ``{_mono: coefficient}``, in the internal order."""
        if self._view is None:
            d, den, terms = self.d, self._den, self._terms
            _set_view(self, MappingProxyType({
                self._mono(alpha=e[:d], beta=e[d:]): _gr(re, im, den)
                for e, (re, im) in zip(map(_layout(d).fields, terms), terms.values())}))
        return self._view

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
        _layout(d)  # checks d before anything is built
        return cls._wrap(d, {0: [1, 0]})  # every exponent 0: the key 0

    @classmethod
    def monomial(cls, d: int, first, second, coeff: ScalarLike = 1):
        return cls(d, {cls._mono(tuple(first), tuple(second)): coeff})

    @classmethod
    def _generator(cls, d: int, j: int, field: str):
        """Exponent 1 at mode j (1 <= j <= d) in the field named ``field``."""
        _check_mode(d, j)
        beta = _layout(d).shift  # the layout checks d, before the key is built
        shift = FIELD_BITS * (j - 1) + (0 if field == "alpha" else beta)
        return cls._wrap(d, {1 << shift: [1, 0]})

    @classmethod
    def _diagonal_sum(cls, d: int):
        """The sum over j of the monomial with exponent 1 at mode j in both
        fields."""
        return cls._wrap(d, {k: [1, 0] for k in _layout(d).step})

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero element."""
        return max(map(_layout(self.d).degree, self._terms), default=-1)

    def coefficient(self, first, second) -> GaussRational:
        """The coefficient of the monomial with these exponent vectors, read
        from its packed key; 0 for one that is absent or not a monomial
        over d modes."""
        mono = self._mono(tuple(first), tuple(second))
        exps = mono.alpha + mono.beta
        if not all(isinstance(e, int) for e in exps):
            # 1.0 or Fraction(1) equals the exponent 1 as a key of the view
            return self.terms.get(mono, GR_ZERO)
        if len(mono.alpha) == len(mono.beta) == self.d and all(
                0 <= e < EXPONENT_BOUND for e in exps):
            pair = self._terms.get(_layout(self.d).key(mono.alpha, mono.beta))
            if pair is not None:
                return _gr(*pair, self._den)
        return GR_ZERO

    def sorted_terms(self) -> Iterator[tuple]:
        """(monomial, coefficient) in canonical order: by total degree, then
        beta, then alpha."""
        terms = self.terms
        for mono in sorted(terms, key=lambda m: (m.degree, m.beta, m.alpha)):
            yield mono, terms[mono]

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.d, self._den, self._terms) == (other.d, other._den, other._terms)

    def __hash__(self) -> int:
        pairs = zip(self._terms, map(tuple, self._terms.values()))
        return hash((self.d, self._den, frozenset(pairs)))

    # -- linear structure ---------------------------------------------------

    def _check_same(self, other):
        if self.d != other.d:
            raise ModeMismatchError(f"mode counts differ: {self.d} vs {other.d}")

    def _plus(self, other, sign: int):
        """self + sign*other, for a term map or a scalar ``other``."""
        if isinstance(other, _SCALARS):
            other = self.one(self.d).scale(other)
        elif type(other) is not type(self):
            return NotImplemented
        self._check_same(other)
        return self._sum(self.d, (self, other), sign)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    @classmethod
    def _sum(cls, d: int, parts, sign: int = 1):
        """parts[0] + sign * (the later parts) for a nonempty sequence of
        term maps over d modes, in one accumulator over the lcm of their
        denominators.  Keys keep the order of their first appearance, and a
        key whose sum cancels leaves it, as it would in a chain of `+`."""
        den = lcm(*(p._den for p in parts))
        f = den // parts[0]._den
        out = {k: [re * f, im * f] for k, (re, im) in parts[0]._terms.items()}
        for part in parts[1:]:
            f = sign * (den // part._den)
            for k, (re, im) in part._terms.items():
                cur = out.get(k)
                if cur is None:
                    out[k] = [re * f, im * f]
                else:
                    cur[0] += re * f
                    cur[1] += im * f
                    if not (cur[0] or cur[1]):
                        del out[k]
        return cls._wrap(d, out, den)

    def __neg__(self):
        return self._wrap(self.d, {k: [-re, -im] for k, (re, im) in self._terms.items()},
                          self._den)

    def scale(self, coeff: ScalarLike):
        n, m, f = _parts(coeff)
        return self._wrap(self.d, {k: [re * n - im * m, re * m + im * n]
                                   for k, (re, im) in self._terms.items()}, self._den * f)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        # Each field's largest exponent in x^n is n times that in x (the
        # leading parts multiply as in the polynomial ring, and contractions
        # only lower exponents), so this refuses exactly the powers whose
        # last product `_check_product` would refuse, before any product.
        if isinstance(n, int) and n > 1 and self._terms:
            top = max(_field_max(self))
            if n * top >= EXPONENT_BOUND:
                raise ValueError(f"power {n} of an element with exponent {top} would "
                                 f"reach the exponent bound 2^{FIELD_BITS - 1}")
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


# slot setters past the refusing __setattr__, cheaper than object.__setattr__
# in `_wrap`, which every map goes through
_new = object.__new__
_set_d, _set_den, _set_terms, _set_view = (
    getattr(TermMap, slot).__set__ for slot in TermMap.__slots__)


class WeylElement(TermMap):
    """A finite Q(i)-combination of normal monomials over d modes."""

    __slots__ = ()
    _mono = NormalMonomial

    @classmethod
    def annihilator(cls, d: int, j: int) -> "WeylElement":
        """The generator a_j, 1 <= j <= d."""
        return cls._generator(d, j, "alpha")

    @classmethod
    def creator(cls, d: int, j: int) -> "WeylElement":
        """The generator a_j+, 1 <= j <= d."""
        return cls._generator(d, j, "beta")

    def __mul__(self, other) -> "WeylElement":
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return weyl_mul(self, other)

    def __repr__(self) -> str:
        from .expr import format_weyl

        return f"<WeylElement d={self.d}: {format_weyl(self)}>"


# the expansion of a pair in which no mode contracts: the empty contraction
NO_CONTRACTION = ((0, 0, 1),)


@_memo()
def contractions(ann: int, cre: int, d: int) -> tuple:
    """Wick expansion of a^ann (a+)^cre, the one contraction primitive.

    ``ann`` is the packed alpha half of one key and ``cre`` the packed beta
    half of another, shifted down to the alpha fields.  Per mode,
    a^m (a+)^n = sum_i C(m,i) C(n,i) i! (a+)^(n-i) a^(m-i); the multi-mode
    expansion is the product over modes.  Returns (offset, order, weight)
    triples: ``offset`` removes i_j from both fields of every mode j of a
    key, ``order`` is sum_j i_j and ``weight`` the integer coefficient.

    Only the modes with m and n both nonzero enter the product: every
    other mode contributes the one factor (0, 0, 1), so leaving it out
    changes neither a triple nor their order.  With no such mode the
    result is the shared `NO_CONTRACTION`, and with one it is that mode's
    list.  Memoised, since products and orderings revisit the same
    exponent pairs.
    """
    lay = _layout(d)
    per_mode = []
    for m, n, step in zip(lay.fields(ann), lay.fields(cre), lay.step):
        if m and n:
            # C(m,i) C(n,i) i! from its predecessor: times (m-i)(n-i)/(i+1)
            weight, terms = 1, [(0, 0, 1)]
            for i in range(min(m, n)):
                weight = weight * (m - i) * (n - i) // (i + 1)
                terms.append(((i + 1) * step, i + 1, weight))
            per_mode.append(terms)
    if not per_mode:
        return NO_CONTRACTION
    if len(per_mode) == 1:
        return tuple(per_mode[0])
    out = []
    for combo in _product(*per_mode):
        offset = order = 0
        weight = 1
        for o, i, c in combo:
            offset += o
            order += i
            weight *= c
        out.append((offset, order, weight))
    return tuple(out)


def weyl_mul(x: WeylElement, y: WeylElement) -> WeylElement:
    """Exact product, rewritten to normal form via the commutation rule."""
    return _mul_terms(x, y, contractions)


def _mul_terms(x: TermMap, y: TermMap, expand) -> TermMap:
    """x*y on the stored numerators, over the product of the denominators.

    ``expand(ann, cre, d)`` gives the (offset, order, weight) triples of
    the product of a term with annihilation half ``ann`` by one with
    creation half ``cre``, as `contractions` does; each adds weight times
    the numerator product at key k1 + k2 - offset.  The commutative
    product is the expansion with only the empty contraction.
    """
    _check_product(x, y)
    d = x.d
    lay = _layout(d)
    right = [(k2, k2 >> lay.shift, n2, m2) for k2, (n2, m2) in y._terms.items()]
    acc: dict = {}
    for k1, (n1, m1) in x._terms.items():
        ann = k1 & lay.low
        for k2, cre, n2, m2 in right:
            re, im = n1 * n2 - m1 * m2, n1 * m2 + m1 * n2
            base = k1 + k2
            for offset, _, weight in expand(ann, cre, d):
                k = base - offset
                cur = acc.get(k)
                if cur is None:
                    acc[k] = [re * weight, im * weight]
                else:
                    cur[0] += re * weight
                    cur[1] += im * weight
    return x._wrap(d, acc, x._den * y._den)


def commutator(x: WeylElement, y: WeylElement) -> WeylElement:
    """[x, y] = xy - yx."""
    return weyl_mul(x, y) - weyl_mul(y, x)


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
