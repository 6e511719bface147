"""Exact scalar arithmetic: Gaussian rationals and univariate polynomials.

Every coefficient in the package lives in Q(i).  A `GaussRational` stores
three ints ``(n, m, den)`` for (n + m*i)/den, one numerator per part over a
shared denominator as in FLINT's ``fmpq_poly``, in the canonical form den > 0
and gcd(n, m, den) = 1 (zero is (0, 0, 1)), so equal values have equal
parts.  One three-way gcd restores that form after each operation.
``re`` and ``im`` read as reduced ``fractions.Fraction``s.

All values are immutable; operations return fresh objects and never
mutate their arguments.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Union

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "GaussRational"]

_RAT = r"(?:\d+(?:/\d+)?)"
_LITERAL_RE = re.compile(
    rf"^\s*(?P<sign1>[+-]?)\s*(?:"
    rf"(?P<c1>{_RAT})\s*(?P<i1>\*\s*i)?|(?P<lone1>i)"
    rf")\s*(?:(?P<sign2>[+-])\s*(?:"
    rf"(?P<c2>{_RAT})\s*(?P<i2>\*\s*i)?|(?P<lone2>i)"
    rf")\s*)?$"
)


def _power(base, n: int, one):
    """base**n by repeated squaring, for any value with a product."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("only nonnegative integer powers")
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def _parts(x: ScalarLike) -> tuple:
    """(n, m, den) of any exact scalar, in canonical form."""
    if isinstance(x, GaussRational):
        return x.n, x.m, x.den
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class GaussRational:
    """An exact complex number (n + m*i)/den over ints in canonical form."""

    __slots__ = ("n", "m", "den")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0):
        if isinstance(re, GaussRational) or isinstance(im, GaussRational):
            raise TypeError("the parts of a GaussRational must be int or Fraction")
        a, _, f = _parts(re)
        b, _, g = _parts(im)
        return _gr(a * g, b * f, f * g)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    def __reduce__(self):
        return GaussRational, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self.n, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.m, self.den)

    # -- conversions ---------------------------------------------------

    @staticmethod
    def coerce(x: ScalarLike) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        return _gr(*_parts(x))

    @classmethod
    def parse(cls, text: str) -> "GaussRational":
        """Parse the exact literal grammar: ``p/q``, ``p/q*i``, ``p/q+r/s*i``, ``i``."""
        m = _LITERAL_RE.match(text)
        if m is None:
            raise ValueError(f"not an exact Gaussian-rational literal: {text!r}")
        z = GR_ZERO
        for k in "12":
            if m["c" + k] is None and m["lone" + k] is None:
                continue  # no second term
            value = Fraction(m["c" + k] or 1)
            if m["sign" + k] == "-":
                value = -value
            z = z + (value * GR_I if m["lone" + k] or m["i" + k] else value)
        return z

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    # -- arithmetic ----------------------------------------------------
    #
    # Each operation works on the ints and ends in `_gr`.  Most values
    # in the package are real, so a zero imaginary part skips its products.

    def __add__(self, other: ScalarLike) -> "GaussRational":
        c, e, f = _parts(other)
        a, b, den = self.n, self.m, self.den
        return _gr(a * f + c * den, b * f + e * den, den * f)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussRational":
        c, e, f = _parts(other)
        a, b, den = self.n, self.m, self.den
        return _gr(a * f - c * den, b * f - e * den, den * f)

    def __rsub__(self, other: ScalarLike) -> "GaussRational":
        return GaussRational.coerce(other).__sub__(self)

    def __mul__(self, other: ScalarLike) -> "GaussRational":
        c, e, f = _parts(other)
        a, b = self.n, self.m
        if not e:
            return _gr(a * c, b * c, self.den * f)
        return _gr(a * c - b * e, a * e + b * c, self.den * f)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussRational":
        # (a + bi)/den / ((c + ei)/f) = f (a + bi)(c - ei) / (den (c^2 + e^2))
        c, e, f = _parts(other)
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b = self.n, self.m
        return _gr(f * (a * c + b * e), f * (b * c - a * e), self.den * norm)

    def __rtruediv__(self, other: ScalarLike) -> "GaussRational":
        return GaussRational.coerce(other).__truediv__(self)

    def __neg__(self) -> "GaussRational":
        return _gr(-self.n, -self.m, self.den)

    def __pow__(self, n: int) -> "GaussRational":
        return _power(self, n, GR_ONE)

    def conjugate(self) -> "GaussRational":
        return _gr(self.n, -self.m, self.den)

    def norm_squared(self) -> Fraction:
        """|z|^2 = re^2 + im^2, always a nonnegative Fraction."""
        return Fraction(self.n * self.n + self.m * self.m, self.den * self.den)

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.n and not self.m

    def is_real(self) -> bool:
        return not self.m

    def __bool__(self) -> bool:
        return bool(self.n or self.m)

    def __eq__(self, other) -> bool:
        try:
            c, e, f = _parts(other)
        except TypeError:
            return NotImplemented
        return self.n == c and self.m == e and self.den == f

    def __hash__(self) -> int:
        real = self.re
        return hash((real, self.im)) if self.m else hash(real)

    def __repr__(self) -> str:
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_gauss(self)


_new = object.__new__
_set_n = GaussRational.n.__set__
_set_m = GaussRational.m.__set__
_set_den = GaussRational.den.__set__


def _gr(n: int, m: int, den: int) -> GaussRational:
    """Build (n + m*i)/den in canonical form from any ints with den > 0."""
    g = gcd(n, m, den)
    if g != 1:
        n, m, den = n // g, m // g, den // g
    z = _new(GaussRational)
    _set_n(z, n)
    _set_m(z, m)
    _set_den(z, den)
    return z


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


def format_gauss(z: GaussRational) -> str:
    """Render in the ``p/q+r/s*i`` literal grammar (parse-compatible)."""
    real, imag = z.re, z.im
    if not imag:
        return str(real)
    imtxt = {1: "i", -1: "-i"}.get(imag, f"{imag}*i")
    if not real:
        return imtxt
    return f"{real}{imtxt}" if imtxt.startswith("-") else f"{real}+{imtxt}"


class UniPoly:
    """A univariate polynomial over Q(i), dense coefficient tuple.

    ``coeffs[k]`` is the coefficient of t^k; trailing zeros are stripped so
    equality of canonical values is structural.  The zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __new__(cls, coeffs: Iterable = ()):
        return UniPoly._trusted([GaussRational.coerce(c) for c in coeffs])

    @staticmethod
    def _trusted(cs: list) -> "UniPoly":
        """Build from a list of GaussRationals made by internal arithmetic;
        trailing zeros are stripped, nothing is coerced."""
        while cs and not cs[-1]:
            cs.pop()
        p = _new(UniPoly)
        _set_coeffs(p, tuple(cs))
        return p

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self):
        return UniPoly, (self.coeffs,)

    @classmethod
    def constant(cls, c: ScalarLike) -> "UniPoly":
        return cls((GaussRational.coerce(c),))

    @classmethod
    def x(cls) -> "UniPoly":
        """The monomial t."""
        return cls((GR_ZERO, GR_ONE))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> GaussRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GR_ZERO

    def leading_coefficient(self) -> GaussRational:
        return self.coeffs[-1] if self.coeffs else GR_ZERO

    # -- ring operations -----------------------------------------------

    @staticmethod
    def _coerce(other) -> "UniPoly":
        if isinstance(other, UniPoly):
            return other
        return UniPoly.constant(other)

    def __add__(self, other) -> "UniPoly":
        other = UniPoly._coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return UniPoly._trusted(out)

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        return self + (-UniPoly._coerce(other))

    def __rsub__(self, other) -> "UniPoly":
        return UniPoly._coerce(other) - self

    def __neg__(self) -> "UniPoly":
        return UniPoly._trusted([-c for c in self.coeffs])

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction, GaussRational)):
            c = GaussRational.coerce(other)
            return UniPoly._trusted([a * c for a in self.coeffs])
        other = UniPoly._coerce(other)
        if self.is_zero() or other.is_zero():
            return UP_ZERO
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for k, b in enumerate(other.coeffs):
                out[j + k] = out[j + k] + a * b
        return UniPoly._trusted(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: ScalarLike) -> "UniPoly":
        c = GaussRational.coerce(scalar)
        return UniPoly._trusted([a / c for a in self.coeffs])

    def __pow__(self, n: int) -> "UniPoly":
        return _power(self, n, UP_ONE)

    # -- evaluation and composition --------------------------------------

    def __call__(self, x: ScalarLike) -> GaussRational:
        """Exact Horner evaluation."""
        acc = GR_ZERO
        xg = GaussRational.coerce(x)
        for c in reversed(self.coeffs):
            acc = acc * xg + c
        return acc

    def compose_linear(self, a: ScalarLike, b: ScalarLike) -> "UniPoly":
        """Return t |-> p(a*t + b), exactly, in O(n^2) scalar operations.

        First a synthetic Taylor shift by b: sweeping the coefficient list
        from the top, c_j += b * c_{j+1}, once for each of the n - 1 levels,
        turns p(t) into p(t + b) in place.  Then coefficient k is scaled by
        a^k.  This is the classical shift of von zur Gathen and Gerhard,
        "Fast algorithms for Taylor shifts and certain difference
        equations" (ISSAC 1997); Horner's rule over UniPoly products would
        cost O(n^3).
        """
        a = GaussRational.coerce(a)
        b = GaussRational.coerce(b)
        cs = list(self.coeffs)
        n = len(cs)
        if b:
            for i in range(n - 1):
                for j in range(n - 2, i - 1, -1):
                    cs[j] = cs[j] + b * cs[j + 1]
        if a != GR_ONE:
            power = GR_ONE
            for k in range(1, n):
                power = power * a
                cs[k] = cs[k] * power
        return UniPoly._trusted(cs)

    def compose_shift(self, shift: ScalarLike) -> "UniPoly":
        """Return t |-> p(t + shift)."""
        return self.compose_linear(1, shift)

    def forward_difference(self) -> "UniPoly":
        """p(t+1) - p(t)."""
        return self.compose_shift(1) - self

    def backward_difference(self) -> "UniPoly":
        """p(t) - p(t-1)."""
        return self - self.compose_shift(-1)

    # -- structure -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussRational)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(map(str, self.coeffs))})"

    def __str__(self) -> str:
        return format_unipoly(self)


_set_coeffs = UniPoly.coeffs.__set__


UP_ZERO = UniPoly()
UP_ONE = UniPoly((GR_ONE,))


def format_unipoly(p: UniPoly, var: str = "t") -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if c.is_zero():
            continue
        if k == 0:
            term = format_gauss(c)
        else:
            tpow = var if k == 1 else f"{var}^{k}"
            if c == GR_ONE:
                term = tpow
            elif c == -GR_ONE:
                term = f"-{tpow}"
            else:
                ctxt = format_gauss(c)
                if ("+" in ctxt[1:]) or ("-" in ctxt[1:]):
                    ctxt = f"({ctxt})"
                term = f"{ctxt}*{tpow}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)
