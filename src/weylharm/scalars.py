"""Exact scalar arithmetic: Gaussian rationals and univariate polynomials.

Every coefficient in the package lives in Q(i), the field of complex
numbers with arbitrary-precision rational real and imaginary parts.
``fractions.Fraction`` supplies the rational substrate, so canonical form
(reduced, positive denominator) is maintained automatically.

All values are immutable; operations return fresh objects and never
mutate their arguments.
"""

from __future__ import annotations

import re
from fractions import Fraction
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


def as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class GaussRational:
    """An exact complex number ``re + im*i`` with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    # -- conversions ---------------------------------------------------

    @staticmethod
    def coerce(x: ScalarLike) -> "GaussRational":
        if isinstance(x, GaussRational):
            return x
        return GaussRational(as_fraction(x))

    @classmethod
    def parse(cls, text: str) -> "GaussRational":
        """Parse the exact literal grammar: ``p/q``, ``p/q*i``, ``p/q+r/s*i``, ``i``."""
        m = _LITERAL_RE.match(text)
        if m is None:
            raise ValueError(f"not an exact Gaussian-rational literal: {text!r}")
        re_part = Fraction(0)
        im_part = Fraction(0)
        sgn1 = -1 if m.group("sign1") == "-" else 1
        if m.group("lone1"):
            im_part += sgn1
        else:
            val = Fraction(m.group("c1"))
            if m.group("i1"):
                im_part += sgn1 * val
            else:
                re_part += sgn1 * val
        if m.group("sign2"):
            sgn2 = -1 if m.group("sign2") == "-" else 1
            if m.group("lone2"):
                im_part += sgn2
            else:
                val = Fraction(m.group("c2"))
                if m.group("i2"):
                    im_part += sgn2 * val
                else:
                    re_part += sgn2 * val
        return cls(re_part, im_part)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    # -- arithmetic ----------------------------------------------------
    #
    # Results are built by ``_gr`` from parts that are already Fractions,
    # and int/Fraction operands never become a GaussRational first.  Most
    # values in the package are real, so a zero imaginary part is passed
    # through instead of being added or multiplied: a product with a real
    # factor costs two Fraction products, and real x real costs one.

    def __add__(self, other: ScalarLike) -> "GaussRational":
        if isinstance(other, GaussRational):
            im, oim = self.im, other.im
            return _gr(self.re + other.re, im + oim if oim else im)
        return _gr(self.re + as_fraction(other), self.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussRational":
        if isinstance(other, GaussRational):
            im, oim = self.im, other.im
            return _gr(self.re - other.re, im - oim if oim else im)
        return _gr(self.re - as_fraction(other), self.im)

    def __rsub__(self, other: ScalarLike) -> "GaussRational":
        return _gr(as_fraction(other) - self.re, -self.im)

    def __mul__(self, other: ScalarLike) -> "GaussRational":
        re, im = self.re, self.im
        if not isinstance(other, GaussRational):
            other = as_fraction(other)
            return _gr(re * other, im * other if im else im)
        ore, oim = other.re, other.im
        if not oim:
            return _gr(re * ore, im * ore if im else im)
        if not im:
            return _gr(re * ore, re * oim)
        return _gr(re * ore - im * oim, re * oim + im * ore)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussRational":
        other = GaussRational.coerce(other)
        n = other.norm_squared()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other: ScalarLike) -> "GaussRational":
        return GaussRational.coerce(other).__truediv__(self)

    def __neg__(self) -> "GaussRational":
        return _gr(-self.re, -self.im)

    def __pow__(self, n: int) -> "GaussRational":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = GR_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def norm_squared(self) -> Fraction:
        """|z|^2 = re^2 + im^2, always a nonnegative Fraction."""
        return self.re * self.re + self.im * self.im

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussRational(other)
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_gauss(self)


_new = object.__new__
_set_re = GaussRational.re.__set__
_set_im = GaussRational.im.__set__


def _gr(re: Fraction, im: Fraction) -> GaussRational:
    """Build a GaussRational from parts that are already Fractions."""
    z = _new(GaussRational)
    _set_re(z, re)
    _set_im(z, im)
    return z


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


def format_gauss(z: GaussRational) -> str:
    """Render in the ``p/q+r/s*i`` literal grammar (parse-compatible)."""
    if z.is_zero():
        return "0"
    parts = []
    if z.re:
        parts.append(str(z.re))
    if z.im:
        if z.im == 1:
            imtxt = "i"
        elif z.im == -1:
            imtxt = "-i"
        else:
            imtxt = f"{z.im}*i"
        if parts and not imtxt.startswith("-"):
            parts.append("+" + imtxt)
        else:
            parts.append(imtxt)
    return "".join(parts)


class UniPoly:
    """A univariate polynomial over Q(i), dense coefficient tuple.

    ``coeffs[k]`` is the coefficient of t^k; trailing zeros are stripped so
    equality of canonical values is structural.  The zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [GaussRational.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

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
        return UniPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        return self + (-UniPoly._coerce(other))

    def __rsub__(self, other) -> "UniPoly":
        return UniPoly._coerce(other) - self

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction, GaussRational)):
            c = GaussRational.coerce(other)
            return UniPoly(tuple(a * c for a in self.coeffs))
        other = UniPoly._coerce(other)
        if self.is_zero() or other.is_zero():
            return UP_ZERO
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for k, b in enumerate(other.coeffs):
                out[j + k] = out[j + k] + a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar: ScalarLike) -> "UniPoly":
        c = GaussRational.coerce(scalar)
        return UniPoly(tuple(a / c for a in self.coeffs))

    def __pow__(self, n: int) -> "UniPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = UP_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
        return UniPoly(cs)

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
