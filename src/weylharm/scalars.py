"""Exact scalar arithmetic: Gaussian rationals and univariate polynomials.

Every coefficient in the package lives in Q(i).  A `GaussRational` stores
three ints ``(n, m, den)`` for (n + m*i)/den, one numerator per part over a
shared denominator as in FLINT's ``fmpq_poly``, in the canonical form den > 0
and gcd(n, m, den) = 1 (zero is (0, 0, 1)), so equal values have equal
parts.  One three-way gcd restores that form after each operation.
``re`` and ``im`` read as reduced ``fractions.Fraction``s.

A `UniPoly` stores the same shape for a whole polynomial: two int tuples
``_re`` and ``_im`` of numerators over one int ``_den``, with den > 0,
gcd(den, *re, *im) = 1, no trailing zero coefficient, and ``_im == ()``
exactly when the polynomial is real; zero is ((), (), 1).  Its ring
operations, evaluation and Taylor shift run on the ints and take one gcd
per result, not one per coefficient.

The radial layer's identities all have the form
sum (alpha*t + beta) * p_i(t + s_i) / den with int alpha, beta, s and den:
a recurrence step, the raising operator, the difference triple.  Their
callers write q = a/b as the ints (a, b, b - a) once per call, and
`_shifted_sum`, the one accumulation kernel, sums such rows on the
numerators with one Taylor shift per distinct (p, s) and one gcd.

All values are immutable; operations return fresh objects and never
mutate their arguments.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "GaussRational"]


def _power(base, n: int, one):
    """base**n by repeated squaring, for any value with a product.

    Starts from the lowest set bit and squares only while bits remain, so
    it takes floor(log2 n) squarings and popcount(n) - 1 other products.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("only nonnegative integer powers")
    if not n:
        return one
    while not n & 1:
        base = base * base
        n >>= 1
    out = base
    n >>= 1
    while n:
        base = base * base
        if n & 1:
            out = out * base
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

    def __complex__(self) -> complex:
        # int / int rounds correctly, as float(Fraction) does
        return complex(self.n / self.den, self.m / self.den)

    # -- arithmetic ----------------------------------------------------
    #
    # Each operation works on the ints and ends in `_gr`.  Most values
    # in the package are real, so a zero imaginary part skips its products.
    # An operand that is not a scalar gets NotImplemented, so a UniPoly on
    # the right takes over through its reflected method.

    def __add__(self, other: ScalarLike) -> "GaussRational":
        try:
            c, e, f = _parts(other)
        except TypeError:
            return NotImplemented
        a, b, den = self.n, self.m, self.den
        return _gr(a * f + c * den, b * f + e * den, den * f)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussRational":
        try:
            c, e, f = _parts(other)
        except TypeError:
            return NotImplemented
        a, b, den = self.n, self.m, self.den
        return _gr(a * f - c * den, b * f - e * den, den * f)

    def __rsub__(self, other: ScalarLike) -> "GaussRational":
        return GaussRational.coerce(other).__sub__(self)

    def __mul__(self, other: ScalarLike) -> "GaussRational":
        try:
            c, e, f = _parts(other)
        except TypeError:
            return NotImplemented
        a, b = self.n, self.m
        if not e:
            return _gr(a * c, b * c, self.den * f)
        return _gr(a * c - b * e, a * e + b * c, self.den * f)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussRational":
        # (a + bi)/den / ((c + ei)/f) = f (a + bi)(c - ei) / (den (c^2 + e^2))
        try:
            c, e, f = _parts(other)
        except TypeError:
            return NotImplemented
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
    """Render in the ``p/q+r/s*i`` literal grammar that `expr` reads back."""
    real, imag = z.re, z.im
    if not imag:
        return str(real)
    imtxt = {1: "i", -1: "-i"}.get(imag, f"{imag}*i")
    if not real:
        return imtxt
    return f"{real}{imtxt}" if imtxt.startswith("-") else f"{real}+{imtxt}"


class UniPoly:
    """A univariate polynomial over Q(i): Gaussian-integer numerators over
    one common denominator, as in FLINT's ``fmpq_poly``.

    Coefficient k is (_re[k] + _im[k]*i)/_den.  The canonical form has
    _den > 0, gcd(_den, *_re, *_im) = 1, no trailing zero coefficient, and
    _im = () exactly when the polynomial is real (otherwise it is as long
    as _re); zero is ((), (), 1) with degree -1.  Equal values therefore
    have equal parts.  ``coeffs[k]`` reads coefficient k as a GaussRational.
    """

    __slots__ = ("_re", "_im", "_den")

    def __new__(cls, coeffs: Iterable = ()):
        parts = [_parts(c) for c in coeffs]
        den = 1
        for _, _, f in parts:
            den = den // gcd(den, f) * f
        re = [n * (den // f) for n, _, f in parts]
        im = [m * (den // f) for _, m, f in parts]
        return _up(re, im, den)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self):
        return UniPoly, (self.coeffs,)

    @classmethod
    def constant(cls, c: ScalarLike) -> "UniPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "UniPoly":
        """The monomial t."""
        return _up([0, 1], (), 1)

    @property
    def coeffs(self) -> tuple:
        """The coefficients, constant term first, as GaussRationals."""
        return tuple(self[k] for k in range(len(self._re)))

    @property
    def degree(self) -> int:
        return len(self._re) - 1

    def is_zero(self) -> bool:
        return not self._re

    def __bool__(self) -> bool:
        return bool(self._re)

    def __getitem__(self, k: int) -> GaussRational:
        if 0 <= k < len(self._re):
            return _gr(self._re[k], self._im[k] if self._im else 0, self._den)
        return GR_ZERO

    def leading_coefficient(self) -> GaussRational:
        return self[len(self._re) - 1]

    # -- ring operations -----------------------------------------------
    #
    # Each operation works on the numerators and ends in `_up`.

    @staticmethod
    def _coerce(other) -> "UniPoly":
        if isinstance(other, UniPoly):
            return other
        return UniPoly.constant(other)

    def _sum(self, other: "UniPoly", sign: int) -> "UniPoly":
        """self + sign*other over the lcm of the two denominators."""
        da, db = self._den, other._den
        g = gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        re = _combine(self._re, sa, other._re, sb)
        im = ()
        if self._im or other._im:
            im = _combine(self._im, sa, other._im, sb)
            im += [0] * (len(re) - len(im))
        return _up(re, im, da // g * db)

    def __add__(self, other) -> "UniPoly":
        return self._sum(UniPoly._coerce(other), 1)

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        return self._sum(UniPoly._coerce(other), -1)

    def __rsub__(self, other) -> "UniPoly":
        return UniPoly._coerce(other)._sum(self, -1)

    def __neg__(self) -> "UniPoly":
        return _up([-n for n in self._re], [-m for m in self._im], self._den)

    def _scale(self, c: int, e: int, f: int) -> "UniPoly":
        """self * (c + e*i)/f for ints with f > 0."""
        re, im = self._re, self._im
        if not e:
            return _up([n * c for n in re], [m * c for m in im], self._den * f)
        im = im or (0,) * len(re)
        return _up([n * c - m * e for n, m in zip(re, im)],
                   [n * e + m * c for n, m in zip(re, im)], self._den * f)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction, GaussRational)):
            return self._scale(*_parts(other))
        other = UniPoly._coerce(other)
        if not self._re or not other._re:
            return UP_ZERO
        re, im = _mul_parts(self._re, self._im, other._re, other._im)
        return _up(re, im, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, scalar: ScalarLike) -> "UniPoly":
        # divide by (c + ei)/f: multiply by f(c - ei)/(c^2 + e^2)
        c, e, f = _parts(scalar)
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self._scale(f * c, -f * e, norm)

    def __pow__(self, n: int) -> "UniPoly":
        return _power(self, n, UP_ONE)

    # -- evaluation and composition --------------------------------------

    def __call__(self, x: ScalarLike) -> GaussRational:
        """Exact Horner evaluation on the numerators.

        With x = (c + e*i)/f, the sum of (re_k + im_k*i) (c + e*i)^k
        f^(n-1-k) is a Gaussian integer; one division by den*f^(n-1) ends.
        """
        re, im = self._re, self._im
        if not re:
            return GR_ZERO
        c, e, f = _parts(x)
        if not im:
            im = (0,) * len(re)
        n = len(re)
        acc_re, acc_im, scale = re[-1], im[-1], 1
        for k in range(n - 2, -1, -1):
            scale *= f
            acc_re, acc_im = (acc_re * c - acc_im * e + re[k] * scale,
                              acc_re * e + acc_im * c + im[k] * scale)
        return _gr(acc_re, acc_im, self._den * scale)

    def compose_linear(self, a: ScalarLike, b: ScalarLike) -> "UniPoly":
        """Return t |-> p(a*t + b), exactly, in O(n^2) integer operations.

        With b = B/bd for a Gaussian integer B, p(t + b) is bd^(1-n) r(bd*t)
        where r(s) = sum_j c_j bd^(n-1-j) (s + B)^j.  A synthetic Taylor
        shift by B makes r from the prescaled numerators: sweeping the list
        from the top, c_j += B * c_{j+1}, once for each of the n - 1 levels.
        Coefficient k of the result is then r_k a^k / bd^(n-1-k), put over
        the common denominator den (bd*ad)^(n-1) for a = A/ad.  This is the
        classical shift of von zur Gathen and Gerhard, "Fast algorithms for
        Taylor shifts and certain difference equations" (ISSAC 1997);
        Horner's rule over UniPoly products would cost O(n^3).
        """
        an, am, ad = _parts(a)
        bn, bm, bd = _parts(b)
        re, im = list(self._re), list(self._im)
        n = len(re)
        if n < 2:
            return self
        if (bm or am) and not im:
            im = [0] * n
        if bd != 1:  # prescale c_j by bd^(n-1-j)
            power = 1
            for j in range(n - 1, -1, -1):
                re[j] *= power
                if im:
                    im[j] *= power
                power *= bd
        if bn or bm:
            _taylor_shift(re, im, bn, bm)
        if (an, am, ad, bd) != (1, 0, 1, 1):
            # coefficient k times (A bd)^k ad^(n-1-k)
            sr, si = an * bd, am * bd
            pr, pi, lower = 1, 0, ad ** (n - 1)
            for k in range(n):
                x = re[k]
                if im:
                    y = im[k]
                    re[k] = (x * pr - y * pi) * lower
                    im[k] = (x * pi + y * pr) * lower
                else:
                    re[k] = x * pr * lower
                pr, pi = pr * sr - pi * si, pr * si + pi * sr
                lower //= ad
        return _up(re, im, self._den * (bd * ad) ** (n - 1))

    # -- structure -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussRational)):
            other = UniPoly.constant(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        return (self._re == other._re and self._im == other._im
                and self._den == other._den)

    def __hash__(self) -> int:
        # a constant hashes as its coefficient, so it matches the scalar
        # it compares equal to
        if len(self._re) <= 1:
            return hash(self[0])
        return hash((self._re, self._im, self._den))

    def __repr__(self) -> str:
        return f"UniPoly({list(map(str, self.coeffs))})"

    def __str__(self) -> str:
        return format_unipoly(self)


_set_up_re = UniPoly._re.__set__
_set_up_im = UniPoly._im.__set__
_set_up_den = UniPoly._den.__set__


def _up(re: list, im, den: int) -> UniPoly:
    """Build a UniPoly in canonical form from numerator lists over den > 0.

    ``im`` is empty for a real polynomial and otherwise as long as ``re``;
    trailing zero coefficients are stripped and one gcd reduces the rest.
    """
    if im:
        while re and not re[-1] and not im[-1]:
            re.pop()
            im.pop()
        if not any(im):
            im = ()
    else:
        im = ()
        while re and not re[-1]:
            re.pop()
    g = gcd(den, *re, *im)
    if g != 1:
        re = [n // g for n in re]
        im = [m // g for m in im]
        den //= g
    p = _new(UniPoly)
    _set_up_re(p, tuple(re))
    _set_up_im(p, tuple(im))
    _set_up_den(p, den)
    return p


def _combine(a, sa: int, b, sb: int) -> list:
    """sa*a + sb*b for int sequences of any lengths."""
    if len(a) < len(b):
        a, sa, b, sb = b, sb, a, sa
    out = [x * sa for x in a] if sa != 1 else list(a)
    for k, y in enumerate(b):
        out[k] += y * sb
    return out


def _mul_parts(ar, ai, br, bi) -> tuple:
    """Numerator lists (re, im) of the product of two nonzero polynomials
    with numerators ar + ai*i and br + bi*i; im is () when both are real."""
    re = [0] * (len(ar) + len(br) - 1)
    _convolve_into(re, ar, br, 1)
    im = ()
    if ai or bi:  # an empty part adds nothing
        im = [0] * len(re)
        _convolve_into(re, ai, bi, -1)
        _convolve_into(im, ar, bi, 1)
        _convolve_into(im, ai, br, 1)
    return re, im


def _convolve_into(out: list, a, b, sign: int) -> None:
    """Add sign * (the product of int coefficient sequences a and b) to out."""
    for j, x in enumerate(a):
        if x:
            x *= sign
            for k, y in enumerate(b, j):
                out[k] += x * y


def _taylor_shift(re: list, im: list, bn: int, bm: int) -> None:
    """Turn the numerator lists of p(t) into those of p(t + B), in place,
    for the Gaussian integer B = bn + bm*i: sweeping the lists from the
    top, c_j += B * c_{j+1}, once for each of the n - 1 levels.  ``im`` is
    empty only when both p and B are real."""
    n = len(re)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            x = re[j + 1]
            if im:
                y = im[j + 1]
                re[j] += bn * x - bm * y
                im[j] += bn * y + bm * x
            else:
                re[j] += bn * x


def _shifted_sum(rows, den: int = 1, shifts: dict | None = None) -> UniPoly:
    """The sum of (alpha*t + beta) * p(t + s) / den over the rows
    (p, s, alpha, beta), for UniPolys p (complex ones too) and ints s,
    alpha, beta and den > 0: the one accumulation kernel on numerators.

    A row is over its own reduced denominator p._den * den/g, for g =
    gcd(den, alpha, beta), and the sum over the lcm L of those, so a
    three-term step often needs no division at the end.  Each distinct (p, s) is shifted once;
    ``shifts`` keeps those shifts across calls on the same p.  No Fraction
    and no intermediate UniPoly is built, and one `_up` takes the one gcd.
    """
    live = []
    common = size = 1
    complex_ = False
    for p, s, alpha, beta in rows:
        if not p._re or not (alpha or beta):
            continue
        g = gcd(den, alpha, beta)
        f = p._den * (den // g)
        common = lcm(common, f)
        live.append((p, s, alpha // g, beta // g, f))
        size = max(size, len(p._re) + 1)
        complex_ = complex_ or bool(p._im)
    re = [0] * size
    im = [0] * size if complex_ else ()
    if shifts is None:
        shifts = {}
    for p, s, alpha, beta, f in live:
        pre, pim = p._re, p._im
        if s:
            key = (id(p), s)
            if key not in shifts:
                pre, pim = list(pre), list(pim)
                _taylor_shift(pre, pim, s, 0)
                shifts[key] = pre, pim
            pre, pim = shifts[key]
        scale = common // f
        weight = (beta * scale, alpha * scale)
        _convolve_into(re, weight, pre, 1)
        if pim:
            _convolve_into(im, weight, pim, 1)
    return _up(re, im, common)


UP_ZERO = UniPoly()
UP_ONE = UniPoly((1,))
UP_I = UniPoly((GR_I,))


def format_unipoly(p: UniPoly) -> str:
    """p in the variable t, highest power first."""
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
            tpow = "t" if k == 1 else f"t^{k}"
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
