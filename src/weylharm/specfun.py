"""Exact terminating hypergeometric series and named polynomial families.

Everything here is a finite sum evaluated in Q(i) or in polynomials over
Q(i); there is no convergence logic anywhere.  Series factors may be
exact scalars or polynomials (e.g. the -t upper parameter that makes a
Gauss series a polynomial of t, or a + i*x for the complex-argument
families); lower parameters must be scalars and are pole-checked over the
finitely many terms actually used.

`terminating_series` writes term j as s_j * B_j(t).  B_j, the product of
the rising factorials (u)_j of the polynomial uppers u, depends on those
u alone, so its levels form one chain per tuple of u, memoised by
`_rising_chain` and grown in place: a family of series over one u (every
-t series, every a + i*x of one a) shares one chain across k, the scalar
parameters and the argument.  s_j folds every scalar parameter into one
Gaussian-integer ratio over an int, with one gcd per step, and the terms
are summed once over the lcm of their denominators into one `UniPoly`.

The identities between such polynomials (`gauss_contiguous_check`) run
through `scalars._shifted_sum` with int weights, like the radial layer's.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from .scalars import (
    GR_I,
    UP_ONE,
    GaussRational,
    UniPoly,
    _convolve_into,
    _gr,
    _mul_parts,
    _parts,
    _shifted_sum,
    _up,
)
from .weyl import _memo


class InvalidParameterError(ValueError):
    """A parameter outside its series' domain: a lower parameter that is
    not real or hits a nonpositive integer inside the series, or a
    degenerate Krawtchouk or Meixner parameter."""


def pochhammer(base, n: int):
    """Shifted factorial (base)_n = base (base+1) ... (base+n-1).

    Works for exact scalars and for UniPoly bases; (base)_0 = 1.  A scalar
    base (c + e*i)/f gives the Gaussian-integer product of the c + m*f + e*i
    over f^n, with one gcd.
    """
    if n < 0:
        raise ValueError("pochhammer length must be >= 0")
    if isinstance(base, UniPoly):
        out = UP_ONE
        for m in range(n):
            out = out * (base + m)
        return out
    c, e, f = _parts(base)
    re, im = 1, 0
    for x in range(c, c + n * f, f):  # x = c + m*f
        re, im = re * x - im * e, re * e + im * x
    return _gr(re, im, f**n)


_MINUS_T = UniPoly((0, -1))


def minus_t_poly() -> UniPoly:
    """The polynomial -t, the usual terminating upper parameter (one shared
    immutable value)."""
    return _MINUS_T


def _check_lower(lower, nterms: int):
    """Raise unless lower is real and (lower)_j is nonzero for every
    j < nterms: lower + m vanishes for some 0 <= m < nterms - 1 exactly
    when lower is the integer -m."""
    c, e, f = _parts(lower)
    if e:
        raise InvalidParameterError(f"lower parameter {lower} must be real")
    if f == 1 and 0 <= -c < nterms - 1:
        raise InvalidParameterError(f"lower parameter {lower} hits zero at term {1 - c}")


@_memo()
def _rising_chain(polys: tuple) -> list:
    return [UP_ONE]


def _rising_levels(polys: tuple, n: int) -> list:
    """The memoised chain B_j = prod_u (u)_j of the polynomial uppers u,
    given as their parts (re, im, den), grown to at least n levels.

    Level j+1 is level j times every u + j: one `_mul_parts` per u and
    one gcd.  Once a level is zero, every later one is too.
    """
    chain = _rising_chain(polys)
    while len(chain) < n:
        j = len(chain) - 1
        level = chain[-1]
        if polys and level._re:
            re, im, den = level._re, level._im, level._den
            for u_re, u_im, u_den in polys:
                # u + j = (re + j*den + im*i)/den
                shifted = list(u_re or (0,))
                shifted[0] += j * u_den
                re, im = _mul_parts(re, im, shifted, u_im)
                den *= u_den
            level = _up(re, im, den)
        chain.append(level)
    return chain


def terminating_series(uppers, lowers, arg, nterms: int) -> UniPoly:
    """sum_{j<nterms} prod(u)_j / (prod(l)_j j!) * arg^j as a UniPoly.

    ``uppers`` may mix scalars and UniPoly factors of any number and
    degree; ``lowers`` must be real exact scalars and ``arg`` an exact
    scalar.  The result is a polynomial (a constant one when no upper
    factor is a polynomial).

    Term j is s_j * B_j(t).  B_j, the product of (u)_j over the polynomial
    uppers, depends on nothing else, so it is read from a chain memoised
    per tuple of polynomial uppers and shared by every series on them
    (`_rising_levels`).  s_j is the running product of the ratios of the
    scalar uppers, the lowers, j! and ``arg``, kept as a Gaussian-integer
    numerator over an int and reduced by one gcd per step; the sum stops
    at the first zero ratio, the term past a -k upper.  The terms are then
    accumulated once over the lcm of their denominators, and one `_up`
    builds the result.
    """
    if nterms < 1:
        raise ValueError("series needs at least one term")
    for lower in lowers:
        _check_lower(lower, nterms)
    scalars = [_parts(u) for u in uppers if not isinstance(u, UniPoly)]
    lower_parts = [_parts(low) for low in lowers]
    an, am, ad = _parts(arg)
    sn, sm, sd = 1, 0, 1
    steps = [(sn, sm, sd)]
    for j in range(nterms - 1):
        # u + j = (c + j*f + e*i)/f for u = (c + e*i)/f
        rn, rm, rd = an, am, ad * (j + 1)
        for c, e, f in scalars:
            c += j * f
            rn, rm, rd = rn * c - rm * e, rn * e + rm * c, rd * f
        if not rn and not rm:
            break
        for c, _, f in lower_parts:
            rn, rm, rd = rn * f, rm * f, rd * (c + j * f)
        sn, sm, sd = sn * rn - sm * rm, sn * rm + sm * rn, sd * rd
        g = gcd(sn, sm, sd)
        if sd < 0:
            g = -g
        sn, sm, sd = sn // g, sm // g, sd // g
        steps.append((sn, sm, sd))
    polys = tuple((u._re, u._im, u._den) for u in uppers if isinstance(u, UniPoly))
    levels = _rising_levels(polys, len(steps))
    terms = [(sn, sm, sd * level._den, level)
             for (sn, sm, sd), level in zip(steps, levels) if level._re]
    common = lcm(*(den for _, _, den, _ in terms))
    size = max(len(level._re) for *_, level in terms)
    re, im = [0] * size, [0] * size
    for sn, sm, den, level in terms:
        scale = common // den
        wn, wm = (sn * scale,), (sm * scale,)
        _convolve_into(re, wn, level._re, 1)
        _convolve_into(re, wm, level._im, -1)
        _convolve_into(im, wn, level._im, 1)
        _convolve_into(im, wm, level._re, 1)
    return _up(re, im, common)


def hyp2F1_terminating_poly(k: int, c, x) -> UniPoly:
    """The Gauss series with upper parameters (-t, -k), as a polynomial of t.

    Degree k exactly when x != 0; requires (c)_j nonzero for j <= k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return terminating_series([minus_t_poly(), Fraction(-k)], [c], x, k + 1)


def gauss_contiguous_check(k: int, c, x) -> bool:
    """Exact check of two Gauss contiguous relations at (a, b) = (-t, -k).

    Shifting b walks the polynomial family in k; shifting a is a unit
    shift of the variable.  Both must hold as polynomial identities:

      [-2k - c + kx - xt] F_k  + (c+k) F_{k+1}   - k(x-1) F_{k-1}      = 0
      [(x-2)t - c - kx]   F_k  + (c+t) F_k(t+1)  + (1-x)t F_k(t-1)     = 0

    Each runs as one kernel call times the lcm L of the denominators of c
    and x, with the int weights L, cL and xL.
    """
    c = Fraction(c)
    x = Fraction(x)
    den = lcm(c.denominator, x.denominator)
    cl = c.numerator * (den // c.denominator)
    xl = x.numerator * (den // x.denominator)
    f_k = hyp2F1_terminating_poly(k, c, x)

    rows = [(f_k, 0, -xl, -2 * k * den - cl + k * xl),
            (hyp2F1_terminating_poly(k + 1, c, x), 0, 0, cl + k * den)]
    if k >= 1:
        rows.append((hyp2F1_terminating_poly(k - 1, c, x), 0, 0, -k * (xl - den)))
    if not _shifted_sum(rows).is_zero():
        return False

    return _shifted_sum(((f_k, 0, xl - 2 * den, -cl - k * xl), (f_k, 1, den, cl),
                         (f_k, -1, den - xl, 0))).is_zero()


def continuous_hahn_poly(k: int, a, b, c, d) -> UniPoly:
    """Continuous Hahn polynomial p_k(x; a, b, c, d) over Q(i):

        i^k (a+c)_k (a+d)_k / k! *
            3F2(-k, k+a+b+c+d-1, a+ix; a+c, a+d; 1)

    expanded as an exact polynomial in x.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    complex_arg = UniPoly((GaussRational(a), GR_I))  # a + i*x
    series = terminating_series(
        [Fraction(-k), k + a + b + c + d - 1, complex_arg],
        [a + c, a + d],
        1,
        k + 1,
    )
    prefactor = GR_I**k * pochhammer(a + c, k) * pochhammer(a + d, k)
    return series * (prefactor / factorial(k))


def meixner_pollaczek_poly(n: int, a) -> UniPoly:
    """Meixner-Pollaczek polynomial at angle pi/2, over Q(i):

        i^n * 2F1(-n, a+ix, 2a; 2)

    (the angle-dependent constants are exact in Q(i) only at pi/2, which
    is the only angle used here).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    a = Fraction(a)
    complex_arg = UniPoly((GaussRational(a), GR_I))
    series = terminating_series([Fraction(-n), complex_arg], [2 * a], 2, n + 1)
    return series * GR_I**n


def hyp2f1_3f2_connection_check(n: int, a) -> bool:
    """Exact check of 2F1(-n, 2a+2ix, 4a; 2) = 3F2(-n, n+4a, a+ix; 2a, 2a+1/2; 1)."""
    a = Fraction(a)
    lhs = terminating_series(
        [Fraction(-n), UniPoly((GaussRational(2 * a), 2 * GR_I))],
        [4 * a],
        2,
        n + 1,
    )
    rhs = terminating_series(
        [Fraction(-n), n + 4 * a, UniPoly((GaussRational(a), GR_I))],
        [2 * a, 2 * a + Fraction(1, 2)],
        1,
        n + 1,
    )
    return lhs == rhs


def krawtchouk_poly(k: int, p, n_par) -> UniPoly:
    """Krawtchouk polynomial K_k(t, p, N) = 2F1(-k, -t, -N; 1/p); p != 0."""
    p = Fraction(p)
    if not p:
        raise InvalidParameterError("the Krawtchouk parameter p must be nonzero")
    return terminating_series(
        [Fraction(-k), minus_t_poly()], [-Fraction(n_par)], 1 / p, k + 1
    )


def meixner_poly(k: int, beta, c_par) -> UniPoly:
    """Meixner polynomial M_k(t, beta, c) = 2F1(-k, -t, beta; 1 - 1/c); c != 0."""
    c_par = Fraction(c_par)
    if not c_par:
        raise InvalidParameterError("the Meixner parameter c must be nonzero")
    return terminating_series(
        [Fraction(-k), minus_t_poly()], [Fraction(beta)], 1 - 1 / c_par, k + 1
    )


def krawtchouk_meixner_check(k: int, q, d: int) -> bool:
    """The Gauss form of the radial polynomials coincides with a
    Krawtchouk and with a Meixner parameterization:

        2F1(-t, -k, d; 1/(1-q)) = K_k(t, 1-q, -d) = M_k(t, d, -(1-q)/q).
    """
    q = Fraction(q)
    if q in (0, 1):
        raise InvalidParameterError("the Meixner form needs q outside {0, 1}")
    gauss = hyp2F1_terminating_poly(k, Fraction(d), 1 / (1 - q))
    kraw = krawtchouk_poly(k, 1 - q, -d)
    meix = meixner_poly(k, d, -(1 - q) / q)
    return gauss == kraw and kraw == meix
