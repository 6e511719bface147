"""Exact terminating hypergeometric series and named polynomial families.

Everything here is a finite sum evaluated in Q(i) or in polynomials over
Q(i); there is no convergence logic anywhere.  The named families are the
series the package evaluates: the Gauss series with upper parameters
(-t, -k), the continuous Hahn and Meixner-Pollaczek polynomials, and the
Krawtchouk and Meixner polynomials.  Their lower parameters must be real
and are pole-checked over the finitely many terms actually used.

Every family is one call of `_series`, the one series kernel, on ints:
each scalar upper is a real pair (c, f) for c/f, each lower, the argument
and the prefactor a canonical triple (n, m, den) for (n + m*i)/den, each
polynomial upper the key (_re, _im, _den) of its real `UniPoly`, and a
constant prefactor seeds the first term.  A family reads its parameters
once per call through `scalars._parts`, forms its uppers, lowers,
argument and prefactor as such ints and builds no Fraction.

The kernel writes term j as s_j * B_j(t).  B_j, the product of the rising
factorials (u)_j of the polynomial uppers u, depends on those u alone, so
its levels form one chain per tuple of u, memoised by `_rising_chain` and
grown in place: a family of series over one u (every -t series, every
a + y of one a) shares one chain across k, the scalar parameters and the
argument.  s_j folds the prefactor and every scalar parameter into one
Gaussian-integer ratio over an int, with one gcd per step, and the terms
are summed once over the lcm of their denominators into one `UniPoly`,
one pass over the numerators of B_j per term.

The complex-argument families (continuous Hahn, Meixner-Pollaczek and
their connection check) have the upper a + ix for real a.  They expand in
y = ix instead: (a + y)_j is a real polynomial of y, and their factor i^k
leaves the prefactor, so every level and every weight is real and the
kernel does one int product per coefficient.  A last O(k) pass, the
kernel's ``turn``, multiplies coefficient j by i^(j+k) to read the result
back in x.  Every level is therefore real; only the Gauss series' argument
may be complex.

The identities between such polynomials (`gauss_contiguous_check`) run
through `scalars._shifted_sum` with int weights, like the radial layer's.
"""

from __future__ import annotations

from math import factorial, gcd, lcm

from .scalars import UP_ONE, GaussRational, UniPoly, _gr, _mul_parts, _parts, _shifted_sum, _up
from .weyl import _memo


class InvalidParameterError(ValueError):
    """A parameter outside its series' domain: a lower parameter that is
    not real or hits a nonpositive integer inside the series, a complex
    value for a parameter that must be real, or a degenerate Krawtchouk or
    Meixner parameter."""


def _rising(c: int, e: int, f: int, n: int) -> tuple:
    """(re, im, den) of ((c + e*i)/f)_n: the Gaussian-integer product of
    the c + m*f + e*i over f^n, unreduced."""
    re, im = 1, 0
    for x in range(c, c + n * f, f):  # x = c + m*f
        re, im = re * x - im * e, re * e + im * x
    return re, im, f**n


def pochhammer(base, n: int):
    """Shifted factorial (base)_n = base (base+1) ... (base+n-1).

    Works for exact scalars and for UniPoly bases; (base)_0 = 1.  A scalar
    base gives its `_rising` product with one gcd.
    """
    if n < 0:
        raise ValueError("pochhammer length must be >= 0")
    if isinstance(base, UniPoly):
        out = UP_ONE
        for m in range(n):
            out = out * (base + m)
        return out
    return _gr(*_rising(*_parts(base), n))


# the key of the real UniPoly -t, the usual terminating upper parameter
_MINUS_T_KEY = ((0, -1), (), 1)


def _plus_y(n: int, den: int, s: int = 1) -> tuple:
    """The key of UniPoly((s*a, s)), the real upper s(a + y) in y = ix for
    a = n/den in lowest terms, so that it shares that UniPoly's chain."""
    g = gcd(den, s * n)
    return (s * n // g, s * den // g), (), den // g


def _real(x, name: str) -> tuple:
    """(n, den) of the exact scalar parameter ``name``, which must be real."""
    n, m, den = _parts(x)
    if m:
        raise InvalidParameterError(f"parameter {name} = {x} must be real")
    return n, den


def _lower(c: int, f: int, nterms: int) -> tuple:
    """The triple of the real lower c/f (f != 0), raising unless (c/f)_j is
    nonzero for every j < nterms: c/f + m vanishes for some
    0 <= m < nterms - 1 exactly when c/f is the integer -m."""
    m, r = divmod(-c, f)
    if not r and 0 <= m < nterms - 1:
        raise InvalidParameterError(f"lower parameter {-m} hits zero at term {m + 1}")
    return c, 0, f


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


def _series(scalars, polys: tuple, lowers, arg: tuple, nterms: int,
            pre: tuple = (1, 0, 1), turn: int | None = None) -> UniPoly:
    """pre * sum_{j<nterms} prod(u)_j / (prod(l)_j j!) * arg^j on ints.

    ``scalars`` are the real scalar uppers as pairs (c, f) for c/f, f != 0;
    ``lowers``, ``arg`` and ``pre`` are (n, m, den) triples with den != 0,
    the lowers real and already pole-checked; ``polys`` is the tuple of the
    real polynomial uppers' keys (_re, (), _den).  Term j is s_j * B_j(t),
    B_j read from the chain of ``polys`` (`_rising_levels`) and s_j the
    running product of ``pre`` and the ratios of the scalar uppers, the
    lowers, j! and ``arg``, reduced by one gcd per step; the sum stops at
    the first zero ratio, the term past a -k upper.  The terms are
    accumulated once over the lcm of their denominators, each in one pass
    over its level's numerators: the real weight alone when wm = 0, and
    both parts otherwise.  A ``turn`` r, given for a real series in y = ix,
    then multiplies coefficient j by i^(j+r), which reads the series in x
    times i^r.  One `_up` builds the result.
    """
    if nterms < 1:
        raise ValueError("series needs at least one term")
    an, am, ad = arg
    sn, sm, sd = pre
    steps = []
    for j in range(nterms):
        if j:
            i = j - 1
            rn, rm, rd = an, am, ad * j
            for c, f in scalars:  # u + j - 1 = (c + (j-1)*f)/f for u = c/f
                c += i * f
                rn, rm, rd = rn * c, rm * c, rd * f
            if not rn and not rm:
                break
            for c, _, f in lowers:
                rn, rm, rd = rn * f, rm * f, rd * (c + i * f)
            sn, sm, sd = sn * rn - sm * rm, sn * rm + sm * rn, sd * rd
        g = gcd(sn, sm, sd)
        if sd < 0:
            g = -g
        sn, sm, sd = sn // g, sm // g, sd // g
        steps.append((sn, sm, sd))
    levels = _rising_levels(polys, len(steps))
    terms = [(sn, sm, sd * level._den, level._re)
             for (sn, sm, sd), level in zip(steps, levels) if level._re]
    common = lcm(*(den for _, _, den, _ in terms))
    size = max(len(level) for *_, level in terms)
    re, im = [0] * size, [0] * size
    for sn, sm, den, level in terms:
        scale = common // den
        wn, wm = sn * scale, sm * scale
        if wm:
            for j, x in enumerate(level):
                re[j] += wn * x
                im[j] += wm * x
        else:
            for j, x in enumerate(level):
                re[j] += wn * x
    if turn is not None:  # re holds the real coefficients of y^j
        for j, x in enumerate(re):
            m = j + turn  # i^r (ix)^j = i^m x^j
            if m & 2:
                x = -x
            if m & 1:
                re[j], im[j] = 0, x
            else:
                re[j] = x
    return _up(re, im, common)


def hyp2F1_terminating_poly(k: int, c, x) -> UniPoly:
    """The Gauss series with upper parameters (-t, -k), as a polynomial of t.

    Degree k exactly when x != 0; requires c real and (c)_j nonzero for
    j <= k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return _series(((-k, 1),), (_MINUS_T_KEY,), (_lower(*_real(c, "c"), k + 1),),
                   _parts(x), k + 1)


def gauss_contiguous_check(k: int, c, x) -> bool:
    """Exact check of two Gauss contiguous relations at (a, b) = (-t, -k).

    Shifting b walks the polynomial family in k; shifting a is a unit
    shift of the variable.  Both must hold as polynomial identities:

      [-2k - c + kx - xt] F_k  + (c+k) F_{k+1}   - k(x-1) F_{k-1}      = 0
      [(x-2)t - c - kx]   F_k  + (c+t) F_k(t+1)  + (1-x)t F_k(t-1)     = 0

    Each runs as one kernel call times the lcm L of the denominators of
    the real c and x, with the int weights L, cL and xL.
    """
    cn, cd = _real(c, "c")
    xn, xd = _real(x, "x")
    den = lcm(cd, xd)
    cl = cn * (den // cd)
    xl = xn * (den // xd)
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
    """Continuous Hahn polynomial p_k(x; a, b, c, d) over Q(i), for real
    a, b, c and d:

        i^k (a+c)_k (a+d)_k / k! *
            3F2(-k, k+a+b+c+d-1, a+ix; a+c, a+d; 1)

    expanded as an exact polynomial in x: the real series in y = ix,
    seeded by the real prefactor, with the turn i^(j+k).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    (an, ad), (bn, bd), (cn, cd), (dn, dd) = (
        _real(v, name) for v, name in ((a, "a"), (b, "b"), (c, "c"), (d, "d")))
    den = lcm(ad, bd, cd, dd)
    top = (an * (den // ad) + bn * (den // bd) + cn * (den // cd) + dn * (den // dd)
           + (k - 1) * den)
    a_c = _lower(an * cd + cn * ad, ad * cd, k + 1)
    a_d = _lower(an * dd + dn * ad, ad * dd, k + 1)
    rc, _, fc = _rising(*a_c, k)
    rd, _, fd = _rising(*a_d, k)
    return _series(((-k, 1), (top, den)), (_plus_y(an, ad),), (a_c, a_d),
                   (1, 0, 1), k + 1, (rc * rd, 0, fc * fd * factorial(k)), k)


def meixner_pollaczek_poly(n: int, a) -> UniPoly:
    """Meixner-Pollaczek polynomial at angle pi/2, over Q(i), for real a:

        i^n * 2F1(-n, a+ix, 2a; 2)

    (the angle-dependent constants are exact in Q(i) only at pi/2, which
    is the only angle used here): the real series in y = ix with the turn
    i^(j+n).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    an, ad = _real(a, "a")
    return _series(((-n, 1),), (_plus_y(an, ad),), (_lower(2 * an, ad, n + 1),),
                   (2, 0, 1), n + 1, turn=n)


def hyp2f1_3f2_connection_check(n: int, a) -> bool:
    """Exact check of 2F1(-n, 2a+2ix, 4a; 2) = 3F2(-n, n+4a, a+ix; 2a, 2a+1/2; 1)
    for real a, compared as real polynomials of y = ix."""
    an, ad = _real(a, "a")
    lhs = _series(((-n, 1),), (_plus_y(an, ad, 2),), (_lower(4 * an, ad, n + 1),),
                  (2, 0, 1), n + 1)
    rhs = _series(((-n, 1), (n * ad + 4 * an, ad)), (_plus_y(an, ad),),
                  (_lower(2 * an, ad, n + 1), _lower(4 * an + ad, 2 * ad, n + 1)),
                  (1, 0, 1), n + 1)
    return lhs == rhs


def krawtchouk_poly(k: int, p, n_par) -> UniPoly:
    """Krawtchouk polynomial K_k(t, p, N) = 2F1(-k, -t, -N; 1/p) for real
    p != 0 and N."""
    pn, pd = _real(p, "p")
    if not pn:
        raise InvalidParameterError("the Krawtchouk parameter p must be nonzero")
    nn, nd = _real(n_par, "N")
    return _series(((-k, 1),), (_MINUS_T_KEY,), (_lower(-nn, nd, k + 1),),
                   (pd, 0, pn), k + 1)


def meixner_poly(k: int, beta, c_par) -> UniPoly:
    """Meixner polynomial M_k(t, beta, c) = 2F1(-k, -t, beta; 1 - 1/c) for
    real beta and c != 0."""
    cn, cd = _real(c_par, "c")
    if not cn:
        raise InvalidParameterError("the Meixner parameter c must be nonzero")
    return _series(((-k, 1),), (_MINUS_T_KEY,), (_lower(*_real(beta, "beta"), k + 1),),
                   (cn - cd, 0, cn), k + 1)


def krawtchouk_meixner_check(k: int, q, d: int) -> bool:
    """The Gauss form of the radial polynomials coincides with a
    Krawtchouk and with a Meixner parameterization, for real q:

        2F1(-t, -k, d; 1/(1-q)) = K_k(t, 1-q, -d) = M_k(t, d, -(1-q)/q).
    """
    qn, qd = _real(q, "q")
    if qn in (0, qd):
        raise InvalidParameterError("the Meixner form needs q outside {0, 1}")
    cn = qd - qn  # 1 - q = cn/qd
    gauss = hyp2F1_terminating_poly(k, d, GaussRational(qd) / cn)
    kraw = krawtchouk_poly(k, GaussRational(cn) / qd, -d)
    meix = meixner_poly(k, d, GaussRational(-cn) / qn)
    return gauss == kraw and kraw == meix
