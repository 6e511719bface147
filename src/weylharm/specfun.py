"""Exact terminating hypergeometric series and named polynomial families.

Everything here is a finite sum evaluated in Q(i) or in polynomials over
Q(i); there is no convergence logic anywhere.  Series factors may be
exact scalars or polynomials (e.g. the -t upper parameter that makes a
Gauss series a polynomial of t, or a + i*x for the complex-argument
families); lower parameters must be scalars and are pole-checked over the
finitely many terms actually used.

Every series, and every named family, is one call of `_series`, the one
series kernel, on ints: each scalar is a canonical triple (n, m, den) for
(n + m*i)/den, each polynomial upper is the key (_re, _im, _den) of its
`UniPoly`, and a constant prefactor seeds the first term.  A family reads
its parameters once per call through `scalars._parts`, forms its uppers,
lowers, argument and prefactor as such triples and builds no Fraction.

The kernel writes term j as s_j * B_j(t).  B_j, the product of the rising
factorials (u)_j of the polynomial uppers u, depends on those u alone, so
its levels form one chain per tuple of u, memoised by `_rising_chain` and
grown in place: a family of series over one u (every -t series, every
a + i*x of one a) shares one chain across k, the scalar parameters and the
argument.  s_j folds the prefactor and every scalar parameter into one
Gaussian-integer ratio over an int, with one gcd per step, and the terms
are summed once over the lcm of their denominators into one `UniPoly`,
one pass over the numerators of B_j per term.

The identities between such polynomials (`gauss_contiguous_check`) run
through `scalars._shifted_sum` with int weights, like the radial layer's.
"""

from __future__ import annotations

from math import factorial, gcd, lcm

from .scalars import UP_ONE, UniPoly, _gr, _mul_parts, _parts, _shifted_sum, _up
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


_MINUS_T = UniPoly((0, -1))
_MINUS_T_KEY = (_MINUS_T._re, _MINUS_T._im, _MINUS_T._den)


def minus_t_poly() -> UniPoly:
    """The polynomial -t, the usual terminating upper parameter (one shared
    immutable value)."""
    return _MINUS_T


def _plus_ix(n: int, den: int, s: int = 1) -> tuple:
    """The key of UniPoly((GaussRational(s*a), s*GR_I)), the upper s(a + ix)
    for a = n/den in lowest terms, so that it shares that UniPoly's chain."""
    g = gcd(den, s * n)
    return (s * n // g, 0), (0, s * den // g), den // g


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


def _check_lower(lower, nterms: int) -> tuple:
    """The triple of ``lower``, raising unless it is real and its rising
    factorials are nonzero over the series (`_lower`)."""
    c, e, f = _parts(lower)
    if e:
        raise InvalidParameterError(f"lower parameter {lower} must be real")
    return _lower(c, f, nterms)


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
            pre: tuple = (1, 0, 1)) -> UniPoly:
    """pre * sum_{j<nterms} prod(u)_j / (prod(l)_j j!) * arg^j on ints.

    ``scalars``, ``lowers``, ``arg`` and ``pre`` are (n, m, den) triples
    with den != 0, the lowers real and already pole-checked; ``polys`` is
    the tuple of the polynomial uppers' keys (_re, _im, _den).  Term j is
    s_j * B_j(t), B_j read from the chain of ``polys`` (`_rising_levels`)
    and s_j the running product of ``pre`` and the ratios of the scalar
    uppers, the lowers, j! and ``arg``, reduced by one gcd per step; the
    sum stops at the first zero ratio, the term past a -k upper.  The
    terms are accumulated once over the lcm of their denominators, each in
    one pass over its level's numerators: (wn + wm*i)(re + im*i) for a
    complex level, and for a real one the real weight alone when wm = 0.
    One `_up` builds the result.
    """
    if nterms < 1:
        raise ValueError("series needs at least one term")
    an, am, ad = arg
    sn, sm, sd = pre
    steps = []
    for j in range(nterms):
        if j:
            # u + j - 1 = (c + (j-1)*f + e*i)/f for u = (c + e*i)/f
            i = j - 1
            rn, rm, rd = an, am, ad * j
            for c, e, f in scalars:
                c += i * f
                rn, rm, rd = rn * c - rm * e, rn * e + rm * c, rd * f
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
    terms = [(sn, sm, sd * level._den, level)
             for (sn, sm, sd), level in zip(steps, levels) if level._re]
    common = lcm(*(den for _, _, den, _ in terms))
    size = max(len(level._re) for *_, level in terms)
    re, im = [0] * size, [0] * size
    for sn, sm, den, level in terms:
        scale = common // den
        wn, wm = sn * scale, sm * scale
        lim = level._im
        if lim:  # (wn + wm*i) * (x + y*i)
            for j, (x, y) in enumerate(zip(level._re, lim)):
                re[j] += wn * x - wm * y
                im[j] += wn * y + wm * x
        elif wm:
            for j, x in enumerate(level._re):
                re[j] += wn * x
                im[j] += wm * x
        else:
            for j, x in enumerate(level._re):
                re[j] += wn * x
    return _up(re, im, common)


def terminating_series(uppers, lowers, arg, nterms: int) -> UniPoly:
    """sum_{j<nterms} prod(u)_j / (prod(l)_j j!) * arg^j as a UniPoly.

    ``uppers`` may mix scalars and UniPoly factors of any number and
    degree; ``lowers`` must be real exact scalars and ``arg`` an exact
    scalar.  The result is a polynomial (a constant one when no upper
    factor is a polynomial).

    The lowers are checked, every scalar is read once as its int triple
    and every UniPoly upper as its key, and one `_series` call sums the
    series with no prefactor.  Its polynomial uppers share their memoised
    rising-factorial chain with every other series on the same uppers,
    the named families included.
    """
    lowers = [_check_lower(low, nterms) for low in lowers]
    scalars = [_parts(u) for u in uppers if not isinstance(u, UniPoly)]
    polys = tuple((u._re, u._im, u._den) for u in uppers if isinstance(u, UniPoly))
    return _series(scalars, polys, lowers, _parts(arg), nterms)


def _i_power(k: int, n: int, den: int) -> tuple:
    """The triple of i^k n/den."""
    return ((n, 0, den), (0, n, den), (-n, 0, den), (0, -n, den))[k % 4]


def hyp2F1_terminating_poly(k: int, c, x) -> UniPoly:
    """The Gauss series with upper parameters (-t, -k), as a polynomial of t.

    Degree k exactly when x != 0; requires c real and (c)_j nonzero for
    j <= k.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return _series(((-k, 0, 1),), (_MINUS_T_KEY,), (_lower(*_real(c, "c"), k + 1),),
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

    expanded as an exact polynomial in x; the prefactor seeds the series.
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
    return _series(((-k, 0, 1), (top, 0, den)), (_plus_ix(an, ad),), (a_c, a_d),
                   (1, 0, 1), k + 1, _i_power(k, rc * rd, fc * fd * factorial(k)))


def meixner_pollaczek_poly(n: int, a) -> UniPoly:
    """Meixner-Pollaczek polynomial at angle pi/2, over Q(i), for real a:

        i^n * 2F1(-n, a+ix, 2a; 2)

    (the angle-dependent constants are exact in Q(i) only at pi/2, which
    is the only angle used here); i^n seeds the series.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    an, ad = _real(a, "a")
    return _series(((-n, 0, 1),), (_plus_ix(an, ad),), (_lower(2 * an, ad, n + 1),),
                   (2, 0, 1), n + 1, _i_power(n, 1, 1))


def hyp2f1_3f2_connection_check(n: int, a) -> bool:
    """Exact check of 2F1(-n, 2a+2ix, 4a; 2) = 3F2(-n, n+4a, a+ix; 2a, 2a+1/2; 1)
    for real a."""
    an, ad = _real(a, "a")
    lhs = _series(((-n, 0, 1),), (_plus_ix(an, ad, 2),), (_lower(4 * an, ad, n + 1),),
                  (2, 0, 1), n + 1)
    rhs = _series(((-n, 0, 1), (n * ad + 4 * an, 0, ad)), (_plus_ix(an, ad),),
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
    return _series(((-k, 0, 1),), (_MINUS_T_KEY,), (_lower(-nn, nd, k + 1),),
                   (pd, 0, pn), k + 1)


def meixner_poly(k: int, beta, c_par) -> UniPoly:
    """Meixner polynomial M_k(t, beta, c) = 2F1(-k, -t, beta; 1 - 1/c) for
    real beta and c != 0."""
    cn, cd = _real(c_par, "c")
    if not cn:
        raise InvalidParameterError("the Meixner parameter c must be nonzero")
    return _series(((-k, 0, 1),), (_MINUS_T_KEY,), (_lower(*_real(beta, "beta"), k + 1),),
                   (cn - cd, 0, cn), k + 1)


def _rational(n: int, den: int):
    """n/den as a GaussRational, for ints with den != 0."""
    return _gr(n, 0, den) if den > 0 else _gr(-n, 0, -den)


def krawtchouk_meixner_check(k: int, q, d: int) -> bool:
    """The Gauss form of the radial polynomials coincides with a
    Krawtchouk and with a Meixner parameterization, for real q:

        2F1(-t, -k, d; 1/(1-q)) = K_k(t, 1-q, -d) = M_k(t, d, -(1-q)/q).
    """
    qn, qd = _real(q, "q")
    if qn in (0, qd):
        raise InvalidParameterError("the Meixner form needs q outside {0, 1}")
    cn = qd - qn  # 1 - q = cn/qd
    gauss = hyp2F1_terminating_poly(k, d, _rational(qd, cn))
    kraw = krawtchouk_poly(k, _rational(cn, qd), -d)
    meix = meixner_poly(k, d, _rational(-cn, qn))
    return gauss == kraw and kraw == meix
