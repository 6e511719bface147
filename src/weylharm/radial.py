"""Radial elements of the Weyl algebra: polynomials of the number operator.

Iterating the transferred raising operator on the unit produces the
natural radial basis eta_k; each eta_k is a polynomial omega_k of the
number operator.  This module computes the omega_k along four independent
routes (full Weyl iteration, univariate raising recurrence, three-term
recurrence, terminating-hypergeometric closed form), the induced
difference-operator triple, the renormalized real family g_k used at
q = 1/2, the exact certificates attached to them, and the decomposition
w = sum_k R^k O(h_k) of a Weyl element into ordered harmonics.

Quantities involving the irrational scale alpha = (q(1-q))^(-1/2) are
never materialized: identities containing alpha are verified after
pulling them back to Q with alpha^2 = 1/(q(1-q)).

The univariate routes take q = a/b as the ints (a, b, c = b - a) once per
call, so q(1-q) = ac/b^2 and every recurrence step, raising step,
difference operator and fg identity is a sum of rows
(alpha*t + beta) p(t + s) with int weights over a power of b: one
`scalars._shifted_sum` call per result, with no Fraction arithmetic per
level.  The three-term extraction behind the certificate reads its
coefficients off the raising levels as ints and checks the recurrence in
one such call, and a step of the g chain is one such call over k + 2.

Four chains are memoised, each the list of levels returned by an
unbounded `weyl._memo` seed function: `eta`, `omega` and
`omega_by_raising` per (d, a, b) for q = a/b in lowest terms, so a lookup
hashes ints and never a Fraction, and per d the symmetric family
`g_poly_symmetric`.  Each route appends the missing levels to its list
in place and never rebuilds it; `weylharm.clear_caches` drops them all.
The three UniPoly chains hold only immutable values, so handing out a
cached level cannot change a later result.  The WeylElements of `eta`
expose their `terms` as read-only `MappingProxyType`s, so they cannot be
changed either.

`decompose_weyl` pulls w back with `unorder_q` and splits the polynomial
in one `poly._harmonic_parts` call, which peels every homogeneous
component at once on one L-chain; `reassemble_weyl` sums the ordered
parts by Horner's rule on one numerator accumulator with `cal_R`'s
weights, so a top power K costs K raising steps rather than K(K+1)/2,
and the result one gcd.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, prod

from .ordering import (
    OrderingContext,
    _check_p,
    _closed_form_acc,
    _q_ints,
    _raising_weights,
    cal_R,
    unorder_q,
)
from .poly import _harmonic_parts, _triple_acc
from .scalars import UP_I, UP_ONE, UP_ZERO, GaussRational, UniPoly, _gr, _shifted_sum
from .specfun import _MINUS_T_KEY, _rising_levels, _series
from .weyl import WeylElement, _layout, _memo


class NotRadialError(ValueError):
    """Raised when an element is not a polynomial of the number operator."""


class RadialContext(OrderingContext):
    """Mode count and ordering parameter with the derived rational data.

    ``t0`` = d(1-q) is the constant offset appearing throughout the radial
    theory; ``alpha_squared`` keeps the lambda-substitution bookkeeping
    rational (it exists only for q not in {0, 1}).  Fields and validation
    are those of `OrderingContext`, so a RadialContext is passed to the
    ordering maps as it is.
    """

    __slots__ = ()

    @property
    def t0(self) -> Fraction:
        return self.d * (1 - self.q)

    @property
    def alpha_squared(self) -> Fraction:
        """1 / (q(1-q)); the squared lambda-substitution scale."""
        if self.q in (0, 1):
            raise ValueError("alpha is undefined for q in {0, 1}")
        return 1 / (self.q * (1 - self.q))


# ---------------------------------------------------------------------------
# eta_k and the number-operator representation
# ---------------------------------------------------------------------------


# the most exponent fields `eta` lets its chain and the layout of d modes
# hold: eta_0..eta_k have at most C(k + d + 1, d + 1) keys and the layout d,
# each of 2d fields.  At the bound, cold, `weylharm eta --q 1/3` took 1.1 s
# and 135 MB at d = 1 (k = 705) and 0.5 s and 38 MB at d = 3 (k = 35) on a
# 2-core x86-64 machine; the d = 1 chain is larger for its longer coefficients
ETA_FIELDS_MAX = 500_000


@_memo()
def _eta_chain(d: int, a: int, b: int) -> list:
    return [WeylElement.one(d)]


def _check_eta_size(d: int, k: int) -> None:
    """Raise unless 2d(C(k + d + 1, d + 1) + d) <= ETA_FIELDS_MAX.

    The binomial grows one factor at a time through C(n - r + i, i),
    i <= r = min(k, d + 1), and each factor at least doubles it, so the
    loop stops within a few steps however large k and d are.
    """
    n, r = k + d + 1, min(k, d + 1)
    keys = 1
    for i in range(1, r + 1):
        if 2 * d * (keys + d) > ETA_FIELDS_MAX:
            break
        keys = keys * (n - r + i) // i
    if 2 * d * (keys + d) > ETA_FIELDS_MAX:
        raise ValueError(f"d = {d}, k = {k}: the chain eta_0..eta_k would hold more "
                         f"than {ETA_FIELDS_MAX} exponent fields")


def eta(ctx: RadialContext, k: int) -> WeylElement:
    """The k-th iterate of the raising operator on the unit; a chain that
    would outgrow ETA_FIELDS_MAX is refused before anything is built."""
    if k < 0:
        raise ValueError("k must be >= 0")
    _check_eta_size(ctx.d, k)
    chain = _eta_chain(ctx.d, *_q_ints(ctx.q)[:2])
    while len(chain) <= k:
        chain.append(cal_R(ctx, chain[-1]))
    return chain[k]


def express_in_N(w: WeylElement) -> UniPoly:
    """Write w as a polynomial of the number operator, exactly.

    The normal-ordered powers of N are its falling factorials:

        :N^k: = sum_{|beta|=k} (k!/beta!) (a+)^beta a^beta = N(N-1)...(N-k+1),

    because (a_j+)^m a_j^m acts on |n> as n_j(n_j-1)...(n_j-m+1) and the
    multinomial Vandermonde identity sums the modes.  So w is radial exactly
    when every term is diagonal and, at each level k = |beta|, all
    C(k+d-1, d-1) diagonal monomials carry c_k k!/beta!; then w = omega(N)
    with omega(t) = sum_k c_k t(t-1)...(t-k+1).  Raises NotRadialError
    otherwise.  The terms share w's denominator, so the check compares
    numerators as ints, and the sum divides by that denominator once.
    """
    d = w.d
    lay = _layout(d)
    levels: dict = {}
    for key, coeff in w._terms.items():
        e = lay.fields(key)
        beta = e[d:]
        if e[:d] != beta:
            raise NotRadialError("off-diagonal term cannot come from C[N]")
        levels.setdefault(sum(beta), []).append((beta, coeff))
    c = [(0, 0)] * (max(levels, default=-1) + 1)
    for k, terms in levels.items():
        if len(terms) != comb(k + d - 1, d - 1):
            raise NotRadialError(f"level {k} lacks diagonal monomials of :N^{k}:")
        lead_re, lead_im = c[k] = w._terms.get(k * lay.step[0], (0, 0))  # (a_1+)^k a_1^k
        top = factorial(k)
        for beta, (re, im) in terms:
            mult = top // prod(map(factorial, beta))
            if re != lead_re * mult or im != lead_im * mult:
                raise NotRadialError(f"level {k} is not a multiple of :N^{k}:")
    out = UP_ZERO
    for k in range(len(c) - 1, -1, -1):
        re, im = c[k]  # out*(t - k) + c_k
        out = _shifted_sum(((out, 0, 1, -k), (UP_ONE, 0, 0, re), (UP_I, 0, 0, im)))
    return out._scale(1, 0, w._den)


# ---------------------------------------------------------------------------
# omega_k: univariate raising, recurrence, closed form
# ---------------------------------------------------------------------------


def _raise(d: int, a: int, b: int, c: int, p: UniPoly, shifts=None) -> UniPoly:
    """`apply_Rq_univariate` at q = a/b, 1 - q = c/b, as one kernel call
    over b^2."""
    return _shifted_sum(((p, 0, 2 * a * c, a * c * d), (p, 1, c * c, c * c * d),
                         (p, -1, a * a, 0)), b * b, shifts)


def apply_Rq_univariate(ctx: RadialContext, p: UniPoly) -> UniPoly:
    """The raising operator transported to polynomials of one variable:

        q(1-q)(2t + d) p(t) + (1-q)^2 (t + d) p(t+1) + q^2 t p(t-1).

    Raises polynomial degree by exactly one.
    """
    return _raise(ctx.d, *_q_ints(ctx.q), p)


@_memo()
def _raising_chain(d: int, a: int, b: int) -> list:
    return [UP_ONE]


def omega_by_raising(ctx: RadialContext, k: int) -> UniPoly:
    """omega_k computed by iterating the univariate raising operator.

    Every level is one `apply_Rq_univariate` step from the level below, so
    this route stays independent of the three-term recurrence in `omega`.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return _raising_levels(ctx, k)[k]


def _raising_levels(ctx: RadialContext, k: int) -> list:
    """The memoised raising chain of ctx, grown to at least level k."""
    ints = _q_ints(ctx.q)
    chain = _raising_chain(ctx.d, *ints[:2])
    while len(chain) <= k:
        chain.append(_raise(ctx.d, *ints, chain[-1]))
    return chain


@_memo()
def _omega_chain(d: int, a: int, b: int) -> list:
    return [UP_ONE]


def omega(ctx: RadialContext, k: int) -> UniPoly:
    """omega_k from the three-term recurrence

        omega_{k+1} = [t + (1-q)d - (2q-1)k] omega_k
                      + q(1-q) k (k+d-1) omega_{k-1},

    with omega_0 = 1 (and omega_{-1} = 0).  Over b^2 for q = a/b and
    1 - q = c/b, a step is [b^2 t + b(cd - (2a-b)k)] omega_k
    + ac k(k+d-1) omega_{k-1}, one kernel call on ints."""
    if k < 0:
        raise ValueError("k must be >= 0")
    d = ctx.d
    a, b, c = _q_ints(ctx.q)
    chain = _omega_chain(d, a, b)
    for n in range(len(chain) - 1, k):  # computing omega_{n+1}
        prev = chain[n - 1] if n >= 1 else UP_ZERO
        chain.append(_shifted_sum(((chain[n], 0, b * b, b * (c * d - (2 * a - b) * n)),
                                   (prev, 0, 0, a * c * n * (n + d - 1))), b * b))
    return chain[k]


# the largest k_max of `omega_table`: its output grows about as k_max^3.
# Cold, on a 2-core x86-64 machine, `weylharm omega --d 3 --kmax 100` took
# 0.2 s and printed 0.4 MB at q = 1/3, and 0.4 s, 28 MB and 3 MB at
# q = 123456789/987654321; at q = 1/3, k_max = 300 printed 12 MB
OMEGA_KMAX = 100


def omega_table(d: int, q: Fraction, k_max: int) -> list:
    """omega_0 .. omega_{k_max} as rows ``{"k": k, "coeffs": [...]}``, the
    coefficients as exact strings in ascending degree; k_max is at most
    OMEGA_KMAX."""
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    if k_max > OMEGA_KMAX:
        raise ValueError(f"k_max must be <= {OMEGA_KMAX} for omega "
                         "(its output grows about as k_max^3)")
    ctx = RadialContext(d, q)
    return [
        {"k": k, "coeffs": [str(c) for c in omega(ctx, k).coeffs]}
        for k in range(k_max + 1)
    ]


def omega_closed_form(ctx: RadialContext, k: int) -> UniPoly:
    """Terminating-hypergeometric closed form of omega_k.

    For q != 1 this is (d)_k (1-q)^k * 2F1(-t, -k, d; 1/(1-q)) expanded as
    an exact polynomial in t; at q = 1 the limit form is the falling
    factorial t(t-1)...(t-k+1) = (-1)^k (-t)_k, read off the memoised -t
    chain of `specfun`.  With q = a/b and 1 - q = c/b as ints, the series
    is one `specfun._series` call on ints: its argument is b/c and the
    prefactor (d)_k c^k / b^k seeds its first term.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    _, b, c = _q_ints(ctx.q)
    if not c:
        level = _rising_levels((_MINUS_T_KEY,), k + 1)[k]
        return -level if k & 1 else level
    d = ctx.d
    return _series(((-k, 1),), (_MINUS_T_KEY,), ((d, 0, 1),), (b, 0, c), k + 1,
                   (prod(range(d, d + k)) * c**k, 0, b**k))


# ---------------------------------------------------------------------------
# Difference-operator triple and certificates
# ---------------------------------------------------------------------------


def difference_triple(ctx: RadialContext, p: UniPoly) -> tuple:
    """The sl2 triple as difference operators on polynomials of t.

    Returns (raising, lowering, grading) applied to p:

        R~ p = (1-q)^2 (t+d) Dp - q^2 t Np + (t + d(1-q)) p
        L~ p = (t+d) Dp - t Np
        E~ p = 2(1-q)(t+d) Dp + 2q t Np + d p

    with D and N the forward and backward difference operators.  Expanded
    in p(t+1), p(t), p(t-1), R~ is `apply_Rq_univariate`; the three are
    kernel calls over b^2, 1 and b (q = a/b) sharing the two shifts of p.
    """
    d = ctx.d
    a, b, c = _q_ints(ctx.q)
    shifts: dict = {}
    raising = _raise(d, a, b, c, p, shifts)
    lowering = _shifted_sum(((p, 1, 1, d), (p, 0, -2, -d), (p, -1, 1, 0)), 1, shifts)
    grading = _shifted_sum(((p, 1, 2 * c, 2 * c * d), (p, 0, 2 * (a - c), (a - c) * d),
                            (p, -1, -2 * a, 0)), b, shifts)
    return raising, lowering, grading


def check_difference_equation(ctx: RadialContext, k: int) -> bool:
    """Exact check of q t N(omega_k) + (1-q)(t+d) D(omega_k) = k omega_k."""
    if k < 0:
        raise ValueError("k must be >= 0")
    w = omega(ctx, k)
    d = ctx.d
    a, b, c = _q_ints(ctx.q)
    # b times (left side - k omega_k), in omega_k(t+1), omega_k(t), omega_k(t-1)
    return _shifted_sum(((w, 1, c, c * d), (w, 0, a - c, -c * d - k * b),
                         (w, -1, -a, 0))).is_zero()


def three_term_coefficients(ctx: RadialContext, k: int) -> tuple:
    """Extract (A_k, B_k, C_k) with omega_{k+1} = (A_k t + B_k) omega_k - C_k omega_{k-1}.

    The omegas are produced by the univariate raising iteration, so the
    extraction is an independent measurement of the recurrence structure.
    Raises if the three-term form does not hold exactly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return _three_term(_raising_levels(ctx, k + 1), k)[1:]


def _three_term(ws: list, k: int) -> tuple:
    """(A_{k-1}, A_k, B_k, C_k) read off the raising levels ws as ints.

    Each A is a ratio of leading coefficients, B_k comes from coefficient
    k and C_k from coefficient k - 1; one kernel call over the lcm of their
    denominators then checks omega_{k+1} - (A_k t + B_k) omega_k
    + C_k omega_{k-1} = 0, and a GaussRational is built only for each value
    returned.  q is rational, so the levels and A, B and C are real, and
    every level is monic (the raising operator's t-coefficient is
    (q + 1 - q)^2 = 1), so each denominator below is positive.
    """
    (u, du), (v, dv), (w, dw) = ((ws[j]._re, ws[j]._den) for j in (k + 1, k, k - 1))
    # with r = omega_{k+1} - A_k t omega_k: r_k = b_num/(v_k du), and
    # (r - B_k omega_k)_{k-1} = s/(v_k^2 du) = -C_k w_{k-1}/dw
    b_num = u[k] * v[k] - u[k + 1] * v[k - 1]
    s = (u[k - 1] * v[k] - u[k + 1] * (v[k - 2] if k >= 2 else 0)) * v[k] - b_num * v[k - 1]
    a, b = _gr(u[k + 1] * dv, 0, v[k] * du), _gr(b_num * dv, 0, v[k] * v[k] * du)
    c = _gr(-s * dw, 0, v[k] * v[k] * du * w[k - 1])
    top = lcm(a.den, b.den, c.den)
    if not _shifted_sum(((ws[k + 1], 0, 0, top),
                         (ws[k], 0, -a.n * (top // a.den), -b.n * (top // b.den)),
                         (ws[k - 1], 0, 0, c.n * (top // c.den)))).is_zero():
        raise AssertionError("omega_k do not satisfy a three-term recurrence")
    return _gr(v[k] * dw, 0, w[k - 1] * dv), a, b, c


def nonorthogonality_certificate(ctx: RadialContext, k: int) -> GaussRational:
    """The product A_{k-1} A_k C_k extracted from the computed recurrence,
    on one read of the raising chain and with one gcd.

    A nonpositive value violates the positivity condition a three-term
    family must satisfy to be orthogonal with respect to a positive
    measure; the value here is exactly -q(1-q) k (k+d-1).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    a_prev, a_k, _, c_k = _three_term(_raising_levels(ctx, k + 1), k)
    return _gr(a_prev.n * a_k.n * c_k.n, 0, a_prev.den * a_k.den * c_k.den)


# ---------------------------------------------------------------------------
# The renormalized symmetric family g_k
# ---------------------------------------------------------------------------

@_memo()
def _g_chain(d: int) -> list:
    return [UP_ONE, UniPoly.x()]


def g_poly_symmetric(d: int, k: int) -> UniPoly:
    """The real renormalized radial polynomials at q = 1/2:

        g_0 = 1,  g_1 = lambda,  (k+2) g_{k+2} = lambda g_{k+1} - (k+d) g_k.

    Each step is one kernel call over k + 2, with no Fraction.
    """
    if d < 1 or k < 0:
        raise ValueError("need d >= 1 and k >= 0")
    chain = _g_chain(d)
    for n in range(len(chain) - 2, k - 1):  # computing g_{n+2}
        chain.append(_shifted_sum(((chain[n + 1], 0, 1, 0), (chain[n], 0, 0, -(n + d))), n + 2))
    return chain[k]


def check_fg_recurrence(ctx: RadialContext, k_max: int) -> bool:
    """Pulled-back exact check of the renormalized recurrence

        (k+2) g_{k+2} + (k+d) g_k + [-lambda + 2 s0 (k+1)] g_{k+1} = 0.

    Substituting g_k = (i^k alpha^k / k!) omega_k(t) and
    lambda = i alpha (t + t0), then dividing by i^k alpha^k / k!, leaves a
    polynomial identity over Q in t that involves alpha only through
    alpha^2 = 1/(q(1-q)):

        -(alpha^2/(k+1)) omega_{k+2} + (k+d) omega_k
        + (alpha^2/(k+1)) [ (t+t0) - (2q-1)(k+1) ] omega_{k+1}  =  0.

    No square root is ever formed: times (k+1)ac, for q = a/b and
    1 - q = c/b, alpha^2/(k+1) becomes b^2 and the identity has int weights.
    """
    d = ctx.d
    a, b, c = _q_ints(ctx.q)
    if not a or not c:
        raise ValueError("alpha is undefined for q in {0, 1}")
    ws = _raising_levels(ctx, k_max + 2)
    for k in range(k_max + 1):
        lhs = _shifted_sum(((ws[k + 2], 0, 0, -b * b),
                            (ws[k], 0, 0, (k + 1) * (k + d) * a * c),
                            (ws[k + 1], 0, b * b, b * (c * d - (2 * a - b) * (k + 1)))))
        if not lhs.is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Weyl harmonics and the tensor decomposition
# ---------------------------------------------------------------------------


def decompose_weyl(ctx: RadialContext, w: WeylElement) -> list:
    """Decompose w = sum_k R^k O(h_k) with every h_k harmonic.

    Pulls w back to a polynomial and splits it in one `poly._harmonic_parts`
    call, which peels every homogeneous component on one L-chain.  Returns
    [(k, h_k)] in ascending k, with zero parts dropped.
    """
    return sorted(_harmonic_parts(unorder_q(ctx, w)).items())


def reassemble_weyl(ctx: RadialContext, parts) -> WeylElement:
    """Inverse of `decompose_weyl`: sum_k R^k O(h_k), by Horner's rule in R,
    O(h_0) + R(O(h_1) + R(...)), so a top power K takes K raising steps.
    The parts may come in any order and repeat k.

    The sum runs on one numerator accumulator with one gcd, at the end: a
    raising step is `poly._triple_acc` with the int weights of `cal_R`,
    over b^2 for q = a/b; each part's closed form
    (`ordering._closed_form_acc`) is merged over the lcm of the two
    denominators, a key leaving when its sum cancels, as in a chain of
    `+`.  The [0, 0] pairs a raise leaves are dropped before the next
    step, so a raise refuses exactly the keys `cal_R` would refuse, and
    the keys keep the order of the per-step maps.
    """
    parts = sorted(parts, key=lambda part: part[0], reverse=True)
    if parts and parts[-1][0] < 0:
        raise ValueError("radial powers k must be >= 0")
    d = ctx.d
    _, b, c = _q_ints(ctx.q)
    rn, en, ln, dr = _raising_weights(ctx.q)
    acc: dict = {}
    den = 1
    level = parts[0][0] if parts else 0
    for k, h in parts + [(0, None)]:  # the sentinel takes the raises below the last part
        for _ in range(level - k):
            acc = _triple_acc(d, acc, rn, en, ln)
            if [0, 0] in acc.values():
                acc = {key: v for key, v in acc.items() if v[0] or v[1]}
            den *= dr
        level = k
        if h is None:
            break
        _check_p(ctx, h)
        terms, scale = _closed_form_acc(d, h._terms, c, b)
        top = lcm(den, h._den * scale)
        if top != den:
            f = top // den
            for v in acc.values():
                v[0] *= f
                v[1] *= f
        f = top // (h._den * scale)
        den = top
        for key, (re, im) in terms.items():
            if not (re or im):
                continue
            cur = acc.get(key)
            if cur is None:
                acc[key] = [re * f, im * f]
            else:
                cur[0] += re * f
                cur[1] += im * f
                if not (cur[0] or cur[1]):
                    del acc[key]
    return WeylElement._wrap(d, acc, den)
