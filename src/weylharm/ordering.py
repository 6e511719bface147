"""The q-ordering isomorphism between the polynomial and Weyl algebras.

For an exact rational parameter q, each coordinate acts on the Weyl
algebra through the convex mix of left and right multiplication

    M_j  w = (1-q) a_j w  + q w a_j
    M+_j w = q a_j+ w     + (1-q) w a_j+

and the ordering map sends z^alpha zbar^beta to M^alpha M+^beta applied
to the unit.  q = 0 gives Wick order (annihilators multiplied on the
left, creators on the right), q = 1 the reverse, q = 1/2 the symmetric
(Weyl) order.

That image has the Cahill-Glauber closed form (Phys. Rev. 177, 1857
(1969); Agarwal-Wolf, Phys. Rev. D 2, 2161 (1970)):

    z^alpha zbar^beta  |->  sum_i  prod_j i_j! C(alpha_j, i_j) C(beta_j, i_j)
                                   (1-q)^(i_j)  (a+)^(beta-i) a^(alpha-i)

whose weights are the Wick contraction weights of the product kernel
(`weyl.contractions`) scaled by (1-q)^|i|.  On packed keys (see `weyl`)
z^alpha zbar^beta and (a+)^beta a^alpha share a key, and each term of the
sum is that key minus a contraction offset.  The inverse is the same sum
with -(1-q) in place of 1-q.  `apply_M` and `apply_Mplus` keep the
defining operator form as an independent check of both.

Both sums run on the stored Gaussian-integer numerators of the term maps
(see `weyl.TermMap`), as the products and the transferred triple below
(`poly._triple`) do: the input's one denominator, here times a power of
b for q = a/b, and one gcd per result.  The maps take 1-q as the ints
(b - a, b), and its negative as (a - b, b), so no Fraction is built per
call.

The transferred sl2 triple (`cal_R`, `cal_L`, `cal_E`) is the classical
triple of `poly` (R = r^2, L the quarter-Laplacian, E = degree + d) pushed
through the ordering map, so that the map intertwines the two.  In
normal-monomial coordinates (z^alpha zbar^beta <-> (a+)^beta a^alpha) the
closed form above is exp((1-q) L), since exp(tL) z^a zbar^b =
sum_i t^i i! C(a, i) C(b, i) z^(a-i) zbar^(b-i) per mode; the pushed
triple is therefore the classical one conjugated by exp((1-q) L).  From
[L, R] = E, [L, E] = 2L and [L, L] = 0, the series
exp(tL) X exp(-tL) = X + t[L, X] + t^2/2 [L, [L, X]] + ... terminates:

    cal_L = L
    cal_E = E + 2(1-q) L
    cal_R = R + (1-q) E + (1-q)^2 L

with R, L and E acting on the two exponent vectors of each normal monomial
exactly as on those of a polynomial.  No Weyl product is needed; the
product forms (e.g. cal_L w = -sum_j [a_j, [a_j+, w]]) are kept in the
tests as the independent check.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .poly import CPolynomial, _triple, op_L
from .weyl import (
    ModeMismatchError,
    WeylElement,
    _layout,
    check_exponents,
    contractions,
    weyl_mul,
)


class _ContextFields(NamedTuple):
    d: int
    q: Fraction


class OrderingContext(_ContextFields):
    """Mode count and exact ordering parameter.

    q may be any rational; values outside [0, 1] are accepted but the
    standard verification grids only sample inside.  A named tuple, so
    equal to the plain tuple ``(d, q)``.
    """

    __slots__ = ()

    def __new__(cls, d: int, q):
        if d < 1:
            raise ValueError("mode count d must be >= 1")
        return super().__new__(cls, d, Fraction(q))

    @property
    def q_complement(self) -> Fraction:
        return 1 - self.q


def _q_ints(q: Fraction) -> tuple:
    """(a, b, c) with q = a/b in lowest terms, b > 0 and 1 - q = c/b."""
    a, b = q.numerator, q.denominator
    return a, b, b - a


def apply_M(ctx: OrderingContext, j: int, w: WeylElement) -> WeylElement:
    """(1-q) a_j w + q w a_j."""
    _check_w(ctx, w)
    a = WeylElement.annihilator(ctx.d, j)
    return weyl_mul(a, w).scale(ctx.q_complement) + weyl_mul(w, a).scale(ctx.q)


def apply_Mplus(ctx: OrderingContext, j: int, w: WeylElement) -> WeylElement:
    """q a_j+ w + (1-q) w a_j+."""
    _check_w(ctx, w)
    c = WeylElement.creator(ctx.d, j)
    return weyl_mul(c, w).scale(ctx.q) + weyl_mul(w, c).scale(ctx.q_complement)


def ordered_monomial(ctx: OrderingContext, alpha, beta) -> WeylElement:
    """Image of z^alpha zbar^beta under the ordering map, in closed form."""
    alpha, beta = tuple(alpha), tuple(beta)
    check_exponents(alpha, beta)
    if len(alpha) != ctx.d or len(beta) != ctx.d:
        raise ModeMismatchError(
            f"exponent vectors have {len(alpha)} and {len(beta)} modes, context d={ctx.d}")
    key = _layout(ctx.d).key(alpha, beta)
    _, b, c = _q_ints(ctx.q)
    return _closed_form(WeylElement, ctx.d, {key: (1, 0)}, 1, c, b)


def _closed_form(cls, d: int, terms: dict, den: int, tn: int, td: int):
    """The ``cls`` map over d modes that sums, over the numerator pairs
    ``terms = {key: (n, m)}`` of a map over ``den``, (n + m*i)/den times
    the closed form of the key's monomial with 1-q replaced by t = tn/td,
    for ints tn and td > 0: `_closed_form_acc` and one `_wrap`."""
    acc, scale = _closed_form_acc(d, terms, tn, td)
    return cls._wrap(d, acc, den * scale)


def _closed_form_acc(d: int, terms: dict, tn: int, td: int) -> tuple:
    """(acc, s): the numerators of `_closed_form` as a fresh accumulator
    ``{key: [re, im]}``, which may hold [0, 0] pairs, over s times the
    denominator of ``terms``.

    With S the largest contraction order |i|, a contraction of weight w
    and order s adds (n, m) * w * tn^s * td^(S-s) to its key's pair, and
    the scale is td^S.
    """
    lay = _layout(d)
    expansions = [contractions(k & lay.low, k >> lay.shift, d) for k in terms]
    # the last contraction of a monomial contracts every mode fully
    top = max((e[-1][1] for e in expansions), default=0)
    scale = [tn**s * td ** (top - s) for s in range(top + 1)]
    acc: dict = {}
    for (k, (n, m)), expansion in zip(terms.items(), expansions):
        for offset, s, weight in expansion:
            w = weight * scale[s]
            key = k - offset
            cur = acc.get(key)
            if cur is None:
                acc[key] = [n * w, m * w]
            else:
                cur[0] += n * w
                cur[1] += m * w
    return acc, td**top


def order_q(ctx: OrderingContext, p: CPolynomial) -> WeylElement:
    """The ordering map, linear over Q(i)."""
    _check_p(ctx, p)
    _, b, c = _q_ints(ctx.q)
    return _closed_form(WeylElement, ctx.d, p._terms, p._den, c, b)


def unorder_q(ctx: OrderingContext, w: WeylElement) -> CPolynomial:
    """Inverse of the ordering map: the closed form with -(1-q) for 1-q."""
    _check_w(ctx, w)
    _, b, c = _q_ints(ctx.q)
    return _closed_form(CPolynomial, ctx.d, w._terms, w._den, -c, b)


# ---------------------------------------------------------------------------
# Transferred sl2 triple
# ---------------------------------------------------------------------------


def cal_L(ctx: OrderingContext, w: WeylElement) -> WeylElement:
    """The transferred lowering operator: L itself, independent of q."""
    _check_w(ctx, w)
    return op_L(w)


def cal_E(ctx: OrderingContext, w: WeylElement) -> WeylElement:
    """The transferred grading operator E + 2(1-q) L."""
    _check_w(ctx, w)
    return _triple(w, *_grading_weights(ctx.q))


def cal_R(ctx: OrderingContext, w: WeylElement) -> WeylElement:
    """The transferred raising operator R + (1-q) E + (1-q)^2 L."""
    _check_w(ctx, w)
    return _triple(w, *_raising_weights(ctx.q))


def _raising_weights(q: Fraction) -> tuple:
    """(rn, en, ln, dr), ints with cal_R = (rn R + en E + ln L) / dr: for
    q = a/b and 1 - q = c/b, (b^2, bc, c^2) over b^2."""
    _, b, c = _q_ints(q)
    return b * b, b * c, c * c, b * b


def _grading_weights(q: Fraction) -> tuple:
    """(rn, en, ln, dr), ints with cal_E = (rn R + en E + ln L) / dr: for
    q = a/b and 1 - q = c/b, (0, b, 2c) over b, divided by gcd(2, b) so
    that 2(1-q) is in lowest terms."""
    _, b, c = _q_ints(q)
    g = gcd(2, b)
    return 0, b // g, 2 * c // g, b // g


def _check_p(ctx: OrderingContext, p: CPolynomial):
    if p.d != ctx.d:
        raise ModeMismatchError(f"polynomial has d={p.d}, context d={ctx.d}")


def _check_w(ctx: OrderingContext, w: WeylElement):
    if w.d != ctx.d:
        raise ModeMismatchError(f"element has d={w.d}, context d={ctx.d}")
