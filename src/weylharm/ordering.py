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
(`weyl.contractions`) scaled by (1-q)^|i|.  The inverse is the same sum
with -(1-q) in place of 1-q.  `apply_M` and `apply_Mplus` keep the
defining operator form as an independent check of both.

The transferred sl2 triple (`cal_R`, `cal_L`, `cal_E`) makes the ordering
map an intertwiner for the classical triple on polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import CMonomial, CPolynomial
from .weyl import (
    ModeMismatchError,
    NormalMonomial,
    WeylElement,
    _check_mode,
    check_exponents,
    commutator,
    contractions,
    weyl_mul,
)


@dataclass(frozen=True)
class OrderingContext:
    """Mode count and exact ordering parameter.

    q may be any rational; values outside [0, 1] are accepted but the
    standard verification grids only sample inside.
    """

    d: int
    q: Fraction

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("mode count d must be >= 1")
        object.__setattr__(self, "q", Fraction(self.q))

    @property
    def q_complement(self) -> Fraction:
        return 1 - self.q


def _gen_pair(ctx: OrderingContext, j: int):
    return (
        WeylElement.annihilator(ctx.d, j),
        WeylElement.creator(ctx.d, j),
    )


def apply_M(ctx: OrderingContext, j: int, w: WeylElement) -> WeylElement:
    """(1-q) a_j w + q w a_j."""
    _check_w(ctx, w)
    a, _ = _gen_pair(ctx, j)
    return weyl_mul(a, w).scale(ctx.q_complement) + weyl_mul(w, a).scale(ctx.q)


def apply_Mplus(ctx: OrderingContext, j: int, w: WeylElement) -> WeylElement:
    """q a_j+ w + (1-q) w a_j+."""
    _check_w(ctx, w)
    _, c = _gen_pair(ctx, j)
    return weyl_mul(c, w).scale(ctx.q) + weyl_mul(w, c).scale(ctx.q_complement)


def _contracted(alpha: tuple, beta: tuple, t: Fraction):
    """(alpha - i, beta - i, weight * t^|i|) over the contractions i of
    a^alpha (a+)^beta, with the Wick weights of `contractions`."""
    for ivec, weight in contractions(alpha, beta):
        yield (
            tuple(a - i for a, i in zip(alpha, ivec)),
            tuple(b - i for b, i in zip(beta, ivec)),
            weight * t ** sum(ivec),
        )


def ordered_monomial(ctx: OrderingContext, alpha, beta) -> WeylElement:
    """Image of z^alpha zbar^beta under the ordering map, in closed form."""
    alpha, beta = tuple(alpha), tuple(beta)
    check_exponents(alpha, beta)
    return WeylElement(ctx.d, {
        NormalMonomial(b, a): c
        for a, b, c in _contracted(alpha, beta, ctx.q_complement)
    })


def _closed_form(terms, t: Fraction, key) -> dict:
    """sum over terms of coeff * (the closed form of its monomial with 1-q
    replaced by t), as a dict keyed by ``key(alpha, beta)``."""
    acc: dict = {}
    for mono, coeff in terms.items():
        for a, b, c in _contracted(mono.alpha, mono.beta, t):
            k = key(a, b)
            cur = acc.get(k)
            acc[k] = coeff * c if cur is None else cur + coeff * c
    return acc


def order_q(ctx: OrderingContext, p: CPolynomial) -> WeylElement:
    """The ordering map, linear over Q(i)."""
    if p.d != ctx.d:
        raise ModeMismatchError(f"polynomial has d={p.d}, context d={ctx.d}")
    return WeylElement(ctx.d, _closed_form(
        p.terms, ctx.q_complement, lambda a, b: NormalMonomial(b, a)
    ))


def b_element(ctx: OrderingContext, l: int, j: int, k: int) -> WeylElement:
    """Normal form of sum_s C(k,s) q^(k-s) (1-q)^s a_l^s (a_l+)^j a_l^(k-s).

    This is the single-mode building block of the factorized ordering map:
    the image of a degree-(j, k) monomial in mode l with j counting
    creations and k annihilations.  The image of z^alpha zbar^beta
    factorizes as the product over modes of b_element(l, beta_l, alpha_l).
    """
    if j < 0 or k < 0:
        raise ValueError("exponents must be nonnegative")
    _check_mode(ctx.d, l)
    e = tuple(1 if i == l - 1 else 0 for i in range(ctx.d))
    return ordered_monomial(ctx, tuple(k * x for x in e), tuple(j * x for x in e))


def unorder_q(ctx: OrderingContext, w: WeylElement) -> CPolynomial:
    """Inverse of the ordering map: the closed form with -(1-q) for 1-q."""
    _check_w(ctx, w)
    return CPolynomial(ctx.d, _closed_form(w.terms, -ctx.q_complement, CMonomial))


# ---------------------------------------------------------------------------
# Transferred sl2 triple
# ---------------------------------------------------------------------------


def cal_R(ctx: OrderingContext, w: WeylElement) -> WeylElement:
    """(1-q)^2 sum a_j w a_j+  +  q(1-q) sum (w a_j+ a_j + a_j a_j+ w)
    +  q^2 sum a_j+ w a_j."""
    _check_w(ctx, w)
    q, qc = ctx.q, ctx.q_complement
    out = WeylElement.zero(ctx.d)
    for j in range(1, ctx.d + 1):
        a, c = _gen_pair(ctx, j)
        out = out + weyl_mul(weyl_mul(a, w), c).scale(qc * qc)
        out = out + (
            weyl_mul(w, weyl_mul(c, a)) + weyl_mul(weyl_mul(a, c), w)
        ).scale(q * qc)
        out = out + weyl_mul(weyl_mul(c, w), a).scale(q * q)
    return out


def cal_L(ctx: OrderingContext, w: WeylElement) -> WeylElement:
    """- sum_j [a_j, [a_j+, w]]; independent of q."""
    _check_w(ctx, w)
    out = WeylElement.zero(ctx.d)
    for j in range(1, ctx.d + 1):
        a, c = _gen_pair(ctx, j)
        out = out - commutator(a, commutator(c, w))
    return out


def cal_E(ctx: OrderingContext, w: WeylElement) -> WeylElement:
    """The transferred symmetrized Euler operator."""
    _check_w(ctx, w)
    q, qc = ctx.q, ctx.q_complement
    out = w.scale(ctx.d)
    for j in range(1, ctx.d + 1):
        a, c = _gen_pair(ctx, j)
        bracket_c = commutator(c, w)
        bracket_a = commutator(a, w)
        out = out - (
            weyl_mul(a, bracket_c) - weyl_mul(bracket_a, c)
        ).scale(qc)
        out = out - (
            weyl_mul(bracket_c, a) - weyl_mul(c, bracket_a)
        ).scale(q)
    return out


def _check_w(ctx: OrderingContext, w: WeylElement):
    if w.d != ctx.d:
        raise ModeMismatchError(f"element has d={w.d}, context d={ctx.d}")
