"""Ordering maps: special cases, factorization, inverse, transferred triple."""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylharm.ordering import (
    OrderingContext,
    apply_M,
    apply_Mplus,
    cal_E,
    cal_L,
    cal_R,
    order_q,
    ordered_monomial,
    unorder_q,
)
from weylharm.poly import CPolynomial, deriv_z, deriv_zbar
from weylharm.scalars import GaussRational
from weylharm.verify import Q_GRID, random_cpoly, random_weyl
from weylharm.weyl import (
    NormalMonomial,
    WeylElement,
    commutator,
    number_operator,
    weyl_mul,
)

# ---------------------------------------------------------------------------
# Independent oracle: full symmetrization over letter permutations
# ---------------------------------------------------------------------------


def symmetrized_monomial(d, alpha, beta):
    """Average of all orderings of the letter multiset a^alpha (a+)^beta.

    The symmetric (q = 1/2) ordering of a monomial equals its total
    symmetrization; duplicate permutations carry the correct multiset
    weights because all |word|! arrangements are averaged.
    """
    word = []
    for j in range(d):
        word += [("a", j)] * alpha[j] + [("c", j)] * beta[j]
    total = WeylElement.zero(d)
    count = 0
    for perm in itertools.permutations(word):
        w = WeylElement.one(d)
        for kind, mode in perm:
            gen = (
                WeylElement.creator(d, mode + 1)
                if kind == "c"
                else WeylElement.annihilator(d, mode + 1)
            )
            w = weyl_mul(w, gen)
        total = total + w
        count += 1
    return total.scale(Fraction(1, count))


def all_monomials(d, max_degree):
    exps = itertools.product(range(max_degree + 1), repeat=2 * d)
    for e in exps:
        if sum(e) <= max_degree:
            yield e[:d], e[d:]


# ---------------------------------------------------------------------------
# The endomorphism family
# ---------------------------------------------------------------------------


class TestEndomorphisms:
    def test_q0_left_multiplication(self):
        ctx = OrderingContext(1, Fraction(0))
        rng = random.Random(0)
        w = random_weyl(rng, 1, 4)
        a = WeylElement.annihilator(1, 1)
        assert apply_M(ctx, 1, w) == weyl_mul(a, w)
        c = WeylElement.creator(1, 1)
        assert apply_Mplus(ctx, 1, w) == weyl_mul(w, c)

    def test_m_mplus_on_unit(self):
        for q in Q_GRID:
            ctx = OrderingContext(1, q)
            got = apply_M(ctx, 1, apply_Mplus(ctx, 1, WeylElement.one(1)))
            expected = number_operator(1) + WeylElement.one(1).scale(1 - q)
            assert got == expected

    def test_commutative_family(self):
        rng = random.Random(2)
        for q in (Fraction(0), Fraction(1, 3), Fraction(1)):
            d = 2
            ctx = OrderingContext(d, q)
            w = random_weyl(rng, d, 3)
            ops = [lambda v, j=j: apply_M(ctx, j, v) for j in range(1, d + 1)]
            ops += [lambda v, j=j: apply_Mplus(ctx, j, v) for j in range(1, d + 1)]
            for f in ops:
                for g in ops:
                    assert f(g(w)) == g(f(w))

    def test_index_out_of_range(self):
        ctx = OrderingContext(2, Fraction(1, 2))
        with pytest.raises(IndexError):
            apply_M(ctx, 3, WeylElement.one(2))

    def test_mode_mismatch(self):
        from weylharm.weyl import ModeMismatchError

        ctx = OrderingContext(2, Fraction(1, 2))
        with pytest.raises(ModeMismatchError):
            order_q(ctx, CPolynomial.one(1))
        with pytest.raises(ModeMismatchError):
            cal_R(ctx, WeylElement.one(1))


# ---------------------------------------------------------------------------
# The ordering map: special cases
# ---------------------------------------------------------------------------


class TestSpecialCases:
    def test_wick_q0(self):
        # annihilators multiply in from the left: image of z^a zbar^b is
        # the normal form of a^a (a+)^b
        ctx = OrderingContext(2, Fraction(0))
        for alpha, beta in all_monomials(2, 4):
            expected = weyl_mul(
                WeylElement.monomial(2, (0, 0), alpha),
                WeylElement.monomial(2, beta, (0, 0)),
            )
            assert ordered_monomial(ctx, alpha, beta) == expected

    def test_anti_wick_q1(self):
        ctx = OrderingContext(2, Fraction(1))
        for alpha, beta in all_monomials(2, 4):
            assert ordered_monomial(ctx, alpha, beta) == WeylElement.monomial(
                2, beta, alpha
            )

    def test_symmetric_half_is_symmetrization(self):
        ctx = OrderingContext(1, Fraction(1, 2))
        for alpha, beta in all_monomials(1, 4):
            assert ordered_monomial(ctx, alpha, beta) == symmetrized_monomial(
                1, alpha, beta
            )
        ctx2 = OrderingContext(2, Fraction(1, 2))
        for alpha, beta in [((1, 0), (0, 1)), ((1, 1), (1, 0)), ((2, 0), (0, 1))]:
            assert ordered_monomial(ctx2, alpha, beta) == symmetrized_monomial(
                2, alpha, beta
            )

    def test_weyl_half_zzbar(self):
        ctx = OrderingContext(1, Fraction(1, 2))
        p = CPolynomial.monomial(1, (1,), (1,))
        expected = number_operator(1) + WeylElement.one(1).scale(Fraction(1, 2))
        assert order_q(ctx, p) == expected

    def test_linearity(self):
        rng = random.Random(3)
        ctx = OrderingContext(2, Fraction(1, 3))
        p = random_cpoly(rng, 2, 4)
        r = random_cpoly(rng, 2, 4)
        c = GaussRational(Fraction(2, 3), Fraction(-1, 2))
        assert order_q(ctx, p + r.scale(c)) == order_q(ctx, p) + order_q(
            ctx, r
        ).scale(c)


# ---------------------------------------------------------------------------
# Factorized form
# ---------------------------------------------------------------------------


def mode_factor(ctx, l, j, k):
    """The image of zbar_l^j z_l^k: the factor of the ordering map in mode l."""
    def e(n):
        return tuple(n if i == l - 1 else 0 for i in range(ctx.d))

    return ordered_monomial(ctx, e(k), e(j))


class TestBElements:
    def test_pure_annihilation_at_q0(self):
        ctx = OrderingContext(1, Fraction(0))
        for k in range(5):
            assert mode_factor(ctx, 1, 0, k) == WeylElement.monomial(1, (0,), (k,))

    def test_pure_creation(self):
        for q in Q_GRID:
            ctx = OrderingContext(1, q)
            for j in range(5):
                assert mode_factor(ctx, 1, j, 0) == WeylElement.monomial(1, (j,), (0,))

    def test_degree_one_each_at_half(self):
        ctx = OrderingContext(1, Fraction(1, 2))
        expected = number_operator(1) + WeylElement.one(1).scale(Fraction(1, 2))
        assert mode_factor(ctx, 1, 1, 1) == expected

    def test_factorization(self):
        # per-mode factors multiply to the ordering map; the creation
        # exponent of the factor in mode l is the zbar exponent beta_l
        for q in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            ctx = OrderingContext(2, q)
            for alpha, beta in all_monomials(2, 4):
                product = WeylElement.one(2)
                for l in range(1, 3):
                    product = weyl_mul(
                        product, mode_factor(ctx, l, beta[l - 1], alpha[l - 1])
                    )
                assert product == ordered_monomial(ctx, alpha, beta)

    def test_louck_biedenharn_collinearity(self):
        # at q = 1/2 and d = 1, the basis element with j creations and k
        # annihilations is collinear with sum_l a^l (a+)^j a^(k-l) / (l!(k-l)!);
        # collinearity is certified through cross-ratios of normal-form
        # coefficients so no square-root normalization is ever formed
        ctx = OrderingContext(1, Fraction(1, 2))
        for j in range(5):
            for k in range(5):
                b = mode_factor(ctx, 1, j, k)
                s = WeylElement.zero(1)
                for l in range(k + 1):
                    word = weyl_mul(
                        weyl_mul(
                            WeylElement.monomial(1, (0,), (l,)),
                            WeylElement.monomial(1, (j,), (0,)),
                        ),
                        WeylElement.monomial(1, (0,), (k - l,)),
                    )
                    s = s + word.scale(Fraction(1, factorial(l) * factorial(k - l)))
                ref = next(iter(sorted(b.terms, key=lambda m: (m.degree, m.beta))))
                cb, cs = b.terms[ref], s.terms.get(ref)
                assert cs is not None
                assert b.scale(cs) == s.scale(cb)


# ---------------------------------------------------------------------------
# The closed form against the defining operator form
# ---------------------------------------------------------------------------


def operator_form(ctx, alpha, beta):
    """M^alpha M+^beta applied to the unit, one generator at a time."""
    w = WeylElement.one(ctx.d)
    for j in range(ctx.d):
        for _ in range(beta[j]):
            w = apply_Mplus(ctx, j + 1, w)
    for j in range(ctx.d):
        for _ in range(alpha[j]):
            w = apply_M(ctx, j + 1, w)
    return w


# rationals inside and outside [0, 1], with its endpoints and midpoint drawn often
q_values = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)
q_outside = st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(
    lambda q: not 0 <= q <= 1
)


@st.composite
def monomials(draw):
    d = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * d)
    return d, draw(exps), draw(exps)


class TestClosedForm:
    @given(q_values, monomials())
    @settings(max_examples=80, deadline=None)
    def test_matches_operator_form(self, q, mono):
        d, alpha, beta = mono
        ctx = OrderingContext(d, q)
        assert ordered_monomial(ctx, alpha, beta) == operator_form(ctx, alpha, beta)

    @given(q_outside, st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trips_outside_unit_interval(self, q, seed):
        rng = random.Random(seed)
        ctx = OrderingContext(3, q)
        p = random_cpoly(rng, 3, 4)
        assert unorder_q(ctx, order_q(ctx, p)) == p
        w = random_weyl(rng, 3, 4)
        assert order_q(ctx, unorder_q(ctx, w)) == w

    def test_rejects_bad_exponents(self):
        ctx = OrderingContext(1, Fraction(1, 3))
        with pytest.raises(ValueError):
            ordered_monomial(ctx, (-1,), (2,))
        with pytest.raises(ValueError):
            ordered_monomial(ctx, (1,), (1.5,))


# ---------------------------------------------------------------------------
# Inverse and derivative relations
# ---------------------------------------------------------------------------


class TestInverse:
    def test_unit(self):
        ctx = OrderingContext(1, Fraction(2, 5))
        assert unorder_q(ctx, WeylElement.one(1)) == CPolynomial.one(1)

    def test_wick_example(self):
        ctx = OrderingContext(1, Fraction(0))
        w = weyl_mul(WeylElement.annihilator(1, 1), WeylElement.creator(1, 1))
        assert unorder_q(ctx, w) == CPolynomial.monomial(1, (1,), (1,))

    def test_round_trips_random(self):
        rng = random.Random(4)
        for q in Q_GRID:
            for d in (1, 2):
                ctx = OrderingContext(d, q)
                p = random_cpoly(rng, d, 5)
                assert unorder_q(ctx, order_q(ctx, p)) == p
                w = random_weyl(rng, d, 5)
                assert order_q(ctx, unorder_q(ctx, w)) == w

    def test_q_outside_unit_interval_accepted(self):
        ctx = OrderingContext(1, Fraction(3, 2))
        p = CPolynomial.monomial(1, (2,), (1,))
        assert unorder_q(ctx, order_q(ctx, p)) == p


class TestDerivativeRelations:
    def test_both_coordinates(self):
        rng = random.Random(5)
        for q in (Fraction(0), Fraction(1, 2), Fraction(4, 5)):
            for d in (1, 2):
                ctx = OrderingContext(d, q)
                for _ in range(5):
                    p = random_cpoly(rng, d, 4)
                    w = order_q(ctx, p)
                    for j in range(1, d + 1):
                        a = WeylElement.annihilator(d, j)
                        c = WeylElement.creator(d, j)
                        assert order_q(ctx, deriv_z(p, j)) == -commutator(c, w)
                        assert order_q(ctx, deriv_zbar(p, j)) == commutator(a, w)
                        assert order_q(
                            ctx, CPolynomial.z(d, j) * p
                        ) == apply_M(ctx, j, w)
                        assert order_q(
                            ctx, CPolynomial.zbar(d, j) * p
                        ) == apply_Mplus(ctx, j, w)


# ---------------------------------------------------------------------------
# The transferred triple against its product form
# ---------------------------------------------------------------------------


def _gens(d, j):
    return WeylElement.annihilator(d, j), WeylElement.creator(d, j)


def product_cal_R(ctx, w):
    """(1-q)^2 sum a_j w a_j+  +  q(1-q) sum (w a_j+ a_j + a_j a_j+ w)
    +  q^2 sum a_j+ w a_j, by general products."""
    q, qc = ctx.q, ctx.q_complement
    out = WeylElement.zero(ctx.d)
    for j in range(1, ctx.d + 1):
        a, c = _gens(ctx.d, j)
        out = out + weyl_mul(weyl_mul(a, w), c).scale(qc * qc)
        out = out + (
            weyl_mul(w, weyl_mul(c, a)) + weyl_mul(weyl_mul(a, c), w)
        ).scale(q * qc)
        out = out + weyl_mul(weyl_mul(c, w), a).scale(q * q)
    return out


def product_cal_L(ctx, w):
    """- sum_j [a_j, [a_j+, w]], by general products."""
    out = WeylElement.zero(ctx.d)
    for j in range(1, ctx.d + 1):
        a, c = _gens(ctx.d, j)
        out = out - commutator(a, commutator(c, w))
    return out


def product_cal_E(ctx, w):
    """d w - sum_j (1-q)(a_j [a_j+, w] - [a_j, w] a_j+)
    + q([a_j+, w] a_j - a_j+ [a_j, w]), by general products."""
    q, qc = ctx.q, ctx.q_complement
    out = w.scale(ctx.d)
    for j in range(1, ctx.d + 1):
        a, c = _gens(ctx.d, j)
        bracket_c = commutator(c, w)
        bracket_a = commutator(a, w)
        out = out - (weyl_mul(a, bracket_c) - weyl_mul(bracket_a, c)).scale(qc)
        out = out - (weyl_mul(bracket_c, a) - weyl_mul(c, bracket_a)).scale(q)
    return out


gauss = st.builds(
    GaussRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def weyl_elements(draw):
    """A WeylElement over d <= 3 modes with up to 4 terms of degree <= 5."""
    d = draw(st.integers(1, 3))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        left, exps = draw(st.integers(0, 5)), []
        for _ in range(2 * d):
            exps.append(draw(st.integers(0, left)))
            left -= exps[-1]
        exps = draw(st.permutations(exps))
        terms[NormalMonomial(tuple(exps[:d]), tuple(exps[d:]))] = draw(gauss)
    return WeylElement(d, terms)


class TestTripleClosedForm:
    @given(q_values, weyl_elements())
    @settings(max_examples=80, deadline=None)
    def test_matches_product_form(self, q, w):
        ctx = OrderingContext(w.d, q)
        assert cal_L(ctx, w) == product_cal_L(ctx, w)
        assert cal_E(ctx, w) == product_cal_E(ctx, w)
        assert cal_R(ctx, w) == product_cal_R(ctx, w)


class TestTransferredTriple:
    def test_on_unit(self):
        for q in Q_GRID:
            for d in (1, 2, 3):
                ctx = OrderingContext(d, q)
                one = WeylElement.one(d)
                assert cal_R(ctx, one) == number_operator(d) + one.scale(
                    d * (1 - q)
                )
                assert cal_L(ctx, one).is_zero()
                assert cal_E(ctx, one) == one.scale(d)

    def test_lowering_is_q_independent(self):
        rng = random.Random(6)
        w = random_weyl(rng, 2, 4)
        images = {
            q: cal_L(OrderingContext(2, q), w) for q in Q_GRID
        }
        first = next(iter(images.values()))
        assert all(img == first for img in images.values())

    def test_symmetric_case_closed_forms(self):
        # R = 1/4 sum_j {a_j, {a_j+, w}}, written out as the four products
        # a c w + a w c + c w a + w c a
        rng = random.Random(7)
        ctx = OrderingContext(2, Fraction(1, 2))
        for _ in range(5):
            w = random_weyl(rng, 2, 4)
            r_expected = WeylElement.zero(2)
            e_expected = WeylElement.zero(2)
            for j in range(1, 3):
                a = WeylElement.annihilator(2, j)
                c = WeylElement.creator(2, j)
                nested = (
                    weyl_mul(a, weyl_mul(c, w)) + weyl_mul(weyl_mul(a, w), c)
                    + weyl_mul(weyl_mul(c, w), a) + weyl_mul(w, weyl_mul(c, a))
                )
                r_expected = r_expected + nested.scale(Fraction(1, 4))
                e_expected = e_expected + (
                    weyl_mul(weyl_mul(a, w), c) - weyl_mul(weyl_mul(c, w), a)
                )
            assert cal_R(ctx, w) == r_expected
            assert cal_E(ctx, w) == e_expected
