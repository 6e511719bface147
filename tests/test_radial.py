"""Radial tower: eta, omega routes, difference operators, certificates."""

import random
from fractions import Fraction
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylharm.radial as radial
from weylharm.ordering import cal_E, cal_L, cal_R, order_q, unorder_q
from weylharm.poly import CPolynomial, is_harmonic, op_R
from weylharm.radial import (
    NotRadialError,
    RadialContext,
    apply_Rq_univariate,
    check_difference_equation,
    check_fg_recurrence,
    decompose_weyl,
    difference_triple,
    eta,
    express_in_N,
    g_poly_symmetric,
    nonorthogonality_certificate,
    omega,
    omega_by_raising,
    omega_closed_form,
    reassemble_weyl,
    three_term_coefficients,
)
from weylharm.scalars import GR_ONE, GaussRational, UniPoly
from weylharm.verify import Q_GRID, random_cpoly, random_weyl
from weylharm.weyl import NormalMonomial, TermMap, WeylElement, number_operator, weyl_mul

from shift_oracle import backward_difference, compose_shift, forward_difference
from test_poly import parts_by_component

T = UniPoly.x()
RAISING_CONTEXTS = [(1, Fraction(1, 3)), (2, Fraction(1, 3)), (2, Fraction(2, 3))]


def poly_of_N(p: UniPoly, d: int) -> WeylElement:
    """Evaluate an exact polynomial at the number operator."""
    n = number_operator(d)
    acc = WeylElement.zero(d)
    for k in range(p.degree, -1, -1):
        acc = weyl_mul(acc, n) + WeylElement.one(d).scale(p[k])
    return acc


@lru_cache(maxsize=None)
def number_power(d: int, m: int) -> WeylElement:
    """N^m over d modes as a Weyl product."""
    if m == 0:
        return WeylElement.one(d)
    return weyl_mul(number_power(d, m - 1), number_operator(d))


def express_in_N_by_peeling(w: WeylElement) -> UniPoly:
    """The Weyl-product route to `express_in_N`, kept as its oracle.

    Peels by total degree: the degree-2m part of p(N) comes only from the
    N^m term, whose coefficient can be read off the normal monomial with
    all m quanta in the first mode.  Raises NotRadialError when the
    subtraction fails to exhaust a level.
    """
    d = w.d
    out = UniPoly()
    residual = w
    while not residual.is_zero():
        deg = residual.degree()
        if deg % 2:
            raise NotRadialError("odd total degree cannot come from C[N]")
        m = deg // 2
        lead_mode = tuple(m if i == 0 else 0 for i in range(d))
        c = residual.terms.get(NormalMonomial(lead_mode, lead_mode))
        if c is None:
            raise NotRadialError("missing diagonal leading monomial")
        out = out + UniPoly([0] * m + [1]) * c
        residual = residual - number_power(d, m).scale(c)
        if not residual.is_zero() and residual.degree() >= deg:
            raise NotRadialError("element is not a polynomial of N")
    return out


def diagonal(d: int, terms: dict) -> WeylElement:
    """The Weyl element sum_beta c_beta (a+)^beta a^beta."""
    return WeylElement(d, {NormalMonomial(b, b): c for b, c in terms.items()})


N2_NORMAL = {(2, 0): 1, (1, 1): 2, (0, 2): 1}  # :N^2: at d = 2
NOT_RADIAL = [
    WeylElement.monomial(2, (1, 0), (0, 1)),  # off-diagonal
    # an off-diagonal term that fills the count and weights of level 1
    WeylElement.monomial(2, (1, 0), (1, 0)) + WeylElement.monomial(2, (0, 1), (1, 0)),
    WeylElement.monomial(1, (2,), (1,)) + number_operator(1),  # odd level
    diagonal(2, {(2, 0): 1, (1, 1): 2}),  # a diagonal monomial missing
    diagonal(2, {**N2_NORMAL, (1, 1): 1}),  # wrong multinomial weight
    diagonal(2, {**N2_NORMAL, (1, 0): 1}),  # :N^2: over a bad lower level
]

gauss = st.builds(
    GaussRational,
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


class TestEta:
    def test_eta0(self):
        ctx = RadialContext(2, Fraction(1, 3))
        assert eta(ctx, 0) == WeylElement.one(2)

    def test_eta1(self):
        for q in Q_GRID:
            for d in (1, 2, 3):
                ctx = RadialContext(d, q)
                expected = number_operator(d) + WeylElement.one(d).scale(
                    d * (1 - q)
                )
                assert eta(ctx, 1) == expected

    def test_eta2_display(self):
        # (N + t0)^2 + (1-2q)(N + t0) + q t0, with t0 = d(1-q)
        for q in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            for d in (1, 2):
                ctx = RadialContext(d, q)
                t0 = ctx.t0
                shifted = number_operator(d) + WeylElement.one(d).scale(t0)
                expected = (
                    weyl_mul(shifted, shifted)
                    + shifted.scale(1 - 2 * q)
                    + WeylElement.one(d).scale(q * t0)
                )
                assert eta(ctx, 2) == expected

    def test_cached_value_cannot_be_corrupted(self):
        ctx = RadialContext(1, Fraction(1, 2))
        before = dict(eta(ctx, 2).terms)
        with pytest.raises(AttributeError):
            eta(ctx, 2).terms.clear()
        with pytest.raises(TypeError):
            eta(ctx, 2).terms[next(iter(before))] = GR_ONE
        assert dict(eta(ctx, 2).terms) == before != {}

    def test_cached_level_builds_nothing(self, monkeypatch):
        # a lookup of a level already in the chain builds no map, not even
        # the seed a missing chain would start from
        ctx = RadialContext(2, Fraction(2, 9))
        first = eta(ctx, 3)
        built = []
        wrap = TermMap._wrap.__func__

        def counting_wrap(cls, *args):
            built.append(cls)
            return wrap(cls, *args)

        monkeypatch.setattr(TermMap, "_wrap", classmethod(counting_wrap))
        assert eta(ctx, 3) is first
        assert eta(ctx, 0) == WeylElement.one(2)
        assert built == [WeylElement]  # the one() of the line above


class TestExpressInN:
    def test_unit(self):
        assert express_in_N(WeylElement.one(3)) == UniPoly((GR_ONE,))

    def test_powers_identity(self):
        n = number_operator(2)
        assert express_in_N(weyl_mul(n, n)) == T**2

    def test_matches_omega(self):
        for q in Q_GRID + (Fraction(1, 3), Fraction(5, 2), Fraction(-2, 3)):
            for d in (1, 2, 3):
                ctx = RadialContext(d, q)
                for k in range(9):
                    w = eta(ctx, k)
                    assert express_in_N(w) == express_in_N_by_peeling(w) == omega(ctx, k)

    def test_not_radial(self):
        w = WeylElement.creator(1, 1)
        with pytest.raises(NotRadialError):
            express_in_N(w)
        # diagonal total degree but unequal cross-mode weights
        bad = WeylElement.monomial(2, (1, 0), (1, 0))
        with pytest.raises(NotRadialError):
            express_in_N(bad)
        for w in NOT_RADIAL:
            with pytest.raises(NotRadialError):
                express_in_N(w)
            with pytest.raises(NotRadialError):
                express_in_N_by_peeling(w)

    @given(st.lists(gauss, max_size=7), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_through_N(self, coeffs, d):
        p = UniPoly(coeffs)
        w = poly_of_N(p, d)
        assert express_in_N(w) == p == express_in_N_by_peeling(w)


class TestUnivariateRaising:
    def test_collapse_q0(self):
        ctx = RadialContext(1, Fraction(0))
        assert apply_Rq_univariate(ctx, UniPoly((GR_ONE,))) == T + 1

    def test_collapse_q1(self):
        for d in (1, 2, 3):
            ctx = RadialContext(d, Fraction(1))
            assert apply_Rq_univariate(ctx, UniPoly((GR_ONE,))) == T

    def test_general_constant(self):
        for q in Q_GRID:
            for d in (1, 2, 3):
                ctx = RadialContext(d, q)
                assert apply_Rq_univariate(ctx, UniPoly((GR_ONE,))) == T + d * (1 - q)

    def test_degree_raises_by_one(self):
        rng = random.Random(1)
        ctx = RadialContext(2, Fraction(1, 3))
        p = UniPoly([Fraction(rng.randint(-3, 3)) for _ in range(4)] + [1])
        assert apply_Rq_univariate(ctx, p).degree == p.degree + 1


class TestOmegaRoutes:
    def test_omega1(self):
        for q in Q_GRID:
            for d in (1, 2, 3):
                assert omega(RadialContext(d, q), 1) == T + d * (1 - q)

    def test_q0_rising_factorials(self):
        ctx = RadialContext(2, Fraction(0))
        for k in range(6):
            expected = UniPoly((GR_ONE,))
            for i in range(k):
                expected = expected * (T + 2 + i)
            assert omega(ctx, k) == expected
            assert omega_by_raising(ctx, k) == expected

    def test_q1_falling_factorials(self):
        ctx = RadialContext(3, Fraction(1))
        for k in range(6):
            expected = UniPoly((GR_ONE,))
            for i in range(k):
                expected = expected * (T - i)
            assert omega(ctx, k) == expected
            assert omega_closed_form(ctx, k) == expected

    def test_all_routes_agree(self):
        for q in Q_GRID:
            for d in (1, 2, 3):
                ctx = RadialContext(d, q)
                for k in range(13):
                    w = omega(ctx, k)
                    assert omega_by_raising(ctx, k) == w
                    assert omega_closed_form(ctx, k) == w

    def test_raising_rejects_negative_k(self):
        with pytest.raises(ValueError):
            omega_by_raising(RadialContext(1, Fraction(1, 3)), -1)

    @given(st.lists(st.tuples(st.sampled_from(RAISING_CONTEXTS), st.integers(0, 10)),
                    min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_cached_raising_chain(self, requests):
        # Interleaved requests grow the chains of contexts that must not share
        # one; each level is checked against a fresh uncached iteration.
        for (d, q), k in requests:
            ctx = RadialContext(d, q)
            fresh = UniPoly((GR_ONE,))
            for _ in range(k):
                fresh = apply_Rq_univariate(ctx, fresh)
            assert omega_by_raising(ctx, k) == fresh
            assert fresh == omega(ctx, k) == omega_closed_form(ctx, k)

    def test_chu_vandermonde_case(self):
        # q = 0, d = 1, k = 2: unit-argument Gauss series collapses
        ctx = RadialContext(1, Fraction(0))
        assert omega_closed_form(ctx, 2) == T**2 + T * 3 + 2


class TestDifferenceTriple:
    def test_lowering_kills_constants(self):
        ctx = RadialContext(2, Fraction(1, 3))
        _, low, _ = difference_triple(ctx, UniPoly((GaussRational(5),)))
        assert low.is_zero()

    def test_weight_relations(self):
        for q in Q_GRID:
            for d in (1, 2, 3):
                ctx = RadialContext(d, q)
                for k in range(1, 11):
                    wk = omega(ctx, k)
                    raise_, lower, grade = difference_triple(ctx, wk)
                    assert raise_ == omega(ctx, k + 1)
                    assert lower == omega(ctx, k - 1) * (k * (k + d - 1))
                    assert grade == wk * (2 * k + d)

    def test_raising_matches_operator_form(self):
        # the explicit-shift and difference-operator forms are one map
        rng = random.Random(2)
        for q in (Fraction(0), Fraction(2, 7), Fraction(1)):
            ctx = RadialContext(3, q)
            for _ in range(6):
                p = UniPoly([Fraction(rng.randint(-4, 4), 3) for _ in range(5)])
                raise_, _, _ = difference_triple(ctx, p)
                assert raise_ == apply_Rq_univariate(ctx, p)

    def test_grading_consistency_with_difference_equation(self):
        # grade = 2[q t backward + (1-q)(t+d) forward] + d, so the
        # difference equation is the grading eigenvalue relation
        for q in (Fraction(1, 4), Fraction(3, 4)):
            ctx = RadialContext(2, q)
            for k in range(8):
                wk = omega(ctx, k)
                _, _, grade = difference_triple(ctx, wk)
                assert grade == wk * (2 * k + ctx.d)
                assert check_difference_equation(ctx, k)


class TestDifferenceEquation:
    def test_k0(self):
        assert check_difference_equation(RadialContext(1, Fraction(1, 2)), 0)

    def test_grid(self):
        for q in Q_GRID:
            for d in (1, 2, 3):
                ctx = RadialContext(d, q)
                for k in range(11):
                    assert check_difference_equation(ctx, k)

    def test_negative_control(self):
        # perturbing omega_k must break the identity
        ctx = RadialContext(2, Fraction(1, 3))
        k = 4
        w = omega(ctx, k) + T**k
        lhs = T * backward_difference(w) * ctx.q + (T + ctx.d) * (
            forward_difference(w)
        ) * (1 - ctx.q)
        assert lhs != w * k


class TestSymmetricFamily:
    def test_g1(self):
        assert g_poly_symmetric(3, 1) == T

    def test_g2(self):
        for d in (1, 2, 3):
            assert g_poly_symmetric(d, 2) == (T**2 - d) / Fraction(2)

    def test_parity(self):
        for d in (1, 2, 3):
            for k in range(9):
                g = g_poly_symmetric(d, k)
                flipped = g.compose_linear(-1, 0)
                assert flipped == (g if k % 2 == 0 else -g)

    def test_real_coefficients(self):
        for d in (1, 4):
            for k in range(9):
                assert all(c.is_real() for c in g_poly_symmetric(d, k).coeffs)


class TestRenormalizedRecurrence:
    def test_grid(self):
        for q in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(2, 5)):
            for d in (1, 2, 3):
                assert check_fg_recurrence(RadialContext(d, q), 10)

    def test_rejects_degenerate_q(self):
        for q in (0, 1):
            with pytest.raises(ValueError, match=r"alpha is undefined for q in \{0, 1\}"):
                check_fg_recurrence(RadialContext(1, Fraction(q)), 3)

    def test_equivalent_to_three_term_recurrence(self):
        # the pulled-back identity is the recurrence in disguise: check
        # that it reproduces the omega recurrence step exactly
        q, d = Fraction(1, 3), 2
        ctx = RadialContext(d, q)
        for k in range(6):
            nxt = (T + ctx.t0 - (2 * q - 1) * (k + 1)) * omega(ctx, k + 1) + omega(
                ctx, k
            ) * (q * (1 - q) * (k + 1) * (k + d))
            assert nxt == omega(ctx, k + 2)


class TestCertificate:
    def test_boundary_q0(self):
        assert nonorthogonality_certificate(
            RadialContext(2, Fraction(0)), 3
        ) == GaussRational(0)

    def test_half_d1_k1(self):
        cert = nonorthogonality_certificate(RadialContext(1, Fraction(1, 2)), 1)
        assert cert == GaussRational(Fraction(-1, 4))

    def test_grid_sign_and_value(self):
        for q in Q_GRID:
            for d in (1, 2, 3):
                ctx = RadialContext(d, q)
                for k in range(1, 11):
                    cert = nonorthogonality_certificate(ctx, k)
                    assert cert == GaussRational(-q * (1 - q) * k * (k + d - 1))
                    assert cert.is_real() and Fraction(cert.re) <= 0

    def test_extraction_structure(self):
        ctx = RadialContext(3, Fraction(2, 5))
        a, b, c = three_term_coefficients(ctx, 4)
        assert a == GaussRational(1)
        assert b == GaussRational(ctx.t0 - (2 * ctx.q - 1) * 4)
        assert c == GaussRational(-ctx.q * (1 - ctx.q) * 4 * (4 + 2))


class TestPullThrough:
    def test_random_polynomials(self):
        rng = random.Random(3)
        for d in (1, 2):
            n = number_operator(d)
            for _ in range(6):
                p = UniPoly([Fraction(rng.randint(-3, 3), 2) for _ in range(4)])
                pn = poly_of_N(p, d)
                pn_up = poly_of_N(compose_shift(p, 1), d)
                pn_down = poly_of_N(compose_shift(p, -1), d)
                for j in range(1, d + 1):
                    a = WeylElement.annihilator(d, j)
                    c = WeylElement.creator(d, j)
                    assert weyl_mul(a, pn) == weyl_mul(pn_up, a)
                    assert weyl_mul(c, pn) == weyl_mul(pn_down, c)


class TestWeylWeightBasis:
    def test_full_weyl_action(self):
        for q in Q_GRID:
            for d in (1, 2, 3):
                ctx = RadialContext(d, q)
                for k in range(6):
                    ek = eta(ctx, k)
                    assert cal_R(ctx, ek) == eta(ctx, k + 1)
                    assert cal_E(ctx, ek) == ek.scale(2 * k + d)
                    lowered = cal_L(ctx, ek)
                    if k == 0:
                        assert lowered.is_zero()
                    else:
                        assert lowered == eta(ctx, k - 1).scale(k * (k + d - 1))


class TestWeylHarmonics:
    def test_unit_is_harmonic(self):
        assert is_harmonic(WeylElement.one(2))

    def test_ordered_harmonic_polynomials(self):
        p = CPolynomial.z(1, 1) ** 2  # z^2 is harmonic
        for q in Q_GRID:
            ctx = RadialContext(1, q)
            assert is_harmonic(order_q(ctx, p))

    def test_number_operator_is_not(self):
        assert not is_harmonic(number_operator(1))

    def test_decompose_round_trip(self):
        rng = random.Random(4)
        for q in Q_GRID:
            for d in (1, 2):
                ctx = RadialContext(d, q)
                for _ in range(4):
                    w = random_weyl(rng, d, 5)
                    parts = decompose_weyl(ctx, w)
                    assert all(is_harmonic(h) for _, h in parts)
                    assert reassemble_weyl(ctx, parts) == w


def decompose_by_components(ctx, w):
    """The loop `decompose_weyl` replaced, on the per-component peel of the
    polynomial tests: pull w back, peel each homogeneous component, regroup
    by radial power."""
    return sorted(parts_by_component(unorder_q(ctx, w)).items())


def reassemble_by_loop(ctx, parts):
    """The loop `reassemble_weyl` replaced, kept as its oracle: each part
    ordered and raised k times on its own, then summed."""
    out = WeylElement.zero(ctx.d)
    for k, h in parts:
        w = order_q(ctx, h)
        for _ in range(k):
            w = cal_R(ctx, w)
        out = out + w
    return out


def reassemble_by_steps(ctx, parts):
    """Horner's rule on whole elements, one `cal_R` and one `+` per step:
    the step-by-step form of `reassemble_weyl`, kept as its oracle for
    the order of the keys and for where a raise is refused."""
    parts = sorted(parts, key=lambda part: part[0], reverse=True)
    out = WeylElement.zero(ctx.d)
    level = parts[0][0] if parts else 0
    for k, h in parts:
        for _ in range(level - k):
            out = cal_R(ctx, out)
        level = k
        out = out + order_q(ctx, h)
    for _ in range(level):
        out = cal_R(ctx, out)
    return out


DECOMPOSE_QS = Q_GRID + (Fraction(1, 3), Fraction(5, 2), Fraction(-2, 3))
REASSEMBLE_QS = (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(5, 2), Fraction(-2, 3))


class TestDecomposeOnTheChain:
    @given(st.integers(1, 3), st.integers(0, 8), st.sampled_from(DECOMPOSE_QS),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_decompose_against_the_component_loop(self, d, deg, q, seed):
        ctx = RadialContext(d, q)
        w = random_weyl(random.Random(seed), d, deg)
        parts = decompose_weyl(ctx, w)
        assert parts == decompose_by_components(ctx, w)
        assert reassemble_weyl(ctx, parts) == w

    @given(st.integers(1, 3), st.sampled_from(DECOMPOSE_QS),
           st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2**32 - 1)), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_reassemble_against_the_loop(self, d, q, drawn):
        # parts in any order, k repeated, and h not necessarily harmonic
        ctx = RadialContext(d, q)
        parts = [(k, random_cpoly(random.Random(seed), d, 4)) for k, seed in drawn]
        assert reassemble_weyl(ctx, parts) == reassemble_by_loop(ctx, parts)

    def test_reassemble_raises_once_per_power_below_the_top(self, monkeypatch):
        # one fused raising step per power below the top: K = 4 here
        calls = []
        real = radial._triple_acc
        monkeypatch.setattr(radial, "_triple_acc",
                            lambda *args: calls.append(args[2:]) or real(*args))
        ctx = RadialContext(2, Fraction(1, 3))
        h = CPolynomial.z(2, 1) * CPolynomial.zbar(2, 2)
        parts = [(1, h), (4, h), (0, h), (4, h.scale(3))]
        assert reassemble_weyl(ctx, parts) == reassemble_by_loop(ctx, parts)
        # cal_R's weights at q = 1/3 over b^2 = 9: 9 R + 6 E + 4 L
        assert calls == [(9, 6, 4)] * 4

    @pytest.mark.parametrize("q", REASSEMBLE_QS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fused_reassembly_matches_both_loops(self, d, q):
        # parts unsorted, with repeated k and zero parts; the key order is
        # that of the step-by-step Horner loop
        ctx = RadialContext(d, q)
        rng = random.Random(d * 100 + REASSEMBLE_QS.index(q))
        zero = CPolynomial.zero(d)
        cases = [[], [(0, zero)], [(3, zero), (1, zero)], [(2, CPolynomial.one(d))]]
        for _ in range(12):
            cases.append([(rng.randint(0, 4), random_cpoly(rng, d, rng.randint(0, 4)))
                          for _ in range(rng.randint(1, 5))])
            cases[-1].insert(rng.randint(0, len(cases[-1])), (rng.randint(0, 4), zero))
        h = random_cpoly(rng, d, 3)
        # a part that cancels a later one of the same k, and one cancelled
        # after a raise
        cases.append([(2, h), (1, h), (2, -h)])
        cases.append([(1, h), (0, -op_R(h))])
        assert reassemble_weyl(ctx, cases[-1]).is_zero()
        for parts in cases:
            got = reassemble_weyl(ctx, parts)
            steps = reassemble_by_steps(ctx, parts)
            assert got == steps == reassemble_by_loop(ctx, parts)
            assert list(got._terms) == list(steps._terms)

    def test_reassembly_refuses_a_raise_past_the_exponent_bound(self):
        top = CPolynomial.monomial(1, (2**31 - 1,), (0,))
        for q in REASSEMBLE_QS:
            ctx = RadialContext(1, q)
            for parts in ([(1, top)], [(0, CPolynomial.one(1)), (2, top.scale(5))]):
                for reassemble in (reassemble_weyl, reassemble_by_steps, reassemble_by_loop):
                    with pytest.raises(ValueError, match="raising would reach the exponent "
                                                         "bound 2\\^31"):
                        reassemble(ctx, parts)
            # not raised at k = 0
            assert reassemble_weyl(ctx, [(0, top)]) == order_q(ctx, top)

    def test_reassembly_raises_past_a_cancelled_key(self):
        # the key at 2^31 - 1 cancels before the raise, so, as in the loop of
        # `cal_R` and `+`, nothing refuses it; z1 is what remains
        top = CPolynomial.monomial(1, (2**31 - 1,), (0,))
        z = CPolynomial.z(1, 1)
        for q in REASSEMBLE_QS:
            ctx = RadialContext(1, q)
            parts = [(1, top), (1, z - top)]
            got = reassemble_weyl(ctx, parts)
            assert got == reassemble_by_steps(ctx, parts) == cal_R(ctx, order_q(ctx, z))

    def test_reassemble_refuses_negative_powers(self):
        ctx = RadialContext(1, Fraction(1, 2))
        with pytest.raises(ValueError):
            reassemble_weyl(ctx, [(0, CPolynomial.one(1)), (-1, CPolynomial.one(1))])
        assert reassemble_weyl(ctx, []) == WeylElement.zero(1)


def test_eta_size_bound_is_the_field_count():
    # 2d(C(k + d + 1, d + 1) + d) fields, with the binomial grown factor by
    # factor: refused exactly above ETA_FIELDS_MAX, also for a k or d whose
    # binomial would take long to compute in full
    for d in range(1, 40):
        for k in range(0, 720):
            fields = 2 * d * (comb(k + d + 1, d + 1) + d)
            if fields > radial.ETA_FIELDS_MAX:
                with pytest.raises(ValueError, match="exponent fields"):
                    radial._check_eta_size(d, k)
                break
            radial._check_eta_size(d, k)
    for d, k in ((1, 10**4000), (10**9, 0), (2, 10**18), (10**18, 10**18)):
        with pytest.raises(ValueError, match="exponent fields"):
            radial._check_eta_size(d, k)


def test_eta_bound_is_checked_before_the_chain(monkeypatch):
    # a refused size builds nothing, not even the unit of d modes
    def no_chain(*args):
        raise AssertionError("the chain was read")

    monkeypatch.setattr(radial, "_eta_chain", no_chain)
    for d, k in ((1, 706), (10**9, 0)):
        with pytest.raises(ValueError, match="exponent fields"):
            eta(RadialContext(d, Fraction(1, 2)), k)
