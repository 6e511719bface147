"""Terminating hypergeometric machinery and the named families."""

import sys
from fractions import Fraction
from itertools import zip_longest
from math import factorial

import pytest

import weylharm.radial as radial
import weylharm.specfun as specfun
from weylharm import clear_caches
from weylharm.radial import RadialContext, g_poly_symmetric, omega_closed_form
from weylharm.scalars import GR_I, GR_ONE, GaussRational, UniPoly, _parts
from weylharm.specfun import (
    InvalidParameterError,
    _MINUS_T_KEY,
    _lower,
    _plus_y,
    _rising_chain,
    _rising_levels,
    _series,
    continuous_hahn_poly,
    gauss_contiguous_check,
    hyp2F1_terminating_poly,
    hyp2f1_3f2_connection_check,
    krawtchouk_meixner_check,
    krawtchouk_poly,
    meixner_pollaczek_poly,
    meixner_poly,
    pochhammer,
)

T = UniPoly.x()


class TestPochhammer:
    def test_empty(self):
        assert pochhammer(Fraction(7, 3), 0) == GR_ONE

    def test_recursive_step(self):
        base = Fraction(5, 2)
        for k in range(5):
            assert pochhammer(base, k + 1) == pochhammer(base, k) * (base + k)

    def test_poly_base(self):
        assert pochhammer(T, 3) == T * (T + 1) * (T + 2)


class TestGaussSeries:
    def test_k0(self):
        assert hyp2F1_terminating_poly(0, Fraction(3), Fraction(7)) == UniPoly(
            (GR_ONE,)
        )

    def test_k1_matches_omega1(self):
        # (d)_1 (1-q) [1 + t/(d(1-q))] = t + (1-q)d
        for d in (1, 2, 3):
            for q in (Fraction(0), Fraction(1, 4), Fraction(2, 3)):
                series = hyp2F1_terminating_poly(1, Fraction(d), 1 / (1 - q))
                assert series * (d * (1 - q)) == T + d * (1 - q)

    def test_chu_vandermonde_unit_argument(self):
        # 2F1(-t, -k, d; 1) = (d+t)_k / (d)_k
        for d in (1, 2, 4):
            for k in range(6):
                series = hyp2F1_terminating_poly(k, Fraction(d), Fraction(1))
                expected = pochhammer(T + d, k) / pochhammer(Fraction(d), k)
                assert series == expected

    def test_degree_is_k_for_nonzero_argument(self):
        p = hyp2F1_terminating_poly(5, Fraction(2), Fraction(3, 2))
        assert p.degree == 5
        assert not p.leading_coefficient().is_zero()

    def test_pole_rejected(self):
        with pytest.raises(InvalidParameterError):
            hyp2F1_terminating_poly(4, Fraction(-2), Fraction(1, 2))

    def test_matches_omega_closed_form(self):
        ctx = RadialContext(2, Fraction(1, 4))
        series = hyp2F1_terminating_poly(3, Fraction(2), Fraction(4, 3))
        assert series * (
            pochhammer(Fraction(2), 3) * Fraction(3, 4) ** 3
        ) == omega_closed_form(ctx, 3)


class TestContiguous:
    def test_grid(self):
        for k in range(1, 9):
            for c in (1, 2, 3, 4):
                assert gauss_contiguous_check(k, Fraction(c), Fraction(2))

    def test_unit_argument_boundary(self):
        for k in range(1, 6):
            assert gauss_contiguous_check(k, Fraction(3), Fraction(1))

    def test_negative_control(self):
        # same combination with one coefficient disturbed cannot vanish
        k, c, x = 3, Fraction(2), Fraction(2)
        f_k = hyp2F1_terminating_poly(k, c, x)
        f_next = hyp2F1_terminating_poly(k + 1, c, x)
        f_prev = hyp2F1_terminating_poly(k - 1, c, x)
        lhs = (T * (-x) + (-2 * k - c + k * x + 1)) * f_k
        lhs = lhs + f_next * (c + k) + f_prev * (-k * (x - 1))
        assert not lhs.is_zero()


class TestContinuousHahn:
    def test_k0(self):
        assert continuous_hahn_poly(0, 1, 1, 1, 1) == UniPoly((GR_ONE,))

    def test_k1_symmetric_parameters_d1(self):
        # with the symmetric parameter set at d = 1 the k = 1 element is
        # proportional to x and reproduces g_1 = lambda under x = lambda/4
        a = Fraction(1, 4)
        b = Fraction(3, 4)
        p1 = continuous_hahn_poly(1, a, b, a, b)
        scaled = p1.compose_linear(Fraction(1, 4), 0)
        factor = pochhammer(Fraction(1), 1) / (
            pochhammer(Fraction(1, 2), 1) * pochhammer(Fraction(1), 1)
        )
        assert scaled * factor == g_poly_symmetric(1, 1)

    def test_degree_and_leading(self):
        for k in range(6):
            p = continuous_hahn_poly(k, Fraction(1, 2), 1, Fraction(1, 2), 1)
            assert p.degree == k
            assert not p.leading_coefficient().is_zero()

    def test_identification_with_g(self):
        for d in (1, 2, 3, 4):
            a = Fraction(d, 4)
            b = a + Fraction(1, 2)
            for k in range(9):
                p = continuous_hahn_poly(k, a, b, a, b)
                factor = pochhammer(Fraction(d), k) / (
                    pochhammer(Fraction(d, 2), k)
                    * pochhammer(Fraction(d, 2) + Fraction(1, 2), k)
                )
                assert p.compose_linear(Fraction(1, 4), 0) * factor == (
                    g_poly_symmetric(d, k)
                )

    def test_real_for_symmetric_parameters(self):
        p = continuous_hahn_poly(4, Fraction(3, 4), Fraction(5, 4),
                                 Fraction(3, 4), Fraction(5, 4))
        assert all(c.is_real() for c in p.coeffs)


class TestMeixnerPollaczek:
    def test_n0(self):
        assert meixner_pollaczek_poly(0, Fraction(1, 2)) == UniPoly((GR_ONE,))

    def test_identification_with_g(self):
        for d in (1, 2, 3, 4):
            for k in range(9):
                mp = meixner_pollaczek_poly(k, Fraction(d, 2))
                factor = pochhammer(Fraction(d), k) / Fraction(
                    __import__("math").factorial(k)
                )
                assert mp.compose_linear(Fraction(1, 2), 0) * factor == (
                    g_poly_symmetric(d, k)
                )

    def test_connection_formula(self):
        for n in range(9):
            for a in (Fraction(1, 2), Fraction(1), Fraction(3, 4)):
                assert hyp2f1_3f2_connection_check(n, a)


class TestKrawtchoukMeixner:
    def test_trivial_k0(self):
        assert krawtchouk_meixner_check(0, Fraction(1, 2), 2)

    def test_grid(self):
        for k in range(9):
            for q in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                for d in (1, 2, 3):
                    assert krawtchouk_meixner_check(k, q, d)

    def test_wrong_parameter_fails(self):
        q, d, k = Fraction(1, 4), 2, 3
        gauss = hyp2F1_terminating_poly(k, Fraction(d), 1 / (1 - q))
        wrong = meixner_poly(k, d, -q / (1 - q))
        assert gauss != wrong

    def test_degenerate_q_rejected(self):
        with pytest.raises(InvalidParameterError):
            krawtchouk_meixner_check(2, Fraction(0), 1)


def parts(p):
    """The canonical parts of a UniPoly."""
    return p._re, p._im, p._den


# ---------------------------------------------------------------------------
# The series against a plain-Fraction oracle, and the rising-factorial chain
# ---------------------------------------------------------------------------


def fraction_series(uppers, lowers, arg, nterms, pre=(1, 0)):
    """The oracle: every term built from scratch on lists of (re, im)
    Fraction pairs, constant first, and times the prefactor ``pre``, with
    no package arithmetic at all; UniPoly and GaussRational inputs are
    only read, and a polynomial upper may also be given as such a list."""
    zero = Fraction(0)

    def pairs(x):
        if isinstance(x, list):
            return list(x)
        if isinstance(x, UniPoly):
            return [(c.re, c.im) for c in x.coeffs] or [(zero, zero)]
        if isinstance(x, GaussRational):
            return [(x.re, x.im)]
        return [(Fraction(x), zero)]

    def mul(p, q):
        out = [(zero, zero)] * (len(p) + len(q) - 1)
        for i, (a, b) in enumerate(p):
            for j, (c, d) in enumerate(q):
                re, im = out[i + j]
                out[i + j] = (re + a * c - b * d, im + a * d + b * c)
        return out

    (arg_re, arg_im), = pairs(arg)
    total = [(zero, zero)]
    for j in range(nterms):
        term = [(Fraction(1), zero)]
        for u in uppers:
            for m in range(j):
                shifted = pairs(u)
                shifted[0] = (shifted[0][0] + m, shifted[0][1])
                term = mul(term, shifted)
        scale = Fraction(1, factorial(j))
        for low in lowers:
            for m in range(j):
                scale /= Fraction(low) + m
        for _ in range(j):
            term = mul(term, [(arg_re, arg_im)])
        term = mul(term, [(scale * pre[0], scale * pre[1])])
        total = [(a + c, b + d) for (a, b), (c, d) in
                 zip_longest(total, term, fillvalue=(zero, zero))]
    while total and total[-1] == (zero, zero):
        total.pop()
    return total


def fraction_pairs(p):
    """The coefficients of a UniPoly as (re, im) Fraction pairs."""
    return [(c.re, c.im) for c in p.coeffs]


def kernel_series(uppers, lowers, arg, nterms, pre=GR_ONE):
    """`_series` on exact inputs: each scalar upper a real Fraction, each
    polynomial upper a real UniPoly, read as the ints the kernel takes."""
    scalars = [(Fraction(u).numerator, Fraction(u).denominator)
               for u in uppers if not isinstance(u, UniPoly)]
    polys = tuple(parts(u) for u in uppers if isinstance(u, UniPoly))
    return _series(scalars, polys, [_parts(low) for low in lowers], _parts(arg), nterms,
                   _parts(pre))


A_PLUS_IX = UniPoly((Fraction(3, 4), GR_I))
A_PLUS_Y = UniPoly((Fraction(3, 4), 1))
ORACLE_GRID = [
    # (uppers, lowers, arg): the -k upper, and the zero upper of the last
    # case, stop the sum early once nterms > k + 1, and nterms = 1 is the
    # bare first term; only the argument may be complex
    ([-T, Fraction(-4)], [Fraction(3)], Fraction(4, 3)),
    ([-T, Fraction(-3)], [Fraction(1, 2)], GaussRational(1, -2)),
    ([Fraction(-5), Fraction(1, 3), A_PLUS_Y], [Fraction(5, 2)],
     GaussRational(Fraction(1, 2), Fraction(1, 3))),
    ([Fraction(-4), A_PLUS_Y, -T], [Fraction(2), Fraction(7, 3)], 1),
    ([A_PLUS_Y, UniPoly((1, 2, Fraction(1, 2)))], [Fraction(-9, 2)], Fraction(-2, 5)),
    ([Fraction(0), T], [], Fraction(3)),
]


@pytest.mark.parametrize("case", range(len(ORACLE_GRID)))
@pytest.mark.parametrize("nterms", [1, 2, 4, 7])
def test_series_matches_fraction_oracle(case, nterms):
    uppers, lowers, arg = ORACLE_GRID[case]
    expected = fraction_series(uppers, lowers, arg, nterms)
    assert fraction_pairs(kernel_series(uppers, lowers, arg, nterms)) == expected


def test_series_is_exact_sum_of_k_plus_one_terms():
    # structurally terminating: the (-k) upper factor zeroes everything
    # past term k, so adding more requested terms changes nothing
    args = ([-T, Fraction(-3)], [Fraction(2)], Fraction(5, 7))
    assert kernel_series(*args, 4) == kernel_series(*args, 9)


# (uppers, lowers, arg, prefactor) for each branch of `_series`'s term sum,
# on the real levels of real polynomial uppers: a complex weight s_j (a
# complex argument or prefactor), and a real weight
SERIES_BRANCHES = {
    "real level, complex weight": (
        [-T, Fraction(1, 3), Fraction(-5)], [Fraction(3)],
        GaussRational(Fraction(5, 7), 2), GaussRational(Fraction(-1, 6), 1)),
    "real level, real weight": (
        [-T, UniPoly((Fraction(1, 2), 3)), Fraction(-4)], [Fraction(-9, 2)],
        Fraction(4, 3), GaussRational(Fraction(7, 9))),
}


@pytest.mark.parametrize("branch", sorted(SERIES_BRANCHES))
@pytest.mark.parametrize("nterms", [1, 2, 5, 8])
def test_series_branches_match_fraction_oracle(branch, nterms):
    uppers, lowers, arg, pre = SERIES_BRANCHES[branch]
    # the case takes the branch it is named for
    assert bool(_parts(arg)[1] or _parts(pre)[1]) == branch.endswith("complex weight")
    got = kernel_series(uppers, lowers, arg, nterms, pre)
    assert fraction_pairs(got) == fraction_series(uppers, lowers, arg, nterms,
                                                  (pre.re, pre.im))


def test_warm_chain_gives_the_cold_parts():
    def series(k):
        return parts(continuous_hahn_poly(k, Fraction(3, 4), Fraction(5, 4),
                                          Fraction(-2, 3), 2))

    series(12)
    warm = series(3)
    clear_caches()
    assert series(3) == warm


def test_chain_levels_are_rising_factorial_products():
    uppers = (-T, A_PLUS_IX)
    levels = _rising_levels(tuple(parts(u) for u in uppers), 7)
    for j, level in enumerate(levels[:7]):
        expected = UniPoly((1,))
        for u in uppers:
            for m in range(j):
                expected = expected * (u + m)
        assert parts(level) == parts(expected)


def test_chain_levels_are_immutable():
    level = _rising_levels((_MINUS_T_KEY,), 3)[2]
    with pytest.raises(AttributeError):
        level._re = (0,)
    with pytest.raises(TypeError):
        level._re[0] = 1
    assert parts(_rising_levels((_MINUS_T_KEY,), 3)[2]) == parts(T * (T - 1))


def test_real_gauss_rational_lower_is_read_as_its_fraction():
    assert parts(hyp2F1_terminating_poly(2, GaussRational(1), 2)) == parts(
        hyp2F1_terminating_poly(2, Fraction(1), 2))
    with pytest.raises(InvalidParameterError, match="hits zero at term 2"):
        hyp2F1_terminating_poly(3, GaussRational(-1), 2)


def test_complex_lower_is_refused():
    with pytest.raises(InvalidParameterError, match="must be real"):
        hyp2F1_terminating_poly(2, GaussRational(1, 1), 2)


@pytest.mark.parametrize("make, name", [
    (lambda: krawtchouk_poly(2, 0, 3), "p"),
    (lambda: meixner_poly(2, 3, 0), "c"),
])
def test_zero_krawtchouk_p_and_meixner_c_are_refused(make, name):
    with pytest.raises(InvalidParameterError, match=f"parameter {name} must be nonzero"):
        make()


# ---------------------------------------------------------------------------
# The named families and the radial closed form against the Fraction oracle
# ---------------------------------------------------------------------------


def rising(x, n):
    """(x)_n on Fractions."""
    out = Fraction(1)
    for m in range(n):
        out *= x + m
    return out


def i_power(k, r):
    """i^k r as an (re, im) pair."""
    re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[k % 4]
    return re * r, im * r


MINUS_T_PAIRS = [(0, 0), (-1, 0)]


def plus_ix_pairs(a):
    return [(a, 0), (0, 1)]


def hahn_oracle(k, a, b, c, d):
    prefactor = rising(a + c, k) * rising(a + d, k) / factorial(k)
    return fraction_series([-k, k + a + b + c + d - 1, plus_ix_pairs(a)], [a + c, a + d],
                           1, k + 1, i_power(k, prefactor))


def meixner_pollaczek_oracle(n, a):
    return fraction_series([-n, plus_ix_pairs(a)], [2 * a], 2, n + 1, i_power(n, 1))


def krawtchouk_oracle(k, p, n_par):
    return fraction_series([-k, MINUS_T_PAIRS], [-n_par], 1 / p, k + 1)


def meixner_oracle(k, beta, c):
    return fraction_series([-k, MINUS_T_PAIRS], [beta], 1 - 1 / c, k + 1)


def omega_oracle(k, d, q):
    return fraction_series([MINUS_T_PAIRS, -k], [d], 1 / (1 - q), k + 1,
                           (rising(Fraction(d), k) * (1 - q) ** k, 0))


F = Fraction
FAMILY_GRID = [
    # (family, oracle, parameters): symmetric, negative and non-half-integer,
    # and integer parameters; q > 1 makes 1 - q negative
    (continuous_hahn_poly, hahn_oracle, (F(3, 4), F(5, 4), F(3, 4), F(5, 4))),
    (continuous_hahn_poly, hahn_oracle, (F(-2, 3), F(2, 5), F(7, 3), F(-1, 7))),
    (continuous_hahn_poly, hahn_oracle, (F(2), F(-5), F(1), F(3))),
    (meixner_pollaczek_poly, meixner_pollaczek_oracle, (F(1, 2),)),
    (meixner_pollaczek_poly, meixner_pollaczek_oracle, (F(-2, 3),)),
    (meixner_pollaczek_poly, meixner_pollaczek_oracle, (F(3),)),
    (krawtchouk_poly, krawtchouk_oracle, (F(1, 3), F(20))),
    (krawtchouk_poly, krawtchouk_oracle, (F(-5, 2), F(-7, 3))),
    (meixner_poly, meixner_oracle, (F(2), F(1, 3))),
    (meixner_poly, meixner_oracle, (F(-7, 2), F(-3, 5))),
    (lambda k, d, q: omega_closed_form(RadialContext(d, q), k), omega_oracle, (2, F(1, 3))),
    (lambda k, d, q: omega_closed_form(RadialContext(d, q), k), omega_oracle, (3, F(5, 2))),
    (lambda k, d, q: omega_closed_form(RadialContext(d, q), k), omega_oracle, (1, F(-2, 3))),
]


@pytest.mark.parametrize("case", range(len(FAMILY_GRID)))
def test_families_match_fraction_oracle(case):
    family, oracle, params = FAMILY_GRID[case]
    for k in range(17):
        assert fraction_pairs(family(k, *params)) == oracle(k, *params), k


TURN_AS = (F(3, 4), F(-7, 6), F(2), F(1, 3))


@pytest.mark.parametrize("a", TURN_AS, ids=str)
def test_turned_families_match_the_complex_oracle_at_every_k_mod_4(a):
    # the oracles expand a + ix in x with the factor i^k in the prefactor,
    # so they do not share the substitution y = ix and its turn i^(j+k)
    for k in range(10):
        for b, c, d in ((a + F(1, 2), a, a + F(1, 2)), (F(5, 4), F(3, 4), F(5, 4))):
            assert fraction_pairs(continuous_hahn_poly(k, a, b, c, d)) == hahn_oracle(
                k, a, b, c, d), (k, b, c, d)
        assert fraction_pairs(meixner_pollaczek_poly(k, a)) == meixner_pollaczek_oracle(k, a), k


@pytest.mark.parametrize("a", TURN_AS, ids=str)
def test_a_turn_off_by_one_fails_the_oracle(a):
    an, ad = a.numerator, a.denominator
    for n in range(10):
        expected = meixner_pollaczek_oracle(n, a)
        for turn in (n - 1, n, n + 1):
            got = _series(((-n, 1),), (_plus_y(an, ad),), (_lower(2 * an, ad, n + 1),),
                          (2, 0, 1), n + 1, turn=turn)
            assert (fraction_pairs(got) == expected) == (turn == n), (n, turn)


@pytest.mark.parametrize("make, message", [
    (lambda: meixner_pollaczek_poly(3, Fraction(-1, 2)), "lower parameter -1 hits zero at term 2"),
    (lambda: continuous_hahn_poly(4, Fraction(-1, 2), 1, Fraction(-3, 2), 2),
     "lower parameter -2 hits zero at term 3"),
    (lambda: krawtchouk_poly(4, Fraction(1, 3), 2), "lower parameter -2 hits zero at term 3"),
    (lambda: meixner_poly(2, 0, 3), "lower parameter 0 hits zero at term 1"),
    (lambda: hyp2f1_3f2_connection_check(5, Fraction(-3, 4)),
     "lower parameter -3 hits zero at term 4"),
])
def test_family_pole_messages(make, message):
    with pytest.raises(InvalidParameterError) as got:
        make()
    assert str(got.value) == message


# (entry point, arguments, the names of the rational parameters by position)
REAL_PARAMETER_CASES = [
    (hyp2F1_terminating_poly, (3, F(5, 2), GaussRational(-3, 4)), {1: "c"}),
    (continuous_hahn_poly, (5, F(3, 4), F(5, 4), F(-2, 3), 2), {1: "a", 2: "b", 3: "c", 4: "d"}),
    (meixner_pollaczek_poly, (4, F(-2, 3)), {1: "a"}),
    (krawtchouk_poly, (4, F(1, 3), 6), {1: "p", 2: "N"}),
    (meixner_poly, (4, F(5, 2), F(-1, 3)), {1: "beta", 2: "c"}),
    (gauss_contiguous_check, (3, F(5, 2), F(-3, 4)), {1: "c", 2: "x"}),
    (hyp2f1_3f2_connection_check, (5, F(3, 4)), {1: "a"}),
    (krawtchouk_meixner_check, (4, F(2, 7), 2), {1: "q"}),
]


def canonical(value):
    return parts(value) if isinstance(value, UniPoly) else value


@pytest.mark.parametrize("fn, args, names", REAL_PARAMETER_CASES,
                         ids=[fn.__name__ for fn, _, _ in REAL_PARAMETER_CASES])
def test_real_gauss_rational_parameters_give_the_fraction_result(fn, args, names):
    expected = canonical(fn(*args))
    for pos in names:
        swapped = list(args)
        swapped[pos] = GaussRational(args[pos])
        assert canonical(fn(*swapped)) == expected


@pytest.mark.parametrize("fn, args, names", REAL_PARAMETER_CASES,
                         ids=[fn.__name__ for fn, _, _ in REAL_PARAMETER_CASES])
def test_complex_parameters_are_refused_by_name(fn, args, names):
    for pos, name in names.items():
        swapped = list(args)
        swapped[pos] = GaussRational(args[pos], 1)
        with pytest.raises(InvalidParameterError, match=f"^parameter {name} = .* must be real$"):
            fn(*swapped)


def test_families_share_the_chains_of_their_unipoly_uppers():
    # a family passes a + y and 2a + 2y, for y = ix, as exactly their
    # real UniPolys' parts
    for a in TURN_AS:
        clear_caches()
        meixner_pollaczek_poly(6, a)
        hyp2f1_3f2_connection_check(6, a)
        for upper in (UniPoly((a, 1)), UniPoly((2 * a, 2))):
            assert len(_rising_chain((parts(upper),))) == 7


def test_families_and_the_closed_form_pass_only_real_polynomial_uppers(monkeypatch):
    # `_series` sums real levels only, so no caller may hand it a key with
    # an imaginary part
    keys = []

    def spy(polys, n):
        keys.extend(polys)
        return _rising_levels(polys, n)

    monkeypatch.setattr(specfun, "_rising_levels", spy)
    monkeypatch.setattr(radial, "_rising_levels", spy)
    for k in range(6):  # Krawtchouk's N = 6 has a pole past k = 5
        for family, _, params in FAMILY_GRID:
            family(k, *params)
        for fn, args, _ in REAL_PARAMETER_CASES:
            fn(k, *args[1:])
        hyp2F1_terminating_poly(k, F(5, 2), GaussRational(1, -2))
        omega_closed_form(RadialContext(2, F(1)), k)
    assert keys and all(im == () for _, im, _ in keys)


def test_families_and_the_closed_form_build_no_fraction():
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is Fraction.__new__.__code__:
            built.append(frame.f_back.f_code.co_name)

    calls = [(fn, args) for fn, args, _ in REAL_PARAMETER_CASES]
    calls.append((omega_closed_form, (RadialContext(2, Fraction(5, 2)), 6)))
    calls.append((omega_closed_form, (RadialContext(2, Fraction(1)), 7)))
    sys.setprofile(profile)
    try:
        for fn, args in calls:
            fn(*args)
    finally:
        sys.setprofile(None)
    assert built == []
