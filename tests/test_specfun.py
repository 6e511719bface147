"""Terminating hypergeometric machinery and the named families."""

import random
import sys
from fractions import Fraction
from itertools import zip_longest
from math import factorial

import pytest

from weylharm import clear_caches
from weylharm.radial import RadialContext, g_poly_symmetric, omega_closed_form
from weylharm.scalars import GR_I, GR_ONE, GaussRational, UniPoly, _parts
from weylharm.specfun import (
    InvalidParameterError,
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
    minus_t_poly,
    pochhammer,
    terminating_series,
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


# ---------------------------------------------------------------------------
# The integer-numerator series against the per-term UniPoly series
# ---------------------------------------------------------------------------


def per_term_series(uppers, lowers, arg, nterms):
    """The oracle: the series summed one UniPoly term at a time, every
    factor applied as its own UniPoly or GaussRational operation.  This is
    how `terminating_series` computed before it moved onto one integer
    numerator list per result."""
    if nterms < 1:
        raise ValueError("series needs at least one term")
    for lower in lowers:
        for m in range(nterms - 1):
            if Fraction(lower) + m == 0:
                raise InvalidParameterError(
                    f"lower parameter {lower} hits zero at term {m + 1}")
    argc = GaussRational.coerce(arg)
    term = UniPoly((GR_ONE,))
    total = term
    for j in range(nterms - 1):
        for u in uppers:
            term = term * (u + j)
        denom = GaussRational.coerce(j + 1)
        for low in lowers:
            denom = denom * GaussRational.coerce(low + j)
        term = term * (argc / denom)
        total = total + term
    return total


def parts(p):
    """The canonical parts of a UniPoly."""
    return p._re, p._im, p._den


def random_series_case(rng):
    """Uppers, lowers, arg and nterms for one random terminating series."""

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    def scalar():
        if rng.random() < 0.3:
            return GaussRational(rational(), rational())
        return rational()

    k = rng.randint(0, 6)
    uppers = [Fraction(-k)] if rng.random() < 0.8 else []
    uppers += [scalar() for _ in range(rng.randint(0, 2))]
    uppers += [UniPoly([scalar() for _ in range(rng.randint(1, 3))])
               for _ in range(rng.randint(0, 2))]
    rng.shuffle(uppers)
    lowers = [rational() for _ in range(rng.randint(0, 2))]
    arg = scalar() if rng.random() < 0.9 else 0
    return uppers, lowers, arg, rng.randint(1, k + 4)


def test_series_matches_per_term_oracle():
    rng = random.Random(11)
    cases = 0
    while cases < 600:
        uppers, lowers, arg, nterms = random_series_case(rng)
        try:
            expected = per_term_series(uppers, lowers, arg, nterms)
        except InvalidParameterError as exc:
            with pytest.raises(InvalidParameterError) as got:
                terminating_series(uppers, lowers, arg, nterms)
            assert str(got.value) == str(exc)
            continue
        assert parts(terminating_series(uppers, lowers, arg, nterms)) == parts(expected)
        cases += 1


def test_series_named_families_match_per_term_oracle():
    # the parameter sets the package's families and the radial closed form use
    for k in range(12):
        for c, x in ((Fraction(3), Fraction(4, 3)), (Fraction(1, 2), Fraction(-2))):
            args = ([minus_t_poly(), Fraction(-k)], [c], x, k + 1)
            assert parts(terminating_series(*args)) == parts(per_term_series(*args))
        a = Fraction(3, 4)
        args = ([Fraction(-k), k + 4 * a - 1, UniPoly((GaussRational(a), GR_I))],
                [2 * a, 2 * a + Fraction(1, 2)], 1, k + 1)
        assert parts(terminating_series(*args)) == parts(per_term_series(*args))


def test_series_is_exact_sum_of_k_plus_one_terms():
    # structurally terminating: the (-k) upper factor zeroes everything
    # past term k, so adding more requested terms changes nothing
    base = terminating_series(
        [minus_t_poly(), Fraction(-3)], [Fraction(2)], Fraction(5, 7), 4
    )
    longer = terminating_series(
        [minus_t_poly(), Fraction(-3)], [Fraction(2)], Fraction(5, 7), 9
    )
    assert base == longer


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


A_PLUS_IX = UniPoly((Fraction(3, 4), GR_I))
ORACLE_GRID = [
    # (uppers, lowers, arg): the -k upper stops the sum early once
    # nterms > k + 1, and nterms = 1 is the bare first term
    ([minus_t_poly(), Fraction(-4)], [Fraction(3)], Fraction(4, 3)),
    ([minus_t_poly(), Fraction(-3)], [Fraction(1, 2)], GaussRational(1, -2)),
    ([Fraction(-5), GaussRational(Fraction(1, 3), 2), A_PLUS_IX], [Fraction(5, 2)],
     GaussRational(Fraction(1, 2), Fraction(1, 3))),
    ([Fraction(-4), A_PLUS_IX, minus_t_poly()], [Fraction(2), Fraction(7, 3)], 1),
    ([A_PLUS_IX, UniPoly((GaussRational(1, 1), 2, Fraction(1, 2)))], [Fraction(-9, 2)],
     Fraction(-2, 5)),
    ([GaussRational(0, 1), T], [], Fraction(3)),
]


@pytest.mark.parametrize("case", range(len(ORACLE_GRID)))
@pytest.mark.parametrize("nterms", [1, 2, 4, 7])
def test_series_matches_fraction_oracle(case, nterms):
    uppers, lowers, arg = ORACLE_GRID[case]
    expected = fraction_series(uppers, lowers, arg, nterms)
    assert fraction_pairs(terminating_series(uppers, lowers, arg, nterms)) == expected


# (uppers, lowers, arg, prefactor) for each branch of `_series`'s term sum:
# a complex level B_j (a complex polynomial upper), under a real and under
# a complex weight s_j; a real level under a complex weight (a complex
# scalar, argument or prefactor); and a real level under a real weight
SERIES_BRANCHES = {
    "complex level, real weight": (
        [A_PLUS_IX, Fraction(-4)], [Fraction(5, 2)], Fraction(-4, 3), GaussRational(3)),
    "complex level, complex weight": (
        [A_PLUS_IX, minus_t_poly(), Fraction(-3)], [Fraction(7, 3)],
        GaussRational(Fraction(1, 2), Fraction(1, 3)), GaussRational(0, Fraction(2, 5))),
    "real level, complex weight": (
        [minus_t_poly(), GaussRational(Fraction(1, 3), 2), Fraction(-5)], [Fraction(3)],
        Fraction(5, 7), GaussRational(Fraction(-1, 6), 1)),
    "real level, real weight": (
        [minus_t_poly(), UniPoly((Fraction(1, 2), 3)), Fraction(-4)], [Fraction(-9, 2)],
        Fraction(4, 3), GaussRational(Fraction(7, 9))),
}


@pytest.mark.parametrize("branch", sorted(SERIES_BRANCHES))
@pytest.mark.parametrize("nterms", [1, 2, 5, 8])
def test_series_branches_match_fraction_oracle(branch, nterms):
    uppers, lowers, arg, pre = SERIES_BRANCHES[branch]
    scalars = [_parts(u) for u in uppers if not isinstance(u, UniPoly)]
    polys = tuple(parts(u) for u in uppers if isinstance(u, UniPoly))
    # the case takes the branch it is named for, past the real first term
    complex_level = any(level._im for level in _rising_levels(polys, nterms)[:nterms])
    complex_weight = any(m for _, m, _ in (*scalars, _parts(arg), _parts(pre)))
    assert complex_level == (branch.startswith("complex level") and nterms > 1)
    assert complex_weight == branch.endswith("complex weight")
    got = _series(scalars, polys, [_parts(low) for low in lowers], _parts(arg), nterms,
                  _parts(pre))
    assert fraction_pairs(got) == fraction_series(uppers, lowers, arg, nterms,
                                                  (pre.re, pre.im))


def test_warm_chain_gives_the_cold_parts():
    def series(k):
        return parts(terminating_series([minus_t_poly(), A_PLUS_IX, Fraction(-k)],
                                        [Fraction(5, 3)], GaussRational(2, 1), k + 1))

    series(12)
    warm = series(3)
    clear_caches()
    assert series(3) == warm


def test_chain_levels_are_rising_factorial_products():
    uppers = (minus_t_poly(), A_PLUS_IX)
    levels = _rising_levels(tuple(parts(u) for u in uppers), 7)
    for j, level in enumerate(levels[:7]):
        expected = UniPoly((1,))
        for u in uppers:
            for m in range(j):
                expected = expected * (u + m)
        assert parts(level) == parts(expected)


def test_chain_levels_are_immutable():
    level = _rising_levels((parts(minus_t_poly()),), 3)[2]
    with pytest.raises(AttributeError):
        level._re = (0,)
    with pytest.raises(TypeError):
        level._re[0] = 1
    assert parts(_rising_levels((parts(minus_t_poly()),), 3)[2]) == parts(T * (T - 1))


def test_real_gauss_rational_lower_is_read_as_its_fraction():
    assert parts(hyp2F1_terminating_poly(2, GaussRational(1), 2)) == parts(
        hyp2F1_terminating_poly(2, Fraction(1), 2))
    with pytest.raises(InvalidParameterError, match="hits zero at term 2"):
        hyp2F1_terminating_poly(3, GaussRational(-1), 2)


def test_complex_lower_is_refused():
    with pytest.raises(InvalidParameterError, match="must be real"):
        terminating_series([minus_t_poly()], [GaussRational(1, 1)], 1, 3)


@pytest.mark.parametrize("make, name", [
    (lambda: krawtchouk_poly(2, 0, 3), "p"),
    (lambda: meixner_poly(2, 3, 0), "c"),
])
def test_zero_krawtchouk_p_and_meixner_c_are_refused(make, name):
    with pytest.raises(InvalidParameterError, match=f"parameter {name} must be nonzero"):
        make()


def test_minus_t_is_one_shared_constant():
    assert minus_t_poly() is minus_t_poly()
    assert minus_t_poly() == -T


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
    # a family passes a + ix and 2a + 2ix as exactly their UniPolys' parts
    for a in (Fraction(3, 4), Fraction(-7, 6), Fraction(2), Fraction(1, 3)):
        clear_caches()
        meixner_pollaczek_poly(6, a)
        hyp2f1_3f2_connection_check(6, a)
        for upper in (UniPoly((GaussRational(a), GR_I)),
                      UniPoly((GaussRational(2 * a), 2 * GR_I))):
            assert len(_rising_chain((parts(upper),))) == 7


def test_families_and_the_closed_form_build_no_fraction():
    built = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is Fraction.__new__.__code__:
            built.append(frame.f_back.f_code.co_name)

    calls = [(fn, args) for fn, args, _ in REAL_PARAMETER_CASES]
    calls.append((omega_closed_form, (RadialContext(2, Fraction(5, 2)), 6)))
    sys.setprofile(profile)
    try:
        for fn, args in calls:
            fn(*args)
    finally:
        sys.setprofile(None)
    assert built == []
