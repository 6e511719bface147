"""Exact scalar arithmetic tests."""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylharm.scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussRational,
    UniPoly,
    format_gauss,
)


def gr(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


gauss_values = st.builds(
    GaussRational,
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)

small_polys = st.builds(
    UniPoly,
    st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=4), max_size=5
    ),
)


class TestGaussRational:
    def test_modulus_product(self):
        assert (GR_ONE + GR_I) * (GR_ONE - GR_I) == gr(2)

    def test_additive_identity(self):
        x = gr(Fraction(-7, 3), Fraction(2, 5))
        assert x + GR_ZERO == x

    def test_half_plus_i_times_two_thirds(self):
        # independent hand computation over Q(i)
        assert gr(Fraction(1, 2), 1) * gr(Fraction(2, 3)) == gr(
            Fraction(1, 3), Fraction(2, 3)
        )

    def test_division_exact(self):
        x = gr(3, 4)
        assert x / x == GR_ONE
        assert (GR_ONE / GR_I) == -GR_I

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GR_ONE / GR_ZERO

    def test_conjugation_involution(self):
        x = gr(Fraction(5, 7), Fraction(-2, 3))
        assert x.conjugate().conjugate() == x
        assert x.norm_squared() == Fraction(25, 49) + Fraction(4, 9)

    @given(gauss_values, gauss_values, gauss_values)
    @settings(max_examples=60)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x

    @given(gauss_values)
    def test_field_inverse(self, x):
        if not x.is_zero():
            assert x * (GR_ONE / x) == GR_ONE

    def test_parse_format_round_trip(self):
        samples = ["0", "1", "-1", "i", "-i", "1/2", "-3/4", "1/2+2/3*i",
                   "1/2-2/3*i", "-1/2+i", "5*i"]
        for text in samples:
            z = GaussRational.parse(text)
            assert GaussRational.parse(format_gauss(z)) == z

    def test_parse_rejects_decimals(self):
        with pytest.raises(ValueError):
            GaussRational.parse("0.5")


class TestUniPoly:
    def test_compose_shift_square(self):
        p = UniPoly((0, 0, 1))  # t^2
        assert p.compose_shift(1) == UniPoly((1, 2, 1))

    def test_constants_shift_invariant(self):
        c = UniPoly.constant(Fraction(5, 3))
        assert c.compose_shift(Fraction(-7, 2)) == c

    def test_cube_shift(self):
        p = UniPoly((0, 0, 0, 1))
        assert p.compose_shift(-1) == UniPoly((-1, 3, -3, 1))

    def test_eval_at_i(self):
        p = UniPoly((1, 0, 1))  # t^2 + 1
        assert p(GR_I) == GR_ZERO

    def test_eval_zero_poly(self):
        assert UniPoly()(gr(17)) == GR_ZERO

    def test_eval_horner(self):
        p = UniPoly((2, 3, 1))  # t^2 + 3t + 2
        assert p(gr(2)) == gr(12)

    def test_degree_multiplicative(self):
        p = UniPoly((1, 2))
        q = UniPoly((0, 0, 3))
        assert (p * q).degree == p.degree + q.degree

    def test_canonical_trailing_zeros(self):
        assert UniPoly((1, 0, 0)) == UniPoly((1,))
        assert UniPoly((0, 0)).is_zero()

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=40)
    def test_ring_axioms(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(small_polys,
           st.fractions(min_value=-3, max_value=3, max_denominator=3))
    @settings(max_examples=40)
    def test_shift_round_trip(self, p, s):
        assert p.compose_shift(s).compose_shift(-s) == p

    def test_compose_linear(self):
        p = UniPoly((1, 1, 1))  # 1 + t + t^2
        half = Fraction(1, 2)
        assert p.compose_linear(half, 0)(gr(4)) == p(gr(2))

    def test_differences(self):
        p = UniPoly((0, 0, 1))
        assert p.forward_difference() == UniPoly((1, 2))
        assert p.backward_difference() == UniPoly((-1, 2))


# ---------------------------------------------------------------------------
# Fast paths against retained oracles
# ---------------------------------------------------------------------------

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
ZERO = st.just(Fraction(0))

# Real, purely imaginary and general values, drawn separately so every
# branch of the arithmetic sees both zero and nonzero parts.
gauss_mixed = st.one_of(
    st.builds(GaussRational, small_fractions, ZERO),
    st.builds(GaussRational, ZERO, small_fractions),
    st.builds(GaussRational, small_fractions, small_fractions),
)
rational_operands = st.one_of(st.integers(min_value=-7, max_value=7), small_fractions)


def fraction_parts(x):
    """(re, im) of any scalar operand as raw Fractions."""
    if isinstance(x, GaussRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def textbook(op, x, y):
    """The Q(i) operation computed on raw Fraction pairs."""
    a, b = fraction_parts(x)
    c, d = fraction_parts(y)
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    return a * c - b * d, a * d + b * c


OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}


def assert_is(z, re, im):
    assert isinstance(z, GaussRational)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (re, im)
    reference = GaussRational(re, im)
    assert z == reference and hash(z) == hash(reference)
    if not im:
        assert z == re and hash(z) == hash(re)


class TestGaussRationalFastPaths:
    @given(st.sampled_from(sorted(OPS)),
           st.one_of(st.tuples(gauss_mixed, gauss_mixed),
                     st.tuples(gauss_mixed, rational_operands),
                     st.tuples(rational_operands, gauss_mixed)))
    @settings(max_examples=300)
    def test_binary_ops_match_textbook(self, op, operands):
        x, y = operands
        assert_is(OPS[op](x, y), *textbook(op, x, y))

    @given(gauss_mixed)
    def test_negation_matches_textbook(self, x):
        assert_is(-x, -x.re, -x.im)

    @given(gauss_mixed, st.sampled_from([1.5, "1", None]))
    @settings(max_examples=20)
    def test_inexact_operands_rejected(self, x, bad):
        for op in OPS.values():
            with pytest.raises(TypeError):
                op(x, bad)


def horner_compose_linear(p, a, b):
    """t |-> p(a*t + b) by Horner's rule over UniPoly products."""
    arg = UniPoly((b, a))
    acc = UniPoly()
    for c in reversed(p.coeffs):
        acc = acc * arg + c
    return acc


complex_polys = st.builds(UniPoly, st.lists(gauss_mixed, max_size=8))
linear_parts = st.one_of(st.just(0), st.just(1), rational_operands, gauss_mixed)


class TestComposeLinearAgainstHorner:
    @given(complex_polys, linear_parts, linear_parts)
    @settings(max_examples=150)
    def test_matches_horner(self, p, a, b):
        assert p.compose_linear(a, b) == horner_compose_linear(p, a, b)

    @given(complex_polys, gauss_mixed)
    @settings(max_examples=40)
    def test_degenerate_parts(self, p, c):
        assert p.compose_linear(0, c) == horner_compose_linear(p, 0, c)
        assert p.compose_linear(0, c) == UniPoly.constant(p(c))
        assert p.compose_linear(c, 0) == horner_compose_linear(p, c, 0)
        assert p.compose_linear(1, 0) == p


# ---------------------------------------------------------------------------
# The (n, m, den) representation against the textbook formula
# ---------------------------------------------------------------------------

# Numerators of at least 2^64 next to small ones, and denominators that
# differ or agree, so that the gcd of every result meets both coprime
# denominators and a shared factor to cancel.
huge_ints = st.builds(lambda v, sign: sign * v,
                      st.integers(min_value=2**64, max_value=2**90),
                      st.sampled_from([1, -1]))
wide_fractions = st.one_of(
    small_fractions,
    st.builds(Fraction, huge_ints, st.integers(min_value=1, max_value=2**70)),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), huge_ints),
)
gauss_wide = st.one_of(
    gauss_mixed,
    st.builds(GaussRational, wide_fractions, ZERO),
    st.builds(GaussRational, wide_fractions, wide_fractions),
)
# y = x or conj(x) plus an integer has exactly the denominator of x
same_den_pairs = st.builds(
    lambda x, conj, k: (x, (x.conjugate() if conj else x) + k),
    gauss_wide, st.booleans(), st.integers(min_value=-9, max_value=9),
)
wide_operands = st.one_of(
    st.tuples(gauss_wide, gauss_wide),
    same_den_pairs,
    st.tuples(gauss_wide, st.one_of(st.integers(min_value=-7, max_value=7),
                                    huge_ints, wide_fractions)),
    st.tuples(st.one_of(huge_ints, wide_fractions), gauss_wide),
)


def assert_canonical(z):
    """den > 0, gcd(n, m, den) = 1, zero is (0, 0, 1), and re/im are the
    reduced Fractions n/den and m/den."""
    assert all(type(v) is int for v in (z.n, z.m, z.den))
    assert z.den > 0 and gcd(z.n, z.m, z.den) == 1
    if not z.n and not z.m:
        assert (z.n, z.m, z.den) == (0, 0, 1)
    for part, num in ((z.re, z.n), (z.im, z.m)):
        assert type(part) is Fraction
        assert gcd(part.numerator, part.denominator) == 1
        assert part == Fraction(num, z.den)


def textbook_div(x, y):
    a, b = fraction_parts(x)
    c, d = fraction_parts(y)
    norm = c * c + d * d
    return (a * c + b * d) / norm, (b * c - a * d) / norm


WIDE_OPS = dict(OPS, **{"/": lambda x, y: x / y})


class TestRepresentation:
    @given(st.sampled_from(sorted(WIDE_OPS)), wide_operands)
    @settings(max_examples=400)
    def test_ops_canonical_and_match_textbook(self, op, operands):
        x, y = operands
        if op == "/":
            if not fraction_parts(y)[0] and not fraction_parts(y)[1]:
                with pytest.raises(ZeroDivisionError):
                    x / y
                return
            expected = textbook_div(x, y)
        else:
            expected = textbook(op, x, y)
        z = WIDE_OPS[op](x, y)
        assert_canonical(z)
        assert_is(z, *expected)

    @given(gauss_wide)
    @settings(max_examples=150)
    def test_unary_ops(self, x):
        a, b = x.re, x.im
        assert_canonical(x)
        for z, expected in ((-x, (-a, -b)), (x.conjugate(), (a, -b))):
            assert_canonical(z)
            assert_is(z, *expected)
        norm = x.norm_squared()
        assert type(norm) is Fraction and norm == a * a + b * b

    @given(gauss_wide, st.integers(min_value=0, max_value=7))
    @settings(max_examples=100)
    def test_power_matches_repeated_textbook_product(self, x, k):
        expected = (Fraction(1), Fraction(0))
        for _ in range(k):
            expected = textbook("*", GaussRational(*expected), x)
        z = x**k
        assert_canonical(z)
        assert_is(z, *expected)

    @given(st.one_of(st.integers(min_value=-7, max_value=7), huge_ints,
                     wide_fractions),
           wide_fractions)
    @settings(max_examples=150)
    def test_eq_and_hash_against_int_and_fraction(self, r, im):
        z = GaussRational(r)
        assert_canonical(z)
        assert z == r and r == z and hash(z) == hash(r) == hash(Fraction(r))
        w = GaussRational(r, im)
        assert_canonical(w)
        if im:
            assert w != r and r != w
            assert hash(w) == hash((Fraction(r), im))
        else:
            assert w == r and hash(w) == hash(r)

    @given(gauss_wide)
    @settings(max_examples=150)
    def test_parse_format_round_trip(self, x):
        y = GaussRational.parse(format_gauss(x))
        assert_canonical(y)
        assert (y.n, y.m, y.den) == (x.n, x.m, x.den)
        assert hash(y) == hash(x)

    def test_cancellation_gives_canonical_zero(self):
        x = gr(Fraction(2**70 + 1, 3), Fraction(-5, 9))
        for z in (x - x, x * 0, x + (-x), GR_ZERO * x, GaussRational(Fraction(0, 7))):
            assert (z.n, z.m, z.den) == (0, 0, 1)
            assert z == 0 and z == GR_ZERO and not z

    def test_parts_are_read_only(self):
        x = gr(Fraction(1, 2), Fraction(1, 3))
        assert (x.n, x.m, x.den) == (3, 2, 6)
        for name in ("n", "m", "den", "re", "im"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)


# ---------------------------------------------------------------------------
# UniPoly's numerators over one denominator against per-coefficient arithmetic
# ---------------------------------------------------------------------------


class CoeffPoly:
    """The oracle: a polynomial as a tuple of GaussRationals, constant term
    first, where every coefficient operation builds and reduces its own
    scalar.  This is how UniPoly computed before its numerators moved onto
    one common denominator."""

    def __init__(self, cs):
        cs = [GaussRational.coerce(c) for c in cs]
        while cs and not cs[-1]:
            cs.pop()
        self.cs = tuple(cs)

    def __eq__(self, other):
        return self.cs == other.cs

    def __add__(self, other):
        a, b = self.cs, other.cs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return CoeffPoly(out)

    def __neg__(self):
        return CoeffPoly([-c for c in self.cs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, CoeffPoly):
            c = GaussRational.coerce(other)
            return CoeffPoly([a * c for a in self.cs])
        if not self.cs or not other.cs:
            return CoeffPoly(())
        out = [GR_ZERO] * (len(self.cs) + len(other.cs) - 1)
        for j, a in enumerate(self.cs):
            for k, b in enumerate(other.cs):
                out[j + k] = out[j + k] + a * b
        return CoeffPoly(out)

    def __truediv__(self, scalar):
        c = GaussRational.coerce(scalar)
        if not c:
            raise ZeroDivisionError("division by zero in Q(i)")
        return CoeffPoly([a / c for a in self.cs])

    def __call__(self, x):
        acc = GR_ZERO
        for c in reversed(self.cs):
            acc = acc * x + c
        return acc

    def compose_linear(self, a, b):
        """The Taylor shift by b, then coefficient k times a^k."""
        a = GaussRational.coerce(a)
        b = GaussRational.coerce(b)
        cs = list(self.cs)
        n = len(cs)
        for i in range(n - 1):
            for j in range(n - 2, i - 1, -1):
                cs[j] = cs[j] + b * cs[j + 1]
        power = GR_ONE
        for k in range(1, n):
            power = power * a
            cs[k] = cs[k] * power
        return CoeffPoly(cs)


def assert_canonical_poly(p):
    """den > 0, gcd(den, *re, *im) = 1, no trailing zero coefficient, and
    im = () exactly when p is real (else as long as re); zero is ((), (), 1)."""
    re, im, den = p._re, p._im, p._den
    assert type(re) is tuple and type(im) is tuple
    assert all(type(v) is int for v in re + im + (den,))
    assert den > 0 and gcd(den, *re, *im) == 1
    if im:
        assert len(im) == len(re) and any(im)
    if re:
        assert re[-1] or (im and im[-1])
    else:
        assert (im, den) == ((), 1)
    assert p.degree == len(re) - 1


def shared_den_coeffs(nums, ims, den):
    return [GaussRational(Fraction(n, den), Fraction(m, den))
            for n, m in zip(nums, ims)]


small_or_huge = st.one_of(st.integers(min_value=-9, max_value=9), huge_ints)
# coefficient lists with their own (mostly coprime) denominators, or
# numerators over one shared denominator; zeros, trailing zeros, purely
# imaginary and huge values included
poly_coeffs = st.one_of(
    st.lists(st.one_of(gauss_wide, st.just(GR_ZERO)), max_size=6),
    st.builds(shared_den_coeffs,
              st.lists(small_or_huge, max_size=6),
              st.lists(st.one_of(st.just(0), small_or_huge), min_size=6, max_size=6),
              st.sampled_from([1, 2, 6, 12, 2**65 + 3])),
    st.builds(lambda cs: [c * GR_I for c in cs],
              st.lists(st.one_of(small_fractions, wide_fractions), max_size=5)),
)
scalar_operands = st.one_of(st.integers(min_value=-7, max_value=7), huge_ints,
                            wide_fractions, gauss_wide)

POLY_OPS = {
    "+": lambda p, q: p + q,
    "-": lambda p, q: p - q,
    "*": lambda p, q: p * q,
}


class TestUniPolyAgainstCoeffOracle:
    @staticmethod
    def agree(p, oracle):
        assert_canonical_poly(p)
        assert p.coeffs == oracle.cs
        assert p == UniPoly(oracle.cs) and hash(p) == hash(UniPoly(oracle.cs))

    @given(st.sampled_from(sorted(POLY_OPS)), poly_coeffs, poly_coeffs)
    @settings(max_examples=150)
    def test_polynomial_ops(self, op, xs, ys):
        p, q = UniPoly(xs), UniPoly(ys)
        assert_canonical_poly(p)
        assert p.coeffs == CoeffPoly(xs).cs
        self.agree(POLY_OPS[op](p, q), POLY_OPS[op](CoeffPoly(xs), CoeffPoly(ys)))
        self.agree(-p, -CoeffPoly(xs))
        assert (p == q) == (CoeffPoly(xs) == CoeffPoly(ys))

    @given(st.sampled_from(["+", "-", "*", "r+", "r-", "r*", "/"]), poly_coeffs,
           st.one_of(scalar_operands, st.just(0)))
    @settings(max_examples=150)
    def test_scalar_ops(self, op, xs, c):
        p, o, oc = UniPoly(xs), CoeffPoly(xs), CoeffPoly((c,))
        if op == "/":
            if not GaussRational.coerce(c):
                with pytest.raises(ZeroDivisionError):
                    p / c
                return
            self.agree(p / c, o / c)
        elif op.startswith("r"):
            self.agree(POLY_OPS[op[1]](c, p), POLY_OPS[op[1]](oc, o))
        else:
            self.agree(POLY_OPS[op](p, c), POLY_OPS[op](o, oc))

    @given(poly_coeffs, st.one_of(st.just(0), st.just(1), scalar_operands),
           st.one_of(st.just(0), st.just(1), st.just(-1), scalar_operands))
    @settings(max_examples=150)
    def test_compose_linear(self, xs, a, b):
        self.agree(UniPoly(xs).compose_linear(a, b), CoeffPoly(xs).compose_linear(a, b))

    @given(poly_coeffs, scalar_operands)
    @settings(max_examples=100)
    def test_evaluation(self, xs, x):
        value = UniPoly(xs)(x)
        assert_canonical(value)
        assert value == CoeffPoly(xs)(GaussRational.coerce(x))

    @given(poly_coeffs)
    @settings(max_examples=100)
    def test_eq_hash_pickle_copy(self, xs):
        p = UniPoly(xs)
        for clone in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p),
                      UniPoly(p.coeffs)):
            assert (clone._re, clone._im, clone._den) == (p._re, p._im, p._den)
            assert clone == p and hash(clone) == hash(p)
        if p.degree <= 0:
            c = p[0]
            assert p == c and hash(p) == hash(c)
            assert len({p, c}) == 1
        else:
            assert p != p[0]
        with pytest.raises(AttributeError):
            p._re = ()


class TestUniPolyMixedWithScalars:
    def test_constants_hash_as_their_scalar(self):
        # equal values must share a hash, so a set holds them once
        assert len({UniPoly.constant(5), 5}) == 1
        assert len({UniPoly(), 0, GR_ZERO, Fraction(0)}) == 1
        half = Fraction(1, 2)
        assert UniPoly.constant(half) in {half}
        assert {GR_I: 1}[UniPoly.constant(GR_I)] == 1

    def test_gauss_rational_on_the_left(self):
        t = UniPoly.x()
        assert GR_I + t == UniPoly((GR_I, 1))
        assert GR_I - t == UniPoly((GR_I, -1))
        assert GR_I * t == UniPoly((0, GR_I))
        with pytest.raises(TypeError):
            GR_I / t
