"""Expression grammar, evaluation contexts, and printing."""

import random
from fractions import Fraction

import pytest

from weylharm.expr import (
    MixedContextError,
    ParseError,
    format_cpoly,
    format_weyl,
    parse_poly,
    parse_weyl,
)
from weylharm.poly import CPolynomial
from weylharm.scalars import GaussRational
from weylharm.verify import random_cpoly, random_weyl
from weylharm.weyl import WeylElement


class TestParsePoly:
    def test_two_terms(self):
        p = parse_poly("z1*zb1 + 1/2")
        expected = CPolynomial.monomial(1, (1,), (1,)) + CPolynomial.one(1).scale(
            Fraction(1, 2)
        )
        assert p == expected

    def test_powers_and_parens(self):
        p = parse_poly("(z1 + zb2)^2", d=2)
        z1 = CPolynomial.z(2, 1)
        zb2 = CPolynomial.zbar(2, 2)
        assert p == z1**2 + (z1 * zb2).scale(2) + zb2**2

    def test_imaginary_literal(self):
        p = parse_poly("i*z1 - 2/3*i")
        assert p.coefficient((1,), (0,)) == GaussRational(0, 1)
        assert p.coefficient((0,), (0,)) == GaussRational(0, Fraction(-2, 3))

    def test_unary_minus(self):
        assert parse_poly("-z1") == -CPolynomial.z(1, 1)
        assert parse_poly("- 3/2") == CPolynomial.one(1).scale(Fraction(-3, 2))

    def test_mode_inference(self):
        assert parse_poly("z3").d == 3

    def test_weyl_symbols_rejected(self):
        with pytest.raises(MixedContextError):
            parse_poly("a1*z1")


class TestParseWeyl:
    def test_ccr_normalization(self):
        w = parse_weyl("a1*c1")
        assert format_weyl(w) == "c1*a1 + 1"

    def test_written_order_respected(self):
        assert parse_weyl("c1*a1") == WeylElement.monomial(1, (1,), (1,))

    def test_square_of_sum(self):
        w = parse_weyl("(a1+c1)^2")
        expected = (
            WeylElement.monomial(1, (2,), (0,))
            + WeylElement.monomial(1, (0,), (2,))
            + WeylElement.monomial(1, (1,), (1,), 2)
            + WeylElement.one(1)
        )
        assert w == expected

    def test_poly_symbols_rejected(self):
        with pytest.raises(MixedContextError):
            parse_weyl("z1 + a1")


class TestErrors:
    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_poly("z1 + + z2")
        assert err.value.position == 5

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse_poly("z1 *")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_poly("(z1 + z2")

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_poly("w1 + z1")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_poly("1/0")

    def test_bad_exponent(self):
        with pytest.raises(ParseError):
            parse_poly("z1^z1")

    def test_first_error_in_reading_order(self):
        # a foreign generator read before a syntax error is the one reported
        with pytest.raises(MixedContextError, match="variable z1 is not a Weyl generator"):
            parse_weyl("z1 + (")
        with pytest.raises(MixedContextError,
                           match="generator a1 is not a polynomial variable"):
            parse_poly("a1 + z1^")
        # and a syntax error read first wins over a later foreign generator
        with pytest.raises(ParseError) as err:
            parse_weyl("a1 + ) + z1")
        assert err.value.position == 5


class TestRoundTrips:
    def test_weyl_print_parse(self):
        rng = random.Random(0)
        for _ in range(15):
            d = rng.randint(1, 3)
            w = random_weyl(rng, d, 4, 5)
            text = format_weyl(w)
            assert parse_weyl(text, d) == w
            # printing the reparsed element is a fixpoint
            assert format_weyl(parse_weyl(text, d)) == text

    def test_poly_print_parse(self):
        rng = random.Random(1)
        for _ in range(15):
            d = rng.randint(1, 3)
            p = random_cpoly(rng, d, 4, 5)
            text = format_cpoly(p)
            assert parse_poly(text, d) == p
            assert format_cpoly(parse_poly(text, d)) == text

    @pytest.mark.parametrize("parse, symbols", [(parse_weyl, "ca"), (parse_poly, ("z", "zb"))])
    def test_long_sum_equals_pairwise_sum(self, parse, symbols):
        # summands repeat and cancel, so keys leave the sum and come back
        rng = random.Random(2)
        pieces = []
        for _ in range(400):
            factors = [f"{rng.choice(symbols)}{rng.randint(1, 2)}^{rng.randint(1, 2)}"
                       for _ in range(rng.randint(0, 2))]
            coeff = rng.choice(["1", "2/3", "i", "(1-i)"])
            pieces.append((rng.choice("+-"), "*".join([coeff] + factors)))
        text = "0 " + " ".join(f"{sign} {piece}" for sign, piece in pieces)
        pairwise = parse("0", 2)
        for sign, piece in pieces:
            term = parse(piece, 2)
            pairwise = pairwise + term if sign == "+" else pairwise - term
        got = parse(text, 2)
        assert got == pairwise
        assert list(got.terms.items()) == list(pairwise.terms.items())

    def test_zero_renders(self):
        assert format_weyl(WeylElement.zero(2)) == "0"
        assert parse_weyl("0", 2) == WeylElement.zero(2)

    def test_complex_coefficient_parenthesized(self):
        w = WeylElement.monomial(1, (1,), (0,),
                                 GaussRational(Fraction(1, 2), Fraction(3, 4)))
        text = format_weyl(w)
        assert text == "(1/2+3/4*i)*c1"
        assert parse_weyl(text, 1) == w
