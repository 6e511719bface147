"""The stored layout of a term map, through the public operations.

A `TermMap` keeps one int denominator and a ``[re, im]`` list of
Gaussian-integer numerators per packed key.  The lists are mutable, so
each map must own its own: no output of an operation may share a list
with an input or with another output, and no operation may change an
input.  Equal values have equal parts, so ``==`` and ``hash`` agree
however a value was built, and the public ``terms`` view hands out
`GaussRational`s, never the stored lists.
"""

import json
import pickle
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from weylharm.expr import format_cpoly, format_weyl, parse_poly, parse_weyl
from weylharm.ordering import OrderingContext, cal_E, cal_L, cal_R, order_q, unorder_q
from weylharm.poly import (
    CPolynomial,
    bidegree_split,
    deriv_z,
    deriv_zbar,
    harmonic_decompose,
    op_E,
    op_L,
    op_R,
)
from weylharm.radial import RadialContext, decompose_weyl, reassemble_weyl
from weylharm.scalars import GaussRational
from weylharm.weyl import WeylElement, _layout, commutator, number_operator

QS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(5, 2),
      Fraction(-2, 3))
COEFF = st.builds(lambda a, b, p, q: GaussRational(Fraction(a, p), Fraction(b, q)),
                  st.integers(-6, 6), st.integers(-6, 6),
                  st.sampled_from((1, 2, 3, 4, 6, 9, 10)), st.sampled_from((1, 2, 5, 12)))
SCALAR = st.one_of(st.integers(-4, 4), st.fractions(max_denominator=12), COEFF)


@st.composite
def element(draw, cls, d, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = draw(st.lists(st.integers(0, 3), min_size=2 * d, max_size=2 * d))
        terms[cls._mono(alpha=tuple(exps[:d]), beta=tuple(exps[d:]))] = draw(COEFF)
    return cls(d, terms)


@st.composite
def pair(draw, cls):
    d = draw(st.integers(1, 3))
    x = draw(element(cls, d))
    # sometimes y = x or -x, so that sums and differences cancel
    y = draw(st.one_of(element(cls, d), st.just(x), st.just(-x)))
    return x, y, draw(SCALAR), OrderingContext(d, draw(st.sampled_from(QS)))


def weyl_ops(x, y, c, ctx):
    rctx = RadialContext(*ctx)
    parts = decompose_weyl(rctx, x)
    return [x + y, x - y, y - x, -x, x.scale(c), c * x, x * c, x + c, x - c, x * y,
            commutator(x, y), x ** 1, x ** 2, unorder_q(ctx, x), cal_R(ctx, x),
            cal_L(ctx, x), cal_E(ctx, x), op_R(x), op_L(x), op_E(x),
            *(h for _, h in parts), reassemble_weyl(rctx, parts),
            parse_weyl(format_weyl(x), x.d), WeylElement._sum(x.d, (x, y, x, -y)),
            number_operator(x.d), WeylElement.creator(x.d, 1), WeylElement.one(x.d)]


def poly_ops(x, y, c, ctx):
    components = list(x.homogeneous_components().values())
    return [x + y, x - y, -x, x.scale(c), x * y, x ** 2, order_q(ctx, x), op_R(x),
            op_L(x), op_E(x), deriv_z(x, 1), deriv_zbar(x, x.d), *components,
            *(h for comp in components for h in harmonic_decompose(comp)),
            *bidegree_split(x).values(), parse_poly(format_cpoly(x), x.d),
            CPolynomial.radius_squared(x.d), CPolynomial.zbar(x.d, 1)]


def snapshot(x):
    return x.d, x._den, [(k, list(v)) for k, v in x._terms.items()]


def check_owned(inputs, outputs):
    """Every numerator list belongs to one key of one map; an output may be
    an input itself."""
    seen = set()
    for m in {id(m): m for m in (*inputs, *outputs)}.values():
        for v in m._terms.values():
            assert id(v) not in seen, "a numerator list is shared"
            seen.add(id(v))


@settings(max_examples=120, deadline=None)
@given(pair(WeylElement))
def test_weyl_outputs_own_their_lists(case):
    x, y, c, ctx = case
    before = [snapshot(x), snapshot(y)]
    outputs = weyl_ops(x, y, c, ctx)
    assert [snapshot(x), snapshot(y)] == before
    check_owned([x, y], outputs)


@settings(max_examples=120, deadline=None)
@given(pair(CPolynomial))
def test_poly_outputs_own_their_lists(case):
    x, y, c, ctx = case
    before = [snapshot(x), snapshot(y)]
    outputs = poly_ops(x, y, c, ctx)
    assert [snapshot(x), snapshot(y)] == before
    check_owned([x, y], outputs)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((WeylElement, CPolynomial)).flatmap(
    lambda cls: st.integers(1, 3).flatmap(lambda d: element(cls, d, 6))))
def test_eq_and_hash_agree_however_built(x):
    cls, d = type(x), x.d
    one = cls.one(d)
    items = list(x.terms.items())
    built = [
        cls(d, dict(items)),
        cls(d, dict(reversed(items))),
        cls(d, {m: (c, c.re)[c.is_real()] for m, c in items}),
        (x + x) - x,
        cls._sum(d, (x, x, -x)),
        -(-x),
        x.scale(6).scale(Fraction(1, 6)),
        x * one,
        one * x,
        cls.from_json_dict(json.loads(json.dumps(x.to_json_dict()))),
        pickle.loads(pickle.dumps(x)),
    ]
    for y in built:
        assert y == x and hash(y) == hash(x)
        assert (y._den, y._terms) == (x._den, x._terms)
    other = x + one
    assert other != x and (other - one) == x and hash(other - one) == hash(x)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((WeylElement, CPolynomial)).flatmap(
    lambda cls: st.integers(1, 3).flatmap(lambda d: element(cls, d, 6))))
def test_terms_view_reads_fresh_gauss_rationals(x):
    lay, den = _layout(x.d), x._den
    view = x.terms
    assert len({id(c) for c in view.values()}) == len(view)
    for mono, c in view.items():
        assert type(c) is GaussRational
        re, im = x._terms[lay.key(mono.alpha, mono.beta)]
        assert c == GaussRational(Fraction(re, den), Fraction(im, den))
        assert den % c.den == 0
        assert x.coefficient(*mono) == c
    assert not any(type(c) is list for c in dict(view).values())


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((WeylElement, CPolynomial)).flatmap(
    lambda cls: st.integers(1, 3).flatmap(lambda d: element(cls, d, 6))),
    st.lists(st.one_of(st.integers(-1, 3), st.sampled_from((2**31 - 1, 2**31, 2**32, 1.0))),
             max_size=8),
    st.booleans())
def test_coefficient_reads_the_packed_key_not_the_view(x, exps, as_lists):
    # the monomials of x, then vectors of the right and of the wrong
    # length, with negative exponents, exponents at and past 2^31 and the
    # float 1.0, which equals the exponent 1 as a key of the view
    d, half = x.d, len(exps) // 2
    probes = [tuple(m) for m in x.terms]
    probes += [(exps[:d], exps[d:2 * d]), (exps[:half], exps[half:]), ((1,) * d, (2,) * d)]
    for first, second in probes:
        fresh = type(x)(d, dict(x.terms))
        args = (list(first), list(second)) if as_lists else (first, second)
        got = fresh.coefficient(*args)
        assert got == x.terms.get(x._mono(tuple(first), tuple(second)), GaussRational(0))
        if all(isinstance(e, int) for e in (*first, *second)):
            assert fresh._view is None
