"""The ordering map, the sl2 triple and the products on packed keys and
integer numerators, against the per-product loops they replaced.

A term map stores one denominator over Gaussian-integer numerator pairs
(`weyl.TermMap`).  `ordering._closed_form`, `poly._triple` and
`weyl._mul_terms` (both products) accumulate those numerators, and
`TermMap._wrap` puts each result in canonical form with one gcd.  The
oracles below are the loops they replaced: every weight is a `Fraction`,
every product and every collision sum builds and reduces its own
`GaussRational`, and cancelled keys stay in the raw accumulator.  Each
comparison checks the canonical parts ``(n, m, den)`` of every output
term in output order, that the result is stored in canonical form, and
that building it took exactly one gcd, over the expected unreduced
denominator: the input's denominator (the lcm of its coefficients'
denominators) times td^S for the closed form (t = tn/td, S the largest
contraction order), times the lcm of the denominators of r, e and l for
the triple, and lcm(x dens) * lcm(y dens) for a product x*y.  The linear
operations (sums, negation, scaling, derivatives, splitting by degree)
are held to the same contract.
"""

import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, lcm, prod
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylharm.ordering as ordering
import weylharm.poly as poly
import weylharm.weyl as weyl
from weylharm.ordering import (
    OrderingContext,
    cal_E,
    cal_L,
    cal_R,
    order_q,
    ordered_monomial,
    unorder_q,
)
from weylharm.poly import CMonomial, CPolynomial, deriv_z, deriv_zbar, op_E, op_L, op_R
from weylharm.scalars import GR_ONE, GR_ZERO, GaussRational
from weylharm.weyl import (
    EXPONENT_BOUND,
    FIELD_BITS,
    ModeMismatchError,
    NormalMonomial,
    WeylElement,
    _layout,
    check_exponents,
    weyl_mul,
)

# t = 1 - q is 1, 0, 1/2, -3/2, 5/3 and 4/11: zero, negative and above 1
QS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(5, 2), Fraction(-2, 3),
      Fraction(7, 11))
CASES = 324  # per map: every (q, d) pair 18 times

# pairwise-coprime primes beside small denominators that share factors
BIG_DENS = (2**61 - 1, 10**9 + 7, 998244353, 2**31 - 1)
SMALL_DENS = (1, 2, 3, 4, 6, 9, 10, 12, 15)


# ---------------------------------------------------------------------------
# The oracles: the per-product loops
# ---------------------------------------------------------------------------


def wick(ann, cre):
    """(ivec, weight) for a^ann (a+)^cre: per mode i <= min(m, n) with
    weight C(m,i) C(n,i) i!, the modes multiplied out in lexicographic
    order of ivec."""
    per_mode = [[(i, comb(m, i) * comb(n, i) * factorial(i)) for i in range(min(m, n) + 1)]
                for m, n in zip(ann, cre)]
    for combo in product(*per_mode):
        yield tuple(i for i, _ in combo), prod(w for _, w in combo)


def per_product_closed_form(terms, t, key):
    """The closed form with one GaussRational per product and per sum; the
    raw accumulator, cancelled keys included."""
    acc = {}
    for mono, coeff in terms.items():
        alpha, beta = mono.alpha, mono.beta
        for ivec, weight in wick(alpha, beta):
            k = key(tuple(a - i for a, i in zip(alpha, ivec)),
                    tuple(b - i for b, i in zip(beta, ivec)))
            c = coeff * (weight * t ** sum(ivec))
            cur = acc.get(k)
            acc[k] = c if cur is None else cur + c
    return acc


def per_product_triple(p, r, e, l):
    """r*R(p) + e*E(p) + l*L(p) with one GaussRational per product and per
    sum; the raw accumulator, cancelled keys included."""
    cls, d, terms = type(p), p.d, p.terms
    acc = {}
    if e:
        acc = {m: c * (e * (sum(m[0]) + sum(m[1]) + d)) for m, c in terms.items()}
    for (u, v), c in terms.items():
        if r:
            cr = c if r == 1 else c * r
            for j in range(d):
                up = cls._mono(u[:j] + (u[j] + 1,) + u[j + 1:],
                               v[:j] + (v[j] + 1,) + v[j + 1:])
                cur = acc.get(up)
                acc[up] = cr if cur is None else cur + cr
        if l:
            for j in range(d):
                w = u[j] * v[j]
                if not w:
                    continue
                down = cls._mono(u[:j] + (u[j] - 1,) + u[j + 1:],
                                 v[:j] + (v[j] - 1,) + v[j + 1:])
                cw = c * l * w
                cur = acc.get(down)
                acc[down] = cw if cur is None else cur + cw
    return acc


def per_product_weyl_mul(x, y):
    """x*y term pair by term pair on NamedTuple keys, through `wick`."""
    acc = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            for ivec, weight in wick(m1.alpha, m2.beta):
                mono = NormalMonomial(
                    tuple(b1 + b2 - i for b1, b2, i in zip(m1.beta, m2.beta, ivec)),
                    tuple(a1 + a2 - i for a1, a2, i in zip(m1.alpha, m2.alpha, ivec)))
                c = c1 * c2 * weight
                acc[mono] = acc[mono] + c if mono in acc else c
    return acc


def per_product_cpoly_mul(x, y):
    """x*y term pair by term pair on NamedTuple keys."""
    acc = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            mono = CMonomial(tuple(map(sum, zip(m1.alpha, m2.alpha))),
                             tuple(map(sum, zip(m1.beta, m2.beta))))
            acc[mono] = acc[mono] + c1 * c2 if mono in acc else c1 * c2
    return acc


def _normal(a, b):
    return NormalMonomial(b, a)


def _order_top(terms):
    return max((sum(map(min, m.alpha, m.beta)) for m in terms), default=0)


def _closed_form_map(sign, key):
    def oracle(ctx, x):
        t = sign * ctx.q_complement
        return per_product_closed_form(x.terms, t, key)

    def den(ctx, x):
        t = sign * ctx.q_complement
        return _lcd(x) * t.denominator ** _order_top(x.terms)

    return oracle, den


def _triple_map(coeffs):
    def oracle(ctx, x):
        return per_product_triple(x, *coeffs(ctx.q_complement))

    def den(ctx, x):
        dens = (Fraction(c).denominator for c in coeffs(ctx.q_complement))
        return _lcd(x) * lcm(*dens)

    return oracle, den


# name -> (map under test, input type, oracle accumulator, expected denominator)
MAPS = {
    "order_q": (order_q, CPolynomial, *_closed_form_map(1, _normal)),
    "unorder_q": (unorder_q, WeylElement, *_closed_form_map(-1, CMonomial)),
    "op_R": (lambda ctx, p: op_R(p), CPolynomial, *_triple_map(lambda t: (1, 0, 0))),
    "op_L": (lambda ctx, p: op_L(p), CPolynomial, *_triple_map(lambda t: (0, 0, 1))),
    "op_E": (lambda ctx, p: op_E(p), CPolynomial, *_triple_map(lambda t: (0, 1, 0))),
    "cal_R": (cal_R, WeylElement, *_triple_map(lambda t: (1, t, t * t))),
    "cal_L": (cal_L, WeylElement, *_triple_map(lambda t: (0, 0, 1))),
    "cal_E": (cal_E, WeylElement, *_triple_map(lambda t: (0, 1, 2 * t))),
}


# name -> (product under test, operand type, oracle accumulator)
PRODUCTS = {
    "weyl_mul": (weyl_mul, WeylElement, per_product_weyl_mul),
    "cpoly_mul": (CPolynomial.__mul__, CPolynomial, per_product_cpoly_mul),
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _numerator(rng, big):
    if big:
        return rng.choice((-1, 1)) * (2**64 + rng.getrandbits(64))
    return rng.randint(-4, 4)


def random_element(rng, cls, d, nterms, big, diagonal):
    """Up to nterms terms of degree <= 8 with complex coefficients; big
    inputs draw 2^64-sized numerators and pairwise-coprime denominators.

    The maps only move monomials along the diagonal (both exponents of a
    mode up or down together), so images overlap when the terms share the
    difference of their two exponent vectors; diagonal inputs do.
    """
    shift = [rng.randint(-1, 1) for _ in range(d)]
    terms = {}
    for _ in range(nterms):
        if diagonal:
            low = [rng.randint(0, 2) for _ in range(d)]
            exps = [x + max(s, 0) for x, s in zip(low, shift)]
            exps += [x - min(s, 0) for x, s in zip(low, shift)]
        else:
            exps = [rng.randint(0, 2) for _ in range(2 * d)]
        mono = cls._mono(tuple(exps[:d]), tuple(exps[d:]))
        den = rng.choice(BIG_DENS if big else SMALL_DENS)
        im = _numerator(rng, big) if rng.random() < 0.6 else 0
        terms[mono] = GaussRational(Fraction(_numerator(rng, big), den), Fraction(im, den))
    return cls(d, terms)


def cancelling(oracle, ctx, x):
    """x with one coefficient changed so that the contributions to some key
    of the image cancel inside the accumulator; x itself when no key is
    reached from two monomials."""
    cls = type(x)
    for m in x.terms:
        rest = cls(x.d, {k: c for k, c in x.terms.items() if k != m})
        unit = cls(x.d, {m: 1})
        a = oracle(ctx, rest)
        for k, c in oracle(ctx, unit).items():
            if c and a.get(k):
                return rest + unit.scale(-a[k] / c)
    return x


def case(name, i):
    """The i-th seeded input for one map: every (q, d) pair in turn, with
    small and big inputs, inputs that cancel inside the accumulator, and
    empty ones."""
    _, cls, oracle, _ = MAPS[name]
    rng = random.Random(f"{name}-{i}")
    ctx = OrderingContext(1 + (i // len(QS)) % 3, QS[i % len(QS)])
    kind = (i // (3 * len(QS))) % 6
    if kind == 5 and i % 2:
        return ctx, cls.zero(ctx.d)
    x = random_element(rng, cls, ctx.d, rng.randint(1, 8), big=kind in (1, 3),
                       diagonal=kind >= 2)
    if kind >= 2:
        x = cancelling(oracle, ctx, x)
    return ctx, x


def product_pair(name, i):
    """The i-th seeded operand pair for one product, of the kinds `case`
    draws: small and big, x cancelling inside the accumulator against y,
    and an empty operand on either side."""
    _, cls, oracle = PRODUCTS[name]
    rng = random.Random(f"{name}-{i}")
    d = 1 + i % 3
    kind = (i // 3) % 6
    big, diagonal = kind in (1, 3), kind >= 2
    y = random_element(rng, cls, d, rng.randint(1, 6), big, diagonal)
    x = random_element(rng, cls, d, rng.randint(1, 6), big, diagonal)
    if kind == 5:
        return (cls.zero(d), y) if i % 2 else (x, cls.zero(d))
    if kind >= 2:
        x = cancelling(lambda ctx, v: oracle(v, y), None, x)
    return x, y


def _lcd(x):
    return lcm(*(c.den for c in x.terms.values()))


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def parts(terms):
    """(monomial, (n, m, den)) in output order."""
    return [(k, (c.n, c.m, c.den)) for k, c in terms.items()]


def oracle_parts(raw):
    return [(k, (c.n, c.m, c.den)) for k, c in raw.items() if c]


def assert_canonical(x):
    """One int denominator > 0 over [re, im] int lists, no [0, 0] pair,
    gcd(den, every numerator) = 1, and den 1 for the zero map."""
    den, terms = x._den, x._terms
    assert type(den) is int and den > 0
    for v in terms.values():
        assert type(v) is list and len(v) == 2 and all(type(n) is int for n in v)
        assert v[0] or v[1]
    assert gcd(den, *(n for v in terms.values() for n in v)) == 1
    assert terms or den == 1


@pytest.fixture
def gcds_seen(monkeypatch):
    """Record the first argument of every gcd that `weyl` takes: `_wrap`
    takes one per result, over the result's unreduced denominator."""
    seen = []
    real = weyl.gcd

    def recording(den, *numerators):
        seen.append(den)
        return real(den, *numerators)

    monkeypatch.setattr(weyl, "gcd", recording)
    return seen


@pytest.mark.parametrize("name", sorted(MAPS))
def test_kernel_matches_per_product_oracle(name, gcds_seen):
    fn, _, oracle, expected_den = MAPS[name]
    cancelled = 0
    for i in range(CASES):
        ctx, x = case(name, i)
        raw = oracle(ctx, x)
        cancelled += any(not c for c in raw.values())
        gcds_seen.clear()
        got = fn(ctx, x)
        assert parts(got.terms) == oracle_parts(raw), (name, i)
        assert_canonical(got)
        # the triple hands a zero input back as it is
        assert gcds_seen == ([] if got is x else [expected_den(ctx, x)]), (name, i)
    # zero sums were exercised, except by E, which maps monomials one to one
    assert cancelled >= CASES // 8 or (name == "op_E" and not cancelled), cancelled


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_product_matches_per_product_oracle(name, gcds_seen):
    fn, _, oracle = PRODUCTS[name]
    cancelled = 0
    for i in range(CASES):
        x, y = product_pair(name, i)
        raw = oracle(x, y)
        cancelled += any(not c for c in raw.values())
        gcds_seen.clear()
        got = fn(x, y)
        assert parts(got.terms) == oracle_parts(raw), (name, i)
        assert_canonical(got)
        assert gcds_seen == [_lcd(x) * _lcd(y)], (name, i)
    assert cancelled >= CASES // 8, cancelled


def test_ordered_monomial_matches_per_product_oracle(gcds_seen):
    for i in range(CASES):
        rng = random.Random(i)
        ctx = OrderingContext(1 + (i // len(QS)) % 3, QS[i % len(QS)])
        alpha = tuple(rng.randint(0, 4) for _ in range(ctx.d))
        beta = tuple(rng.randint(0, 4) for _ in range(ctx.d))
        raw = per_product_closed_form({CMonomial(alpha, beta): GR_ONE},
                                      ctx.q_complement, _normal)
        gcds_seen.clear()
        got = ordered_monomial(ctx, alpha, beta)
        assert parts(got.terms) == oracle_parts(raw), i
        assert_canonical(got)
        top = sum(map(min, alpha, beta))
        assert gcds_seen == [ctx.q_complement.denominator ** top], i


def per_key_combination(parts, coeffs):
    """sum of coeff * part with one GaussRational per product and per sum."""
    acc = {}
    for part, c in zip(parts, coeffs):
        for mono, v in part.terms.items():
            acc[mono] = acc.get(mono, GR_ZERO) + v * c
    return {mono: v for mono, v in acc.items() if v}


def per_term_derivative(p, field):
    """d/dx for the variable x at field ``field`` of alpha + beta."""
    d, out = p.d, {}
    for mono, c in p.terms.items():
        e = list(mono.alpha + mono.beta)
        if e[field]:
            c, e[field] = c * e[field], e[field] - 1
            out[CMonomial(tuple(e[:d]), tuple(e[d:]))] = c
    return out


@pytest.mark.parametrize("cls", [WeylElement, CPolynomial])
def test_linear_kernels_canonical_with_one_gcd_per_result(cls, gcds_seen):
    """Sums, differences, negation, scaling, the n-ary sum and, for
    polynomials, derivatives and the split by degree: each result is
    canonical, took one gcd, and has the per-term value."""
    for i in range(90):
        rng = random.Random(f"linear-{cls.__name__}-{i}")
        d, big = 1 + i % 3, i % 4 == 1
        x = random_element(rng, cls, d, rng.randint(0, 6), big, diagonal=False)
        y = x if i % 5 == 0 else random_element(rng, cls, d, rng.randint(0, 6), big, False)
        z = GaussRational(Fraction(rng.randint(-3, 3), rng.choice(SMALL_DENS)),
                          Fraction(rng.randint(-3, 3) * (i % 2), rng.choice(SMALL_DENS)))
        neg_y = -y
        checks = [
            (lambda: [x + y], [x, y], [1, 1]),
            (lambda: [x - y], [x, y], [1, -1]),
            (lambda: [-x], [x], [-1]),
            (lambda: [x.scale(z)], [x], [z]),
            (lambda: [cls._sum(d, (x, y, neg_y, x))], [x], [2]),
            (lambda: [cls._sum(d, (x, y, x), -1)], [y], [-1]),
        ]
        if cls is CPolynomial:
            checks += [(lambda j=j: [deriv_z(x, j)], j - 1) for j in range(1, d + 1)]
            checks += [(lambda j=j: [deriv_zbar(x, j)], d + j - 1) for j in range(1, d + 1)]
            checks.append((lambda: list(x.homogeneous_components().values()), [x], [1]))
        for fn, *expected in checks:
            gcds_seen.clear()
            out = fn()
            assert len(gcds_seen) == len(out), i
            for o in out:
                assert_canonical(o)
            got = {m: c for o in out for m, c in o.terms.items()}
            if len(expected) == 1:
                assert got == per_term_derivative(x, *expected), i
            else:
                assert got == per_key_combination(*expected), i


def test_closed_form_drops_zero_sums():
    """unorder_q of order_q(p): every key but p's collects contributions
    that cancel, and the closed form returns none of them."""
    ctx = OrderingContext(2, Fraction(-2, 3))
    p = CPolynomial(2, {CMonomial((2, 1), (1, 2)): GaussRational(Fraction(3, 4), 5)})
    w = order_q(ctx, p)
    t = -ctx.q_complement
    raw = per_product_closed_form(w.terms, t, CMonomial)
    assert any(not c for c in raw.values())
    got = ordering._closed_form(CPolynomial, 2, w._terms, w._den, t.numerator, t.denominator)
    assert dict(got.terms) == {m: c for m, c in raw.items() if c}
    assert unorder_q(ctx, w) == p


# ---------------------------------------------------------------------------
# Edges
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MAPS))
def test_outputs_canonical_nonzero_and_read_only(name):
    fn = MAPS[name][0]
    for i in range(0, CASES, 9):
        ctx, x = case(name, i)
        out = fn(ctx, x)
        assert_canonical(out)
        for c in out.terms.values():
            assert c.den > 0 and gcd(c.n, c.m, c.den) == 1 and (c.n or c.m)
        assert isinstance(out.terms, MappingProxyType)
        with pytest.raises(TypeError):
            out.terms[next(iter(x.terms), None)] = GR_ONE
    assert fn(ctx, MAPS[name][1].zero(ctx.d)).terms == {}


def test_ordered_monomial_rejects_bad_exponents():
    ctx = OrderingContext(2, Fraction(5, 2))
    for alpha, beta in (((-1, 0), (0, 0)), ((0, 0), (1, -2)), ((1.5, 0), (0, 0)),
                        ((0, 0), (Fraction(1), 0)), (("1", 0), (0, 0))):
        with pytest.raises(ValueError):
            ordered_monomial(ctx, alpha, beta)
    for alpha, beta in (((1,), (1,)), ((1, 0), (1,)), ((1, 0, 0), (0, 0, 1))):
        with pytest.raises(ModeMismatchError):
            ordered_monomial(ctx, alpha, beta)


# ---------------------------------------------------------------------------
# The packed layout, to the exponent bound
# ---------------------------------------------------------------------------

B = EXPONENT_BOUND
SMALL = st.integers(0, 3)
# up to B - 2, so that a raising step stays below the bound
HUGE = st.one_of(SMALL, st.integers(B - 40, B - 2), st.integers(0, B - 2))
COEFF = st.builds(lambda a, b, den: GaussRational(Fraction(a, den), Fraction(b, den)),
                  st.integers(-4, 4), st.integers(-4, 4), st.sampled_from((1, 2, 3, 6)))


@st.composite
def wide_element(draw, cls, d, exponent=HUGE):
    """Up to four terms whose two exponents at each mode are one small and
    one drawn from ``exponent``, so contractions stay few."""
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        pairs = [(draw(SMALL), draw(exponent))[:: draw(st.sampled_from((1, -1)))]
                 for _ in range(d)]
        alpha, beta = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
        terms[cls._mono(alpha=alpha, beta=beta)] = draw(COEFF)
    return cls(d, terms)


@st.composite
def map_case(draw):
    name = draw(st.sampled_from(sorted(MAPS)))
    ctx = OrderingContext(draw(st.integers(1, 4)), draw(st.sampled_from(QS)))
    return name, ctx, draw(wide_element(MAPS[name][1], ctx.d))


@settings(max_examples=150, deadline=None)
@given(map_case())
def test_packed_maps_match_tuple_key_oracles(case):
    """`_closed_form` and `_triple` on exponents up to B - 2 at d <= 4."""
    name, ctx, x = case
    fn, _, oracle, _ = MAPS[name]
    assert parts(fn(ctx, x).terms) == oracle_parts(oracle(ctx, x))


@st.composite
def product_case(draw, cls):
    """A small operand (exponents <= 3) and a wide one with one large
    exponent per term, whose degree leaves room for the small one below B,
    in either order."""
    d = draw(st.integers(1, 4))
    small = draw(wide_element(cls, d, SMALL))
    top = B - 1 - 12 * d  # the other 2d - 1 exponents and the small degree
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        exps = [draw(SMALL) for _ in range(2 * d)]
        exps[draw(st.integers(0, 2 * d - 1))] = draw(
            st.one_of(SMALL, st.integers(0, top), st.just(top)))
        terms[cls._mono(alpha=tuple(exps[:d]), beta=tuple(exps[d:]))] = draw(COEFF)
    wide = cls(d, terms)
    return (small, wide) if draw(st.booleans()) else (wide, small)


@settings(max_examples=120, deadline=None)
@given(product_case(WeylElement))
def test_weyl_mul_matches_tuple_key_oracle(pair):
    x, y = pair
    assert parts(weyl_mul(x, y).terms) == oracle_parts(per_product_weyl_mul(x, y))


@settings(max_examples=120, deadline=None)
@given(product_case(CPolynomial))
def test_cpoly_mul_matches_tuple_key_oracle(pair):
    x, y = pair
    assert parts((x * y).terms) == oracle_parts(per_product_cpoly_mul(x, y))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.lists(st.integers(0, B - 1), min_size=2 * d, max_size=2 * d)))
def test_pack_unpack_round_trip(exps):
    d = len(exps) // 2
    alpha, beta = tuple(exps[:d]), tuple(exps[d:])
    lay = _layout(d)
    key = lay.key(alpha, beta)
    assert lay.fields(key) == alpha + beta
    assert lay.fields(key & lay.low) == alpha + (0,) * d
    assert lay.fields(key >> lay.shift) == beta + (0,) * d
    # fields are named: z^alpha zbar^beta and its image key (a+)^beta a^alpha
    # pack to the same int
    w = WeylElement.monomial(d, beta, alpha)
    p = CPolynomial.monomial(d, alpha, beta)
    assert list(w._terms) == list(p._terms) == [key]
    assert list(w.terms) == [NormalMonomial(beta, alpha)]
    assert list(p.terms) == [CMonomial(alpha, beta)]
    assert w.coefficient(beta, alpha) == p.coefficient(alpha, beta) == GR_ONE
    assert w.degree() == p.degree() == sum(exps)


def test_layout_fields():
    lay = _layout(2)
    assert lay.key((1, 2), (3, 4)) == 1 + (2 << FIELD_BITS) + (3 << 2 * FIELD_BITS) + (
        4 << 3 * FIELD_BITS)
    assert lay.step == (1 + (1 << 2 * FIELD_BITS), (1 << FIELD_BITS) + (1 << 3 * FIELD_BITS))


@pytest.mark.parametrize("cls", [WeylElement, CPolynomial])
def test_terms_view_is_read_only_and_cached(cls):
    x = cls(2, {cls._mono((1, 0), (0, 2)): 3, cls._mono((0, 0), (0, 0)): 1})
    view = x.terms
    assert type(view) is MappingProxyType and x.terms is view
    with pytest.raises(TypeError):
        view[cls._mono((0, 0), (0, 0))] = GR_ONE
    with pytest.raises(AttributeError):
        x._terms = {}
    assert dict(view) == {cls._mono((1, 0), (0, 2)): GaussRational(3),
                          cls._mono((0, 0), (0, 0)): GR_ONE}


@pytest.mark.parametrize("cls", [WeylElement, CPolynomial])
def test_equal_values_hash_equal(cls):
    rng = random.Random(3)
    for _ in range(20):
        x = random_element(rng, cls, rng.randint(1, 3), 6, big=False, diagonal=False)
        items = list(x.terms.items())
        rng.shuffle(items)
        shuffled = cls(x.d, dict(items))
        rebuilt = (x + x) - x
        assert shuffled == x == rebuilt
        assert hash(shuffled) == hash(x) == hash(rebuilt)


def test_exponent_bound_refused_exactly_at_b():
    check_exponents((B - 1, 0), (0, B - 1))
    for vec in ((B,), (0, B), (B + 1,)):
        with pytest.raises(ValueError, match="below 2\\^31"):
            check_exponents(vec)
    for cls in (WeylElement, CPolynomial):
        assert cls.monomial(1, (B - 1,), (0,)).degree() == B - 1
        with pytest.raises(ValueError):
            cls.monomial(1, (B,), (0,))
        with pytest.raises(ValueError):
            cls.from_json_dict({"d": 1, "terms": [
                {"alpha": [B], "beta": [0], "re": "1", "im": "0"}]})
        assert cls.one(1).coefficient((B,), (0,)) == 0
    # products: degrees summing to B - 1 pass; past that, a field summing to
    # B - 1 passes and one summing to B is refused
    for cls, mul in ((WeylElement, weyl_mul), (CPolynomial, CPolynomial.__mul__)):
        x = cls.monomial(2, (1, B // 2 - 1), (0, 0))
        assert mul(x, cls.monomial(2, (0, 0), (B // 2 - 1, 0))).degree() == B - 1
        assert mul(x, cls.monomial(2, (0, 0), (B // 2, 0))).degree() == B
        assert mul(x, cls.monomial(2, (0, B // 2), (0, 0))).degree() == B
        with pytest.raises(ValueError, match="exponent bound"):
            mul(x, cls.monomial(2, (0, B // 2 + 1), (0, 0)))
        wide = cls.monomial(2, (B // 2, B // 2), (0, 0))
        assert mul(wide, cls.one(2)) == wide == mul(cls.one(2), wide)
        assert mul(wide, cls.zero(2)) == cls.zero(2)
        assert mul(wide, cls.monomial(2, (0, 0), (B - 1, B - 1))).degree() == 3 * B - 2
        half = cls.monomial(1, (B // 2,), (0,))
        with pytest.raises(ValueError, match="exponent bound"):
            mul(half, half)
        with pytest.raises(ValueError, match="exponent bound"):
            mul(cls(2, {cls._mono((B // 2, 0), (0, 0)): 1, cls._mono((0, 0), (0, 1)): 1}),
                cls.monomial(2, (0, 0), (0, B - 1)))
    # a raising step may reach B - 1, never B
    p = CPolynomial.monomial(1, (B - 2,), (0,))
    assert op_R(p) == CPolynomial.monomial(1, (B - 1,), (1,))
    with pytest.raises(ValueError, match="exponent bound"):
        op_R(op_R(p))
    with pytest.raises(ValueError, match="exponent bound"):
        cal_R(OrderingContext(1, Fraction(1, 2)), WeylElement.monomial(1, (0,), (B - 1,)))


# ---------------------------------------------------------------------------
# The triple's memo of each key's neighbourhood
# ---------------------------------------------------------------------------

EDGE_FIELDS = (0, 1, B - 2, B - 1)


def edge_vectors(d):
    """Exponent vectors whose fields are 0, 1, B - 2 and B - 1: all of
    them for d <= 2, and for larger d a seeded sample and the constant
    vectors."""
    if d <= 2:
        return list(product(EDGE_FIELDS, repeat=2 * d))
    rng = random.Random(d)
    return ([tuple(rng.choice(EDGE_FIELDS) for _ in range(2 * d)) for _ in range(300)]
            + [(e,) * (2 * d) for e in EDGE_FIELDS])


def moved(e, d, j, step):
    """The key of e with both exponents of mode j moved by step."""
    e = list(e)
    e[j] += step
    e[d + j] += step
    return _layout(d).key(e[:d], e[d:])


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_neighbourhood_matches_a_fresh_unpack(d):
    lay = _layout(d)
    steps = [moved((0,) * (2 * d), d, j, 1) for j in range(d)]
    for e in edge_vectors(d):
        k = lay.key(e[:d], e[d:])
        record = poly._neighbourhood(k, d)
        fields = lay.fields(k)
        assert fields == e
        degree, raises, downs = record
        assert degree == sum(fields) + d
        assert raises == (B - 1 not in fields)
        if raises:
            assert [k + step for step in steps] == [moved(fields, d, j, 1) for j in range(d)]
        lowered = [j for j in range(d) if fields[j] and fields[d + j]]
        assert downs == tuple((steps[j], fields[j] * fields[d + j]) for j in lowered), e
        assert [k - step for step, _ in downs] == [moved(fields, d, j, -1) for j in lowered]
        # an entry holds the layout's own step ints, no key of its own, and
        # the memo hands the same value to every caller, so nothing in it
        # may be changed in place
        assert all(step is lay.step[j] for (step, _), j in zip(downs, lowered))
        assert type(record) is tuple and type(downs) is tuple
        assert all(type(pair) is tuple for pair in downs)


TRIPLE_PATTERNS = [p for p in product((0, 1), repeat=3) if any(p)]


@pytest.mark.parametrize("pattern", TRIPLE_PATTERNS,
                         ids=lambda p: "+".join(n for n, c in zip("REL", p) if c))
@pytest.mark.parametrize("cls", [WeylElement, CPolynomial])
def test_triple_accumulator_matches_per_product_oracle(cls, pattern):
    # every combination of R, E and L, E alone (its one-to-one path)
    # included: the raw accumulator over the input's denominator has the
    # oracle's keys in the oracle's order, cancelled ones as [0, 0]
    rng = random.Random(f"{cls.__name__}-{pattern}")
    cancelled = 0
    for i in range(48):
        d = 1 + i % 4
        x = random_element(rng, cls, d, rng.randint(1, 8), big=i % 3 == 1,
                           diagonal=i % 2 == 0)
        weights = [c * rng.choice((-3, -1, 2, 5)) for c in pattern]
        raw = per_product_triple(x, *weights)
        if i % 4 == 2 and pattern != (0, 1, 0):
            x = cancelling(lambda ctx, v: per_product_triple(v, *weights), None, x)
            raw = per_product_triple(x, *weights)
        cancelled += any(not c for c in raw.values())
        acc = poly._triple_acc(d, x._terms, *weights)
        lay = _layout(d)
        assert list(acc) == [lay.key(m.alpha, m.beta) for m in raw], (pattern, i)
        for (re, im), c in zip(acc.values(), raw.values()):
            assert GaussRational(Fraction(re, x._den), Fraction(im, x._den)) == c
    assert cancelled or pattern == (0, 1, 0)
