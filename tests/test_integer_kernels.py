"""The ordering map and the sl2 triple on integer numerators, against the
per-product loops they replaced.

`ordering._closed_form` and `poly._triple` accumulate Gaussian-integer
numerators over one common denominator and reduce once per output term.
The oracles below are the loops they replaced: every weight is a
`Fraction`, every product and every collision sum builds and reduces its
own `GaussRational`, and cancelled keys stay in the raw accumulator.
Each comparison checks the canonical parts ``(n, m, den)`` of every output
term in output order, and the unreduced denominator each kernel hands to
`_gr`: the lcm of the input denominators times td^S for the closed form
(t = tn/td, S the largest contraction order) and times the lcm of the
denominators of r, e and l for the triple.
"""

import random
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

import pytest

import weylharm.ordering as ordering
import weylharm.poly as poly
from weylharm.ordering import (
    OrderingContext,
    cal_E,
    cal_L,
    cal_R,
    order_q,
    ordered_monomial,
    unorder_q,
)
from weylharm.poly import CMonomial, CPolynomial, op_E, op_L, op_R
from weylharm.scalars import GR_ONE, GaussRational
from weylharm.weyl import ModeMismatchError, NormalMonomial, WeylElement, contractions

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


def per_product_closed_form(terms, t, key):
    """The closed form with one GaussRational per product and per sum; the
    raw accumulator, cancelled keys included."""
    acc = {}
    for mono, coeff in terms.items():
        alpha, beta = mono.alpha, mono.beta
        for ivec, weight in contractions(alpha, beta):
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
        return lcm(*(c.den for c in x.terms.values())) * t.denominator ** _order_top(x.terms)

    return oracle, den


def _triple_map(coeffs):
    def oracle(ctx, x):
        return per_product_triple(x, *coeffs(ctx.q_complement))

    def den(ctx, x):
        dens = (Fraction(c).denominator for c in coeffs(ctx.q_complement))
        return lcm(*(c.den for c in x.terms.values())) * lcm(*dens)

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


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def parts(terms):
    """(monomial, (n, m, den)) in output order."""
    return [(k, (c.n, c.m, c.den)) for k, c in terms.items()]


def oracle_parts(raw):
    return [(k, (c.n, c.m, c.den)) for k, c in raw.items() if c]


@pytest.fixture
def dens_seen(monkeypatch):
    """Record the unreduced denominator of every output term the kernels
    build."""
    seen = []
    for module in (ordering, poly):
        real = module._gr

        def recording(n, m, den, real=real):
            seen.append(den)
            return real(n, m, den)

        monkeypatch.setattr(module, "_gr", recording)
    return seen


@pytest.mark.parametrize("name", sorted(MAPS))
def test_kernel_matches_per_product_oracle(name, dens_seen):
    fn, _, oracle, expected_den = MAPS[name]
    cancelled = 0
    for i in range(CASES):
        ctx, x = case(name, i)
        raw = oracle(ctx, x)
        cancelled += any(not c for c in raw.values())
        dens_seen.clear()
        got = fn(ctx, x)
        assert parts(got.terms) == oracle_parts(raw), (name, i)
        assert set(dens_seen) <= {expected_den(ctx, x)}, (name, i)
        assert len(dens_seen) == sum(1 for c in raw.values() if c), (name, i)
    # zero sums were exercised, except by E, which maps monomials one to one
    assert cancelled >= CASES // 8 or (name == "op_E" and not cancelled), cancelled


def test_ordered_monomial_matches_per_product_oracle(dens_seen):
    for i in range(CASES):
        rng = random.Random(i)
        ctx = OrderingContext(1 + (i // len(QS)) % 3, QS[i % len(QS)])
        alpha = tuple(rng.randint(0, 4) for _ in range(ctx.d))
        beta = tuple(rng.randint(0, 4) for _ in range(ctx.d))
        raw = per_product_closed_form({CMonomial(alpha, beta): GR_ONE},
                                      ctx.q_complement, _normal)
        dens_seen.clear()
        got = ordered_monomial(ctx, alpha, beta)
        assert parts(got.terms) == oracle_parts(raw), i
        top = sum(map(min, alpha, beta))
        assert set(dens_seen) <= {ctx.q_complement.denominator ** top}, i


def test_closed_form_drops_zero_sums():
    """unorder_q of order_q(p): every key but p's collects contributions
    that cancel, and the closed form returns none of them."""
    ctx = OrderingContext(2, Fraction(-2, 3))
    p = CPolynomial(2, {CMonomial((2, 1), (1, 2)): GaussRational(Fraction(3, 4), 5)})
    w = order_q(ctx, p)
    t = -ctx.q_complement
    raw = per_product_closed_form(w.terms, t, CMonomial)
    assert any(not c for c in raw.values())
    assert ordering._closed_form(w.terms, t, CMonomial) == {m: c for m, c in raw.items() if c}
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
