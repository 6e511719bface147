"""Weyl algebra core: CCR rewriting and the truncated matrix oracle."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from weylharm.poly import CMonomial, CPolynomial
from weylharm.scalars import GR_ONE, GaussRational, UniPoly
from weylharm.verify import random_cpoly, random_weyl
from weylharm.weyl import (
    FIELD_BITS,
    MODES_MAX,
    NO_CONTRACTION,
    ModeMismatchError,
    NormalMonomial,
    WeylElement,
    _layout,
    clear_caches,
    commutator,
    compositions,
    contractions,
    number_operator,
    weyl_mul,
)

from fock_oracle import fock_product_block_agrees, fock_represent, occupation_states

# ---------------------------------------------------------------------------
# Independent oracle: single-swap rewriting on words of generators
# ---------------------------------------------------------------------------


def naive_normal_order(word, d):
    """Normal-order a word of ('a'|'c', mode) letters by single swaps.

    Exponential, obviously correct; used only on small words.
    """
    for idx in range(len(word) - 1):
        (t1, m1), (t2, m2) = word[idx], word[idx + 1]
        if t1 == "a" and t2 == "c":
            swapped = word[:idx] + (word[idx + 1], word[idx]) + word[idx + 2 :]
            out = dict(naive_normal_order(swapped, d))
            if m1 == m2:
                contracted = word[:idx] + word[idx + 2 :]
                for mono, coeff in naive_normal_order(contracted, d).items():
                    out[mono] = out.get(mono, 0) + coeff
            return out
    beta = [0] * d
    alpha = [0] * d
    for kind, mode in word:
        if kind == "c":
            beta[mode] += 1
        else:
            alpha[mode] += 1
    return {NormalMonomial(tuple(beta), tuple(alpha)): 1}


def word_element(word, d):
    out = WeylElement.one(d)
    for kind, mode in word:
        gen = (
            WeylElement.creator(d, mode + 1)
            if kind == "c"
            else WeylElement.annihilator(d, mode + 1)
        )
        out = weyl_mul(out, gen)
    return out


def test_naive_oracle_agrees_with_kernel_product():
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randint(1, 2)
        length = rng.randint(0, 6)
        word = tuple(
            (rng.choice("ac"), rng.randrange(d)) for _ in range(length)
        )
        expected = naive_normal_order(word, d)
        got = word_element(word, d)
        assert got == WeylElement(d, {m: GaussRational(c) for m, c in expected.items()})


def test_contraction_formula_single_mode():
    # a^m (a+)^n = sum_i C(m,i) C(n,i) i! (a+)^(n-i) a^(m-i); at d = 1 the
    # packed halves are the exponents, and i contractions take i off both
    # fields of the key
    for m in range(4):
        for n in range(4):
            data = dict()
            for offset, i, coeff in contractions(m, n, 1):
                assert offset == i * (1 + (1 << FIELD_BITS))
                data[i] = coeff
            assert sorted(data) == list(range(min(m, n) + 1))
            for i in range(min(m, n) + 1):
                assert data[i] == comb(m, i) * comb(n, i) * factorial(i)


def contractions_over_all_modes(ann, cre, d):
    """The expansion as a product over every mode, contracting or not, with
    each weight from math.comb: the kernel `contractions` replaced, kept as
    its oracle."""
    lay = _layout(d)
    per_mode = [
        [(i * step, i, comb(m, i) * comb(n, i) * factorial(i)) for i in range(min(m, n) + 1)]
        for m, n, step in zip(lay.fields(ann), lay.fields(cre), lay.step)
    ]
    out = []
    for combo in product(*per_mode):
        offset = order = 0
        weight = 1
        for o, i, c in combo:
            offset += o
            order += i
            weight *= c
        out.append((offset, order, weight))
    return tuple(out)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_contractions_match_the_all_modes_product(d):
    # every pair of halves with fields in {0, 1, 2, 3}, compared as tuples,
    # order included, since products and orderings accumulate in this order;
    # the unmemoised kernel, so the grid does not fill the memo
    lay = _layout(d)
    halves = [lay.key(e, (0,) * d) for e in product(range(4), repeat=d)]
    kernel = contractions.__wrapped__
    seen = set()
    for ann, cre in product(halves, repeat=2):
        got = kernel(ann, cre, d)
        assert got == contractions_over_all_modes(ann, cre, d)
        assert type(got) is tuple and all(type(t) is tuple for t in got)
        pairs = list(zip(lay.fields(ann)[:d], lay.fields(cre)[:d]))
        contracting = sum(1 for m, n in pairs if m and n)
        if contracting == 0:
            assert got is NO_CONTRACTION
        elif contracting == 1:
            (m, n), = [(m, n) for m, n in pairs if m and n]
            assert len(got) == min(m, n) + 1
        seen.add(contracting)
    # no mode, one mode and every mode contracting all occur
    assert {0, 1, d} <= seen


def test_contractions_memo_is_cleared():
    clear_caches()
    assert contractions.cache_info().currsize == 0
    contractions(2, 3, 1)
    contractions(1 << FIELD_BITS, 1, 2)  # no mode contracts
    assert contractions.cache_info().currsize == 2
    assert contractions(1 << FIELD_BITS, 1, 2) is NO_CONTRACTION
    clear_caches()
    assert contractions.cache_info().currsize == 0


def test_mode_count_is_bounded_before_anything_is_built():
    for build in (lambda d: _layout(d), WeylElement.one, WeylElement.zero,
                  lambda d: WeylElement.annihilator(d, 1), number_operator,
                  lambda d: CPolynomial.zbar(d, d)):
        with pytest.raises(ValueError, match=f"mode count d must be <= {MODES_MAX}"):
            build(MODES_MAX + 1)
        with pytest.raises((ValueError, IndexError)):  # a generator's index is out of range
            build(0)
    one = WeylElement.one(MODES_MAX)
    assert one == WeylElement.monomial(MODES_MAX, (0,) * MODES_MAX, (0,) * MODES_MAX)
    assert one._terms == {0: [1, 0]} and one._den == 1
    assert CPolynomial.one(3) == CPolynomial(3, {CMonomial((0, 0, 0), (0, 0, 0)): 1})


# ---------------------------------------------------------------------------
# Spec examples and algebraic laws
# ---------------------------------------------------------------------------


class TestProducts:
    def test_ccr(self):
        a = WeylElement.annihilator(1, 1)
        c = WeylElement.creator(1, 1)
        assert weyl_mul(a, c) == weyl_mul(c, a) + WeylElement.one(1)

    def test_unit_law(self):
        rng = random.Random(0)
        w = random_weyl(rng, 2, 4)
        one = WeylElement.one(2)
        assert weyl_mul(one, w) == w
        assert weyl_mul(w, one) == w

    def test_number_squared(self):
        n = number_operator(1)
        expected = WeylElement(
            1,
            {
                NormalMonomial((2,), (2,)): GR_ONE,
                NormalMonomial((1,), (1,)): GR_ONE,
            },
        )
        assert weyl_mul(n, n) == expected

    def test_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            weyl_mul(WeylElement.one(1), WeylElement.one(2))

    def test_associativity_random(self):
        rng = random.Random(5)
        for _ in range(25):
            d = rng.randint(1, 3)
            x = random_weyl(rng, d, 4, 3)
            y = random_weyl(rng, d, 4, 3)
            z = random_weyl(rng, d, 4, 3)
            assert weyl_mul(weyl_mul(x, y), z) == weyl_mul(x, weyl_mul(y, z))


class TestBrackets:
    def test_ccr_commutator(self):
        a = WeylElement.annihilator(1, 1)
        c = WeylElement.creator(1, 1)
        assert commutator(a, c) == WeylElement.one(1)

    def test_antisymmetry(self):
        rng = random.Random(1)
        x = random_weyl(rng, 2, 3)
        assert commutator(x, x).is_zero()

    def test_jacobi_random(self):
        rng = random.Random(2)
        for _ in range(15):
            d = rng.randint(1, 2)
            x = random_weyl(rng, d, 3, 3)
            y = random_weyl(rng, d, 3, 3)
            z = random_weyl(rng, d, 3, 3)
            total = (
                commutator(x, commutator(y, z))
                + commutator(y, commutator(z, x))
                + commutator(z, commutator(x, y))
            )
            assert total.is_zero()

    def test_ad_is_derivation(self):
        rng = random.Random(4)
        d = 2
        x = random_weyl(rng, d, 3, 3)
        y = random_weyl(rng, d, 3, 3)
        z = random_weyl(rng, d, 3, 3)
        assert commutator(x, weyl_mul(y, z)) == (
            weyl_mul(commutator(x, y), z) + weyl_mul(y, commutator(x, z))
        )

    def test_ad_generators_commute(self):
        rng = random.Random(6)
        for d in (1, 2, 3):
            w = random_weyl(rng, d, 4, 4)
            for j in range(1, d + 1):
                for k in range(1, d + 1):
                    a = WeylElement.annihilator(d, j)
                    c = WeylElement.creator(d, k)
                    assert commutator(a, commutator(c, w)) == commutator(c, commutator(a, w))


class TestNumberOperator:
    def test_d1(self):
        assert number_operator(1) == WeylElement.monomial(1, (1,), (1,))

    def test_d2(self):
        expected = WeylElement(
            2,
            {
                NormalMonomial((1, 0), (1, 0)): GR_ONE,
                NormalMonomial((0, 1), (0, 1)): GR_ONE,
            },
        )
        assert number_operator(2) == expected

    def test_commutator_with_creator(self):
        n = number_operator(1)
        c = WeylElement.creator(1, 1)
        assert commutator(n, c) == c
        a = WeylElement.annihilator(1, 1)
        assert commutator(n, a) == -a


# ---------------------------------------------------------------------------
# The matrix oracle
# ---------------------------------------------------------------------------


class TestFock:
    def test_identity(self):
        m = fock_represent(WeylElement.one(2), 3)
        for i, s in enumerate(m.states):
            assert m.entry(s, s) == GR_ONE
        assert len(m.entries) == m.dimension

    def test_number_spectrum(self):
        m = fock_represent(number_operator(1), 5)
        for k in range(6):
            assert m.entry((k,), (k,)) == GaussRational(k)
        assert len(m.entries) == 5  # the |0> column is zero

    def test_state_count(self):
        assert len(occupation_states(2, 4)) == 15
        assert len(occupation_states(3, 2)) == 10
        # graded by total, lexicographic within a total
        assert occupation_states(2, 2) == (
            (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)
        )

    def test_annihilator_entries(self):
        m = fock_represent(WeylElement.annihilator(1, 1), 4)
        for k in range(1, 5):
            assert m.entry((k - 1,), (k,)) == GaussRational(k)

    def test_product_block_agreement_random(self):
        rng = random.Random(9)
        for _ in range(20):
            d = rng.randint(1, 2)
            x = random_weyl(rng, d, 3, 3)
            y = random_weyl(rng, d, 3, 3)
            cutoff = max(x.degree(), 0) + max(y.degree(), 0) + 2
            assert fock_product_block_agrees(x, y, cutoff)

    def test_matmul_space_mismatch(self):
        a = fock_represent(WeylElement.one(1), 2)
        b = fock_represent(WeylElement.one(1), 3)
        with pytest.raises(ModeMismatchError):
            a.matmul(b)


def test_json_round_trip():
    # both term maps share one serializer; each keeps its own key order
    for cls, make, fields in (
        (WeylElement, random_weyl, ["beta", "alpha", "re", "im"]),
        (CPolynomial, random_cpoly, ["alpha", "beta", "re", "im"]),
    ):
        rng = random.Random(13)
        w = make(rng, 2, 4, 5)
        data = w.to_json_dict()
        assert cls.from_json_dict(data) == w
        # canonical term order: sorted by (degree, beta, alpha)
        keys = [
            (sum(t["beta"]) + sum(t["alpha"]), tuple(t["beta"]), tuple(t["alpha"]))
            for t in data["terms"]
        ]
        assert keys == sorted(keys)
        for t in data["terms"]:
            assert list(t) == fields
            assert isinstance(t["re"], str) and isinstance(t["im"], str)


@pytest.mark.parametrize("cls", [WeylElement, CPolynomial])
def test_immutability_error_names_class(cls):
    x = cls.one(1)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        x.d = 2


VALUES = [
    (GaussRational(Fraction(1, 3), -2), "n"),
    (UniPoly([1, GaussRational(0, Fraction(-1, 2))]), "coeffs"),
    (random_weyl(random.Random(14), 2, 4, 5), "d"),
    (random_cpoly(random.Random(15), 2, 4, 5), "d"),
]
ROUND_TRIPS = [copy.copy, copy.deepcopy] + [
    lambda x, p=p: pickle.loads(pickle.dumps(x, protocol=p)) for p in range(2, 6)
]


@pytest.mark.parametrize("value, attr", VALUES)
def test_copy_and_pickle_round_trip(value, attr):
    for round_trip in ROUND_TRIPS:
        out = round_trip(value)
        assert type(out) is type(value)
        assert out == value and hash(out) == hash(value)
        with pytest.raises(AttributeError, match="is immutable$"):
            setattr(out, attr, getattr(out, attr))
        if hasattr(out, "terms"):
            with pytest.raises(TypeError):
                out.terms[next(iter(out.terms))] = GR_ONE


class TestSubtraction:
    # `-` subtracts in place; its oracle is the sum with the negation
    @pytest.mark.parametrize("make", [random_weyl, random_cpoly])
    def test_matches_sum_with_negation(self, make):
        rng = random.Random(11)
        for _ in range(40):
            d = rng.randint(1, 3)
            a, b = make(rng, d, 4), make(rng, d, 4)
            assert a - b == a + (-b)
            assert b - a == b + (-a)

    @pytest.mark.parametrize("make", [random_weyl, random_cpoly])
    def test_cancelling_terms_drop_out(self, make):
        rng = random.Random(12)
        a, b = make(rng, 2, 4), make(rng, 2, 4)
        assert (a - a).is_zero() and not (a - a).terms
        both = a + b
        assert both - b == a and both - a == b
        assert all(c for c in (both - b).terms.values())

    def test_scalar_operand(self):
        w = random_weyl(random.Random(13), 2, 3)
        for c in (3, Fraction(-2, 5), GaussRational(1, 1)):
            assert w - c == w + (-GaussRational.coerce(c))
        p = CPolynomial.one(1).scale(2)
        assert (p - 2).is_zero()

    @pytest.mark.parametrize("cls", [WeylElement, CPolynomial])
    def test_mode_mismatch(self, cls):
        with pytest.raises(ModeMismatchError):
            cls.one(1) - cls.one(2)

    def test_other_term_map_type_refused(self):
        with pytest.raises(TypeError):
            WeylElement.one(1) - CPolynomial.one(1)


def test_term_maps_of_different_types_do_not_mix():
    # their monomials are equal tuples, so only the type tells them apart
    assert WeylElement.zero(1) != CPolynomial.zero(1)
    assert WeylElement.one(1) != CPolynomial.one(1)
    with pytest.raises(TypeError):
        WeylElement.one(1) + CPolynomial.one(1)


@pytest.mark.parametrize("beta, alpha", [((-3,), (2,)), ((1,), (-1,)), ((1.0,), (0,))])
def test_monomial_rejects_bad_exponents(beta, alpha):
    with pytest.raises(ValueError):
        WeylElement.monomial(1, beta, alpha)
    data = {"d": 1, "terms": [{"beta": list(beta), "alpha": list(alpha),
                               "re": "1", "im": "0"}]}
    with pytest.raises(ValueError):
        WeylElement.from_json_dict(data)


@pytest.mark.parametrize("cls, mono", [
    (WeylElement, NormalMonomial((-1,), (0,))),
    (WeylElement, NormalMonomial((0,), (2.0,))),
    (CPolynomial, CMonomial((1.5,), (0,))),
    (CPolynomial, CMonomial((0,), (-2,))),
])
def test_constructor_rejects_bad_exponents(cls, mono):
    # the public constructor is where exponents from outside are validated;
    # before it was, a^2 * (a+)^-1 silently multiplied to 0
    with pytest.raises(ValueError, match="nonnegative integers"):
        cls(1, {mono: 1})
    with pytest.raises(ValueError, match="nonnegative integers"):
        cls(1, {mono: 0})


def test_compositions():
    assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(compositions(3, 1)) == [(3,)]
    # no parts used to recurse without end
    for parts in (0, -1):
        with pytest.raises(ValueError, match="parts must be >= 1"):
            list(compositions(2, parts))
