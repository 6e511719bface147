"""Polynomial algebra: classical triple, harmonic decomposition, dimensions."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weylharm.poly as poly
from weylharm import linalg
from weylharm.linalg import _reduce_against
from weylharm.poly import (
    CMonomial,
    CPolynomial,
    bidegree_split,
    deriv_z,
    deriv_zbar,
    harmonic_decompose,
    harmonic_dim,
    is_harmonic,
    op_E,
    op_L,
    op_R,
)
from weylharm.scalars import GR_ONE, GR_ZERO, GaussRational
from weylharm.verify import (
    _homogeneous_monomials,
    harmonic_basis,
    random_cpoly,
    random_homogeneous_cpoly,
)


def op_euler(p: CPolynomial) -> CPolynomial:
    """Plain Euler operator: multiplies each monomial by its degree."""
    return CPolynomial(p.d, {m: c * m.degree for m, c in p.terms.items()})


def substitute_scaled(p: CPolynomial, lam: GaussRational) -> CPolynomial:
    """p(lam*z, conj(lam)*zbar), the bi-degree scaling action."""
    lamc = lam.conjugate()
    return CPolynomial(p.d, {m: c * lam ** sum(m.alpha) * lamc ** sum(m.beta)
                             for m, c in p.terms.items()})


# ---------------------------------------------------------------------------
# Independent oracle: harmonic decomposition by brute-force linear solve
# ---------------------------------------------------------------------------


def _col_key(col):
    # a deterministic pivot order for heterogeneous hashable columns
    return (str(type(col)), repr(col))


def solve(rows, rhs_key="__rhs__"):
    """Solve the system encoded as augmented rows {col: a, rhs_key: b}.

    Returns a particular solution {column: value} with free columns at
    zero, or None when the system is inconsistent.  The rhs column is
    never chosen as a pivot.
    """
    pivots: dict = {}
    for row in rows:
        if not row:
            continue
        reduced = _reduce_against(row, pivots)
        if not reduced:
            continue
        unknown_cols = [c for c in reduced if c != rhs_key]
        if not unknown_cols:
            return None  # 0 = nonzero rhs
        col = min(unknown_cols, key=_col_key)
        inv = GR_ONE / reduced[col]
        pivots[col] = {c: v * inv for c, v in reduced.items()}
    solution: dict = {}
    for col in reversed(list(pivots)):
        prow = pivots[col]
        value = prow.get(rhs_key, GR_ZERO)
        for c, v in prow.items():
            if c == col or c == rhs_key:
                continue
            value = value - v * solution.get(c, GR_ZERO)
        solution[col] = value
    return solution


def gr(x):
    return GaussRational(Fraction(x))


def test_solve_consistent_and_inconsistent():
    rows = [
        {0: gr(2), 1: gr(1), "__rhs__": gr(5)},
        {0: gr(1), 1: gr(-1), "__rhs__": gr(1)},
    ]
    sol = solve(rows)
    assert sol[0] == gr(2) and sol[1] == gr(1)

    bad = [
        {0: gr(1), "__rhs__": gr(1)},
        {0: gr(1), "__rhs__": gr(2)},
    ]
    assert solve(bad) is None


def test_solve_underdetermined_free_columns_zero():
    rows = [{0: gr(1), 1: gr(1), "__rhs__": gr(3)}]
    sol = solve(rows)
    # particular solution with the free column at zero still satisfies
    x0 = sol.get(0, GaussRational(0))
    x1 = sol.get(1, GaussRational(0))
    assert x0 + x1 == gr(3)


def oracle_harmonic_decompose(p):
    """Solve the defining equations directly: match the reconstruction on
    every monomial and force each layer into the Laplacian kernel."""
    d, m = p.d, p.degree()
    jmax = m // 2
    r2 = CPolynomial.radius_squared(d)
    unknown_monos = {j: _homogeneous_monomials(d, m - 2 * j) for j in range(jmax + 1)}
    # reconstruction equations, indexed by target monomials of degree m
    recon = {}
    for j, monos in unknown_monos.items():
        radial = r2**j
        for mu in monos:
            for nu, c in radial.terms.items():
                target = CMonomial(
                    tuple(a + b for a, b in zip(mu.alpha, nu.alpha)),
                    tuple(a + b for a, b in zip(mu.beta, nu.beta)),
                )
                recon.setdefault(target, {})[(j, mu)] = c
    rows = []
    for target, row in recon.items():
        row = dict(row)
        row["__rhs__"] = p.terms.get(target, GaussRational(0))
        rows.append(row)
    # harmonicity equations per layer
    for j, monos in unknown_monos.items():
        images = {}
        for mu in monos:
            for nu, c in op_L(CPolynomial(d, {mu: GR_ONE})).terms.items():
                images.setdefault(nu, {})[(j, mu)] = c
        rows.extend(dict(row) for row in images.values())
    solution = solve(rows)
    assert solution is not None
    out = []
    for j in range(jmax + 1):
        terms = {}
        for mu in unknown_monos[j]:
            v = solution.get((j, mu))
            if v is not None and not v.is_zero():
                terms[mu] = v
        out.append(CPolynomial(d, terms))
    return out


def peel_harmonic_decompose(p):
    """The per-component peel that `poly._harmonic_parts` replaced, kept as
    its oracle: from the most radial layer of a homogeneous p of degree m
    down, h_j is L^j of the residual over the ladder constant
    j! * (m - 2j + d) ... (m - j + d - 1), and R^j h_j leaves the residual,
    until the residual is zero."""
    d, m = p.d, p.degree()
    parts = [CPolynomial.zero(d)] * (m // 2 + 1)
    residual = p
    for j in range(m // 2, -1, -1):
        h = residual
        for _ in range(j):
            h = op_L(h)
        h = h.scale(Fraction(1, math.factorial(j) * math.prod(range(m - 2 * j + d, m - j + d))))
        parts[j] = h
        for _ in range(j):
            h = op_R(h)
        residual = residual - h
        if not residual:
            break
    return parts


def parts_by_component(p, decompose=peel_harmonic_decompose):
    """{j: h_j} of any p: ``decompose`` on each homogeneous component, the
    j-th parts summed over the components, zero parts dropped."""
    out = {}
    for comp in p.homogeneous_components().values():
        for j, h in enumerate(decompose(comp)):
            if h:
                out[j] = out[j] + h if j in out else h
    return out


# ---------------------------------------------------------------------------
# Ring operations and the triple
# ---------------------------------------------------------------------------


class TestRing:
    def test_product(self):
        z1 = CPolynomial.z(1, 1)
        zb1 = CPolynomial.zbar(1, 1)
        assert z1 * zb1 == CPolynomial.monomial(1, (1,), (1,))

    def test_radius_squared_is_sum(self):
        d = 2
        total = CPolynomial.zero(d)
        for j in range(1, d + 1):
            total = total + CPolynomial.z(d, j) * CPolynomial.zbar(d, j)
        assert CPolynomial.radius_squared(d) == total

    def test_binomial_square(self):
        z1 = CPolynomial.z(1, 1)
        zb1 = CPolynomial.zbar(1, 1)
        s = z1 + zb1
        assert s * s == z1**2 + (z1 * zb1).scale(2) + zb1**2

    def test_commutativity_random(self):
        rng = random.Random(0)
        for _ in range(10):
            d = rng.randint(1, 3)
            p = random_cpoly(rng, d, 4)
            q = random_cpoly(rng, d, 4)
            assert p * q == q * p

    def test_mode_mismatch(self):
        from weylharm.weyl import ModeMismatchError

        with pytest.raises(ModeMismatchError):
            CPolynomial.one(1) * CPolynomial.one(2)
        with pytest.raises(ModeMismatchError):
            CPolynomial.one(1) + CPolynomial.one(2)

    def test_monomial_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            CPolynomial.monomial(1, (-1,), (0,))
        with pytest.raises(ValueError):
            CPolynomial.monomial(1, (0,), (0.5,))
        data = {"d": 1, "terms": [{"alpha": [2], "beta": [-1], "re": "1", "im": "0"}]}
        with pytest.raises(ValueError):
            CPolynomial.from_json_dict(data)

    def test_terms_are_read_only(self):
        p = CPolynomial.radius_squared(2)
        with pytest.raises(AttributeError):
            p.terms.clear()
        assert p == CPolynomial.radius_squared(2)


class TestTriple:
    def test_L_on_zzbar(self):
        p = CPolynomial.monomial(1, (1,), (1,))
        assert op_L(p) == CPolynomial.one(1)

    def test_E_homogeneous(self):
        p = CPolynomial.monomial(1, (2,), (0,))
        assert op_E(p) == p.scale(3)  # degree 2 plus d = 1

    def test_E_is_euler_plus_d(self):
        rng = random.Random(3)
        p = random_cpoly(rng, 2, 5)
        assert op_E(p) == op_euler(p) + p.scale(2)

    def test_sl2_relations_random(self):
        rng = random.Random(1)
        for d in (1, 2, 3):
            for _ in range(8):
                p = random_cpoly(rng, d, 6)
                assert op_R(op_L(p)) - op_L(op_R(p)) == -op_E(p)
                assert op_E(op_R(p)) - op_R(op_E(p)) == op_R(p).scale(2)
                assert op_E(op_L(p)) - op_L(op_E(p)) == op_L(p).scale(-2)

    @given(st.integers(1, 3), st.integers(0, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_against_products_and_derivatives(self, d, deg, seed):
        # R is the product with r^2, L the per-mode second derivative, and
        # E the Euler operator sum_j (z_j d/dz_j + zbar_j d/dzbar_j) plus d
        p = random_cpoly(random.Random(seed), d, deg)
        assert op_R(p) == CPolynomial.radius_squared(d) * p
        lap = CPolynomial.zero(d)
        euler = p.scale(d)
        for j in range(1, d + 1):
            lap = lap + deriv_z(deriv_zbar(p, j), j)
            euler = euler + CPolynomial.z(d, j) * deriv_z(p, j)
            euler = euler + CPolynomial.zbar(d, j) * deriv_zbar(p, j)
        assert op_L(p) == lap
        assert op_E(p) == euler

    def test_derivatives(self):
        p = CPolynomial.monomial(2, (2, 0), (0, 1))
        assert deriv_z(p, 1) == CPolynomial.monomial(2, (1, 0), (0, 1), 2)
        assert deriv_zbar(p, 2) == CPolynomial.monomial(2, (2, 0), (0, 0))
        assert deriv_z(p, 2).is_zero()


# ---------------------------------------------------------------------------
# Harmonic decomposition
# ---------------------------------------------------------------------------


class TestHarmonicDecompose:
    def test_harmonic_input_passes_through(self):
        p = CPolynomial.z(1, 1) ** 3  # z^3 is harmonic
        assert is_harmonic(p)
        parts = harmonic_decompose(p)
        assert parts[0] == p
        assert all(h.is_zero() for h in parts[1:])

    def test_radial_element(self):
        p = CPolynomial.radius_squared(1)
        parts = harmonic_decompose(p)
        assert parts[0].is_zero()
        assert parts[1] == CPolynomial.one(1)

    def test_stops_once_the_residual_is_zero(self, monkeypatch):
        # r^40 is all in the top layer: twenty L passes build the chain down
        # to h_20 and twenty R passes raise it back to degree 40
        calls = []
        real = poly._triple_acc
        monkeypatch.setattr(poly, "_triple_acc",
                            lambda d, terms, *weights: calls.append(weights) or real(d, terms, *weights))
        parts = harmonic_decompose(CPolynomial.monomial(1, (20,), (20,)))
        assert len(calls) == 40
        assert calls.count((0, 0, 1)) == calls.count((1, 0, 0)) == 20
        assert parts[20] == CPolynomial.one(1)
        assert all(h.is_zero() for h in parts[:20])

    def test_degree4_against_linear_solve_oracle(self):
        p = CPolynomial.monomial(1, (2,), (2,))  # z^2 zbar^2, d = 1
        parts = harmonic_decompose(p)
        expected = oracle_harmonic_decompose(p)
        assert parts == expected
        r2 = CPolynomial.radius_squared(1)
        rebuilt = CPolynomial.zero(1)
        for j, h in enumerate(parts):
            assert is_harmonic(h)
            rebuilt = rebuilt + (r2**j) * h
        assert rebuilt == p

    def test_random_against_oracle(self):
        rng = random.Random(7)
        for _ in range(8):
            d = rng.randint(1, 2)
            m = rng.randint(1, 4)
            p = random_homogeneous_cpoly(rng, d, m)
            if p.is_zero():
                continue
            assert harmonic_decompose(p) == oracle_harmonic_decompose(p)

    def test_random_reconstruction_and_harmonicity(self):
        rng = random.Random(8)
        for _ in range(12):
            d = rng.randint(1, 3)
            m = rng.randint(0, 6)
            p = random_homogeneous_cpoly(rng, d, m, n_terms=5)
            if p.is_zero():
                continue
            parts = harmonic_decompose(p)
            r2 = CPolynomial.radius_squared(d)
            rebuilt = CPolynomial.zero(d)
            for j, h in enumerate(parts):
                assert is_harmonic(h)
                rebuilt = rebuilt + (r2**j) * h
            assert rebuilt == p

    def test_rejects_inhomogeneous(self):
        p = CPolynomial.one(1) + CPolynomial.z(1, 1)
        with pytest.raises(ValueError):
            harmonic_decompose(p)


class TestHarmonicParts:
    """`poly._harmonic_parts` on any p against the per-component peel and
    the linear-solve oracle."""

    @staticmethod
    def assert_decomposes(p, parts):
        r2 = CPolynomial.radius_squared(p.d)
        assert all(h and is_harmonic(h) for h in parts.values())
        assert sum((r2**j * h for j, h in parts.items()), CPolynomial.zero(p.d)) == p

    @given(st.integers(1, 3), st.integers(0, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @example(3, 8, 8, 1)
    @example(2, 8, 8, 2)
    @settings(max_examples=60, deadline=None)
    def test_inhomogeneous_against_the_peel(self, d, deg, n_terms, seed):
        p = random_cpoly(random.Random(seed), d, deg, n_terms)
        parts = poly._harmonic_parts(p)
        assert parts == parts_by_component(p)
        self.assert_decomposes(p, parts)

    @given(st.integers(1, 2), st.integers(0, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_inhomogeneous_against_the_linear_solve(self, d, deg, seed):
        p = random_cpoly(random.Random(seed), d, deg, 5)
        assert poly._harmonic_parts(p) == parts_by_component(p, oracle_harmonic_decompose)

    @given(st.integers(1, 3), st.integers(0, 40), st.integers(0, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_deep_radial_against_the_peel(self, d, k, deg, seed):
        # z1^k zb1^k reaches layer k, and lower-degree terms share the chain
        e = (k,) + (0,) * (d - 1)
        p = CPolynomial.monomial(d, e, e) + random_cpoly(random.Random(seed), d, deg)
        parts = poly._harmonic_parts(p)
        assert parts == parts_by_component(p)
        self.assert_decomposes(p, parts)

    def test_harmonic_input_is_returned_as_it_is(self):
        p = CPolynomial.z(2, 1) ** 3 + CPolynomial.zbar(2, 2) + 5
        assert poly._harmonic_parts(p) == {0: p}
        assert poly._harmonic_parts(p)[0] is p
        assert poly._harmonic_parts(CPolynomial.zero(2)) == {}


class TestDimensions:
    def test_planar(self):
        for k in range(1, 7):
            assert harmonic_dim(2, k) == 2

    def test_linear_forms(self):
        assert harmonic_dim(4, 1) == 4

    def test_quadratic_in_four_vars(self):
        assert harmonic_dim(4, 2) == 9

    def test_kernel_rank_match_small(self):
        # the closed-form basis is harmonic and independent, of the
        # dimension the formula gives
        for d in (1, 2, 3):
            for k in range(7):
                basis = harmonic_basis(d, k)
                assert all(is_harmonic(h) for h in basis)
                rank = linalg.rank([dict(h.terms) for h in basis])
                assert len(basis) == rank == harmonic_dim(2 * d, k)

    def test_graded_sum_matches_full_space(self):
        # sum over layers of harmonic dimensions = dim of degree-m space
        for d in (1, 2, 3):
            for m in range(6):
                total = sum(
                    harmonic_dim(2 * d, m - 2 * j) for j in range(m // 2 + 1)
                )
                assert total == len(_homogeneous_monomials(d, m))


class TestBidegree:
    def test_single_component(self):
        p = CPolynomial.monomial(2, (1, 0), (0, 1))
        split = bidegree_split(p)
        assert list(split) == [(1, 1)]
        assert split[(1, 1)] == p

    def test_two_components(self):
        p = CPolynomial.monomial(1, (2,), (0,)) + CPolynomial.monomial(1, (0,), (2,))
        split = bidegree_split(p)
        assert set(split) == {(2, 0), (0, 2)}

    def test_scaling_characterization(self):
        rng = random.Random(9)
        lam = GaussRational(Fraction(2, 3), Fraction(1, 2))
        p = random_cpoly(rng, 2, 4)
        for (n, m), comp in bidegree_split(p).items():
            assert substitute_scaled(comp, lam) == comp.scale(
                lam**n * lam.conjugate() ** m
            )

    def test_L_drops_bidegree(self):
        rng = random.Random(10)
        for _ in range(10):
            p = random_cpoly(rng, 2, 5)
            for (n, m), comp in bidegree_split(p).items():
                image = op_L(comp)
                if image.is_zero():
                    continue
                assert set(bidegree_split(image)) == {(n - 1, m - 1)}

    def test_split_preserves_harmonicity(self):
        h = harmonic_basis(2, 3)[0]
        for comp in bidegree_split(h).values():
            assert is_harmonic(comp)

    def test_reassembles(self):
        rng = random.Random(11)
        p = random_cpoly(rng, 3, 5, 6)
        total = CPolynomial.zero(3)
        for comp in bidegree_split(p).values():
            total = total + comp
        assert total == p
