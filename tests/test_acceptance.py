"""Acceptance criteria, one test per criterion, with pass/fail lines.

Run as ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary lines.  Every tolerance and grid size is pinned here; exact means
structural equality in Q(i), never a float comparison.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from weylharm import linalg
from weylharm.ordering import (
    OrderingContext,
    cal_E,
    cal_L,
    cal_R,
    order_q,
    ordered_monomial,
)
from weylharm.poly import CPolynomial, harmonic_dim, is_harmonic, op_E, op_L, op_R
from weylharm.radial import (
    RadialContext,
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
)
from weylharm.scalars import GaussRational, UniPoly
from weylharm.specfun import (
    continuous_hahn_poly,
    hyp2f1_3f2_connection_check,
    meixner_pollaczek_poly,
    pochhammer,
)
from weylharm.verify import (
    Q_GRID,
    _homogeneous_monomials,
    harmonic_basis,
    random_homogeneous_cpoly,
    random_weyl,
)
from weylharm.weyl import WeylElement, number_operator, weyl_mul

from fock_oracle import fock_product_block_agrees

T = UniPoly.x()
SEED = 0


def _announce(number: int, description: str, passed: bool, elapsed: float):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number:>2}: {description} ({elapsed:.1f}s)")
    assert passed, f"criterion {number} failed"


def test_criterion_01_ccr_fock_oracle():
    start = time.monotonic()
    rng = random.Random(SEED)
    ok = True
    for _ in range(200):
        d = rng.randint(1, 2)
        x = random_weyl(rng, d, 4, 4)
        y = random_weyl(rng, d, 4, 4)
        cutoff = max(x.degree(), 0) + max(y.degree(), 0) + 2
        ok &= fock_product_block_agrees(x, y, cutoff)
    elapsed = time.monotonic() - start
    _announce(1, "200 random products match the truncated-Fock oracle",
              ok and elapsed < 30.0, elapsed)


def test_criterion_02_sl2_relations():
    start = time.monotonic()
    rng = random.Random(SEED)
    grid = [(d, q) for d in (1, 2, 3) for q in Q_GRID]
    ok = True
    for i in range(100):
        d, q = grid[i % len(grid)]
        ctx = OrderingContext(d, q)
        p = random_homogeneous_cpoly(rng, d, rng.randint(0, 4))
        ok &= (op_R(op_L(p)) - op_L(op_R(p))) == -op_E(p)
        ok &= (op_E(op_R(p)) - op_R(op_E(p))) == op_R(p).scale(2)
        ok &= (op_E(op_L(p)) - op_L(op_E(p))) == op_L(p).scale(-2)
        w = random_weyl(rng, d, 4)
        ok &= (cal_R(ctx, cal_L(ctx, w)) - cal_L(ctx, cal_R(ctx, w))) == -cal_E(ctx, w)
        ok &= (cal_E(ctx, cal_R(ctx, w)) - cal_R(ctx, cal_E(ctx, w))) == cal_R(ctx, w).scale(2)
        ok &= (cal_E(ctx, cal_L(ctx, w)) - cal_L(ctx, cal_E(ctx, w))) == cal_L(ctx, w).scale(-2)
    elapsed = time.monotonic() - start
    _announce(2, "sl2 relations exact on both algebras, 100 elements each",
              ok and elapsed < 60.0, elapsed)


def test_criterion_03_intertwining():
    start = time.monotonic()
    rng = random.Random(SEED)
    grid = [(d, q) for d in (1, 2, 3) for q in Q_GRID]
    ok = True
    for i in range(100):
        d, q = grid[i % len(grid)]
        ctx = OrderingContext(d, q)
        p = random_homogeneous_cpoly(rng, d, rng.randint(0, 5))
        w = order_q(ctx, p)
        ok &= order_q(ctx, op_R(p)) == cal_R(ctx, w)
        ok &= order_q(ctx, op_L(p)) == cal_L(ctx, w)
        ok &= order_q(ctx, op_E(p)) == cal_E(ctx, w)
    elapsed = time.monotonic() - start
    _announce(3, "ordering map intertwines the triples, 100 homogeneous elements",
              ok, elapsed)


def _symmetrized(d, alpha, beta):
    word = []
    for j in range(d):
        word += [("a", j)] * alpha[j] + [("c", j)] * beta[j]
    total = WeylElement.zero(d)
    count = 0
    for perm in itertools.permutations(word):
        w = WeylElement.one(d)
        for kind, mode in perm:
            gen = (
                WeylElement.creator(d, mode + 1)
                if kind == "c"
                else WeylElement.annihilator(d, mode + 1)
            )
            w = weyl_mul(w, gen)
        total = total + w
        count += 1
    return total.scale(Fraction(1, count))


def test_criterion_04_ordering_special_cases():
    start = time.monotonic()
    ok = True
    for d in (1, 2):
        wick = OrderingContext(d, Fraction(0))
        anti = OrderingContext(d, Fraction(1))
        symm = OrderingContext(d, Fraction(1, 2))
        for exps in itertools.product(range(6), repeat=2 * d):
            if sum(exps) > 5:
                continue
            alpha, beta = exps[:d], exps[d:]
            zero = (0,) * d
            expected_wick = weyl_mul(
                WeylElement.monomial(d, zero, alpha),
                WeylElement.monomial(d, beta, zero),
            )
            ok &= ordered_monomial(wick, alpha, beta) == expected_wick
            ok &= ordered_monomial(anti, alpha, beta) == WeylElement.monomial(
                d, beta, alpha
            )
            ok &= ordered_monomial(symm, alpha, beta) == _symmetrized(d, alpha, beta)
    elapsed = time.monotonic() - start
    _announce(4, "Wick / anti-Wick / symmetric orderings on all monomials of "
                 "degree <= 5, d <= 2", ok, elapsed)


def test_criterion_05_radial_consistency():
    start = time.monotonic()
    ok = True
    for d in (1, 2, 3):
        for q in Q_GRID:
            ctx = RadialContext(d, q)
            for k in range(7):
                via_weyl = express_in_N(eta(ctx, k))
                ok &= via_weyl == omega(ctx, k) == omega_closed_form(ctx, k)
            for k in range(13):
                ok &= omega(ctx, k) == omega_by_raising(ctx, k) == (
                    omega_closed_form(ctx, k)
                )
            # the degree-1 and degree-2 closed forms, written out
            ok &= eta(ctx, 1) == number_operator(d) + WeylElement.one(d).scale(
                ctx.t0
            )
            shifted = T + ctx.t0
            ok &= omega(ctx, 2) == shifted**2 + shifted * (1 - 2 * q) + (
                q * ctx.t0
            )
    elapsed = time.monotonic() - start
    _announce(5, "radial tower agrees along all routes; low-order closed forms exact",
              ok, elapsed)


def test_criterion_06_difference_recurrence_weight_fg():
    start = time.monotonic()
    ok = True
    for d in (1, 2, 3):
        for q in Q_GRID:
            ctx = RadialContext(d, q)
            for k in range(11):
                ok &= check_difference_equation(ctx, k)
                ok &= omega(ctx, k) == omega_by_raising(ctx, k)
                raise_, lower, grade = difference_triple(ctx, omega(ctx, k))
                ok &= raise_ == omega(ctx, k + 1)
                # at k = 0 the right side collapses to the zero polynomial
                ok &= lower == omega(ctx, max(k - 1, 0)) * (k * (k + d - 1))
                ok &= grade == omega(ctx, k) * (2 * k + d)
            if q not in (0, 1):
                ok &= check_fg_recurrence(ctx, 10)
    elapsed = time.monotonic() - start
    _announce(6, "difference equation, recurrence, weight relations, pulled-back "
                 "renormalized recurrence, k <= 10", ok, elapsed)


def test_criterion_07_q_independence_of_weyl_harmonics():
    start = time.monotonic()
    pairs = [
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(3, 4)),
        (Fraction(1, 2), Fraction(1, 3)),
    ]
    ok = True
    for d in (1, 2):
        for k in range(5):
            basis = harmonic_basis(d, k)
            for q1, q2 in pairs:
                a = [dict(order_q(OrderingContext(d, q1), h).terms) for h in basis]
                b = [dict(order_q(OrderingContext(d, q2), h).terms) for h in basis]
                # equal spans: neither adds a dimension to the other
                ok &= linalg.rank(a) == linalg.rank(b) == linalg.rank(a + b)
    elapsed = time.monotonic() - start
    _announce(7, "ordered harmonic spaces coincide across parameter pairs, "
                 "k <= 4, d <= 2", ok, elapsed)


def test_criterion_08_tensor_decomposition_round_trip():
    start = time.monotonic()
    rng = random.Random(SEED)
    ok = True
    for i in range(50):
        d = 1 + (i % 2)
        q = Q_GRID[i % len(Q_GRID)]
        ctx = RadialContext(d, q)
        w = random_weyl(rng, d, 5, 5)
        parts = decompose_weyl(ctx, w)
        ok &= all(is_harmonic(h) for _, h in parts)
        ok &= reassemble_weyl(ctx, parts) == w
    elapsed = time.monotonic() - start
    _announce(8, "50 random elements survive decompose/reassemble exactly",
              ok, elapsed)


def test_criterion_09_hahn_meixner_pollaczek_identities():
    start = time.monotonic()
    ok = True
    for d in (1, 2, 3, 4):
        a = Fraction(d, 4)
        b = a + Fraction(1, 2)
        for k in range(9):
            g = g_poly_symmetric(d, k)
            hahn = continuous_hahn_poly(k, a, b, a, b).compose_linear(
                Fraction(1, 4), 0
            )
            factor = pochhammer(Fraction(d), k) / (
                pochhammer(Fraction(d, 2), k)
                * pochhammer(Fraction(d, 2) + Fraction(1, 2), k)
            )
            ok &= hahn * factor == g
            mp = meixner_pollaczek_poly(k, Fraction(d, 2)).compose_linear(
                Fraction(1, 2), 0
            )
            ok &= mp * (pochhammer(Fraction(d), k) / math.factorial(k)) == g
    for n in range(9):
        ok &= hyp2f1_3f2_connection_check(n, Fraction(1, 2))
        ok &= hyp2f1_3f2_connection_check(n, Fraction(1))
    elapsed = time.monotonic() - start
    _announce(9, "continuous-Hahn and Meixner-Pollaczek forms equal the "
                 "symmetric family exactly, k <= 8, d <= 4", ok, elapsed)


def test_criterion_10_orthogonality_numeric():
    from weylharm.numerics import orthogonality_stable

    start = time.monotonic()
    ok = True
    for d in (1, 2, 3):
        res = orthogonality_stable(d, 8)
        off = [x for m, row in enumerate(res["normalized"])
               for n, x in enumerate(row) if m != n]
        ok &= max(off) < 1e-8
        ok &= res["diagonal_positive"]
        ok &= res["stable"]
    elapsed = time.monotonic() - start
    _announce(10, "normalized off-diagonal Gram entries < 1e-8, k <= 8, "
                  "d in {1,2,3}, stable under doubling",
              ok and elapsed < 60.0, elapsed)


def test_criterion_11_generating_function_numeric():
    from weylharm.numerics import (
        genfun_ode_residual,
        genfun_taylor_coefficients,
        unipoly_eval_float,
    )

    start = time.monotonic()
    ok = True
    for d in (1, 2, 3):
        for lam in (0.0, 1.0, 2.5):
            coeffs = genfun_taylor_coefficients(Fraction(1, 2), d, lam, 10)
            for k in range(11):
                exact = unipoly_eval_float(g_poly_symmetric(d, k), lam)
                ok &= abs(coeffs[k] - exact) < 1e-10
    for q in (Fraction(1, 2), Fraction(1, 4), Fraction(2, 3)):
        for s in (0.05, -0.08):
            for lam in (0.3, 1.0):
                ok &= abs(genfun_ode_residual(q, 2, lam, s)) < 1e-8
    for q in (Fraction(1, 4), Fraction(2, 5)):
        for d in (1, 2):
            ctx = RadialContext(d, q)
            alpha = math.sqrt(float(ctx.alpha_squared))
            for t in (0, 1, 2):
                lam = 1j * alpha * (t + float(ctx.t0))
                coeffs = genfun_taylor_coefficients(q, d, lam, 8)
                for k in range(9):
                    exact = (
                        (1j * alpha) ** k
                        / math.factorial(k)
                        * unipoly_eval_float(omega_by_raising(ctx, k), t)
                    )
                    ok &= abs(coeffs[k] - exact) < 1e-9
    elapsed = time.monotonic() - start
    _announce(11, "generating-function Taylor coefficients and ODE residuals "
                  "within stated tolerances", ok, elapsed)


def test_criterion_12_nonorthogonality_certificate():
    start = time.monotonic()
    ok = True
    for d in (1, 2, 3):
        for q in Q_GRID:
            ctx = RadialContext(d, q)
            for k in range(1, 11):
                cert = nonorthogonality_certificate(ctx, k)
                ok &= cert == GaussRational(-q * (1 - q) * k * (k + d - 1))
                ok &= cert.is_real() and Fraction(cert.re) <= 0
    elapsed = time.monotonic() - start
    _announce(12, "three-term certificate equals -q(1-q)k(k+d-1) and is "
                  "nonpositive, k <= 10", ok, elapsed)


def test_criterion_13_harmonic_dimensions():
    start = time.monotonic()
    ok = True
    for d in (1, 2, 3):
        for k in range(7):
            monos = _homogeneous_monomials(d, k)
            rows_by_image: dict = {}
            for mono in monos:
                image = op_L(CPolynomial(d, {mono: GaussRational(1)}))
                for img, coeff in image.terms.items():
                    rows_by_image.setdefault(img, {})[mono] = coeff
            kernel_dim = len(monos) - linalg.rank(rows_by_image.values())
            ok &= kernel_dim == harmonic_dim(2 * d, k)
    elapsed = time.monotonic() - start
    _announce(13, "Laplacian kernel dimensions (monomials minus exact rank) "
                  "match the dimension formula, d <= 3, k <= 6", ok, elapsed)
