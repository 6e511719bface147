"""Floating-point layer: gamma weight, quadrature, generating function."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath as mp
import pytest

import gram_oracle
from gram_oracle import integrate, orthogonality_matrix, orthogonality_stable, weight_rho
from weylharm import numerics
from weylharm.numerics import (
    BranchCutProximityError,
    QuadratureSpec,
    StepSizeError,
    genfun_eval,
    genfun_ode_residual,
    genfun_singularity_radius,
    genfun_taylor_coefficients,
    unipoly_eval_float,
)
from weylharm.radial import RadialContext, g_poly_symmetric, omega_by_raising
from weylharm.scalars import UniPoly
from weylharm.verify import _ladder_moments, report_failed, suite_orthogonality

mp.mp.dps = 40


def adaptive_simpson(f, a, b, tol, depth=40):
    """Adaptive Simpson quadrature of a scalar function, the reference for
    the composite Gauss-Legendre rule."""

    def simpson(x0, x2):
        x1 = 0.5 * (x0 + x2)
        return (x2 - x0) / 6.0 * (f(x0) + 4.0 * f(x1) + f(x2))

    def rec(x0, x2, whole, level):
        mid = 0.5 * (x0 + x2)
        s_left, s_right = simpson(x0, mid), simpson(mid, x2)
        if level <= 0:
            raise RuntimeError("adaptive Simpson recursion limit hit")
        if abs(s_left + s_right - whole) < 15.0 * tol:
            return s_left + s_right + (s_left + s_right - whole) / 15.0
        return rec(x0, mid, s_left, level - 1) + rec(mid, x2, s_right, level - 1)

    return rec(a, b, simpson(a, b), depth)


class TestWeight:
    def test_d2_origin(self):
        assert abs(weight_rho(0.0, 2) - 1.0) < 1e-13

    def test_d1_origin_is_pi(self):
        assert abs(weight_rho(0.0, 1) - math.pi) < 1e-13

    def test_closed_form_values(self):
        # |Gamma(1/2 + iy)|^2 = pi / cosh(pi y), |Gamma(1 + iy)|^2 = pi y / sinh(pi y)
        for lam in (0.2, 1.0, 7.0):
            y = lam / 2
            assert abs(weight_rho(lam, 1) - math.pi / math.cosh(math.pi * y)) < 1e-14
            assert abs(weight_rho(lam, 2) - math.pi * y / math.sinh(math.pi * y)) < 1e-14

    def test_ladder_recurrence(self):
        # |Gamma(z + 1)|^2 = |z|^2 |Gamma(z)|^2 at z = d/2 + i lambda/2
        for d in (1, 2, 3, 4):
            for lam in (0.0, 0.7, 6.0, 25.0):
                lhs = weight_rho(lam, d + 2)
                rhs = ((d / 2) ** 2 + (lam / 2) ** 2) * weight_rho(lam, d)
                assert abs(lhs - rhs) <= 1e-14 * rhs

    def test_even(self):
        for lam in (0.3, 2.0, 17.5):
            for d in (1, 2, 3):
                assert weight_rho(lam, d) == weight_rho(-lam, d)

    def test_positive_and_decaying(self):
        vals = [weight_rho(5.0 * j, 2) for j in range(11)]
        assert all(v > 0 for v in vals)
        assert all(b < a for a, b in zip(vals[1:], vals[2:]))

    def test_against_mpmath(self):
        # the classical closed forms against mpmath's gamma, to 1e-13
        # relative, including far out where the weight is near underflow
        for d in range(1, 7):
            for lam in (0.0, 0.3, 1.5, 10.0, 40.0, 110.0):
                ref = abs(mp.gamma(mp.mpf(d) / 2 + 1j * mp.mpf(lam) / 2)) ** 2
                assert abs(weight_rho(lam, d) - ref) <= 1e-13 * ref, (d, lam)

    def test_far_tail_is_finite(self):
        for d in range(1, 7):
            value = weight_rho(5000.0, d)
            assert math.isfinite(value) and value >= 0.0

    def test_bad_d_rejected(self):
        with pytest.raises(ValueError):
            weight_rho(1.0, 0)


class TestQuadrature:
    def test_polynomial_exactness(self):
        spec = QuadratureSpec(1.0, 4)
        value = integrate(lambda x: x**4, spec)
        assert abs(value - 2.0 / 5.0) < 1e-14

    def test_base_rule_degree_39(self):
        # one panel is the 20-point rule itself: exact for x^j, j <= 39, up
        # to the rounding of the stored nodes and weights
        spec = QuadratureSpec(1.0, 1)
        for j in range(40):
            exact = 0.0 if j % 2 else 2.0 / (j + 1)
            assert abs(integrate(lambda x: x**j, spec) - exact) < 1e-14, j

    def test_folding_keeps_every_panel(self):
        # odd and even panel counts give the same integral of a smooth,
        # asymmetric function
        f = lambda x: math.exp(x) * math.cos(3 * x)
        exact = (math.exp(2) * (math.cos(6) + 3 * math.sin(6))
                 - math.exp(-2) * (math.cos(6) - 3 * math.sin(6))) / 10
        for panels in (1, 2, 3, 8, 9):
            assert abs(integrate(f, QuadratureSpec(2.0, panels)) - exact) < 1e-12

    def test_adaptive_simpson_agrees(self):
        spec_gl = QuadratureSpec(10.0, 40)
        f = lambda x: math.exp(-x * x)
        reference = adaptive_simpson(f, -10.0, 10.0, 1e-12)
        assert abs(integrate(f, spec_gl) - reference) < 1e-9

    def test_bad_spec_rejected(self):
        for half_width, panel_count in [(0.0, 1), (-1.0, 4), (1.0, 0), (1.0, -2)]:
            with pytest.raises(ValueError):
                QuadratureSpec(half_width, panel_count)

    def test_tail_bound_reported(self):
        spec = QuadratureSpec.for_orthogonality(2, 8)
        assert spec.half_width == 80.0
        assert spec.tail_bound(2, 16) < 1e-20

    @pytest.mark.parametrize("d, k_max", [(1, 60), (3, 100)])
    def test_tail_bound_finite_at_high_degree(self, d, k_max):
        # T^(d-1+2k) alone overflows a float from k_max near 58 at d = 1
        spec = QuadratureSpec.for_orthogonality(d, k_max)
        t = mp.mpf(spec.half_width)
        ref = 4 * t ** (d - 1 + 2 * k_max) * mp.exp(-mp.pi * t / 2)
        bound = spec.tail_bound(d, 2 * k_max)
        assert math.isfinite(bound)
        assert abs(bound - ref) <= 1e-12 * ref


def off_diagonal_max(matrix):
    return max((x for m, row in enumerate(matrix) for n, x in enumerate(row) if m != n),
               default=0.0)


class TestOrthogonality:
    def test_gram_small(self):
        res = orthogonality_matrix(1, 4)
        assert off_diagonal_max(res["normalized"]) < 1e-10
        assert res["diagonal_positive"]

    def test_diagonal_d1_k0_closed_form(self):
        # |Gamma(1/2 + i y)|^2 = pi / cosh(pi y), so the d = 1 mass is
        # integral of pi*sech(pi*lambda/2) = 2*pi: an independent oracle
        res = orthogonality_matrix(1, 0)
        assert res["gram"][0][0] > 0
        assert abs(res["gram"][0][0] - 2.0 * math.pi) < 1e-10

    def test_parity_pair_vanishes(self):
        res = orthogonality_matrix(2, 1)
        assert abs(res["gram"][0][1]) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gram_against_mpmath_quad(self, d):
        # each entry against mpmath's quadrature of g_a g_b |Gamma|^2 over
        # the line, with mpmath's gamma and the exact coefficients; an odd
        # product integrates to 0 by symmetry
        k_max = 4
        gram = orthogonality_matrix(d, k_max)["gram"]
        with mp.workdps(25):
            polys = [[mp.mpf(c.re.numerator) / c.re.denominator
                      for c in reversed(g_poly_symmetric(d, k).coeffs)]
                     for k in range(k_max + 1)]

            def integrand(a, b):
                return lambda lam: (mp.polyval(polys[a], lam) * mp.polyval(polys[b], lam)
                                    * abs(mp.gamma(mp.mpf(d) / 2 + 0.5j * lam)) ** 2)

            ref = [[2 * mp.quad(integrand(a, b), [0, mp.inf]) if (a + b) % 2 == 0
                    else mp.mpf(0) for b in range(k_max + 1)] for a in range(k_max + 1)]
            for a in range(k_max + 1):
                for b in range(k_max + 1):
                    scale = mp.sqrt(ref[a][a] * ref[b][b])
                    assert abs(gram[a][b] - ref[a][b]) <= 1e-12 * scale, (a, b)

    def test_stability_under_doubling(self):
        res = orthogonality_stable(2, 6)
        assert res["stable"]
        assert res["drift"] < 1e-9

    def test_recurrence_matches_exact_polynomials(self):
        # the float recurrence against g_k from the exact chain, each
        # value computed as a Fraction and rounded once
        lams = [0.5, 3.0, 20.0, 72.0]
        for d in (1, 2, 3):
            values = gram_oracle._g_values(d, 12, lams)
            for k in range(13):
                coeffs = [c.re for c in g_poly_symmetric(d, k).coeffs]
                for lam, value in zip(lams, values[k]):
                    x = Fraction(lam)
                    exact = float(sum(c * x**j for j, c in enumerate(coeffs)))
                    assert abs(value - exact) <= 1e-13 * abs(exact), (d, k, lam)

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 20, 40])
    def test_gram_converged_in_panels(self, d):
        # four times the panels on the same truncation changes no entry
        # by more than 1e-14 of the diagonal scale: the panel width
        # resolves both the poles at +-i d and the weight's decay
        for k_max in (0, 4, 8, 12):
            spec = QuadratureSpec.for_orthogonality(d, k_max)
            gram = orthogonality_matrix(d, k_max, spec)["gram"]
            fine = orthogonality_matrix(
                d, k_max, QuadratureSpec(spec.half_width, 4 * spec.panel_count))["gram"]
            roots = [math.sqrt(row[m]) for m, row in enumerate(fine)]
            for m in range(k_max + 1):
                for n in range(k_max + 1):
                    assert abs(gram[m][n] - fine[m][n]) <= 1e-14 * roots[m] * roots[n], \
                        (d, k_max, m, n)

    def test_high_degree_stays_orthogonal(self):
        # evaluating g_k from its monomial coefficients cancelled here
        # (off-diagonal max 1.1e-10 at k_max = 40)
        res = orthogonality_stable(1, 40)
        assert off_diagonal_max(res["normalized"]) < 1e-13
        assert res["stable"]

    def test_large_d_normalization_does_not_overflow(self):
        # at d = 120 the diagonal passes 1e154, where I_mm * I_nn is inf
        res = orthogonality_stable(120, 2)
        gram = res["gram"]
        assert gram[0][0] * gram[2][2] == math.inf
        ref = abs(mp.mpf(gram[0][2])) / mp.sqrt(mp.mpf(gram[0][0]) * mp.mpf(gram[2][2]))
        assert res["normalized"][0][2] > 0
        assert abs(res["normalized"][0][2] - ref) <= 1e-15 * ref
        assert 0 < res["drift"] < 1e-9
        # the suite, which builds no Gram matrix, passes where the oracle does
        assert off_diagonal_max(res["normalized"]) < 1e-8
        assert not report_failed(suite_orthogonality(120, 2))

    def test_injected_off_diagonal_fails_at_large_d(self, monkeypatch):
        # g_2 + 1e-3 g_0 on the doubled rule puts I_02 = 1e-3 I_00 into its
        # Gram matrix, 1.2e-5 after normalization: both the orthogonality
        # and the stability verdict must fail, as they did not while the
        # diagonal product overflowed (the suite's own controls are in
        # TestLadderMoments)
        values_of = gram_oracle._g_values
        base = len(numerics._folded_rule(QuadratureSpec.for_orthogonality(120, 2))[0])

        def perturbed(d, k_max, xs):
            values = values_of(d, k_max, xs)
            if len(xs) > base:
                values[2] = [v + 1e-3 for v in values[2]]
            return values

        monkeypatch.setattr(gram_oracle, "_g_values", perturbed)
        res = orthogonality_stable(120, 2)
        verdicts = [off_diagonal_max(res["normalized"]) < 1e-8, res["diagonal_positive"],
                    res["stable"]]
        assert verdicts == [False, True, False]

    def test_overflowing_d_refused(self):
        # the weight is finite at d = 198 (Gamma(99)^2 is near 9e307), but
        # the mass 2 sqrt(pi) Gamma(99) Gamma(99.5) is not; the CLI tests
        # cover d = 200 and 300, where the weight itself is infinite
        with pytest.raises(ValueError, match="overflow a float"):
            orthogonality_stable(198, 0)

    def test_bad_d_refused_before_the_rule(self):
        for d in (0, -1):
            with pytest.raises(ValueError, match="d must be >= 1"):
                QuadratureSpec.for_orthogonality(d, 8)


def statuses(report):
    return [c["status"] for c in report["cases"]]


class TestLadderMoments:
    """`suite_orthogonality` against the Gram oracle, mpmath and faults."""

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 20, 40])
    def test_suite_passes_where_the_gram_oracle_does(self, d):
        for k_max in (0, 4, 8, 12):
            res = orthogonality_stable(d, k_max)
            oracle = (off_diagonal_max(res["normalized"]) < 1e-8
                      and res["drift"] < numerics.STABILITY_TOL)
            passed = not report_failed(suite_orthogonality(d, k_max))
            assert passed == oracle, (d, k_max)
            assert passed, (d, k_max)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_moments_against_mpmath_quad(self, d):
        # mu_2j = L[lam^2j]/L[1] and the float ladder moments, each against
        # mpmath's quadrature of the weight with mpmath's gamma, at 25 digits
        spec = QuadratureSpec.for_orthogonality(d, 6)
        floats = numerics.ladder_moments(d, 6, spec)
        mu = _ladder_moments(d, 6)
        with mp.workdps(25):
            rho = lambda lam: abs(mp.gamma(mp.mpf(d) / 2 + 0.5j * lam)) ** 2
            mass = 2 * mp.quad(rho, [0, mp.inf])
            assert abs(mass - 4 * mp.pi * mp.gamma(d) / 2 ** d) <= mp.mpf(10) ** -22 * mass
            for j in range(7):
                ref = 2 * mp.quad(lambda lam: lam ** (2 * j) * rho(lam), [0, mp.inf]) / mass
                assert abs(mu[j] - ref) <= mp.mpf(10) ** -20 * ref, (d, j)
                rising = mp.rf(d, 2 * j)
                ladder = 2 * mp.quad(lambda lam: rho(lam) * mp.fprod(
                    (d + 2 * i) ** 2 + lam ** 2 for i in range(j)), [0, mp.inf]) / mass
                assert abs(ladder / rising - 1) <= mp.mpf(10) ** -20, (d, j)
                assert abs(floats[j] - ladder / rising) <= 1e-14, (d, j)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 20])
    def test_gram_is_the_closed_form_diagonal(self, d):
        # L[g_m g_n]/L[1] = delta_mn (d)_n/n! exactly, on the exact g_k and
        # the int moments: the closed form the exact case's detail states
        k_max = 20
        mu = _ladder_moments(d, k_max)
        polys = [g_poly_symmetric(d, k) for k in range(k_max + 1)]
        for m in range(k_max + 1):
            for n in range(m, k_max + 1):
                coeffs = [c.re for c in (polys[m] * polys[n]).coeffs]
                value = sum(c * mu[i] for i, c in enumerate(coeffs[::2]))
                expected = Fraction(math.comb(d + n - 1, n)) if m == n else 0
                assert value == expected, (d, m, n)

    def test_largest_d_with_a_finite_mass(self):
        # I_d = 4 pi Gamma(d)/2^d is near 3e307 at d = 197 and overflows a
        # float at d = 198, where the weight itself is still finite
        assert not report_failed(suite_orthogonality(197, 2))
        with pytest.raises(ValueError, match="its ladder moments overflow a float"):
            suite_orthogonality(198, 0)

    @pytest.mark.parametrize("d", [1, 3, 120])
    def test_perturbed_g2_fails_the_exact_case(self, monkeypatch, d):
        # g_2 + 1e-3 g_0 has L[.] = 1e-3 L[1]; the float cases never see g_k
        import weylharm.verify as verify

        exact = verify.g_poly_symmetric
        monkeypatch.setattr(verify, "g_poly_symmetric", lambda d, k: exact(d, k) + (
            UniPoly.constant(Fraction(1, 1000)) if k == 2 else 0))
        assert statuses(suite_orthogonality(d, 4)) == ["FAIL", "PASS", "PASS"]

    @pytest.mark.parametrize("d", [1, 3, 120])
    def test_perturbed_weight_fails_the_moment_case(self, monkeypatch, d):
        # a weight times 1 + 1e-6 lam^2/(1 + lam^2) moves every normalised
        # moment by about 1e-6, the same on both rules; the exact case
        # never sees the weight
        weight = numerics._gamma_weight

        def perturbed(d, lams):
            return [r * (1 + 1e-6 * x * x / (1 + x * x)) for r, x in zip(weight(d, lams), lams)]

        monkeypatch.setattr(numerics, "_gamma_weight", perturbed)
        assert statuses(suite_orthogonality(d, 4)) == ["PASS", "FAIL", "PASS"]


class TestGenFun:
    def test_normalized_at_origin(self):
        for q in (Fraction(1, 2), Fraction(1, 4), Fraction(2, 3)):
            assert abs(genfun_eval(q, 2, 0.7, 0.0) - 1.0) < 1e-14

    def test_symmetric_closed_form(self):
        # at q = 1/2 the function is exp(lam*arctan s)/sqrt(1+s^2)^d
        for lam in (0.0, 1.0, 2.5):
            for d in (1, 2, 3):
                for s in (-0.3, 0.0, 0.4):
                    direct = math.exp(lam * math.atan(s)) / math.sqrt(1 + s * s) ** d
                    assert abs(genfun_eval(Fraction(1, 2), d, lam, s) - direct) < 1e-12

    def test_taylor_matches_symmetric_family(self):
        for d in (1, 2, 3):
            for lam in (0.0, 1.0, 2.5):
                coeffs = genfun_taylor_coefficients(Fraction(1, 2), d, lam, 10)
                for k in range(11):
                    exact = unipoly_eval_float(g_poly_symmetric(d, k), lam)
                    assert abs(coeffs[k] - exact) < 1e-10

    def test_taylor_matches_radial_line_general_q(self):
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
                        assert abs(coeffs[k] - exact) < 1e-9

    def test_ode_residual_small(self):
        for q in (Fraction(1, 2), Fraction(1, 4), Fraction(2, 3)):
            for s in (0.05, 0.1, -0.08):
                for lam in (0.3, 0.5, 1.0):
                    assert abs(genfun_ode_residual(q, 1, lam, s)) < 1e-8

    def test_wrong_sign_ode_is_order_one(self):
        # negative control: flipping the first-order term leaves a
        # residual that is nowhere near zero
        q, d, lam, s = Fraction(1, 2), 1, 0.5, 0.1

        def wrong_residual():
            h = 1e-3
            pts = [s - 2 * h, s - h, s + h, s + 2 * h]
            g = [genfun_eval(q, d, lam, p) for p in pts]
            dg = (g[0] - 8 * g[1] + 8 * g[2] - g[3]) / (12 * h)
            return (1 + s * s) * dg + (lam - d * s) * genfun_eval(q, d, lam, s)

        assert abs(wrong_residual()) > 0.1

    def test_branch_guard(self):
        radius = genfun_singularity_radius(Fraction(1, 4))
        with pytest.raises(BranchCutProximityError):
            genfun_eval(Fraction(1, 4), 1, 0.5, 0.99 * radius)

    def test_q_outside_open_interval_rejected(self):
        with pytest.raises(ValueError):
            genfun_eval(Fraction(0), 1, 0.5, 0.1)

    def test_step_size_failure_reported(self):
        # a coarse step cannot pass the halved-step consistency check
        with pytest.raises(StepSizeError):
            genfun_ode_residual(Fraction(1, 4), 1, 0.5, 0.0, step=0.2)


def exact_float_bridge_error(ctx, k, points):
    """Largest relative gap between exact and float evaluation of omega_k."""
    w = omega_by_raising(ctx, k)
    worst = 0.0
    for x in points:
        exact = w(x)
        exact_f = complex(float(exact.re), float(exact.im))
        approx = unipoly_eval_float(w, float(x))
        denom = max(abs(exact_f), 1.0)
        worst = max(worst, abs(approx - exact_f) / denom)
    return worst


def test_exact_float_bridge():
    # float evaluation of the exact polynomials stays within 1e-12
    # relative at 50 rational points
    import random

    rng = random.Random(17)
    ctx = RadialContext(2, Fraction(1, 3))
    pts = [Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(50)]
    assert exact_float_bridge_error(ctx, 6, pts) < 1e-12


def test_float_evaluation_matches_gauss_rational_route():
    # Horner on the stored numerators gives the floats of Horner on
    # complex(GaussRational) coefficients bit for bit: int / int rounds
    # correctly, so the unreduced numerator over the common denominator
    # rounds to the same float as the reduced coefficient
    from weylharm.specfun import continuous_hahn_poly

    polys = [g_poly_symmetric(d, k) for d in (1, 3) for k in range(0, 25, 4)]
    polys += [omega_by_raising(RadialContext(d, q), k)
              for d, q in ((1, Fraction(1, 3)), (2, Fraction(-2, 7)))
              for k in range(0, 13, 3)]
    # a != c: complex coefficients from k = 1 on
    polys += [continuous_hahn_poly(k, Fraction(1, 2), Fraction(1, 3),
                                   Fraction(1, 5), Fraction(1, 3)) for k in range(8)]
    assert any(p._im for p in polys)
    points = [0.0, 1.0, -2.5, 1 / 3, 7.25, 0.1 + 0.7j]
    for p in polys:
        for x in points:
            expected = 0j
            for c in reversed(p.coeffs):
                expected = expected * x + complex(c)
            assert repr(unipoly_eval_float(p, x)) == repr(expected), (p, x)


def test_float_layer_runs_without_numpy():
    # the float suites need nothing outside the standard library: with
    # numpy blocked, the battery and both float verbs still pass
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from weylharm.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["verify", "all", "--json", "--seed", "1"],
                 ["verify", "orthogonality"], ["verify", "genfun"]):
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (argv, proc.stderr)
