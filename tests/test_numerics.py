"""Floating-point layer: gamma weight, quadrature, generating function."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from weylharm.numerics import (
    BranchCutProximityError,
    QuadratureSpec,
    StepSizeError,
    genfun_eval,
    genfun_ode_residual,
    genfun_singularity_radius,
    genfun_taylor_coefficients,
    integrate,
    loggamma,
    orthogonality_matrix,
    orthogonality_stable,
    unipoly_eval_float,
    weight_rho,
)
from weylharm.radial import RadialContext, g_poly_symmetric, omega_by_raising

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


class TestLogGamma:
    def test_half_integer_values(self):
        assert abs(math.exp(loggamma(0.5).real) - math.sqrt(math.pi)) < 1e-14
        assert abs(math.exp(loggamma(1.0).real) - 1.0) < 1e-14
        assert abs(math.exp(loggamma(4.0).real) - 6.0) < 1e-13

    def test_recurrence(self):
        for z in (0.7 + 3j, 1.5 - 10j, 2.0 + 25j):
            lhs = loggamma(z + 1)
            rhs = loggamma(z) + np.log(z)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_against_mpmath_on_stated_domain(self):
        # requirement: <= 1e-13 relative on 0.5 <= Re <= 4, |Im| <= 60
        for re in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
            for im in (0.0, 1.0, 7.5, 20.0, 45.0, 60.0):
                z = complex(re, im)
                ref = complex(mp.loggamma(mp.mpc(re, im)))
                err = abs(loggamma(z) - ref) / max(abs(ref), 1.0)
                assert err < 1e-13, (z, err)

    def test_reflection_region(self):
        z = -1.3 + 0.7j
        ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
        assert abs(np.exp(loggamma(z)) - np.exp(ref)) < 1e-12 * abs(np.exp(ref))

    def test_vectorized(self):
        zs = np.array([0.5 + 1j, 2.0 + 3j, 1.0 - 2j])
        out = loggamma(zs)
        assert out.shape == zs.shape
        for z, v in zip(zs, out):
            assert abs(v - loggamma(complex(z))) == 0.0


class TestWeight:
    def test_d2_origin(self):
        assert abs(weight_rho(0.0, 2) - 1.0) < 1e-13

    def test_d1_origin_is_pi(self):
        assert abs(weight_rho(0.0, 1) - math.pi) < 1e-13

    def test_even(self):
        for lam in (0.3, 2.0, 17.5):
            for d in (1, 2, 3):
                assert weight_rho(lam, d) == weight_rho(-lam, d)

    def test_positive_and_decaying(self):
        lams = np.linspace(0, 50, 11)
        vals = weight_rho(lams, 2)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals[1:]) < 0)

    def test_against_mpmath(self):
        for d in (1, 2, 3):
            for lam in (0.0, 1.5, 10.0, 40.0):
                ref = float(abs(mp.gamma(mp.mpc(d / 2, lam / 2))) ** 2)
                mine = float(weight_rho(lam, d))
                assert abs(mine - ref) < 1e-12 * max(ref, 1e-300)


class TestQuadrature:
    def test_polynomial_exactness(self):
        spec = QuadratureSpec(1.0, 4)
        value = integrate(lambda x: x**4, spec)
        assert abs(value - 2.0 / 5.0) < 1e-14

    def test_adaptive_simpson_agrees(self):
        spec_gl = QuadratureSpec(10.0, 40)
        f = lambda x: np.exp(-np.asarray(x) ** 2)
        reference = adaptive_simpson(lambda x: float(f(x)), -10.0, 10.0, 1e-12)
        assert abs(integrate(f, spec_gl) - reference) < 1e-9

    def test_bad_spec_rejected(self):
        for half_width, panel_count in [(0.0, 1), (-1.0, 4), (1.0, 0), (1.0, -2)]:
            with pytest.raises(ValueError):
                QuadratureSpec(half_width, panel_count)

    def test_tail_bound_reported(self):
        spec = QuadratureSpec.for_orthogonality(2, 8)
        assert spec.half_width == 80.0
        assert spec.tail_bound(2, 16) < 1e-20


class TestOrthogonality:
    def test_gram_small(self):
        res = orthogonality_matrix(1, 4)
        off = res["normalized"].copy()
        np.fill_diagonal(off, 0.0)
        assert off.max() < 1e-10
        assert res["diagonal_positive"]

    def test_diagonal_d1_k0_closed_form(self):
        # |Gamma(1/2 + i y)|^2 = pi / cosh(pi y), so the d = 1 mass is
        # integral of pi*sech(pi*lambda/2) = 2*pi: an independent oracle
        res = orthogonality_matrix(1, 0)
        assert res["gram"][0, 0] > 0
        assert abs(res["gram"][0, 0] - 2.0 * math.pi) < 1e-10

    def test_parity_pair_vanishes(self):
        res = orthogonality_matrix(2, 1)
        assert abs(res["gram"][0, 1]) < 1e-12

    def test_stability_under_doubling(self):
        res = orthogonality_stable(2, 6)
        assert res["stable"]
        assert res["drift"] < 1e-9


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
        with pytest.raises(BranchCutProximityError):
            genfun_taylor_coefficients(Fraction(1, 4), 1, 0.5, 4, radius=radius)

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
