"""Floating-point verification layer.

Exact identities live elsewhere; this module checks the analytic claims
that involve transcendental objects: the orthogonality of the symmetric
radial family against |Gamma(d/2 + i*lambda/2)|^2, and the generating
function of the renormalized radial polynomials.  Everything is plain
float64/complex128 with explicit accuracy targets.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .radial import g_poly_symmetric
from .scalars import UniPoly

# Lanczos approximation, g = 7, 9 coefficients: relative error below
# 1e-13 on Re(z) >= 0.5 (checked against 50-digit reference values in the
# test suite, including |Im| up to 60 as used by the quadrature).
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_HALF_LOG_2PI = 0.9189385332046727


def loggamma(z):
    """Principal log-gamma via Lanczos, with reflection for Re(z) < 1/2.

    Accepts complex scalars or numpy arrays.
    """
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    small = z.real < 0.5
    if np.any(small):
        zr = z[small]
        # log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z)
        out[small] = np.log(np.pi / np.sin(np.pi * zr)) - loggamma(1.0 - zr)
    rest = ~small
    if np.any(rest):
        zz = z[rest] - 1.0
        x = np.full(zz.shape, _LANCZOS_COEFFS[0], dtype=complex)
        for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
            x = x + c / (zz + i)
        t = zz + _LANCZOS_G + 0.5
        out[rest] = _HALF_LOG_2PI + (zz + 0.5) * np.log(t) - t + np.log(x)
    return out[0] if scalar else out


def weight_rho(lam, d: int):
    """The orthogonality weight |Gamma(d/2 + i*lambda/2)|^2.

    Positive on the whole real line for d >= 1 and decaying like
    |lambda|^(d-1) exp(-pi |lambda| / 2).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    lam = np.asarray(lam, dtype=float)
    z = d / 2.0 + 0.5j * lam
    return np.exp(2.0 * np.real(loggamma(z)))


class _QuadratureFields(NamedTuple):
    half_width: float
    panel_count: int


class QuadratureSpec(_QuadratureFields):
    """Truncated-line quadrature plan.

    ``half_width`` is the truncation point T; the weight's exponential
    decay makes the tail O(T^(d-1) e^(-pi T/2)), reported by
    `tail_bound`.  The rule is composite Gauss-Legendre: ``panel_count``
    panels of equal width, 20 points each.
    """

    __slots__ = ()

    def __new__(cls, half_width: float, panel_count: int):
        if half_width <= 0 or panel_count < 1:
            raise ValueError("need positive half_width and panel_count")
        return super().__new__(cls, half_width, panel_count)

    @staticmethod
    def for_orthogonality(d: int, k_max: int) -> "QuadratureSpec":
        half_width = float(max(40, 8 * (d + k_max)))
        return QuadratureSpec(half_width, panel_count=int(4 * half_width))

    def tail_bound(self, d: int, poly_degree: int = 0) -> float:
        """Crude bound on the neglected tail of p(lambda) * rho(lambda)."""
        t = self.half_width
        return float(
            4.0 * t ** (d - 1 + poly_degree) * np.exp(-np.pi * t / 2.0)
        )

    def doubled(self) -> "QuadratureSpec":
        return QuadratureSpec(self.half_width * 1.25, self.panel_count * 2)


def _gauss_nodes(spec: QuadratureSpec):
    base_x, base_w = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(-spec.half_width, spec.half_width, spec.panel_count + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


def integrate(f, spec: QuadratureSpec) -> float:
    """Integrate a vectorizable real function over [-T, T]."""
    nodes, weights = _gauss_nodes(spec)
    return float(np.sum(weights * f(nodes)))


def unipoly_eval_float(p: UniPoly, x) -> complex:
    """Horner evaluation of an exact polynomial in floating point."""
    acc = 0j
    for c in reversed(p.coeffs):
        acc = acc * x + complex(c)
    return acc


def orthogonality_matrix(d: int, k_max: int, spec: QuadratureSpec | None = None) -> dict:
    """Gram matrix of g_0..g_kmax against the gamma-square weight.

    Returns {"gram", "normalized", "diagonal_positive", "tail_bound"};
    ``normalized[m, n]`` is |I_mn| / sqrt(I_mm I_nn) with unit diagonal.
    """
    if spec is None:
        spec = QuadratureSpec.for_orthogonality(d, k_max)
    polys = [g_poly_symmetric(d, k) for k in range(k_max + 1)]
    coeffs = [np.array([float(c.re) for c in p.coeffs]) for p in polys]
    nodes, weights = _gauss_nodes(spec)
    rho = weight_rho(nodes, d)
    values = np.stack([np.polyval(cs[::-1], nodes) for cs in coeffs])
    weighted = values * (weights * rho)[None, :]
    gram = weighted @ values.T
    diag = np.diag(gram)
    normalized = np.abs(gram) / np.sqrt(np.outer(diag, diag))
    return {
        "gram": gram,
        "normalized": normalized,
        "diagonal_positive": bool(np.all(diag > 0)),
        "tail_bound": spec.tail_bound(d, 2 * k_max),
        "spec": spec,
    }


def orthogonality_stable(d: int, k_max: int, spec: QuadratureSpec | None = None,
                         rel_tol: float = 1e-9) -> dict:
    """Gram computation plus the doubling stability requirement.

    The result is accepted only when doubling the panel count and growing
    the truncation changes every entry by less than ``rel_tol`` relative
    to the diagonal scale.
    """
    if spec is None:
        spec = QuadratureSpec.for_orthogonality(d, k_max)
    first = orthogonality_matrix(d, k_max, spec)
    second = orthogonality_matrix(d, k_max, spec.doubled())
    scale = np.sqrt(
        np.outer(np.diag(second["gram"]), np.diag(second["gram"]))
    )
    drift = float(np.max(np.abs(first["gram"] - second["gram"]) / scale))
    out = dict(second)
    out["stable"] = drift < rel_tol
    out["drift"] = drift
    return out


# ---------------------------------------------------------------------------
# Generating function
# ---------------------------------------------------------------------------


class BranchCutProximityError(ValueError):
    """The expansion point is too close to a branch point of the
    generating function."""


class StepSizeError(RuntimeError):
    """Numerical differentiation failed its internal consistency check."""


def _float_params(q, d: int):
    qf = float(Fraction(q))
    if not 0.0 < qf < 1.0:
        raise ValueError("generating function needs q strictly inside (0, 1)")
    alpha = 1.0 / np.sqrt(qf * (1.0 - qf))
    s0 = 1j * alpha * (qf - 0.5)
    return qf, alpha, s0


def genfun_singularity_radius(q) -> float:
    """Distance from s = 0 to the nearest branch point."""
    qf = float(Fraction(q))
    if not 0.0 < qf < 1.0:
        raise ValueError("generating function needs q strictly inside (0, 1)")
    alpha = 1.0 / np.sqrt(qf * (1.0 - qf))
    return float(min(alpha * qf, alpha * (1.0 - qf)))


def _arctan_principal(z):
    return 0.5j * (np.log(1.0 - 1j * z) - np.log(1.0 + 1j * z))


def _genfun_raw(q, d, lam, s):
    _, alpha, s0 = _float_params(q, d)
    u = (2.0 / alpha) * (s + s0)
    numerator = np.exp((2.0 / alpha) * (lam + d * s0) * _arctan_principal(u))
    base = (s + s0) ** 2 + alpha**2 / 4.0
    return numerator / np.exp((d / 2.0) * np.log(base))

def genfun_eval(q, d: int, lam, s, guard: float = 0.9):
    """The generating function of the renormalized radial family.

    Closed form: exp[(2/a)(lam + d s0) arctan((2/a)(s + s0))] divided by
    [(s+s0)^2 + a^2/4]^(d/2), principal branches, normalized to 1 at
    s = 0 so the Taylor coefficients are exactly the g_k.  (For q = 1/2
    the normalizing constant is already 1 and this reduces to
    exp(lam*arctan s) / sqrt(s^2+1)^d.)  Points within ``guard`` of the
    branch-point radius are rejected.
    """
    radius = genfun_singularity_radius(q)
    if np.any(np.abs(np.asarray(s)) >= guard * radius):
        raise BranchCutProximityError(
            f"|s| too close to the branch-point radius {radius:.6f}"
        )
    return _genfun_raw(q, d, lam, s) / _genfun_raw(q, d, lam, 0.0)


def genfun_taylor_coefficients(q, d: int, lam, order: int,
                               radius: float | None = None,
                               num_nodes: int = 256) -> np.ndarray:
    """Taylor coefficients of the generating function at s = 0.

    Cauchy-integral extraction on a circle well inside the branch-point
    radius, evaluated by FFT; uniform accuracy across orders, unlike
    iterated numerical differentiation.
    """
    r_sing = genfun_singularity_radius(q)
    r = radius if radius is not None else 0.5 * r_sing
    if r >= 0.9 * r_sing:
        raise BranchCutProximityError("extraction circle too large")
    theta = 2.0 * np.pi * np.arange(num_nodes) / num_nodes
    svals = r * np.exp(1j * theta)
    gvals = genfun_eval(q, d, lam, svals)
    coeffs = np.fft.fft(gvals) / num_nodes
    ks = np.arange(order + 1)
    return coeffs[: order + 1] / r**ks


def genfun_ode_residual(q, d: int, lam, s, step: float = 1e-3):
    """Residual of (1 + 2 s0 s + s^2) dG/ds - (lam - d s) G at one point.

    The derivative uses the 5-point fourth-order stencil; the step is
    halved once and the two estimates must agree, otherwise
    StepSizeError is raised.
    """
    _, _, s0 = _float_params(q, d)

    def deriv(h):
        pts = np.array([s - 2 * h, s - h, s + h, s + 2 * h], dtype=complex)
        g = genfun_eval(q, d, lam, pts)
        return (g[0] - 8.0 * g[1] + 8.0 * g[2] - g[3]) / (12.0 * h)

    d1 = deriv(step)
    d2 = deriv(step / 2.0)
    scale = max(abs(d1), abs(d2), 1.0)
    if abs(d1 - d2) > 1e-6 * scale:
        raise StepSizeError(
            f"derivative estimates disagree: {abs(d1 - d2):.3e} at step {step}"
        )
    g0 = genfun_eval(q, d, lam, s)
    return (1.0 + 2.0 * s0 * s + s * s) * d2 - (lam - d * s) * g0
