"""Floating-point verification layer.

Exact identities live elsewhere; this module checks the analytic claims
that involve transcendental objects: that |Gamma(d/2 + i*lambda/2)|^2 has
the moments of the exact ladder functional under which `verify` checks
the orthogonality of the symmetric radial family, and the generating
function of the renormalized radial polynomials.  Everything is plain
float/complex arithmetic on the standard library's `math` and `cmath`,
with explicit accuracy targets.  No sum goes through the builtin `sum`,
whose float rounding changed in Python 3.12: the ladder moments are
correctly rounded `math.fsum` sums and the DFT adds in sample order, so
the reported digits are the same on every supported Python.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import NamedTuple

from .scalars import UniPoly

# the ladder moments are accepted when doubling their quadrature moves none
# of them by this much
STABILITY_TOL = 1e-9
# the generating function is evaluated only inside this fraction of its
# branch-point radius, and its Taylor coefficients come from this many
# samples on one circle
BRANCH_GUARD = 0.9
DFT_NODES = 256
_DFT_ROOTS = tuple(cmath.exp(2j * math.pi * j / DFT_NODES) for j in range(DFT_NODES))
_DFT_TWIDDLES = tuple(z.conjugate() for z in _DFT_ROOTS)


def _gamma_weight(d: int, lams: list) -> list:
    """|Gamma(d/2 + i*lam/2)|^2 at every lam, by the classical forms.

    With b = |lam|/2 and e = exp(-pi*b): |Gamma(1/2 + ib)|^2 = pi/cosh(pi b)
    = 2 pi e/(1 + e^2) and |Gamma(1 + ib)|^2 = pi b/sinh(pi b)
    = 2 pi b e/(1 - e^2); each step up the ladder multiplies by a^2 + b^2,
    as |Gamma(a + 1 + ib)|^2 = (a^2 + b^2) |Gamma(a + ib)|^2.  Nothing
    grows like exp(pi*b), so no lambda overflows.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    pi, exp, expm1 = math.pi, math.exp, math.expm1
    bs = [0.5 * abs(lam) for lam in lams]
    if d % 2:
        es = [exp(-pi * b) for b in bs]
        values = [2.0 * pi * e / (1.0 + e * e) for e in es]
    else:  # 1 - e^2 through expm1, which keeps its digits as b -> 0
        values = [2.0 * pi * b * exp(-pi * b) / -expm1(-2.0 * pi * b) if b else 1.0
                  for b in bs]
    for j in range((d - 1) // 2):
        a2 = (j + (0.5 if d % 2 else 1.0)) ** 2
        values = [v * (a2 + b * b) for v, b in zip(values, bs)]
    return values


# The nonnegative half of 20-point Gauss-Legendre on [-1, 1], bit for bit
# as numpy.polynomial.legendre.leggauss(20) gives it.  The rule is exactly
# symmetric, so each node stands for +-x.
_GL_NODES = (
    0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
    0.5108670019508271, 0.636053680726515, 0.7463319064601508,
    0.8391169718222188, 0.912234428251326, 0.9639719272779138,
    0.993128599185095,
)
_GL_WEIGHTS = (
    0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
    0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
    0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
    0.017614007139150893,
)


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
        """Panels min(d, 2) wide.  The integrand's nearest singularities
        are the poles of Gamma at lambda = +-i d, so 20-point Gauss-Legendre
        on a panel of half-width a <= d/2 errs like rho^-40 <= 1e-25, with
        rho = d/a + sqrt(1 + (d/a)^2) >= 2 + sqrt(5) (Bernstein ellipse);
        the cap at 2 keeps the exp(-pi |lambda|/2) decay resolved."""
        if d < 1:
            raise ValueError("d must be >= 1")
        half_width = float(max(40, 8 * (d + k_max)))
        return QuadratureSpec(half_width, panel_count=int(2 * half_width / min(d, 2)))

    def tail_bound(self, d: int, poly_degree: int) -> float:
        """Crude bound on the neglected tail of p(lambda) * rho(lambda),
        4 T^(d-1+deg) e^(-pi T/2), formed in logs so that the power alone
        cannot overflow; infinite only where the bound itself is."""
        t = self.half_width
        try:
            return 4.0 * math.exp((d - 1 + poly_degree) * math.log(t) - math.pi * t / 2.0)
        except OverflowError:
            return math.inf

    def doubled(self) -> "QuadratureSpec":
        return QuadratureSpec(self.half_width * 1.25, self.panel_count * 2)


def _folded_rule(spec: QuadratureSpec) -> tuple:
    """Nodes x > 0 and weights w such that sum w (f(x) + f(-x)) is the
    composite rule for f on [-T, T].

    Each panel on the positive side pairs up with its mirror image; with
    an odd panel count the middle panel is its own mirror and keeps its
    positive half.
    """
    t, panels = spec
    h = 2.0 * t / panels
    half = 0.5 * h
    offsets = [-half * x for x in _GL_NODES] + [half * x for x in _GL_NODES]
    weights = [half * w for w in _GL_WEIGHTS]
    nodes, node_weights = [], []
    if panels % 2:
        nodes += offsets[len(_GL_NODES):]
        node_weights += weights
    # outward from 0, where the weight is largest: math.fsum keeps fewer
    # partials when its terms come roughly in decreasing size
    start = (panels % 2 + 1) * half
    nodes += [start + i * h + o for i in range(panels // 2) for o in offsets]
    node_weights += weights * (panels // 2 * 2)
    return nodes, node_weights


def unipoly_eval_float(p: UniPoly, x) -> complex:
    """Horner evaluation of an exact polynomial in floating point.

    Coefficient k is (_re[k] + _im[k] i)/_den; int / int rounds correctly,
    so each float equals complex() of the reduced GaussRational, without
    building it."""
    den, acc = p._den, 0j
    for n, m in zip(reversed(p._re), reversed(p._im or (0,) * len(p._re))):
        acc = acc * x + complex(n / den, m / den)
    return acc


def ladder_moments(d: int, k_max: int, spec: QuadratureSpec) -> list:
    """The normalised ladder moments of the gamma-square weight on
    ``spec``'s rule: 2 fsum(v_m) for m = 0..k_max, each 1 for the true
    weight.

    v_0 = w rho_d/I_d at the folded nodes, with I_d = 4 pi Gamma(d)/2^d the
    weight's mass, and v_{m+1} = v_m ((d+2m)^2 + lam^2)/((d+2m)(d+2m+1)).
    The ladder |Gamma(s+1)|^2 = |s|^2 |Gamma(s)|^2 makes rho_d times
    prod_{j<m} ((d+2j)^2 + lam^2) integrate to (d)_{2m} I_d, so these are
    the moments the exact functional gives polynomials of degree <= 2 k_max
    in lam.  One pass over the nodes per m; a d whose weight or moments are
    not finite floats is refused with ValueError.
    """
    nodes, weights = _folded_rule(spec)
    rho = _gamma_weight(d, nodes)
    try:
        if d < 172:
            mass = math.ldexp(4.0 * math.pi * math.gamma(d), -d)
        else:  # Gamma(d) alone overflows a float
            mass = math.exp(math.log(4.0 * math.pi) + math.lgamma(d) - d * math.log(2.0))
        # a node where the weight underflowed to 0 adds 0 to every moment
        kept = [(w * r / mass, x * x) for x, w, r in zip(nodes, weights, rho) if r]
        values, squares = [v for v, _ in kept], [s for _, s in kept]
        moments = [2.0 * math.fsum(values)]
        for m in range(k_max):
            a = d + 2 * m
            a2, step = float(a * a), float(a * (a + 1))
            values = [v * (a2 + s) / step for v, s in zip(values, squares)]
            moments.append(2.0 * math.fsum(values))
    except OverflowError:  # I_d, or a partial sum of fsum, overflowed
        moments = [math.inf]
    if not all(map(math.isfinite, moments)):
        raise ValueError(f"d = {d}, k_max = {k_max}: the orthogonality weight or its "
                         "ladder moments overflow a float")
    return moments


# ---------------------------------------------------------------------------
# Generating function
# ---------------------------------------------------------------------------


class BranchCutProximityError(ValueError):
    """The expansion point is too close to a branch point of the
    generating function."""


class StepSizeError(RuntimeError):
    """Numerical differentiation failed its internal consistency check."""


def _float_params(q) -> tuple:
    qf = float(Fraction(q))
    if not 0.0 < qf < 1.0:
        raise ValueError("generating function needs q strictly inside (0, 1)")
    alpha = 1.0 / math.sqrt(qf * (1.0 - qf))
    s0 = 1j * alpha * (qf - 0.5)
    return qf, alpha, s0


def genfun_singularity_radius(q) -> float:
    """Distance from s = 0 to the nearest branch point."""
    qf, alpha, _ = _float_params(q)
    return min(alpha * qf, alpha * (1.0 - qf))


def _genfun(q, d: int, lam):
    """s -> G(s)/G(0) with the parameters bound once (see `genfun_eval`).

    G is exp(log G) with log G(s) = (2/a)(lam + d s0) arctan(u)
    - (d/2) log[(s+s0)^2 + a^2/4], u = (2/a)(s + s0), and the principal
    arctan(u) = (i/2)[log(1 - iu) - log(1 + iu)]; the normalization is
    subtracted from the logarithm.
    """
    _, alpha, s0 = _float_params(q)
    radius = genfun_singularity_radius(q)
    i_scale = 2j / alpha
    coeff = 0.5j * (2.0 / alpha) * (lam + d * s0)  # (i/2)(2/a)(lam + d s0)
    quarter = alpha * alpha / 4.0
    half_d = d / 2.0
    log = cmath.log

    def log_g(s):
        w = s + s0
        iu = i_scale * w
        return coeff * (log(1.0 - iu) - log(1.0 + iu)) - half_d * log(w * w + quarter)

    log_g0 = log_g(0.0)
    limit = BRANCH_GUARD * radius
    exp = cmath.exp

    def value(s):
        if abs(s) >= limit:
            raise BranchCutProximityError(
                f"|s| too close to the branch-point radius {radius:.6f}"
            )
        return exp(log_g(s) - log_g0)

    return value


def genfun_eval(q, d: int, lam, s) -> complex:
    """The generating function of the renormalized radial family.

    Closed form: exp[(2/a)(lam + d s0) arctan((2/a)(s + s0))] divided by
    [(s+s0)^2 + a^2/4]^(d/2), principal branches, normalized to 1 at
    s = 0 so the Taylor coefficients are exactly the g_k.  (For q = 1/2
    the normalizing constant is already 1 and this reduces to
    exp(lam*arctan s) / sqrt(s^2+1)^d.)  Points at BRANCH_GUARD times the
    branch-point radius or beyond are rejected.
    """
    return _genfun(q, d, lam)(s)


def genfun_extraction_radius(q, order: int) -> float:
    """Radius r of the circle `genfun_taylor_coefficients` extracts on:
    half the branch-point radius.  An order whose scale 1/r^order (the
    largest the extraction divides by) overflows a float is refused."""
    r = 0.5 * genfun_singularity_radius(q)
    try:
        r ** -order
    except OverflowError:
        raise ValueError(f"order {order} is too large: the scale 1/r^{order} at the "
                         f"extraction radius r = {r:.3g} overflows a float") from None
    return r


def genfun_taylor_coefficients(q, d: int, lam, order: int) -> list:
    """Taylor coefficients 0..order of the generating function at s = 0.

    Cauchy-integral extraction on a circle well inside the branch-point
    radius: a direct discrete Fourier transform of DFT_NODES samples,
    for the order + 1 coefficients wanted only, each summed in sample
    order.  Uniform accuracy across orders, unlike iterated numerical
    differentiation.
    """
    r = genfun_extraction_radius(q, order)
    g = _genfun(q, d, lam)
    values = [g(r * z) for z in _DFT_ROOTS]
    coeffs = []
    for k in range(order + 1):
        # sample j meets exp(-2 pi i jk/N), the conjugate root jk mod N
        tk = (_DFT_TWIDDLES * k)[::k] if k else [1.0] * DFT_NODES
        coeffs.append(reduce(add, map(mul, values, tk)) / DFT_NODES / r**k)
    return coeffs


def genfun_ode_residual(q, d: int, lam, s, step: float = 1e-3) -> complex:
    """Residual of (1 + 2 s0 s + s^2) dG/ds - (lam - d s) G at one point.

    The derivative uses the 5-point fourth-order stencil; the step is
    halved once and the two estimates must agree, otherwise
    StepSizeError is raised.
    """
    _, _, s0 = _float_params(q)
    g = _genfun(q, d, lam)

    def deriv(h):
        return (g(s - 2 * h) - 8.0 * g(s - h) + 8.0 * g(s + h) - g(s + 2 * h)) / (12.0 * h)

    d1 = deriv(step)
    d2 = deriv(step / 2.0)
    scale = max(abs(d1), abs(d2), 1.0)
    if abs(d1 - d2) > 1e-6 * scale:
        raise StepSizeError(
            f"derivative estimates disagree: {abs(d1 - d2):.3e} at step {step}"
        )
    return (1.0 + 2.0 * s0 * s + s * s) * d2 - (lam - d * s) * g(s)
