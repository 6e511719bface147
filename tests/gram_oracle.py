"""The Gram matrix of the symmetric radial family under the gamma-square
weight, by composite Gauss-Legendre quadrature (tests only).

`verify.suite_orthogonality` checks orthogonality without a Gram matrix:
exactly, through the ladder moments of the weight and the recurrence of
g_k, and in floats through `numerics.ladder_moments`.  These full K x K
float Grams, and the plain quadrature and weight they are built from, are
the independent oracle the tests compare it with.
"""

from __future__ import annotations

import math
from operator import mul

from weylharm.numerics import STABILITY_TOL, QuadratureSpec, _folded_rule, _gamma_weight


def weight_rho(lam: float, d: int) -> float:
    """The orthogonality weight |Gamma(d/2 + i*lambda/2)|^2.

    Positive on the whole real line for d >= 1 and decaying like
    |lambda|^(d-1) exp(-pi |lambda| / 2).
    """
    return _gamma_weight(d, [lam])[0]


def integrate(f, spec: QuadratureSpec) -> float:
    """Integrate a real function of one float over [-T, T]."""
    nodes, weights = _folded_rule(spec)
    return math.fsum(w * (f(x) + f(-x)) for x, w in zip(nodes, weights))


def _g_values(d: int, k_max: int, xs: list) -> list:
    """Values of g_0..g_kmax at every x by the three-term recurrence
    g_{k+2} = (x g_{k+1} - (k+d) g_k)/(k+2), which is forward stable
    where the monomial coefficients cancel."""
    values = [[1.0] * len(xs), xs][:k_max + 1]
    for k in range(k_max - 1):
        c, e = k + d, k + 2
        values.append([(x * b - c * a) / e
                       for x, a, b in zip(xs, values[k], values[k + 1])])
    return values


def orthogonality_matrix(d: int, k_max: int, spec: QuadratureSpec | None = None) -> dict:
    """Gram matrix of g_0..g_kmax against the gamma-square weight.

    Returns {"gram", "normalized", "diagonal_positive", "tail_bound",
    "spec"}, the matrices as lists of rows; ``normalized[m][n]`` is
    |I_mn| / (sqrt(I_mm) sqrt(I_nn)) with unit diagonal, two roots so
    that no product of the diagonal overflows.

    g_k has the parity of k, so on the folded rule g_m g_n at +-x sums to
    2 g_m(x) g_n(x) for m + n even; entries of mixed parity vanish.  Each
    entry is one correctly rounded sum.  A d or k_max whose weight or Gram
    entries are not finite floats is refused with ValueError.
    """
    if spec is None:
        spec = QuadratureSpec.for_orthogonality(d, k_max)
    nodes, weights = _folded_rule(spec)
    values = _g_values(d, k_max, nodes)
    weighted = list(map(mul, weights, _gamma_weight(d, nodes)))
    size = k_max + 1
    gram = [[0.0] * size for _ in range(size)]
    try:
        for m in range(size):
            left = list(map(mul, weighted, values[m]))
            for n in range(m, size, 2):
                gram[m][n] = gram[n][m] = 2.0 * math.fsum(map(mul, left, values[n]))
        finite = all(math.isfinite(x) for row in gram for x in row)
    except (OverflowError, ValueError):  # partials overflowed, or inf met -inf
        finite = False
    if not finite:
        raise ValueError(f"d = {d}, k_max = {k_max}: the orthogonality weight or "
                         "Gram entries overflow a float")
    roots = [math.sqrt(row[m]) for m, row in enumerate(gram)]
    normalized = [
        [abs(x) / (roots[m] * roots[n]) for n, x in enumerate(row)]
        for m, row in enumerate(gram)
    ]
    return {
        "gram": gram,
        "normalized": normalized,
        "diagonal_positive": all(row[m] > 0 for m, row in enumerate(gram)),
        "tail_bound": spec.tail_bound(d, 2 * k_max),
        "spec": spec,
    }


def orthogonality_stable(d: int, k_max: int) -> dict:
    """Gram computation plus the doubling stability requirement.

    The result is accepted only when doubling the panel count and growing
    the truncation changes every entry by less than STABILITY_TOL relative
    to the diagonal scale.
    """
    spec = QuadratureSpec.for_orthogonality(d, k_max)
    first = orthogonality_matrix(d, k_max, spec)
    second = orthogonality_matrix(d, k_max, spec.doubled())
    roots = [math.sqrt(row[m]) for m, row in enumerate(second["gram"])]
    drift = max(
        abs(a - b) / (roots[m] * roots[n])
        for m, (row1, row2) in enumerate(zip(first["gram"], second["gram"]))
        for n, (a, b) in enumerate(zip(row1, row2))
    )
    out = dict(second)
    out["stable"] = drift < STABILITY_TOL
    out["drift"] = drift
    return out
