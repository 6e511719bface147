"""The polynomial algebra on R^(2d) in complex coordinates z, zbar.

Carries the classical triple acting on polynomials: multiplication by the
squared radius, the quarter-Laplacian, and the symmetrized Euler operator,
together with harmonic decomposition and bi-degree splitting.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .scalars import GR_ZERO
from .weyl import _SCALARS, TermMap, _check_mode


class CMonomial(NamedTuple):
    """Exponents of z (``alpha``) and of zbar (``beta``), one per mode."""

    alpha: tuple
    beta: tuple

    @property
    def degree(self) -> int:
        return sum(self.alpha) + sum(self.beta)

    @property
    def bidegree(self) -> tuple:
        return (sum(self.alpha), sum(self.beta))


class CPolynomial(TermMap):
    """A finite Q(i)-combination of monomials z^alpha zbar^beta."""

    __slots__ = ()
    _mono = CMonomial

    @classmethod
    def z(cls, d: int, j: int) -> "CPolynomial":
        return cls._generator(d, j, 0)

    @classmethod
    def zbar(cls, d: int, j: int) -> "CPolynomial":
        return cls._generator(d, j, 1)

    @classmethod
    def radius_squared(cls, d: int) -> "CPolynomial":
        """r^2 = sum_j z_j zbar_j."""
        return cls._diagonal_sum(d)

    def __mul__(self, other) -> "CPolynomial":
        if isinstance(other, _SCALARS):
            return self.scale(other)
        self._check_same(other)
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = CMonomial(
                    tuple(a + b for a, b in zip(m1.alpha, m2.alpha)),
                    tuple(a + b for a, b in zip(m1.beta, m2.beta)),
                )
                cur = acc.get(mono)
                acc[mono] = c1 * c2 if cur is None else cur + c1 * c2
        return CPolynomial._trusted(self.d, acc)

    def is_homogeneous(self) -> bool:
        degs = {m.degree for m in self.terms}
        return len(degs) <= 1

    def homogeneous_components(self) -> dict:
        """Map degree -> homogeneous part."""
        buckets: dict = {}
        for m, c in self.terms.items():
            buckets.setdefault(m.degree, {})[m] = c
        return {deg: CPolynomial(self.d, t) for deg, t in sorted(buckets.items())}

    def __repr__(self) -> str:
        from .expr import format_cpoly

        return f"<CPolynomial d={self.d}: {format_cpoly(self)}>"


# ---------------------------------------------------------------------------
# The classical triple
# ---------------------------------------------------------------------------


def _shift_diagonal(p: TermMap, step: int, weight) -> TermMap:
    """sum_j weight(u_j, v_j) * (the monomial with both exponents at mode j
    moved by ``step``), over every term of p.

    The triple only ever touches the two exponent vectors of a monomial
    together and symmetrically, so the field order of ``_mono`` does not
    matter: one body serves `CPolynomial` and `weyl.WeylElement`.
    """
    cls = type(p)
    acc: dict = {}
    for (u, v), c in p.terms.items():
        for j in range(p.d):
            w = weight(u[j], v[j])
            if not w:
                continue
            mono = cls._mono(
                u[:j] + (u[j] + step,) + u[j + 1 :],
                v[:j] + (v[j] + step,) + v[j + 1 :],
            )
            # R's weight is always 1: keep the (immutable) coefficient
            # instead of building an equal one
            cw = c if w == 1 else c * w
            cur = acc.get(mono)
            acc[mono] = cw if cur is None else cur + cw
    return cls._trusted(p.d, acc)


def op_R(p: TermMap) -> TermMap:
    """Multiplication by the squared radius sum_j z_j zbar_j."""
    return _shift_diagonal(p, 1, lambda a, b: 1)


def op_L(p: TermMap) -> TermMap:
    """Quarter-Laplacian sum_j d^2/(dz_j dzbar_j)."""
    return _shift_diagonal(p, -1, lambda a, b: a * b)


def op_E(p: TermMap) -> TermMap:
    """Symmetrized Euler operator: degree + d on each monomial."""
    return p._trusted(p.d, {m: c * (m.degree + p.d) for m, c in p.terms.items()})


def deriv_z(p: CPolynomial, j: int) -> CPolynomial:
    """d/dz_j, 1 <= j <= d."""
    _check_mode(p.d, j)
    k = j - 1
    acc = {}
    for m, c in p.terms.items():
        a = m.alpha[k]
        if a == 0:
            continue
        mono = CMonomial(m.alpha[:k] + (a - 1,) + m.alpha[k + 1 :], m.beta)
        acc[mono] = acc.get(mono, GR_ZERO) + c * a
    return CPolynomial(p.d, acc)


def deriv_zbar(p: CPolynomial, j: int) -> CPolynomial:
    """d/dzbar_j, 1 <= j <= d."""
    _check_mode(p.d, j)
    k = j - 1
    acc = {}
    for m, c in p.terms.items():
        b = m.beta[k]
        if b == 0:
            continue
        mono = CMonomial(m.alpha, m.beta[:k] + (b - 1,) + m.beta[k + 1 :])
        acc[mono] = acc.get(mono, GR_ZERO) + c * b
    return CPolynomial(p.d, acc)


def is_harmonic(p: CPolynomial) -> bool:
    return op_L(p).is_zero()


# ---------------------------------------------------------------------------
# Harmonic decomposition
# ---------------------------------------------------------------------------


def harmonic_decompose(p: CPolynomial) -> list:
    """Split a homogeneous p of degree m as sum_j r^(2j) h_j.

    Returns [h_0, ..., h_floor(m/2)] with each h_j homogeneous harmonic of
    degree m - 2j.  The decomposition is unique; it is computed by peeling
    from the most radial layer down, using the exact ladder identity
    L(r^(2j) h) = j*(deg h + d + j - 1) * r^(2(j-1)) h for harmonic h.
    """
    if p.is_zero():
        return []
    if not p.is_homogeneous():
        raise ValueError("harmonic decomposition needs a homogeneous polynomial")
    d = p.d
    m = p.degree()
    jmax = m // 2
    parts = [CPolynomial.zero(d)] * (jmax + 1)
    residual = p
    for j in range(jmax, -1, -1):
        lj = residual
        for _ in range(j):
            lj = op_L(lj)
        k = m - 2 * j
        c = Fraction(1)
        for i in range(1, j + 1):
            c *= i * (k + d + i - 1)
        h = lj.scale(Fraction(1, 1) / c) if c != 1 else lj
        parts[j] = h
        if j > 0:
            for _ in range(j):
                h = op_R(h)
            residual = residual - h
    return parts


def harmonic_dim(n: int, k: int) -> int:
    """Dimension of degree-k harmonic polynomials in n real variables."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    first = math.comb(n + k - 1, k)
    second = math.comb(n + k - 3, k - 2) if k >= 2 else 0
    return first - second


def bidegree_split(p: CPolynomial) -> dict:
    """Split by bi-degree: map (n, m) -> part with |alpha| = n, |beta| = m."""
    buckets: dict = {}
    for mono, c in p.terms.items():
        buckets.setdefault(mono.bidegree, {})[mono] = c
    return {
        key: CPolynomial(p.d, terms) for key, terms in sorted(buckets.items())
    }
