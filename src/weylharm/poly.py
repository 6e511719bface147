"""The polynomial algebra on R^(2d) in complex coordinates z, zbar.

Carries the classical triple acting on polynomials: multiplication by the
squared radius, the quarter-Laplacian, and the symmetrized Euler operator,
together with harmonic decomposition and bi-degree splitting.  A
`CPolynomial` is a `weyl.TermMap`, one denominator over Gaussian-integer
numerators per packed monomial, and the triple, the derivatives and the
split by degree run on those numerators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .weyl import _SCALARS, FIELD_BITS, TermMap, _check_mode, _layout, _mul_terms


class CMonomial(NamedTuple):
    """Exponents of z (``alpha``) and of zbar (``beta``), one per mode."""

    alpha: tuple
    beta: tuple

    @property
    def degree(self) -> int:
        return sum(self.alpha) + sum(self.beta)


class CPolynomial(TermMap):
    """A finite Q(i)-combination of monomials z^alpha zbar^beta."""

    __slots__ = ()
    _mono = CMonomial

    @classmethod
    def z(cls, d: int, j: int) -> "CPolynomial":
        return cls._generator(d, j, "alpha")

    @classmethod
    def zbar(cls, d: int, j: int) -> "CPolynomial":
        return cls._generator(d, j, "beta")

    @classmethod
    def radius_squared(cls, d: int) -> "CPolynomial":
        """r^2 = sum_j z_j zbar_j."""
        return cls._diagonal_sum(d)

    def __mul__(self, other) -> "CPolynomial":
        if isinstance(other, _SCALARS):
            return self.scale(other)
        # the commutative product: only the empty contraction
        return _mul_terms(self, other, lambda ann, cre, d: ((0, 0, 1),))

    def is_homogeneous(self) -> bool:
        return len(set(map(_layout(self.d).degree, self._terms))) <= 1

    def homogeneous_components(self) -> dict:
        """Map degree -> homogeneous part."""
        return self._split(_layout(self.d).degree)

    def _split(self, part_of) -> dict:
        """Map part_of(key) -> the terms whose packed key has it, in sorted
        order, each over its share of the denominator."""
        buckets: dict = {}
        for k, (re, im) in self._terms.items():
            buckets.setdefault(part_of(k), {})[k] = [re, im]
        return {part: self._wrap(self.d, t, self._den) for part, t in sorted(buckets.items())}

    def __repr__(self) -> str:
        from .expr import format_cpoly

        return f"<CPolynomial d={self.d}: {format_cpoly(self)}>"


# ---------------------------------------------------------------------------
# The classical triple
# ---------------------------------------------------------------------------


def _triple(p: TermMap, rn: int, en: int, ln: int, dr: int = 1) -> TermMap:
    """(rn*R(p) + en*E(p) + ln*L(p)) / dr for ints rn, en, ln and dr > 0,
    in one accumulator.

    R raises and L lowers both exponents at one mode together, with weights
    1 and u_j*v_j: on a packed key that is one add or subtract of the
    mode's step.  E keeps each monomial and weighs it by degree + d.  The
    triple treats the two exponent vectors of a monomial symmetrically, so
    one body serves `CPolynomial` and `weyl.WeylElement`.

    The sum runs on the stored numerators of p, one [re, im] pair of ints
    per output key, over p's denominator times dr.
    """
    d, terms = p.d, p._terms
    if not terms:
        return p
    lay = _layout(d)
    ones, high, steps = lay.ones, lay.high, lay.step
    exps = list(map(lay.fields, terms)) if en or ln else [()] * len(terms)
    acc: dict = {}
    if en:  # E maps monomials one to one, so its part seeds the accumulator
        for (k, (n, m)), e in zip(terms.items(), exps):
            f = en * (sum(e) + d)
            acc[k] = [n * f, m * f]
    for (k, (n, m)), e in zip(terms.items(), exps):
        if rn:
            if (k + ones) & high:  # some exponent is B - 1
                raise ValueError(f"raising would reach the exponent bound 2^{FIELD_BITS - 1}")
            nr, mr = n * rn, m * rn
            for step in steps:
                up = k + step
                cur = acc.get(up)
                if cur is None:
                    acc[up] = [nr, mr]
                else:
                    cur[0] += nr
                    cur[1] += mr
        if ln:
            for j, step in enumerate(steps):
                w = e[j] * e[d + j] * ln
                if not w:
                    continue
                down = k - step
                cur = acc.get(down)
                if cur is None:
                    acc[down] = [n * w, m * w]
                else:
                    cur[0] += n * w
                    cur[1] += m * w
    return p._wrap(d, acc, p._den * dr)


def op_R(p: TermMap) -> TermMap:
    """Multiplication by the squared radius sum_j z_j zbar_j."""
    return _triple(p, 1, 0, 0)


def op_L(p: TermMap) -> TermMap:
    """Quarter-Laplacian sum_j d^2/(dz_j dzbar_j)."""
    return _triple(p, 0, 0, 1)


def op_E(p: TermMap) -> TermMap:
    """Symmetrized Euler operator: degree + d on each monomial."""
    return _triple(p, 0, 1, 0)


def _derivative(p: CPolynomial, field: int) -> CPolynomial:
    """d/dx for the variable x whose exponent is packed field ``field``;
    distinct monomials have distinct derivatives, so nothing collides."""
    shift, mask = FIELD_BITS * field, (1 << FIELD_BITS) - 1
    out = {}
    for k, (re, im) in p._terms.items():
        if e := (k >> shift) & mask:
            out[k - (1 << shift)] = [re * e, im * e]
    return CPolynomial._wrap(p.d, out, p._den)


def deriv_z(p: CPolynomial, j: int) -> CPolynomial:
    """d/dz_j, 1 <= j <= d."""
    _check_mode(p.d, j)
    return _derivative(p, j - 1)


def deriv_zbar(p: CPolynomial, j: int) -> CPolynomial:
    """d/dzbar_j, 1 <= j <= d."""
    _check_mode(p.d, j)
    return _derivative(p, p.d + j - 1)


def is_harmonic(p: TermMap) -> bool:
    """L(p) = 0, for a `CPolynomial` or a `weyl.WeylElement`: the Weyl
    harmonics are the kernel of the transferred L, which is L itself."""
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
        # prod_{i=1..j} i (k + d + i - 1) with k = m - 2j
        c = math.factorial(j) * math.prod(range(m - 2 * j + d, m - j + d))
        h = lj.scale(Fraction(1, c)) if c != 1 else lj
        parts[j] = h
        if j > 0:
            for _ in range(j):
                h = op_R(h)
            residual = residual - h
        if not residual:
            break
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
    lay = _layout(p.d)
    return p._split(lambda k: (sum(lay.fields(k & lay.low)), sum(lay.fields(k >> lay.shift))))
