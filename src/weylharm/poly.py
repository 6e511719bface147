"""The polynomial algebra on R^(2d) in complex coordinates z, zbar.

Carries the classical triple acting on polynomials: multiplication by the
squared radius, the quarter-Laplacian, and the symmetrized Euler operator,
together with harmonic decomposition and bi-degree splitting.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterator, NamedTuple

from .scalars import GR_ONE, GR_ZERO, GaussRational, ScalarLike
from .weyl import ModeMismatchError, check_exponents


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


def cterm_sort_key(mono: CMonomial):
    return (mono.degree, mono.beta, mono.alpha)


class CPolynomial:
    """A finite Q(i)-combination of monomials z^alpha zbar^beta."""

    __slots__ = ("d", "terms")

    def __init__(self, d: int, terms: dict | None = None):
        if d < 1:
            raise ValueError("mode count d must be >= 1")
        clean: dict = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = GaussRational.coerce(coeff)
                if coeff.is_zero():
                    continue
                if len(mono.alpha) != d or len(mono.beta) != d:
                    raise ModeMismatchError(f"monomial {mono} does not have {d} modes")
                clean[mono] = coeff
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("CPolynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "CPolynomial":
        return cls(d, {})

    @classmethod
    def one(cls, d: int) -> "CPolynomial":
        z = (0,) * d
        return cls(d, {CMonomial(z, z): GR_ONE})

    @classmethod
    def monomial(cls, d: int, alpha, beta, coeff: ScalarLike = 1) -> "CPolynomial":
        alpha, beta = tuple(alpha), tuple(beta)
        check_exponents(alpha, beta)
        return cls(d, {CMonomial(alpha, beta): coeff})

    @classmethod
    def z(cls, d: int, j: int) -> "CPolynomial":
        _check_mode(d, j)
        e = tuple(1 if k == j - 1 else 0 for k in range(d))
        return cls.monomial(d, e, (0,) * d)

    @classmethod
    def zbar(cls, d: int, j: int) -> "CPolynomial":
        _check_mode(d, j)
        e = tuple(1 if k == j - 1 else 0 for k in range(d))
        return cls.monomial(d, (0,) * d, e)

    @classmethod
    def radius_squared(cls, d: int) -> "CPolynomial":
        """r^2 = sum_j z_j zbar_j."""
        terms = {}
        for j in range(d):
            e = tuple(1 if k == j else 0 for k in range(d))
            terms[CMonomial(e, e)] = GR_ONE
        return cls(d, terms)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(m.degree for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {m.degree for m in self.terms}
        return len(degs) <= 1

    def homogeneous_components(self) -> dict:
        """Map degree -> homogeneous part."""
        buckets: dict = {}
        for m, c in self.terms.items():
            buckets.setdefault(m.degree, {})[m] = c
        return {deg: CPolynomial(self.d, t) for deg, t in sorted(buckets.items())}

    def coefficient(self, alpha, beta) -> GaussRational:
        return self.terms.get(CMonomial(tuple(alpha), tuple(beta)), GR_ZERO)

    def sorted_terms(self) -> Iterator[tuple[CMonomial, GaussRational]]:
        for mono in sorted(self.terms, key=cterm_sort_key):
            yield mono, self.terms[mono]

    def __eq__(self, other) -> bool:
        if not isinstance(other, CPolynomial):
            return NotImplemented
        return self.d == other.d and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.d, frozenset(self.terms.items())))

    # -- ring operations -----------------------------------------------------

    def _check_same(self, other: "CPolynomial"):
        if self.d != other.d:
            raise ModeMismatchError(f"mode counts differ: {self.d} vs {other.d}")

    def __add__(self, other) -> "CPolynomial":
        if isinstance(other, (int, Fraction, GaussRational)):
            other = CPolynomial.one(self.d).scale(other)
        self._check_same(other)
        out = self.terms.copy()
        for mono, c in other.terms.items():
            acc = out.get(mono)
            acc = c if acc is None else acc + c
            if acc.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = acc
        return CPolynomial(self.d, out)

    __radd__ = __add__

    def __sub__(self, other) -> "CPolynomial":
        if isinstance(other, (int, Fraction, GaussRational)):
            other = CPolynomial.one(self.d).scale(other)
        return self + (-other)

    def __neg__(self) -> "CPolynomial":
        return CPolynomial(self.d, {m: -c for m, c in self.terms.items()})

    def scale(self, coeff: ScalarLike) -> "CPolynomial":
        c = GaussRational.coerce(coeff)
        if c.is_zero():
            return CPolynomial.zero(self.d)
        return CPolynomial(self.d, {m: v * c for m, v in self.terms.items()})

    def __mul__(self, other) -> "CPolynomial":
        if isinstance(other, (int, Fraction, GaussRational)):
            return self.scale(other)
        self._check_same(other)
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = CMonomial(
                    tuple(a + b for a, b in zip(m1.alpha, m2.alpha)),
                    tuple(a + b for a, b in zip(m1.beta, m2.beta)),
                )
                add = c1 * c2
                cur = acc.get(mono)
                cur = add if cur is None else cur + add
                if cur.is_zero():
                    acc.pop(mono, None)
                else:
                    acc[mono] = cur
        return CPolynomial(self.d, acc)

    def __rmul__(self, other) -> "CPolynomial":
        if isinstance(other, (int, Fraction, GaussRational)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> "CPolynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = CPolynomial.one(self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def substitute_scaled(self, lam: GaussRational) -> "CPolynomial":
        """p(lam*z, conj(lam)*zbar), the bi-degree scaling action."""
        lamc = lam.conjugate()
        out = {}
        for m, c in self.terms.items():
            out[m] = c * lam ** sum(m.alpha) * lamc ** sum(m.beta)
        return CPolynomial(self.d, out)

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "terms": [
                {
                    "alpha": list(m.alpha),
                    "beta": list(m.beta),
                    "re": str(c.re),
                    "im": str(c.im),
                }
                for m, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CPolynomial":
        d = int(data["d"])
        terms = {}
        for t in data["terms"]:
            mono = CMonomial(tuple(t["alpha"]), tuple(t["beta"]))
            check_exponents(mono.alpha, mono.beta)
            terms[mono] = GaussRational(Fraction(t["re"]), Fraction(t["im"]))
        return cls(d, terms)

    def __repr__(self) -> str:
        from .expr import format_cpoly

        return f"<CPolynomial d={self.d}: {format_cpoly(self)}>"


def _check_mode(d: int, j: int):
    if not 1 <= j <= d:
        raise IndexError(f"mode index {j} out of range 1..{d}")


# ---------------------------------------------------------------------------
# The classical triple
# ---------------------------------------------------------------------------


def op_R(p: CPolynomial) -> CPolynomial:
    """Multiplication by the squared radius."""
    return CPolynomial.radius_squared(p.d) * p


def op_L(p: CPolynomial) -> CPolynomial:
    """Quarter-Laplacian sum_j d^2/(dz_j dzbar_j)."""
    acc: dict = {}
    for m, c in p.terms.items():
        for j in range(p.d):
            aj, bj = m.alpha[j], m.beta[j]
            if aj == 0 or bj == 0:
                continue
            mono = CMonomial(
                m.alpha[:j] + (aj - 1,) + m.alpha[j + 1 :],
                m.beta[:j] + (bj - 1,) + m.beta[j + 1 :],
            )
            add = c * (aj * bj)
            cur = acc.get(mono)
            cur = add if cur is None else cur + add
            if cur.is_zero():
                acc.pop(mono, None)
            else:
                acc[mono] = cur
    return CPolynomial(p.d, acc)


def op_E(p: CPolynomial) -> CPolynomial:
    """Symmetrized Euler operator: degree + d on each monomial."""
    return CPolynomial(
        p.d, {m: c * (m.degree + p.d) for m, c in p.terms.items()}
    )


def op_euler(p: CPolynomial) -> CPolynomial:
    """Plain Euler operator: multiplies each monomial by its degree."""
    return CPolynomial(p.d, {m: c * m.degree for m, c in p.terms.items()})


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
    r2 = CPolynomial.radius_squared(d)
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
            residual = residual - (r2**j) * h
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
