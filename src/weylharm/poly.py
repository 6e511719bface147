"""The polynomial algebra on R^(2d) in complex coordinates z, zbar.

Carries the classical triple acting on polynomials: multiplication by the
squared radius, the quarter-Laplacian, and the symmetrized Euler operator,
together with harmonic decomposition and bi-degree splitting.  A
`CPolynomial` is a `weyl.TermMap`, one denominator over Gaussian-integer
numerators per packed monomial, and the triple, the derivatives, the
split by degree and the harmonic decomposition run on those numerators.
"""

from __future__ import annotations

from math import comb, lcm, perm
from typing import NamedTuple

from .weyl import (
    _SCALARS,
    FIELD_BITS,
    NO_CONTRACTION,
    TermMap,
    _check_mode,
    _layout,
    _memo,
    _mul_terms,
)


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
        return _mul_terms(self, other, lambda ann, cre, d: NO_CONTRACTION)

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

    The sum runs on the stored numerators of p (`_triple_acc`), over p's
    denominator times dr, with one gcd.  What each key contributes (its
    degree, whether it may be raised, the modes it lowers and their
    weights) is read from the bounded memo `_neighbourhood`, so a key the
    triple met before, in this call or an earlier one, is not unpacked
    again.
    """
    if not p._terms:
        return p
    return p._wrap(p.d, _triple_acc(p.d, p._terms, rn, en, ln), p._den * dr)


# a cold `verify all --seed 1` reads 179 distinct (key, d) pairs in 7910
# visits.  An entry refers to the layout's steps and holds no key but its
# own (raise targets stored per entry would grow as d^2: 2.6 GB for
# `verify sl2 --d 300 --deg 2 --count 2`); with it about 0.4 kB at d = 4
# and 2.6 kB at d = 300 (tracemalloc)
@_memo(4096)
def _neighbourhood(k: int, d: int) -> tuple:
    """What the triple reads of packed key k over d modes, as one immutable
    tuple (degree + d, raises, downs): ``raises`` is False when some
    exponent is B - 1, and ``downs`` holds the pairs (step_j,
    alpha_j*beta_j) whose weight is nonzero, step_j the layout's own int."""
    lay = _layout(d)
    e = lay.fields(k)
    downs = []
    for j, step in enumerate(lay.step):
        if w := e[j] * e[d + j]:
            downs.append((step, w))
    return sum(e) + d, not (k + lay.ones) & lay.high, tuple(downs)


def _triple_acc(d: int, terms: dict, rn: int, en: int, ln: int, acc: dict | None = None) -> dict:
    """The numerators of rn*R + en*E + ln*L applied to the numerator pairs
    ``terms = {key: [re, im]}`` of a map over d modes, added into ``acc``
    over the same denominator (a fresh accumulator when None) and returned;
    it may hold [0, 0] pairs.  Keys' neighbourhoods are `_neighbourhood`'s."""
    if acc is None:
        acc = {}
    steps = _layout(d).step
    hoods = [_neighbourhood(k, d) for k in terms]
    if en:  # E maps monomials one to one, so its part reads no neighbour
        for (k, (n, m)), (degree, _, _) in zip(terms.items(), hoods):
            f = en * degree
            if (cur := acc.get(k)) is None:
                acc[k] = [n * f, m * f]
            else:
                cur[0] += n * f
                cur[1] += m * f
    for (k, (n, m)), (_, raises, downs) in zip(terms.items(), hoods):
        if rn:
            if not raises:  # some exponent is B - 1
                raise ValueError(f"raising would reach the exponent bound 2^{FIELD_BITS - 1}")
            nr, mr = n * rn, m * rn
            for step in steps:
                if (cur := acc.get(up := k + step)) is None:
                    acc[up] = [nr, mr]
                else:
                    cur[0] += nr
                    cur[1] += mr
        if ln:
            for step, w in downs:
                w *= ln
                if (cur := acc.get(down := k - step)) is None:
                    acc[down] = [n * w, m * w]
                else:
                    cur[0] += n * w
                    cur[1] += m * w
    return acc


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
    return not any(n or m for n, m in _triple_acc(p.d, p._terms, 0, 0, 1).values())


# ---------------------------------------------------------------------------
# Harmonic decomposition
# ---------------------------------------------------------------------------


def harmonic_decompose(p: CPolynomial) -> list:
    """Split a homogeneous p of degree m as sum_j r^(2j) h_j.

    Returns [h_0, ..., h_floor(m/2)] with each h_j homogeneous harmonic of
    degree m - 2j, and zero where p has no part.  The decomposition is
    unique; `_harmonic_parts` computes it, peeling from the most radial
    layer down with the exact ladder identity
    L(r^(2j) h) = j*(deg h + d + j - 1) * r^(2(j-1)) h for harmonic h.
    """
    if p.is_zero():
        return []
    if not p.is_homogeneous():
        raise ValueError("harmonic decomposition needs a homogeneous polynomial")
    parts = _harmonic_parts(p)
    zero = CPolynomial.zero(p.d)
    return [parts.get(j, zero) for j in range(p.degree() // 2 + 1)]


def _harmonic_parts(p: CPolynomial) -> dict:
    """{j: h_j}, the nonzero h_j of p = sum_j r^(2j) h_j with every h_j
    harmonic, for any p: h_j sums the j-th parts of p's homogeneous
    components.

    Iterating the ladder identity gives, for harmonic h of degree m - 2i
    and j <= i,

        L^j R^i h = kappa(i, j) R^(i-j) h,
        kappa(i, j) = i!/(i-j)! * prod_{t<j} (m - i + d - 1 - t),

    so the L-chain P_j = L^j p is sum_{i>=j} kappa(i, j) R^(i-j) h_i and
    the parts peel from the top:

        h_j = (P_j - sum_{i>j} kappa(i, j) R^(i-j) h_i) / kappa(j, j),

    with m the degree of each key plus 2j.  The chain is built once on p's
    numerators (L has int weights, so no step takes a gcd), each
    R^(i-j) h_i is kept as numerators and raised one step per level, and
    each nonzero part takes one `_wrap`.
    """
    d, den = p.d, p._den
    if not p._terms:
        return {}
    degree = _layout(d).degree
    chain = [p._terms]
    for _ in range(p.degree() // 2):
        low = _triple_acc(d, chain[-1], 0, 0, 1)
        if [0, 0] in low.values():
            low = {k: v for k, v in low.items() if v[0] or v[1]}
        if not low:
            break
        chain.append(low)
    parts: dict = {}
    raised: list = []  # [i, numerators of R^(i-j) h_i, denominator of h_i]
    for j in range(len(chain) - 1, -1, -1):
        if not (j or raised):  # nothing to peel: p is harmonic
            return {0: p}
        for r in raised:
            r[1] = _triple_acc(d, r[1], 1, 0, 0)
        top = lcm(den, *(r[2] for r in raised))
        f = top // den
        acc = {k: [re * f, im * f] for k, (re, im) in chain[j].items()}
        for i, terms, di in raised:
            f = top // di
            for k, (re, im) in terms.items():
                w = f * _kappa(i, j, degree(k) + 2 * j, d) if j else f
                cur = acc.get(k)
                if cur is None:
                    acc[k] = [-re * w, -im * w]
                else:
                    cur[0] -= re * w
                    cur[1] -= im * w
        acc = {k: v for k, v in acc.items() if v[0] or v[1]}
        if not acc:
            continue
        if j:  # over top * K, K the lcm of the kappa(j, j) of the keys
            kappas = [_kappa(j, j, degree(k) + 2 * j, d) for k in acc]
            big = lcm(*kappas)
            for v, c in zip(acc.values(), kappas):
                v[0] *= big // c
                v[1] *= big // c
            top *= big
        parts[j] = h = p._wrap(d, acc, top)
        if j:
            raised.append([j, h._terms, h._den])
    return parts


def _kappa(i: int, j: int, m: int, d: int) -> int:
    """L^j R^i h = _kappa(i, j, m, d) R^(i-j) h for harmonic h of degree
    m - 2i over d modes, j <= i."""
    return perm(i, j) * perm(m - i + d - 1, j)


def harmonic_dim(n: int, k: int) -> int:
    """Dimension of degree-k harmonic polynomials in n real variables."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    first = comb(n + k - 1, k)
    second = comb(n + k - 3, k - 2) if k >= 2 else 0
    return first - second


def bidegree_split(p: CPolynomial) -> dict:
    """Split by bi-degree: map (n, m) -> part with |alpha| = n, |beta| = m."""
    lay = _layout(p.d)
    return p._split(lambda k: (sum(lay.fields(k & lay.low)), sum(lay.fields(k >> lay.shift))))
