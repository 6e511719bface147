"""The truncated-Fock matrix oracle for Weyl products (tests only).

A Weyl element acts on the occupation states of the polynomial model
(a_j+ multiplies by the j-th variable, a_j differentiates in it), so its
matrix on the states with |n| <= cutoff has exact Gaussian-rational
entries.  The matrix of a product agrees with the product of the matrices
away from the truncation edge, which checks `weyl_mul` without using the
commutation rule it is built on.
"""

from __future__ import annotations

from weylharm.scalars import GR_ZERO, GaussRational
from weylharm.weyl import ModeMismatchError, WeylElement, compositions, weyl_mul


def occupation_states(d: int, cutoff: int) -> tuple:
    """All occupation vectors n with |n| <= cutoff, graded lexicographic."""
    return tuple(n for total in range(cutoff + 1) for n in compositions(total, d))


class FockMatrix:
    """Matrix of a Weyl element on occupation states with |n| <= cutoff.

    States are the monomial basis of the polynomial model (a_j+ acts as
    multiplication by the j-th variable, a_j as the j-th partial
    derivative), so all entries are exact Gaussian rationals.  Entries are
    stored sparsely as (row, col) -> coefficient over the state list.
    """

    __slots__ = ("d", "cutoff", "states", "index", "entries")

    def __init__(self, d: int, cutoff: int, entries: dict | None = None):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "cutoff", cutoff)
        states = occupation_states(d, cutoff)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "index", {s: i for i, s in enumerate(states)})
        clean = {}
        if entries:
            for key, c in entries.items():
                c = GaussRational.coerce(c)
                if not c.is_zero():
                    clean[key] = c
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("FockMatrix is immutable")

    @property
    def dimension(self) -> int:
        return len(self.states)

    def entry(self, row_state, col_state) -> GaussRational:
        return self.entries.get(
            (self.index[tuple(row_state)], self.index[tuple(col_state)]), GR_ZERO
        )

    def matmul(self, other: "FockMatrix") -> "FockMatrix":
        if (self.d, self.cutoff) != (other.d, other.cutoff):
            raise ModeMismatchError("Fock matrices live on different spaces")
        by_row: dict = {}
        for (r, k), c in other.entries.items():
            by_row.setdefault(r, []).append((k, c))
        acc: dict = {}
        for (r, k), c in self.entries.items():
            for k2, c2 in by_row.get(k, ()):
                key = (r, k2)
                cur = acc.get(key)
                acc[key] = c * c2 if cur is None else cur + c * c2
        return FockMatrix(self.d, self.cutoff, acc)

    def column(self, col: int) -> dict:
        return {r: c for (r, k), c in self.entries.items() if k == col}

    def columns_equal(self, other: "FockMatrix", cols) -> bool:
        for col in cols:
            if self.column(col) != other.column(col):
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockMatrix):
            return NotImplemented
        return (
            self.d == other.d
            and self.cutoff == other.cutoff
            and self.entries == other.entries
        )


def fock_represent(w: WeylElement, cutoff: int) -> FockMatrix:
    """Matrix of ``w`` on the occupation states with |n| <= cutoff.

    Actions out of the truncated space are dropped, so products of
    matrices are only trustworthy on the guard-banded block; see
    `fock_product_block_agrees`.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    out = FockMatrix(w.d, cutoff)
    entries: dict = {}
    for col, n in enumerate(out.states):
        for mono, coeff in w.terms.items():
            if any(nj < aj for nj, aj in zip(n, mono.alpha)):
                continue
            target = tuple(
                nj - aj + bj for nj, aj, bj in zip(n, mono.alpha, mono.beta)
            )
            if sum(target) > cutoff:
                continue
            weight = 1
            for nj, aj in zip(n, mono.alpha):
                for step in range(aj):
                    weight *= nj - step
            key = (out.index[target], col)
            cur = entries.get(key)
            entries[key] = coeff * weight if cur is None else cur + coeff * weight
    return FockMatrix(w.d, cutoff, entries)


def fock_product_block_agrees(
    x: WeylElement, y: WeylElement, cutoff: int
) -> bool:
    """Oracle check: matrix of x*y vs product of matrices, off the edge.

    Truncation corrupts columns whose image can leave the state space, so
    agreement is only required on columns n with
    |n| <= cutoff - deg(x) - deg(y).
    """
    x._check_same(y)
    guard = cutoff - max(x.degree(), 0) - max(y.degree(), 0)
    product_matrix = fock_represent(weyl_mul(x, y), cutoff)
    matrix_product = fock_represent(x, cutoff).matmul(fock_represent(y, cutoff))
    cols = [
        i for i, s in enumerate(product_matrix.states) if sum(s) <= guard
    ]
    return product_matrix.columns_equal(matrix_product, cols)
