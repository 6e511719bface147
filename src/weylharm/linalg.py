"""Exact sparse linear algebra over Q(i).

Rows are dicts mapping column keys (any hashable) to exact scalars; pivots
follow the column order given when extracting kernel vectors.  Everything
here is plain Gaussian elimination kept exact, sized for desk-scale
verification work.

A row produced by `echelon` can only reference pivot columns inserted
after it (it was reduced against all earlier ones), so reverse insertion
order is a valid substitution order everywhere below.
"""

from __future__ import annotations

from .scalars import GR_ONE, GaussRational


def _subtract_multiple(row: dict, factor: GaussRational, other: dict) -> None:
    """row -= factor * other, in place, dropping exact zeros."""
    for col, c in other.items():
        acc = row.get(col)
        acc = -factor * c if acc is None else acc - factor * c
        if not acc:
            row.pop(col, None)
        else:
            row[col] = acc


def _reduce_against(row: dict, pivots: dict) -> dict:
    """Subtract pivot rows until ``row`` has no pivot column left."""
    row = dict(row)
    while True:
        hit = None
        for col in row:
            if col in pivots:
                hit = col
                break
        if hit is None:
            return row
        _subtract_multiple(row, row[hit], pivots[hit])


def echelon(rows, columns=None) -> dict:
    """Forward elimination; returns insertion-ordered {pivot_col: row}

    with each stored row scaled so its pivot coefficient is 1.  A row's
    pivot is its first column in ``columns`` if given, else in the row.
    """
    position = {c: i for i, c in enumerate(columns or ())}.__getitem__
    pivots: dict = {}
    for row in rows:
        if not row:
            continue
        reduced = _reduce_against(row, pivots)
        if reduced:
            col = min(reduced, key=position) if columns else next(iter(reduced))
            inv = GR_ONE / reduced[col]
            pivots[col] = {c: v * inv for c, v in reduced.items()}
    return pivots


def rank(rows) -> int:
    return len(echelon(rows))


def rref(rows, columns) -> dict:
    """Fully reduced echelon form: no pivot row mentions another pivot."""
    pivots = echelon(rows, columns)
    order = list(pivots)
    clean: dict = {}
    for col in reversed(order):
        row = dict(pivots[col])
        for foreign in [c for c in row if c != col and c in pivots]:
            factor = row.get(foreign)
            if factor is None:
                continue
            _subtract_multiple(row, factor, clean[foreign])
        clean[col] = row
    return clean


def kernel_basis(rows, columns) -> list:
    """Basis of the null space of the matrix with the given column order.

    Returns one dict (column -> coefficient) per free column, normalized
    so the free column has coefficient 1.
    """
    reduced = rref(rows, columns)
    basis = []
    for free in columns:
        if free in reduced:
            continue
        vec = {free: GR_ONE}
        for pcol, prow in reduced.items():
            c = prow.get(free)
            if c is not None:
                vec[pcol] = -c
        basis.append(vec)
    return basis


def same_row_space(rows_a, rows_b) -> bool:
    """Exact equality of spans over Q(i)."""
    ra = rank(rows_a)
    rb = rank(rows_b)
    if ra != rb:
        return False
    return rank(list(rows_a) + list(rows_b)) == ra
