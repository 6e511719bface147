"""Exact rank over Q(i) by sparse Gaussian elimination.

Rows are dicts mapping column keys (any hashable) to exact scalars.  The
harmonics suite uses `rank` to show that its closed-form basis is linearly
independent.  Everything here is plain elimination kept exact, sized for
desk-scale verification work.
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


def echelon(rows) -> dict:
    """Forward elimination; returns insertion-ordered {pivot_col: row}

    with each stored row scaled so its pivot coefficient is 1.  A row's
    pivot is the first column left in it once it is reduced.
    """
    pivots: dict = {}
    for row in rows:
        reduced = _reduce_against(row, pivots)
        if reduced:
            col = next(iter(reduced))
            inv = GR_ONE / reduced[col]
            pivots[col] = {c: v * inv for c, v in reduced.items()}
    return pivots


def rank(rows) -> int:
    return len(echelon(rows))
