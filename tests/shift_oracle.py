"""Shifts and differences of a `UniPoly`, built on `compose_linear` (tests
only).

The radial layer and the contiguous check sum shifted rows in
`scalars._shifted_sum`; these compositional forms are the oracles the tests
compare them with.
"""

from __future__ import annotations


def compose_shift(p, shift):
    """t |-> p(t + shift)."""
    return p.compose_linear(1, shift)


def forward_difference(p):
    """p(t+1) - p(t)."""
    return compose_shift(p, 1) - p


def backward_difference(p):
    """p(t) - p(t-1)."""
    return p - compose_shift(p, -1)
