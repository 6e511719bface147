import random
from fractions import Fraction

from weylharm import linalg
from weylharm.scalars import GaussRational


def gr(x):
    return GaussRational(Fraction(x))


def test_rank_simple():
    rows = [{0: gr(1), 1: gr(2)}, {0: gr(2), 1: gr(4)}, {1: gr(1)}]
    assert linalg.rank(rows) == 2


def test_kernel_basis_known():
    # x0 + x1 + x2 = 0 over columns [0, 1, 2]
    rows = [{0: gr(1), 1: gr(1), 2: gr(1)}]
    basis = linalg.kernel_basis(rows, [0, 1, 2])
    assert len(basis) == 2
    for vec in basis:
        total = sum((vec.get(c, GaussRational(0)) for c in (0, 1, 2)),
                    GaussRational(0))
        assert total.is_zero()


def test_randomized_rank_and_kernel_consistency():
    rng = random.Random(7)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = []
        for _ in range(nrows):
            row = {}
            for c in range(ncols):
                if rng.random() < 0.6:
                    v = GaussRational(
                        Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                        Fraction(rng.randint(-2, 2)),
                    )
                    if not v.is_zero():
                        row[c] = v
            rows.append(row)
        r = linalg.rank(rows)
        basis = linalg.kernel_basis(rows, list(range(ncols)))
        assert r + len(basis) == ncols
        # every kernel vector annihilates every row
        for vec in basis:
            for row in rows:
                acc = GaussRational(0)
                for c, v in row.items():
                    acc = acc + v * vec.get(c, GaussRational(0))
                assert acc.is_zero()


def test_same_row_space():
    a = [{0: gr(1), 1: gr(1)}, {1: gr(1)}]
    b = [{0: gr(1)}, {1: gr(3)}]
    c = [{0: gr(1), 1: gr(2)}]
    assert linalg.same_row_space(a, b)
    assert not linalg.same_row_space(a, c)
