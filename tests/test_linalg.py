import random
from fractions import Fraction

from weylharm import linalg
from weylharm.scalars import GaussRational


def gr(x):
    return GaussRational(Fraction(x))


def random_scalar(rng):
    return GaussRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                         Fraction(rng.randint(-2, 2)))


def test_rank_simple():
    rows = [{0: gr(1), 1: gr(2)}, {0: gr(2), 1: gr(4)}, {1: gr(1)}]
    assert linalg.rank(rows) == 2


def test_randomized_rank_known_by_construction():
    # r rows with staggered leading columns are independent.  Combining them
    # through an m x r matrix whose top r x r block is unit lower triangular
    # keeps their span, so the m combinations have rank r; one more row in a
    # column none of them uses raises it to r + 1
    rng = random.Random(7)
    for _ in range(40):
        ncols = rng.randint(1, 7)
        r = rng.randint(0, ncols)
        basis = []
        for lead in sorted(rng.sample(range(ncols), r)):
            row = {lead: GaussRational(rng.choice((-2, -1, 1, 3)), rng.randint(-1, 1))}
            for c in range(lead + 1, ncols):
                if (v := random_scalar(rng)) and rng.random() < 0.6:
                    row[c] = v
            basis.append(row)
        rows = []
        for i in range(r + rng.randint(0, 3)):
            weights = [GaussRational(1) if j == i else random_scalar(rng)
                       for j in range(min(i + 1, r))]
            row: dict = {}
            for w, b in zip(weights, basis):
                for c, v in b.items():
                    row[c] = row.get(c, GaussRational(0)) + w * v
            items = [(c, v) for c, v in row.items() if v]
            rng.shuffle(items)
            rows.append(dict(items))
        rng.shuffle(rows)
        assert linalg.rank(rows) == r
        assert linalg.rank(rows + [{ncols: random_scalar(rng) or gr(1)}]) == r + 1
