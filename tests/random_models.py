"""Seeded random set models for the tests.

Only integer draws from `random.Random` are used, so one seed gives the
same model on every platform.
"""

from fractions import Fraction

from cubeporos.lattice import Box
from cubeporos.sets import IFSModel, PointsModel, SetModel, UnionModel


def random_fraction(rng, denom_pow: int = 12) -> Fraction:
    den = 1 << denom_pow
    return Fraction(rng.randrange(den), den)


def random_point(rng, d: int, denom_pow: int = 12):
    return tuple(random_fraction(rng, denom_pow) for _ in range(d))


def random_points_model(rng, d: int, count: int | None = None,
                        denom_pow: int = 12) -> PointsModel:
    if count is None:
        count = rng.randrange(1, 9)
    return PointsModel.make(random_point(rng, d, denom_pow) for _ in range(count))


def random_ifs_model(rng, d: int) -> IFSModel:
    """Small well-separated similarity system on the unit hull."""
    ratio = Fraction(1, rng.choice([3, 4, 5]))
    n_maps = rng.randrange(2, 4)
    hull = Box.make([0] * d, [1] * d)
    shifts = set()
    den = 8
    limit = (1 - ratio) * den
    while len(shifts) < n_maps:
        shifts.add(tuple(Fraction(rng.randrange(int(limit) + 1), den)
                         for _ in range(d)))
    return IFSModel.make([(ratio, s) for s in sorted(shifts)], hull)


def random_porous_model(rng, d: int) -> SetModel:
    kind = rng.randrange(4)
    if kind == 0 and d == 1:
        return random_ifs_model(rng, d)
    if kind == 1:
        return UnionModel.make([random_points_model(rng, d, rng.randrange(1, 4)),
                                random_points_model(rng, d, rng.randrange(1, 4))])
    return random_points_model(rng, d)
