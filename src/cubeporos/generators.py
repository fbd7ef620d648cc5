"""Seeded generators for random models, cubes and families.

Everything flows from one integer seed through `random.Random`, and only
integer draws are used, so identical seeds reproduce identical objects
across platforms.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .families import CubeFamily, PROVENANCE_USER
from .lattice import Box, DyadicCube, children
from .sets import IFSModel, PointsModel, SetModel, UnionModel


def rng_from_seed(seed: int) -> random.Random:
    return random.Random(seed & 0xFFFFFFFFFFFFFFFF)


def random_fraction(rng: random.Random, denom_pow: int = 12) -> Fraction:
    den = 1 << denom_pow
    return Fraction(rng.randrange(den), den)


def random_point(rng: random.Random, d: int, denom_pow: int = 12):
    return tuple(random_fraction(rng, denom_pow) for _ in range(d))


def random_points_model(rng: random.Random, d: int, count: int | None = None,
                        denom_pow: int = 12) -> PointsModel:
    if count is None:
        count = rng.randrange(1, 9)
    return PointsModel.make(random_point(rng, d, denom_pow) for _ in range(count))


def random_ifs_model(rng: random.Random, d: int) -> IFSModel:
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


def random_porous_model(rng: random.Random, d: int) -> SetModel:
    kind = rng.randrange(4)
    if kind == 0 and d == 1:
        return random_ifs_model(rng, d)
    if kind == 1:
        return UnionModel.make([random_points_model(rng, d, rng.randrange(1, 4)),
                                random_points_model(rng, d, rng.randrange(1, 4))])
    return random_points_model(rng, d)


def random_parent_closed_family(rng: random.Random, d: int, max_depth: int,
                                keep_num: int = 1, keep_den: int = 3) -> CubeFamily:
    """Downward percolation from the root: a child joins with probability
    keep_num/keep_den, so the family is parent-closed by construction."""
    root = DyadicCube.root(d)
    members = [root]
    frontier = [root]
    for _ in range(max_depth):
        nxt = []
        for q in frontier:
            for c in children(q):
                if rng.randrange(keep_den) < keep_num:
                    members.append(c)
                    nxt.append(c)
        frontier = nxt
        if not frontier:
            break
    return CubeFamily.make(root, members, max_depth, PROVENANCE_USER)


def random_coefficients(rng: random.Random, family: CubeFamily,
                        max_value: int = 8) -> dict:
    coeffs = {}
    for q in family.members:
        v = rng.randrange(max_value + 1)
        if v:
            coeffs[q] = Fraction(v, rng.choice([1, 2, 4]))
    return coeffs
