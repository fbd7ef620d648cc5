"""Seeded generators for random families and coefficients.

Everything flows from one integer seed through `random.Random`, and only
integer draws are used, so identical seeds reproduce identical objects
across platforms.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .families import CubeFamily
from .lattice import DyadicCube, children


def rng_from_seed(seed: int) -> random.Random:
    return random.Random(seed & 0xFFFFFFFFFFFFFFFF)


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
    return CubeFamily.make(root, members, max_depth)


def random_coefficients(rng: random.Random, family: CubeFamily) -> dict:
    coeffs = {}
    for q in family.members:
        v = rng.randrange(9)  # 0..8; a member drawn 0 gets no coefficient
        if v:
            coeffs[q] = Fraction(v, rng.choice([1, 2, 4]))
    return coeffs
