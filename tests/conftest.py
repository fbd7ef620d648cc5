"""Shared fixtures, hypothesis strategies and brute-force oracles."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from cubeporos.lattice import Box, DyadicCube
from cubeporos.sets import IFSModel, PointsModel, cantor_middle_thirds


@st.composite
def dyadic_cubes(draw, dim=None, max_depth=5):
    d = dim if dim is not None else draw(st.integers(1, 3))
    depth = draw(st.integers(0, max_depth))
    coords = tuple(draw(st.integers(0, (1 << depth) - 1)) for _ in range(d))
    return DyadicCube(depth, coords)


@st.composite
def cube_pairs(draw, max_depth=5):
    d = draw(st.integers(1, 3))
    return (draw(dyadic_cubes(dim=d, max_depth=max_depth)),
            draw(dyadic_cubes(dim=d, max_depth=max_depth)))


def _fraction(draw, lo=-2, hi=3, denom_pows=(0, 1, 2, 3, 4, 5)):
    den = 1 << draw(st.sampled_from(denom_pows))
    num = draw(st.integers(lo * den, hi * den))
    return Fraction(num, den)


@st.composite
def rational_boxes(draw, dim=None, allow_degenerate=False):
    d = dim if dim is not None else draw(st.integers(1, 3))
    lo, hi = [], []
    for _ in range(d):
        a = _fraction(draw)
        w = _fraction(draw, lo=0, hi=2)
        if not allow_degenerate and w == 0:
            w = Fraction(1, 32)
        lo.append(a)
        hi.append(a + w)
    return Box(tuple(lo), tuple(hi))


@st.composite
def point_sets(draw, dim=None, max_points=6):
    d = dim if dim is not None else draw(st.integers(1, 3))
    n = draw(st.integers(1, max_points))
    pts = []
    for _ in range(n):
        pts.append(tuple(Fraction(draw(st.integers(0, 63)), 64) for _ in range(d)))
    return PointsModel.make(pts)


# hull side per dimension: small enough that a budget-0 IFS, which meets
# every cube touching its hull, stays a few thousand cubes at depth 6
HULL_SIDE = {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 8)}


@st.composite
def small_ifs(draw, d):
    """IFS of 1-3 maps with ratios 1/2..1/5 on a hull off the dyadic grid."""
    side = HULL_SIDE[d]
    lo = tuple(Fraction(draw(st.integers(0, 24)), 24) * (1 - side) for _ in range(d))
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        r = Fraction(1, draw(st.integers(2, 5)))
        # t in [(1-r)lo, (1-r)(lo+side)] keeps the image of the hull inside it
        maps.append((r, tuple(
            (1 - r) * (a + Fraction(draw(st.integers(0, 4)), 4) * side) for a in lo)))
    return IFSModel.make(maps, Box(lo, tuple(a + side for a in lo)))


@pytest.fixture(scope="session")
def cantor():
    return cantor_middle_thirds()


@pytest.fixture(scope="session")
def origin_1d():
    return PointsModel.make([(0,)])


# --- brute-force middle-thirds oracle -------------------------------------
#
# Level-m pieces are the 2^m closed intervals of the m-th construction step.
# Their endpoints are themselves attractor points, which makes the piece list
# a sound decision procedure whenever it decides at all.

def cantor_pieces(m: int):
    pieces = [(Fraction(0), Fraction(1))]
    third = Fraction(1, 3)
    for _ in range(m):
        nxt = []
        for a, b in pieces:
            w = (b - a) * third
            nxt.append((a, a + w))
            nxt.append((b - w, b))
        pieces = nxt
    return pieces


def cantor_meets_interval(lo: Fraction, hi: Fraction, m: int = 12):
    """True / False / None for 'does the Cantor set meet [lo, hi)'."""
    undecided = False
    for a, b in cantor_pieces(m):
        if b < lo or a > hi:
            continue
        if lo <= a < hi or lo <= b < hi:
            return True
        if a <= lo and hi <= b:
            undecided = True
            continue
        undecided = True
    if undecided:
        return None
    return False


def cantor_dist_bracket(x: Fraction, m: int = 12):
    """[lo, hi] bracket on dist(x, Cantor) from the level-m pieces."""
    best_lo = None
    best_hi = None
    for a, b in cantor_pieces(m):
        d = max(Fraction(0), a - x, x - b)
        reach = d + (b - a)
        if best_lo is None or d < best_lo:
            best_lo = d
        if best_hi is None or reach < best_hi:
            best_hi = reach
    return best_lo, best_hi
