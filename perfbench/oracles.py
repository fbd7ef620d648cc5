"""Set oracles written apart from cubeporos, used only to check its outputs.

A cube is given as (depth, coords) and stands for the half-open dyadic cube
prod [k 2^-j, (k+1) 2^-j).  `meets` follows the program's semantics for each
model kind: the middle-thirds Cantor set is met when the closed cube touches
it, a finite point set when a point lies in the half-open cube.  A cube is
free exactly when it does not meet the set.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

_ZERO = Fraction(0)


def cantor_dist(a: Fraction, b: Fraction) -> Fraction:
    """Exact distance from the closed interval [a, b] (0 <= a < b <= 1) to C.

    Walks the ternary construction: the endpoints of every construction
    interval lie in C, so [a, b] meets C as soon as it holds one of them, and
    otherwise sits in one third or inside the open middle gap.  Terminates
    because [a, b] cannot stay inside thirds shorter than itself.
    """
    lo, length = _ZERO, Fraction(1)
    while True:
        hi = lo + length
        l1 = lo + length / 3
        l2 = hi - length / 3
        if any(a <= e <= b for e in (lo, l1, l2, hi)):
            return _ZERO
        if b < l1:
            length /= 3
        elif a > l2:
            lo, length = l2, length / 3
        else:
            return min(a - l1, l2 - b)


class CantorOracle:
    dim = 1

    def cube_dist(self, depth: int, coords) -> Fraction:
        (k,) = coords
        side = Fraction(1, 1 << depth)
        return cantor_dist(k * side, (k + 1) * side)

    def meets(self, depth: int, coords) -> bool:
        return self.cube_dist(depth, coords) == 0


class DyadicPointsOracle:
    """Finite set of points with integer coordinates over a common 2^bits."""

    def __init__(self, points, bits: int):
        self.points = sorted(set(tuple(p) for p in points))
        self.bits = bits
        self.dim = len(self.points[0])
        self._levels = {}
        self._sorted_1d = [Fraction(p[0], 1 << bits) for p in self.points] \
            if self.dim == 1 else None

    def _addresses(self, depth: int) -> frozenset:
        addr = self._levels.get(depth)
        if addr is None:
            shift = self.bits - depth
            if shift >= 0:
                addr = frozenset(tuple(x >> shift for x in p) for p in self.points)
            else:
                addr = frozenset(tuple(x << -shift for x in p) for p in self.points)
            self._levels[depth] = addr
        return addr

    def meets(self, depth: int, coords) -> bool:
        return tuple(coords) in self._addresses(depth)

    def cube_dist(self, depth: int, coords) -> Fraction:
        """l-inf distance from the closed cube to the nearest point (1-d only)."""
        (k,) = coords
        side = Fraction(1, 1 << depth)
        a, b = k * side, (k + 1) * side
        pts = self._sorted_1d
        i = bisect.bisect_left(pts, a)
        best = None
        for j in (i - 1, i):
            if 0 <= j < len(pts):
                p = pts[j]
                d = max(_ZERO, a - p, p - b)
                best = d if best is None or d < best else best
        if i < len(pts) and pts[i] <= b:
            return _ZERO
        return best


def meeting_cubes(oracle, dim: int, depth: int) -> set:
    """All (depth, coords) cubes down to `depth` that meet the set."""
    found = set()
    level = [tuple([0] * dim)] if oracle.meets(0, (0,) * dim) else []
    for j in range(depth + 1):
        found.update((j, k) for k in level)
        if j == depth:
            break
        level = [c for k in level for c in _children(k, dim) if oracle.meets(j + 1, c)]
    return found


def _children(k, dim):
    return [tuple((x << 1) | ((off >> axis) & 1) for axis, x in enumerate(k))
            for off in range(1 << dim)]


def packing_constant(cubes, dim: int) -> Fraction:
    """max over r in cubes + root of sum(|Q| : Q in cubes, Q inside r) / |r|."""
    cubes = set(cubes)
    mass = {}
    for depth, coords in cubes:
        vol = Fraction(1, 1 << (depth * dim))
        for up in range(depth + 1):
            key = (depth - up, tuple(x >> up for x in coords))
            mass[key] = mass.get(key, _ZERO) + vol
    roots = cubes | {(0, (0,) * dim)}
    return max(mass.get(r, _ZERO) * (1 << (r[0] * dim)) for r in roots)
