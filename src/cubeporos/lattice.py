"""Exact arithmetic for half-open dyadic cubes and boxes under the l-inf metric.

All cubes live in the normalized unit root [0,1)^d; coordinates, volumes and
distances are arbitrary-precision rationals.  No floating point is used in
any predicate, so half-open boundary decisions are bit-exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import itemgetter

from .enclosure import frac_parse, int_parse
from .errors import DimensionMismatch, RootHasNoParent

_ZERO = Fraction(0)


class Relation(Enum):
    EQUAL = "equal"
    Q_INSIDE_R = "q_inside_r"
    R_INSIDE_Q = "r_inside_q"
    DISJOINT = "disjoint"


@dataclass(frozen=True)
class Box:
    """Axis-parallel half-open box with rational corners.

    Degenerate axes (lo == hi) are permitted so that single points can be
    used in distance queries; a degenerate axis is read as the closed point.
    """

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("box corner tuples must be nonempty and equal length")
        for a, b in zip(self.lo, self.hi):
            if a > b:
                raise ValueError(f"box needs lo <= hi per axis, got {a} > {b}")

    @classmethod
    def make(cls, lo, hi) -> "Box":
        return cls(tuple(Fraction(x) for x in lo), tuple(Fraction(x) for x in hi))

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains_point(self, p) -> bool:
        # half-open on each nondegenerate axis; degenerate axis = the point
        for a, b, x in zip(self.lo, self.hi, p):
            if a == b:
                if x != a:
                    return False
            elif not (a <= x < b):
                return False
        return True

    @classmethod
    def from_json(cls, obj) -> "Box":
        return cls(tuple(frac_parse(x) for x in obj["lo"]),
                   tuple(frac_parse(x) for x in obj["hi"]))


class DyadicCube(tuple):
    """Half-open dyadic cube: product of [k_i 2^-j, (k_i+1) 2^-j) in [0,1)^d.

    The cube is the tuple (depth, coords) itself: it hashes and compares as
    that tuple, and tuple order is the canonical cube order."""

    __slots__ = ()

    def __new__(cls, depth: int, coords: tuple):
        if depth < 0:
            raise ValueError("cube depth must be >= 0")
        if not coords:
            raise ValueError("cube needs at least one coordinate")
        top = 1 << depth
        for k in coords:
            if not 0 <= k < top:
                raise ValueError(f"coordinate {k} outside lattice at depth {depth}")
        return tuple.__new__(cls, (depth, coords))

    def __reduce__(self):
        # copy and every pickle protocol rebuild through the validating __new__
        return DyadicCube, tuple(self)

    depth = property(itemgetter(0))
    coords = property(itemgetter(1))

    @classmethod
    def root(cls, dim: int) -> "DyadicCube":
        return cls(0, (0,) * dim)

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def side(self) -> Fraction:
        return Fraction(1, 1 << self.depth)

    @property
    def volume(self) -> Fraction:
        return Fraction(1, 1 << (self.depth * self.dim))

    @property
    def lower_corner(self) -> tuple:
        s = self.side
        return tuple(k * s for k in self.coords)

    @property
    def box(self) -> Box:
        s = self.side
        return Box(tuple(k * s for k in self.coords),
                   tuple((k + 1) * s for k in self.coords))

    def ancestor_at(self, depth: int) -> "DyadicCube":
        if depth > self.depth or depth < 0:
            raise ValueError("ancestor depth out of range")
        shift = self.depth - depth
        return DyadicCube(depth, tuple(k >> shift for k in self.coords))

    def to_json(self):
        return {"depth": self.depth, "coords": list(self.coords)}

    @classmethod
    def from_json(cls, obj) -> "DyadicCube":
        return cls(int_parse(obj["depth"]), tuple(int_parse(k) for k in obj["coords"]))

    def __repr__(self):
        return f"DyadicCube(depth={self.depth!r}, coords={self.coords!r})"

    def __str__(self):
        return f"Q(j={self.depth}, k={self.coords})"


def parent(q: DyadicCube) -> DyadicCube:
    if q.depth == 0:
        raise RootHasNoParent(f"{q} is the lattice root")
    return DyadicCube(q.depth - 1, tuple(k >> 1 for k in q.coords))


def children(q: DyadicCube) -> list:
    """The 2^d depth-(j+1) subcubes of q, in canonical order, built without
    validation: a child of a valid cube is valid."""
    depth, coords = q
    return [tuple.__new__(DyadicCube, (depth + 1, k))
            for k in itertools.product(*[(c << 1, (c << 1) + 1) for c in coords])]


def relate(q: DyadicCube, r: DyadicCube) -> Relation:
    """Set relation of two dyadic cubes; they nest or are disjoint, never overlap."""
    if q.dim != r.dim:
        raise DimensionMismatch(f"{q.dim}-d cube vs {r.dim}-d cube")
    if q.depth == r.depth:
        return Relation.EQUAL if q.coords == r.coords else Relation.DISJOINT
    if q.depth > r.depth:
        return Relation.Q_INSIDE_R if q.ancestor_at(r.depth).coords == r.coords \
            else Relation.DISJOINT
    return Relation.R_INSIDE_Q if r.ancestor_at(q.depth).coords == q.coords \
        else Relation.DISJOINT


def contains(outer: DyadicCube, inner: DyadicCube) -> bool:
    if outer.dim != inner.dim:
        raise DimensionMismatch(f"{inner.dim}-d cube vs {outer.dim}-d cube")
    shift = inner.depth - outer.depth
    return shift >= 0 and all(k >> shift == o for k, o in zip(inner.coords, outer.coords))


def linf_dist(a, b) -> Fraction:
    """Exact infimum l-inf distance between two half-open boxes (or cubes).

    Zero exactly when the closures intersect.
    """
    a, b = (x.box if isinstance(x, DyadicCube) else x for x in (a, b))
    if a.dim != b.dim:
        raise DimensionMismatch(f"{a.dim}-d box vs {b.dim}-d box")
    gap = _ZERO
    for alo, ahi, blo, bhi in zip(a.lo, a.hi, b.lo, b.hi):
        g = max(blo - ahi, alo - bhi)
        if g > gap:
            gap = g
    return gap


def dilate(q: DyadicCube, n: int) -> Box:
    """Concentric dilation (2n+1)Q; may extend outside the unit root."""
    if n < 1:
        raise ValueError("dilation count must be a positive integer")
    half = Fraction(2 * n + 1, 2) * q.side
    lo = q.lower_corner
    center = tuple(x + q.side / 2 for x in lo)
    return Box(tuple(c - half for c in center), tuple(c + half for c in center))
