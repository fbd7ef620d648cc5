import copy
import copyreg
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeporos.errors import DimensionMismatch, RootHasNoParent
from cubeporos.lattice import (Box, DyadicCube, Relation, children, contains,
                               dilate, linf_dist, parent, relate)
from conftest import cube_pairs, dyadic_cubes, rational_boxes

F = Fraction


def test_parent_examples():
    assert parent(DyadicCube(1, (1,))) == DyadicCube(0, (0,))
    assert parent(DyadicCube(2, (3, 1))) == DyadicCube(1, (1, 0))
    with pytest.raises(RootHasNoParent):
        parent(DyadicCube(0, (0,)))


def test_children_examples():
    root1 = DyadicCube.root(1)
    assert children(root1) == [DyadicCube(1, (0,)), DyadicCube(1, (1,))]
    quads = children(DyadicCube.root(2))
    assert len(quads) == 4
    assert sum(q.volume for q in quads) == 1


def test_relate_examples():
    assert relate(DyadicCube(1, (0,)), DyadicCube(0, (0,))) is Relation.Q_INSIDE_R
    assert relate(DyadicCube(1, (0,)), DyadicCube(1, (1,))) is Relation.DISJOINT
    assert relate(DyadicCube(2, (1,)), DyadicCube(2, (1,))) is Relation.EQUAL
    with pytest.raises(DimensionMismatch):
        relate(DyadicCube(0, (0,)), DyadicCube.root(2))
    with pytest.raises(DimensionMismatch):
        contains(DyadicCube.root(2), DyadicCube(1, (0,)))


def test_linf_dist_examples():
    a = Box.make([0, 0], [F(1, 4), F(1, 4)])
    b = Box.make([F(1, 2), F(1, 2)], [1, 1])
    assert linf_dist(a, b) == F(1, 4)
    assert linf_dist(Box.make([0], [F(1, 2)]), Box.make([F(1, 4)], [F(3, 4)])) == 0
    assert linf_dist(Box.make([0], [0]), Box.make([F(1, 2)], [F(3, 4)])) == F(1, 2)


def test_dilate_examples():
    assert dilate(DyadicCube(2, (1,)), 1) == Box.make([0], [F(3, 4)])
    assert dilate(DyadicCube.root(1), 1) == Box.make([-1], [2])
    box = dilate(DyadicCube(1, (0, 0)), 2)
    assert math.prod(h - l for l, h in zip(box.lo, box.hi)) == F(25, 4) \
        == 25 * DyadicCube(1, (0, 0)).volume
    assert box.lo == (F(-1), F(-1)) and box.hi == (F(3, 2), F(3, 2))


@given(dyadic_cubes(max_depth=4))
@settings(max_examples=60, deadline=None)
def test_children_partition(q):
    kids = children(q)
    assert len(kids) == 1 << q.dim
    assert sum(c.volume for c in kids) == q.volume
    for i, a in enumerate(kids):
        for b in kids[i + 1:]:
            assert relate(a, b) is Relation.DISJOINT
    assert kids == sorted(kids, key=lambda c: (c.depth, c.coords))


@given(dyadic_cubes(max_depth=40))
@settings(max_examples=150, deadline=None)
def test_children_equal_the_validated_children(q):
    # children skips the constructor's checks; each child is still the cube
    # the validating constructor builds, in the same order
    want = [DyadicCube(q.depth + 1, tuple(2 * k + o for k, o in zip(q.coords, offs)))
            for offs in itertools.product((0, 1), repeat=q.dim)]
    got = children(q)
    assert got == want
    assert all(type(c) is DyadicCube and c.depth == q.depth + 1 for c in got)


@given(dyadic_cubes(max_depth=5))
@settings(max_examples=80, deadline=None)
def test_parent_child_identity(q):
    for c in children(q):
        assert parent(c) == q
        assert contains(q, c)


def _brute_relation(q, r):
    qa, qb = q.box.lo, q.box.hi
    ra, rb = r.box.lo, r.box.hi
    if qa == ra and qb == rb:
        return Relation.EQUAL
    if all(x <= y for x, y in zip(ra, qa)) and all(x <= y for x, y in zip(qb, rb)):
        return Relation.Q_INSIDE_R
    if all(x <= y for x, y in zip(qa, ra)) and all(x <= y for x, y in zip(rb, qb)):
        return Relation.R_INSIDE_Q
    assert any(b <= a for a, b in zip(qa, rb)) or any(b <= a for a, b in zip(ra, qb))
    return Relation.DISJOINT


@given(cube_pairs(max_depth=5))
@settings(max_examples=120, deadline=None)
def test_relate_matches_interval_comparison(pair):
    q, r = pair
    assert relate(q, r) is _brute_relation(q, r)
    assert contains(r, q) == (_brute_relation(q, r) in (Relation.EQUAL, Relation.Q_INSIDE_R))


@given(rational_boxes(dim=2), rational_boxes(dim=2), rational_boxes(dim=2))
@settings(max_examples=60, deadline=None)
def test_dist_triangle_with_diameter(a, b, c):
    diameter = max(h - l for l, h in zip(b.lo, b.hi))
    assert linf_dist(a, c) <= linf_dist(a, b) + linf_dist(b, c) + diameter


@given(dyadic_cubes(max_depth=5), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_dilate_contains_and_margin(q, n):
    box = q.box
    big = dilate(q, n)
    assert all(bl <= l and h <= bh
               for bl, bh, l, h in zip(big.lo, big.hi, box.lo, box.hi))
    assert math.prod(h - l for l, h in zip(big.lo, big.hi)) == (2 * n + 1) ** q.dim * q.volume
    # distance from q to the complement of the dilation is exactly n*side
    margin = min(min(l - bl, bh - h)
                 for bl, bh, l, h in zip(big.lo, big.hi, box.lo, box.hi))
    assert margin == n * q.side


def test_cube_json_round_trip():
    q = DyadicCube(3, (5, 2))
    assert DyadicCube.from_json(q.to_json()) == q
    b = Box.make([F(1, 3)], [F(2, 3)])
    assert Box.from_json({"lo": ["1/3"], "hi": ["2/3"]}) == b


@given(st.lists(dyadic_cubes(max_depth=4), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_cube_is_its_depth_coords_tuple(cubes):
    for q in cubes:
        key = (q.depth, q.coords)
        assert q == key and hash(q) == hash(key)
        assert not hasattr(q, "__dict__")
        with pytest.raises(AttributeError):
            q.depth = 0
        assert repr(q) == f"DyadicCube(depth={q.depth!r}, coords={q.coords!r})"
        for other in cubes:
            assert (q < other) == (key < (other.depth, other.coords))
        for twin in [copy.copy(q), copy.deepcopy(q)] + [
                pickle.loads(pickle.dumps(q, protocol))
                for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
            assert type(twin) is DyadicCube and twin == q
    assert sorted(cubes) == sorted(cubes, key=lambda q: (q.depth, q.coords))


@st.composite
def invalid_cube_args(draw):
    d = draw(st.integers(1, 3))
    depth = draw(st.integers(0, 4))
    coords = [draw(st.integers(0, (1 << depth) - 1)) for _ in range(d)]
    kind = draw(st.sampled_from(["depth", "empty", "low", "high"]))
    if kind == "depth":
        return draw(st.integers(-5, -1)), tuple(coords)
    if kind == "empty":
        return depth, ()
    coords[draw(st.integers(0, d - 1))] = draw(st.integers(-8, -1)) if kind == "low" \
        else draw(st.integers(1 << depth, (1 << depth) + 8))
    return depth, tuple(coords)


@given(invalid_cube_args())
@settings(max_examples=80, deadline=None)
def test_every_construction_path_validates(args):
    depth, coords = args
    # the constructor, JSON, and what copy and every pickle protocol call
    rebuild = DyadicCube(0, (0,)).__reduce_ex__(0)[0]
    paths = [lambda: DyadicCube(depth, coords),
             lambda: DyadicCube.from_json({"depth": depth, "coords": list(coords)}),
             lambda: DyadicCube.__new__(DyadicCube, depth, coords),
             lambda: copyreg.__newobj__(DyadicCube, depth, coords),
             lambda: rebuild(depth, coords)]
    for build in paths:
        with pytest.raises(ValueError):
            build()
