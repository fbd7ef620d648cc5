from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubeporos import sets
from cubeporos.errors import (DenominatorTooLarge, DimensionMismatch, EmptyFamilyError,
                              EmptySetError)
from cubeporos.analysis import mu_points_exact_1d
from cubeporos.enclosure import frac_str
from cubeporos.families import enumerate_DE
from cubeporos.lattice import Box, DyadicCube, children
from cubeporos.sets import (DEFAULT_BUDGET, EmptyModel, IFSModel, PointsModel, Status,
                            UnionModel, cantor_middle_thirds, corner_set, model_from_json)
import ifs_reference
import points_reference
from conftest import cantor_meets_interval, dyadic_cubes, point_sets, small_ifs

F = Fraction
CANTOR = cantor_middle_thirds()


def test_points_intersect_examples():
    E = PointsModel.make([(0,)])
    assert E.intersect_status(DyadicCube(1, (1,))) is Status.FREE
    assert E.intersect_status(DyadicCube(2, (0,))) is Status.INTERSECTS


def test_cantor_free_gap_interval(cantor):
    # [3/8, 1/2) sits inside the removed middle third
    assert cantor.intersect_status(DyadicCube(3, (3,))) is Status.FREE
    assert cantor_meets_interval(F(3, 8), F(1, 2)) is False


def test_dist_interval_examples(cantor):
    E = PointsModel.make([(0,)])
    assert E.dist_interval(DyadicCube(1, (1,))) == (F(1, 2), F(1, 2))
    E2 = PointsModel.make([(0,), (F(1, 4),)])
    assert E2.dist_interval(DyadicCube(3, (4,))) == (F(1, 4), F(1, 4))
    for budget in (4, 8, 12):
        # [3/8, 1/2] lies 1/24 above the Cantor point 1/3
        lo, hi = cantor.dist_interval(DyadicCube(3, (3,)), budget)
        assert lo <= F(1, 24) <= hi
        assert hi - lo <= F(1, 3) ** budget
    # the level-order walk stops at a 1,000-node cap here (see SEGMENT)
    with mock.patch.object(sets, "_MAX_NODES", 1000):
        assert SEGMENT.dist_interval(DyadicCube(1, (0, 1))) == (F(1, 2) - F(1, 2**36), F(1, 2))


def test_corner_set_examples():
    root = DyadicCube.root(1)
    assert points_reference.points(corner_set([root])) == ((F(0),),)
    cs = corner_set([root, DyadicCube(2, (1,)), DyadicCube(1, (1,))])
    assert points_reference.points(cs) == ((F(0),), (F(1, 4),), (F(1, 2),))
    cs2 = corner_set(children(DyadicCube.root(2)))
    assert set(points_reference.points(cs2)) == {(F(0), F(0)), (F(0), F(1, 2)),
                                                (F(1, 2), F(0)), (F(1, 2), F(1, 2))}
    with pytest.raises(EmptyFamilyError):
        corner_set([])


@given(st.integers(1, 3).flatmap(
    lambda d: st.lists(dyadic_cubes(dim=d, max_depth=6), min_size=1, max_size=8)))
@settings(max_examples=200, deadline=None)
def test_corner_set_equals_the_model_of_its_corners(cubes):
    # corner_set builds its rows over L = 2^B straight from the cubes; made
    # from the same points as Fractions, the model has the same canonical L
    E = corner_set(cubes)
    assert E == PointsModel.make(q.lower_corner for q in cubes)
    assert hash(E) == hash(PointsModel.make(q.lower_corner for q in cubes))
    assert set(points_reference.points(E)) == {q.lower_corner for q in cubes}
    assert E.L == max(x.denominator for q in cubes for x in q.lower_corner)


def test_corner_set_refuses_mixed_dimensions():
    with pytest.raises(DimensionMismatch, match="points of mixed dimension"):
        corner_set([DyadicCube(0, (0,)), DyadicCube(1, (1, 1))])


def test_point_denominators_are_capped_at_max_point_bits():
    # a denominator of MAX_POINT_BITS bits is taken, one bit more is refused,
    # whether it comes from one coordinate, from the lcm of several or from a
    # corner's cube depth
    top = sets.MAX_POINT_BITS
    assert PointsModel.make([(Fraction(1, 1 << top - 1),)]).L.bit_length() == top
    assert corner_set([DyadicCube(top - 1, (1,))]).L.bit_length() == top
    with pytest.raises(DenominatorTooLarge):
        PointsModel.make([(Fraction(1, 1 << top),)])
    with pytest.raises(DenominatorTooLarge):
        PointsModel.make([(Fraction(1, 3 ** 400), Fraction(1, 5 ** 300))])
    with pytest.raises(DenominatorTooLarge):
        corner_set([DyadicCube(0, (0,)), DyadicCube(top, (1,))])


def test_empty_model():
    E = EmptyModel(2)
    assert E.intersect_status(DyadicCube.root(2)) is Status.FREE
    with pytest.raises(EmptySetError):
        E.dist_interval(DyadicCube.root(2))


def test_a_model_without_a_distance_search_raises():
    # every model defines `_bounds`; the distance readers fall back on nothing
    class Bare(sets.SetModel):
        dim = 1

        def intersect_status(self, q, budget=DEFAULT_BUDGET):
            return Status.INTERSECTS

    for query in (Bare().dist_interval, lambda q: Bare().dist_below(q, 1)):
        with pytest.raises(NotImplementedError):
            query(DyadicCube.root(1))


@pytest.mark.parametrize("E", [PointsModel.make([(0,)]), CANTOR,
                               UnionModel.make([PointsModel.make([(0,)]), CANTOR]),
                               EmptyModel(1)],
                         ids=["points", "ifs", "union", "empty"])
def test_wrong_dimension_box_raises(E):
    q = DyadicCube.root(2)
    with pytest.raises(DimensionMismatch):
        E.intersect_status(q)
    with pytest.raises(DimensionMismatch):
        E.misses_interior(q)
    with pytest.raises(DimensionMismatch):
        E.restricted(q)
    with pytest.raises(DimensionMismatch):
        E.split(q)
    with pytest.raises(DimensionMismatch):
        E.dist_interval(q)
    with pytest.raises(DimensionMismatch):
        E.dist_below(q, 1)


@pytest.mark.parametrize("E", [PointsModel.make([(0,)]), CANTOR,
                               UnionModel.make([PointsModel.make([(0,)]), CANTOR]),
                               EmptyModel(1)],
                         ids=["points", "ifs", "union", "empty"])
@pytest.mark.parametrize("threshold", [0, -1])
def test_non_positive_threshold_is_never_near(E, threshold):
    # no distance is below 0, even where a hull image lies in the cube
    for budget in (0, 1, DEFAULT_BUDGET):
        assert E.dist_below(DyadicCube(0, (0,)), threshold, budget) is False


@given(dyadic_cubes(dim=1, max_depth=7))
@settings(max_examples=100, deadline=None)
def test_cantor_oracle_never_contradicts_brute_force(q):
    truth = cantor_meets_interval(q.box.lo[0], q.box.hi[0], m=12)
    for budget in (2, 6, 12, 20):
        got = CANTOR.intersect_status(q, budget)
        if truth is True:
            assert got is not Status.FREE
        elif truth is False:
            assert got is not Status.INTERSECTS


@given(dyadic_cubes(dim=1, max_depth=6))
@settings(max_examples=60, deadline=None)
def test_budget_monotonicity(q):
    answers = [CANTOR.intersect_status(q, b) for b in (1, 3, 6, 10, 16)]
    decided = None
    for a in answers:
        if decided is not None:
            # once decided, deeper budgets must agree
            assert a is decided
        elif a is not Status.UNDETERMINED:
            decided = a


@given(point_sets())
@settings(max_examples=60, deadline=None)
def test_corner_membership(E):
    cubes = []
    for p in points_reference.points(E):
        depth = 3
        coords = tuple(int(x * (1 << depth)) for x in p)
        cubes.append(DyadicCube(depth, coords))
    cs = corner_set(cubes)
    for q in cubes:
        assert cs.intersect_status(q) is Status.INTERSECTS


def model_json(model):
    """The set description of `model`, in the format `model_from_json` reads."""
    fracs = lambda xs: [frac_str(x) for x in xs]
    if isinstance(model, PointsModel):
        return {"kind": "points", "points": [fracs(p) for p in points_reference.points(model)]}
    if isinstance(model, IFSModel):
        return {"kind": "ifs",
                "maps": [{"ratio": frac_str(r), "shift": fracs(ts)} for r, ts in model.maps],
                "hull": {"lo": fracs(model.hull.lo), "hi": fracs(model.hull.hi)}}
    if isinstance(model, UnionModel):
        return {"kind": "union", "parts": [model_json(p) for p in model.parts]}
    return {"kind": "empty", "dim": model.dimension}


def test_set_json_round_trip(cantor):
    for model in (PointsModel.make([(0,), (F(1, 3),)]), cantor,
                  UnionModel.make([PointsModel.make([(0,)]),
                                   PointsModel.make([(F(1, 2),)])]),
                  EmptyModel(2)):
        again = model_from_json(model_json(model))
        assert again == model


@pytest.mark.parametrize("dim", [0, -1])
def test_empty_set_json_needs_a_dimension(dim):
    with pytest.raises(ValueError, match="dim >= 1"):
        model_from_json({"kind": "empty", "dim": dim})


def test_corners_json_kind():
    obj = {"kind": "corners",
           "family": [{"depth": 1, "coords": [1]}, {"depth": 0, "coords": [0]}]}
    model = model_from_json(obj)
    assert points_reference.points(model) == ((F(0),), (F(1, 2),))


DENOMS = (1, 2, 3, 4, 5, 7, 8, 9, 12)


def _rational(draw, lo, hi):
    den = draw(st.sampled_from(DENOMS))
    return F(draw(st.integers(lo * den, hi * den)), den)


@st.composite
def rational_ifs(draw):
    """IFS with mixed ratio denominators and hulls off the dyadic grid."""
    d = draw(st.integers(1, 2))
    lo = tuple(_rational(draw, -1, 1) for _ in range(d))
    hi = tuple(a + _rational(draw, 0, 1) + F(1, 3) for a in lo)
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        q = draw(st.sampled_from((2, 3, 4, 5, 7)))
        r = F(draw(st.integers(1, q - 1)), q)
        # t in [(1-r)lo, (1-r)hi] keeps the image of the hull inside it
        maps.append((r, tuple((1 - r) * (a + _rational(draw, 0, 1) * (b - a))
                              for a, b in zip(lo, hi))))
    return IFSModel.make(maps, Box(lo, hi))


@st.composite
def ifs_queries(draw):
    E = draw(st.one_of(st.just(CANTOR), rational_ifs()))
    return (E, draw(dyadic_cubes(dim=E.dim, max_depth=6)),
            draw(st.sampled_from((0, 1, 2, 3, 4, 36))), _rational(draw, 0, 2) + F(1, 64))


# The segment [0, 1] x {0}: its level-m images all lie 1/2 - 2^-m below the
# cube [0, 1/2) x [1/2, 1), so the level-order walk keeps all 2^m of them and
# hits a 1,000-node cap at level 9.  From level 2 on every image but the
# rightmost is settled along the second axis, and the search goes on to 36.
SEGMENT = IFSModel.make([(F(1, 2), (F(0), F(0))), (F(1, 2), (F(1, 2), F(0)))],
                        Box.make([0, 0], [1, 1]))

# A drawn 2-d IFS on whose cube (3, 0) at depth 2 the threshold walk answers
# False for 1/64 under a 1,000-node cap.  The distance search used to keep
# every image within its best reach (1/8), not only those nearer than the
# threshold, and reached the cap first.
DRAWN = IFSModel.make([(F(3, 7), (F(5, 14), F(16, 63))), (F(6, 7), (F(5, 56), F(0)))],
                      Box.make([F(5, 8), F(0)], [F(47, 24), F(4, 3)]))


@given(ifs_queries())
@example((SEGMENT, DyadicCube(1, (0, 1)), 36, F(1, 2)))
@example((DRAWN, DyadicCube(2, (3, 0)), 36, F(1, 64)))
@settings(max_examples=300, deadline=None)
def test_ifs_kernel_matches_fraction_walk(query):
    E, q, budget, threshold = query
    ref = q.box
    # a small node cap bounds the reference walk's time and reaches the cap
    # branches, which both walks must take at the same node; where the
    # level-order walk stops at the cap, the distance search, which expands
    # no settled image, may go deeper and answer inside the walk's interval,
    # and where the threshold walk decides, the search decides the same way
    with mock.patch.object(sets, "_MAX_NODES", 1000):
        assert E.intersect_status(q, budget) is \
            ifs_reference.intersect_status(E, ref, budget)
        got = E.dist_interval(q, budget)
        (lo, hi), capped = ifs_reference.dist_interval(E, ref, budget)
        if capped:
            assert lo <= got[0] <= got[1] <= hi
        else:
            assert got == (lo, hi)
        assert all(type(x) is F for x in got)
        walk = ifs_reference.dist_below(E, ref, threshold, budget)
        assert walk is None or E.dist_below(q, threshold, budget) is walk
        assert E.misses_interior(q, budget) is \
            ifs_reference.misses_interior(E, ref, budget)


def with_cube(models):
    return models.flatmap(
        lambda E: st.tuples(st.just(E), dyadic_cubes(dim=E.dim, max_depth=6)))


RANDOM_IFS = st.one_of(rational_ifs(), st.integers(1, 2).flatmap(small_ifs))


@given(with_cube(RANDOM_IFS), st.integers(0, 4),
       st.fractions(min_value=F(1, 64), max_value=2, max_denominator=64))
@settings(max_examples=300, deadline=None)
def test_dist_interval_is_the_all_images_extreme(query, budget, threshold):
    # exact under the default node cap: settled images and pruning change
    # how the search gets there, not what it returns
    E, q = query
    lo, hi = ifs_reference.all_images_dist_interval(E, q.box, budget)
    assert E.dist_interval(q, budget) == (lo, hi)
    near = E.dist_below(q, threshold, budget)
    assert near is (True if hi < threshold else False if lo >= threshold else None)
    # gap never falls and gap + width never rises below an image, so where
    # the threshold walk decides, the interval decides the same way
    walk = ifs_reference.dist_below(E, q.box, threshold, budget)
    assert walk is None or near is walk


@given(with_cube(st.one_of(st.just(CANTOR), RANDOM_IFS)))
@settings(max_examples=100, deadline=None)
def test_dist_interval_nesting_in_budget(query):
    E, q = query
    prev = None
    for b in (0, 2, 5, 9, 14):
        lo, hi = E.dist_interval(q, b)
        assert lo <= hi
        if prev is not None:
            plo, phi = prev
            assert lo >= plo and hi <= phi
        prev = (lo, hi)


@given(with_cube(st.one_of(st.just(CANTOR), RANDOM_IFS)), st.sampled_from((0, 3, 36)))
@settings(max_examples=100, deadline=None)
def test_search_intervals_nest_down_to_dist_interval(query, budget):
    # dist_below stops at the first of these that decides, so each must lie
    # inside the one before and the last must be dist_interval
    E, q = query
    corner = PointsModel.make([E.hull.lo])
    (elo, ehi), (clo, chi) = E.dist_interval(q, budget), corner.dist_interval(q, budget)
    for model, last in ((E, (elo, ehi)),
                        (UnionModel.make([corner, E]), (min(elo, clo), min(ehi, chi)))):
        ivs = list(model._bounds(q, budget))
        assert ivs[-1] == model.dist_interval(q, budget) == last
        for (plo, phi), (lo, hi) in zip(ivs, ivs[1:]):
            assert plo <= lo <= hi <= phi


# C x {1/2}: every hull image straddles the line y = 1/2, so on a cube with a
# face on it no image lies in the closed cube or is settled, and the search
# keeps them all until the node cap; the threshold is decided at level 2
C_HALF = IFSModel.make([(F(1, 3), (F(0), F(1, 3))), (F(1, 3), (F(2, 3), F(1, 3)))],
                       Box.make([0, 0], [1, 1]))


@pytest.mark.parametrize("E", [C_HALF, UnionModel.make([C_HALF, PointsModel.make([(1, 1)])])],
                         ids=["ifs", "union"])
def test_dist_below_stops_at_the_first_deciding_level(E):
    q = DyadicCube(3, (2, 4))
    relate = mock.Mock(wraps=sets._relate)
    with mock.patch.object(sets, "_relate", relate):
        assert E.dist_below(q, q.side) is True
    assert relate.call_count < 100


# point coordinates: dyadic and non-dyadic (thirds, fifths, sixths, sevenths),
# on the boundary of [0,1)^d (0 and 1) and outside it; a non-dyadic point's
# integer address (n << j) // L is exact at every depth, K and below
POINT_DENOMS = (1, 2, 3, 4, 5, 6, 7, 8, 16, 32)


@st.composite
def boundary_points(draw, d, max_points=8):
    pts = []
    for _ in range(draw(st.integers(1, max_points))):
        den = draw(st.sampled_from(POINT_DENOMS))
        pts.append(tuple(F(draw(st.integers(-den // 2, den + den // 4)), den)
                         for _ in range(d)))
    return PointsModel.make(pts)


@st.composite
def descendant(draw, q, max_extra=4):
    """A cube inside q, up to `max_extra` levels deeper."""
    g = draw(st.integers(0, max_extra))
    return DyadicCube(q.depth + g, tuple((k << g) + draw(st.integers(0, (1 << g) - 1))
                                         for k in q.coords))


@st.composite
def points_queries(draw):
    """A point set, a query cube down to 3 levels below the index depth
    K <= 6, a threshold, and a parent cube with a child inside it, or a
    second arbitrary cube."""
    d = draw(st.integers(1, 3))
    E = draw(boundary_points(d))
    q = draw(dyadic_cubes(dim=d, max_depth=9))
    parent = draw(dyadic_cubes(dim=d, max_depth=7))
    child = draw(st.one_of(descendant(parent), dyadic_cubes(dim=d, max_depth=9)))
    return E, q, _rational(draw, 0, 2), parent, child


def _view_of(E, q):
    """The view a descent holds on q: its entry in the split of q's parent,
    and the model itself on the lattice root."""
    if not q.depth:
        return E.restricted(q)
    [(status, view)] = [(st, v) for c, st, v in E.split(q.ancestor_at(q.depth - 1))
                        if c == q]
    assert (view is None) is (status is Status.FREE)
    return view


def _line(*xs):
    return PointsModel.make([(F(x),) for x in xs])


# d = 1 boundaries of q = [1/4, 1/2): points on its lower and upper faces,
# 1/16 beyond each face, below 0 and at or above 1, and thirds and fifths
# queried below the index depth K (3, and 4 for twelfths: 1/3 lies just
# under the face 4.875/12 of [13/32, 14/32), with 0 below it and 5/12 inside)
@example((_line(F(1, 4)), DyadicCube(2, (1,)), F(1, 4), DyadicCube(1, (0,)),
          DyadicCube(2, (1,))))
@example((_line(F(1, 2)), DyadicCube(2, (1,)), F(1, 8), DyadicCube(2, (1,)),
          DyadicCube(3, (3,))))
@example((_line(F(3, 16), F(9, 16)), DyadicCube(2, (1,)), F(1, 16), DyadicCube(2, (1,)),
          DyadicCube(3, (2,))))
@example((_line(F(1, 8), F(3, 16)), DyadicCube(2, (1,)), F(1, 8), DyadicCube(1, (0,)),
          DyadicCube(2, (1,))))
@example((_line(F(9, 16), F(5, 8)), DyadicCube(2, (1,)), F(1, 8), DyadicCube(1, (1,)),
          DyadicCube(2, (1,))))
@example((_line(F(-1, 2), 1, F(5, 4)), DyadicCube(0, (0,)), F(1, 2), DyadicCube(0, (0,)),
          DyadicCube(3, (7,))))
@example((_line(F(-1, 2), F(3, 2)), DyadicCube(3, (7,)), F(1, 2), DyadicCube(2, (3,)),
          DyadicCube(3, (7,))))
@example((_line(F(1, 3), F(2, 5)), DyadicCube(7, (43,)), F(1, 384), DyadicCube(5, (10,)),
          DyadicCube(7, (42,))))
@example((_line(F(1, 3), F(2, 5)), DyadicCube(6, (21,)), F(1, 64), DyadicCube(4, (5,)),
          DyadicCube(6, (25,))))
@example((_line(F(1, 5), F(3, 5)), DyadicCube(5, (19,)), F(1, 5), DyadicCube(6, (12,)),
          DyadicCube(8, (51,))))
@example((_line(0, F(1, 3), F(5, 12)), DyadicCube(5, (13,)), F(1, 32), DyadicCube(4, (6,)),
          DyadicCube(5, (13,))))
@given(points_queries())
@settings(max_examples=400, deadline=None)
def test_points_index_matches_scan(query):
    E, q, threshold, parent, child = query
    pts, ref = points_reference.points(E), q.box
    assert E.intersect_status(q) is points_reference.intersect_status(pts, ref)
    got = E.dist_interval(q)
    assert got == points_reference.dist_interval(pts, ref)
    assert all(type(x) is F for x in got)
    assert E.dist_below(q, threshold) is points_reference.dist_below(pts, ref, threshold)
    assert E.misses_interior(q) is points_reference.misses_interior(pts, ref)
    if q.depth:
        assert set(points_reference.points(_view_of(E, q))) == \
            set(points_reference.restricted(pts, ref))
    # a chain: the parent cube's view, then query or split the child
    local = _view_of(E, parent)
    kept = points_reference.restricted(pts, parent.box) if parent.depth else pts
    assert set(points_reference.points(local)) == set(kept)
    if local is not None:
        assert local.intersect_status(child) is \
            points_reference.intersect_status(kept, child.box)
        for c, status, view in local.split(child):
            assert status is points_reference.intersect_status(kept, c.box)
            assert set(points_reference.points(view)) == \
                set(points_reference.restricted(kept, c.box))


@given(st.integers(1, 3).flatmap(boundary_points), st.data())
@settings(max_examples=200, deadline=None)
def test_points_split_cuts_the_parents_slice(E, data):
    # a chain of meeting cubes from the root to 3 levels below the index
    # depth K <= 6: each split, of the unrestricted model and of the chain's
    # view, gives every child the sorted keys and the rows of its cut, over
    # the model's own denominator L, and the points those rows stand for
    K = E._index[0]
    q, view = DyadicCube.root(E.dim), E
    for _ in range(K + 3):
        for model in (E, view):
            for c, status, sub in model.split(q):
                keys, rows = model._cube_rows(c)
                assert (sub is None) is (status is Status.FREE) is (not rows)
                if sub is not None:
                    assert sub._index == E._index[:2] + (keys, rows)
                    assert sub.nums == rows and sub.L == E.L and list(keys) == sorted(keys)
                    assert points_reference.points(sub) == \
                        tuple(tuple(F(n, E.L) for n in p) for p in rows)
        meeting = [(c, sub) for c, _st, sub in view.split(q) if sub is not None]
        if not meeting:
            break
        q, view = data.draw(st.sampled_from(meeting))


@example(PointsModel.make([(F(1, 3),)]), 9)
@example(PointsModel.make([(F(1, 4),)]), 7)
@example(PointsModel.make([(F(1, 2), F(1))]), 4)
@example(PointsModel.make([(F(-1, 2), F(1, 3)), (F(2, 3), F(1, 5))]), 8)
@example(PointsModel.make([(F(1, 2), F(3, 4), F(1, 7)), (1, 0, 0), (0, 0, 0)]), 6)
@given(st.integers(1, 3).flatmap(boundary_points), st.integers(0, 10))
@settings(max_examples=200, deadline=None)
def test_enumerate_DE_of_points_matches_the_meeting_cubes(E, J):
    # J up to 4 past the index depth K <= 6, one-point sets among the draws,
    # points outside [0,1)^d and on the upper faces 1, and non-dyadic L
    DE = enumerate_DE(E, DyadicCube.root(E.dim), J)
    assert set(DE.members) == points_reference.meeting_cubes(points_reference.points(E), J)


# the workload's shape: rows over 2^-16 and cubes 16 to 30 levels deep, one
# ending at the midpoint of two rows and one starting on a row
_ROWS16 = _line(*(F(n, 1 << 16) for n in (12345, 12347, 40000)))


@example(_line(F(1, 4)), DyadicCube(2, (1,)), F(1, 2))
@example(_line(F(1, 2)), DyadicCube(2, (1,)), F(1, 2))
@example(_line(F(3, 16), F(9, 16)), DyadicCube(2, (1,)), F(1, 2))
@example(_line(F(1, 8), F(3, 16)), DyadicCube(2, (1,)), F(3, 5))
@example(_line(F(9, 16), F(5, 8)), DyadicCube(2, (1,)), F(1, 5))
@example(_line(F(-1, 2), 1, F(5, 4)), DyadicCube(1, (1,)), F(3, 5))
@example(_line(F(-1, 4), F(3, 2)), DyadicCube(0, (0,)), F(1, 5))
@example(_line(F(1, 3), F(2, 5)), DyadicCube(7, (43,)), F(1, 2))
@example(_line(F(1, 3), F(2, 5)), DyadicCube(6, (21,)), F(1, 2))
@example(_line(F(1, 5), F(3, 5)), DyadicCube(5, (19,)), F(3, 5))
@example(_line(0, F(1, 3), F(5, 12)), DyadicCube(5, (13,)), F(1, 2))
@example(_ROWS16, DyadicCube(16, (12345,)), F(3, 5))
@example(_ROWS16, DyadicCube(20, ((12345 << 4) + 3,)), F(1, 2))
@example(_ROWS16, DyadicCube(30, ((12346 << 14) - 1,)), F(3, 5))
@example(_ROWS16, DyadicCube(30, (12345 << 14,)), F(1, 2))
@example(_ROWS16, DyadicCube(24, ((12346 << 8) + 7,)), 0)
# cube ends at the midpoint of two rows, rows outside [0, 1)
@example(_line(F(1, 4), F(3, 4)), DyadicCube(1, (1,)), F(1, 2))
@example(_line(F(1, 4), F(3, 4)), DyadicCube(3, (3,)), F(3, 5))
@example(_line(F(-3, 4), F(5, 4)), DyadicCube(0, (0,)), F(1, 2))
@example(_line(F(-1, 1 << 16), 1 + F(1, 1 << 16)), DyadicCube(16, (0,)), F(1, 2))
@example(_line(F(-1, 1 << 16), 1 + F(1, 1 << 16)), DyadicCube(18, ((1 << 18) - 1,)), 0)
@given(boundary_points(1), dyadic_cubes(dim=1, max_depth=7),
       st.sampled_from((0, F(1, 5), F(1, 2), F(3, 5), 1, F(3, 2))))
@settings(max_examples=150, deadline=None)
def test_mu_points_exact_1d_matches_full_scan(E, q, alpha):
    assert mu_points_exact_1d(E, q, alpha) == \
        points_reference.mu_points_exact_1d(points_reference.points(E), q.box, alpha)


@st.composite
def ifs_views(draw):
    """A small IFS, a chain of 0-5 nested cubes, each up to 2 levels below the
    last, a query cube up to 2 levels below the chain's end, and a budget."""
    E = draw(small_ifs(draw(st.integers(1, 2))))
    chain = [DyadicCube.root(E.dim)]
    for _ in range(draw(st.integers(0, 5))):
        chain.append(draw(descendant(chain[-1], max_extra=2)))
    return E, chain, draw(descendant(chain[-1], max_extra=2)), \
        draw(st.sampled_from((0, 1, 2, 3, 4, 36)))


@st.composite
def split_models(draw):
    """A point set, a small IFS or a union of 2-3 of them in d = 1-3, and a
    budget."""
    d = draw(st.integers(1, 3))
    part = st.one_of(boundary_points(d), small_ifs(d))
    E = draw(st.one_of(part, st.lists(part, min_size=2, max_size=3).map(UnionModel.make)))
    return E, draw(st.sampled_from((0, 1, 2, 3, 4, 36)))


def _union_rule(statuses):
    if Status.INTERSECTS in statuses:
        return Status.INTERSECTS
    return Status.UNDETERMINED if Status.UNDETERMINED in statuses else Status.FREE


def _loop_split(E, ref, q, budget):
    """The restrict-then-ask loop that `split` replaced: (status, reference)
    per child of q.  A point set's reference is its kept points, an IFS's its
    restricted view, a union's its parts' references, none of them dropped."""
    if isinstance(E, PointsModel):
        return [(points_reference.intersect_status(ref, c.box),
                 points_reference.restricted(ref, c.box)) for c in children(q)]
    if isinstance(E, IFSModel):
        views = [(c, ref.restricted(c)) for c in children(q)]
        return [(view.intersect_status(c, budget), view) for c, view in views]
    rows = zip(*(_loop_split(p, r, q, budget) for p, r in zip(E.parts, ref)))
    return [(_union_rule([st for st, _r in row]), [r for _st, r in row]) for row in rows]


def _root_reference(E):
    if isinstance(E, UnionModel):
        return [_root_reference(p) for p in E.parts]
    if isinstance(E, PointsModel):
        return points_reference.points(E)
    return E.restricted(DyadicCube.root(E.dim))


@given(split_models(), st.data())
@settings(max_examples=200, deadline=None)
def test_split_matches_the_restrict_then_ask_loop(model, data):
    # a chain of up to 8 nested cubes from the lattice root, each a child of
    # the last that does not hold a free view
    E, budget = model
    q = DyadicCube.root(E.dim)
    with mock.patch.object(sets, "_MAX_NODES", 1000):
        view, ref = E.restricted(q), _root_reference(E)
        for _ in range(data.draw(st.integers(0, 8))):
            got = view.split(q, budget)
            want = _loop_split(E, ref, q, budget)
            assert [c for c, _st, _v in got] == children(q)
            for (c, status, sub), (st_ref, sub_ref) in zip(got, want):
                assert status is st_ref
                assert (sub is None) is (status is Status.FREE)
                if isinstance(E, PointsModel):
                    assert set(points_reference.points(sub)) == set(sub_ref)
            meeting = [i for i, (_c, _st, sub) in enumerate(got) if sub is not None]
            if not meeting:
                break
            i = data.draw(st.sampled_from(meeting))
            (q, _st, view), ref = got[i], want[i][1]


@pytest.mark.parametrize("point, q", [
    ((F(1, 4),), DyadicCube(1, (0,))),                      # in q, above K = 2
    ((F(1, 4),), DyadicCube(5, (8,))),                      # in q, below K
    ((F(3, 8), F(5, 8)), DyadicCube(1, (0, 1))),            # above K = 3, d = 2
    ((F(3, 8), F(5, 8)), DyadicCube(6, (24, 40))),          # below K, d = 2
    ((F(1, 2), F(1, 4), F(3, 4)), DyadicCube(1, (1, 0, 1))),  # on children's faces
    ((F(1, 2),), DyadicCube(1, (0,))),                      # on q's upper face
    ((F(1, 2), F(1, 4), F(3, 4)), DyadicCube(2, (1, 0, 2))),  # on q's upper face, d = 3
    ((F(1),), DyadicCube.root(1)),                          # outside [0,1)
    ((F(-1, 3), F(1, 2)), DyadicCube.root(2)),              # outside [0,1)^2
    ((F(1, 3),), DyadicCube(4, (5,))),                      # thirds, below K = 2
    ((F(2, 3), F(1, 3)), DyadicCube(3, (5, 2))),            # thirds, d = 2
    ((F(1, 4),), DyadicCube(2, (3,))),                      # q misses the point
])
def test_a_one_point_split_gives_only_the_meeting_child_a_view(point, q):
    # the split of a one-point set agrees with the restrict-then-ask loop; the
    # child whose half-open box holds the point, if q holds it, is the only
    # one with a view, and that view holds the point
    E = PointsModel.make([point])
    got = E.split(q)
    want = _loop_split(E, points_reference.points(E), q, DEFAULT_BUDGET)
    assert [c for c, _st, _v in got] == children(q)
    for (c, status, sub), (st_ref, _ref) in zip(got, want):
        assert status is st_ref
        if c.box.contains_point(point):
            assert status is Status.INTERSECTS and sub == E
        else:
            assert status is Status.FREE and sub is None
    assert sum(sub is not None for _c, _st, sub in got) == q.box.contains_point(point)


def _root_search(E, q, budget, interior):
    """The root model's search answer, and whether it hit the node cap."""
    root, S, _W, maps = E._kernel
    return sets._walk([(root, 0)], S, maps, q.coords, q.depth, budget, interior)


# On [0, 1/2) the root search pops the last map's branch first and finds an
# image inside within a few hundred nodes.  The view's frontier search pops the
# first map's branch first: x/2 + 1/2 touches 1/2 through 4^L words and never
# lies inside, so it hits a 1,000-node cap and must fall back to the root.
_HALF = (F(1, 2), (F(0),))
CAP_TRAP = IFSModel.make([(F(1, 2), (F(1, 2),)), _HALF, _HALF, _HALF,
                          (F(1, 8), (F(0),)), (F(1, 4), (F(3, 8),))], Box.make([0], [1]))


@given(ifs_views())
@example((CAP_TRAP, [DyadicCube.root(1), DyadicCube(1, (0,))], DyadicCube(1, (0,)), 36))
@settings(max_examples=300, deadline=None)
def test_ifs_view_answers_as_the_root_model(query):
    E, chain, q, budget = query
    # the small cap makes some root searches hit it, where a view may only
    # answer more decidedly
    with mock.patch.object(sets, "_MAX_NODES", 1000):
        view = E
        for cube in chain:
            view = view.restricted(cube)
        assert view == E and view._kernel is E._kernel
        ref, capped = _root_search(E, q, budget, False)
        assert ref is E.intersect_status(q, budget)
        got = view.intersect_status(q, budget)
        assert got is ref or (capped and ref is Status.UNDETERMINED)
        ref, capped = _root_search(E, q, budget, True)
        assert (ref is Status.FREE) is E.misses_interior(q, budget)
        got = view.misses_interior(q, budget)
        assert got is (ref is Status.FREE) or (capped and ref is Status.UNDETERMINED)


def test_ifs_view_shares_the_kernel_and_json():
    q = DyadicCube(3, (2,))
    view = CANTOR.restricted(q)
    assert type(view) is IFSModel and view._kernel is CANTOR._kernel
    assert view == CANTOR and model_json(view) == model_json(CANTOR)
    assert view.restricted(DyadicCube(4, (5,)))._kernel is CANTOR._kernel
    # a cube outside the view's is answered, and restricted to, from the root
    far = DyadicCube(4, (15,))
    assert view.intersect_status(far) is Status.INTERSECTS
    assert view.restricted(far).intersect_status(far) is Status.INTERSECTS


def test_ifs_view_build_over_the_node_cap_is_unrestricted():
    q = DyadicCube(6, (21,))  # [21/64, 22/64) holds the Cantor point 1/3
    with mock.patch.object(sets, "_MAX_NODES", 3):
        view = CANTOR.restricted(q)
    assert view._view is None and view._kernel is CANTOR._kernel
    assert view.intersect_status(q) is CANTOR.intersect_status(q)
    assert view.restricted(q)._view is not None
