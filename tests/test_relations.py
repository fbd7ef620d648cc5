"""Metamorphic relations of the cube families, the oracles and the masses.

Each family relation compares two enumerations that must agree cube for
cube: a larger budget only shrinks a family, swapping the axes of a 2-d set
swaps the axes of its meeting family, the dyadic similarity x -> (x + k)/2
moves the meeting family one level down into child k, and the meeting
family of a union is the union of its parts' families, as is its gamma
family wherever every answer is decided.  Both similarities keep the
meeting family's packing constant.  A larger budget only narrows a distance
interval and never undoes a decided `dist_below`, and the mass brackets at
two budgets overlap.  The packing constant of a meeting family never
exceeds the ratio of a witness built for it.

The models are `small_ifs` and `point_sets` in d = 1-2 and their unions.
They have at most 3 maps, so a search at budget <= 8 expands at most
3^0 + ... + 3^8 = 9,841 hull images and never reaches `_MAX_NODES`: every
relation holds exactly, with no slack for a capped search.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cubeporos.analysis import mu_enclosure
from cubeporos.errors import PorosityFailure
from cubeporos.families import CubeFamily, enumerate_DE, enumerate_Dgamma
from cubeporos.lattice import Box, DyadicCube, contains
from cubeporos.sets import IFSModel, PointsModel, UnionModel, cantor_middle_thirds
from cubeporos.sparse import build_witness, carleson_constant
import points_reference
from conftest import point_sets, small_ifs

MAX_BUDGET = 8
GAMMAS = (Fraction(1, 2), Fraction(1), Fraction(2))


def _parts(d):
    return st.one_of(small_ifs(d), point_sets(dim=d, max_points=4))


@st.composite
def models(draw, d):
    """An IFS, a point set or the union of two of them, in dimension d."""
    parts = draw(st.lists(_parts(d), min_size=1, max_size=2))
    return parts[0] if len(parts) == 1 else UnionModel.make(parts)


def _mapped(E, point, ifs_map):
    """E's image under a map that sends points by `point` and an IFS map
    (ratio, shift) by `ifs_map`; a hull's image is the box of its corners'."""
    if isinstance(E, UnionModel):
        return UnionModel.make([_mapped(p, point, ifs_map) for p in E.parts])
    if isinstance(E, PointsModel):
        return PointsModel.make([point(p) for p in points_reference.points(E)])
    return IFSModel.make([ifs_map(r, t) for r, t in E.maps],
                         Box(point(E.hull.lo), point(E.hull.hi)))


def swapped(E):
    return _mapped(E, lambda p: p[::-1], lambda r, t: (r, t[::-1]))


def halved(E, k):
    """(E + k)/2: an IFS map x -> r x + t becomes y -> r y + (t + (1 - r) k)/2."""
    return _mapped(E, lambda p: tuple((x + c) / 2 for x, c in zip(p, k)),
                   lambda r, t: (r, tuple((x + (1 - r) * c) / 2 for x, c in zip(t, k))))


def swapped_cube(q):
    return DyadicCube(q.depth, q.coords[::-1])


def halved_cube(q, k):
    return DyadicCube(q.depth + 1, tuple(c + (b << q.depth) for c, b in zip(q.coords, k)))


def _points_of(E):
    """Points of E: a point set's points, an IFS's fixed points."""
    if isinstance(E, UnionModel):
        return [p for part in E.parts for p in _points_of(part)]
    if isinstance(E, PointsModel):
        return list(points_reference.points(E))
    return [tuple(x / (1 - r) for x in t) for r, t in E.maps]


@st.composite
def roots(draw, E):
    """A cube down to depth 2 that holds a point of E (an upper face of
    [0, 1)^d taken as in the last cube), so that most families are not empty."""
    depth = draw(st.integers(0, 2))
    p = draw(st.sampled_from(_points_of(E)))
    top = (1 << depth) - 1
    return DyadicCube(depth, tuple(min((x.numerator << depth) // x.denominator, top)
                                   for x in p))


@st.composite
def cases(draw, dims=(1, 2)):
    """(E, root, J, budget) with a root down to depth 2 and 2 <= J <= 4."""
    E = draw(models(draw(st.sampled_from(dims))))
    return E, draw(roots(E)), draw(st.integers(2, 4)), draw(st.integers(0, MAX_BUDGET))


@settings(max_examples=100, deadline=None)
@given(cases(), st.integers(0, MAX_BUDGET), st.sampled_from(GAMMAS))
def test_a_larger_budget_only_shrinks_the_families(case, other, gamma):
    E, R, J, b = case
    lo, hi = sorted((b, other))
    assert set(enumerate_DE(E, R, J, hi).members) <= set(enumerate_DE(E, R, J, lo).members)
    assert set(enumerate_Dgamma(E, R, gamma, J, hi).members) \
        <= set(enumerate_Dgamma(E, R, gamma, J, lo).members)


@settings(max_examples=100, deadline=None)
@given(cases(dims=(2,)))
def test_swapping_the_axes_swaps_the_meeting_family(case):
    E, R, J, b = case
    family = enumerate_DE(swapped(E), swapped_cube(R), J, b)
    assert family.members == tuple(sorted(map(swapped_cube,
                                              enumerate_DE(E, R, J, b).members)))


@settings(max_examples=100, deadline=None)
@given(cases(), st.data())
def test_halving_moves_the_meeting_family_one_level_down(case, data):
    E, _R, J, b = case
    k = tuple(data.draw(st.integers(0, 1)) for _ in range(E.dim))
    root = DyadicCube.root(E.dim)
    child = halved_cube(root, k)
    below = [q for q in enumerate_DE(halved(E, k), root, J + 1, b).members
             if contains(child, q)]
    assert below == sorted(halved_cube(q, k) for q in enumerate_DE(E, root, J, b).members)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((1, 2)).flatmap(
    lambda d: st.lists(_parts(d), min_size=2, max_size=2)), st.data())
def test_the_meeting_family_of_a_union_is_the_union_of_families(parts, data):
    union = UnionModel.make(parts)
    R = data.draw(roots(union))
    J, b = data.draw(st.integers(2, 4)), data.draw(st.integers(0, MAX_BUDGET))
    family = enumerate_DE(union, R, J, b)
    assert set(family.members) == {q for E in parts for q in enumerate_DE(E, R, J, b).members}


def _packing(family):
    """carleson_constant of a family, None for an empty one."""
    return carleson_constant(family) if family.members else None


@settings(max_examples=100, deadline=None)
@given(cases(dims=(2,)))
def test_swapping_the_axes_keeps_the_packing_constant(case):
    E, R, J, b = case
    assert _packing(enumerate_DE(swapped(E), swapped_cube(R), J, b)) == \
        _packing(enumerate_DE(E, R, J, b))


@settings(max_examples=100, deadline=None)
@given(cases(), st.data())
def test_halving_keeps_the_packing_constant(case, data):
    E, _R, J, b = case
    k = tuple(data.draw(st.integers(0, 1)) for _ in range(E.dim))
    root = DyadicCube.root(E.dim)
    child = halved_cube(root, k)
    below = [q for q in enumerate_DE(halved(E, k), root, J + 1, b).members
             if contains(child, q)]
    assert _packing(CubeFamily.make(child, below, J)) == \
        _packing(enumerate_DE(E, root, J, b))


@st.composite
def witness_cases(draw):
    """(E, root, J, budget, search depth): a point set or a union of two at
    a root that meets it, or an IFS at the lattice root, where the witness's
    family and the packed one read the same descent."""
    d = draw(st.sampled_from((1, 2)))
    if draw(st.booleans()):
        E, R = draw(small_ifs(d)), DyadicCube.root(d)
    else:
        parts = draw(st.lists(point_sets(dim=d, max_points=4), min_size=1, max_size=2))
        E = parts[0] if len(parts) == 1 else UnionModel.make(parts)
        R = draw(roots(E))
    return (E, R, draw(st.integers(2, 4)), draw(st.integers(0, MAX_BUDGET)),
            draw(st.integers(1, 3)))


@settings(max_examples=100, deadline=None)
@given(witness_cases())
def test_the_packing_constant_never_exceeds_the_witness_ratio(case):
    # disjoint free cubes M(Q) inside Q with |Q| <= lambda_hat |M(Q)| pack
    # every R' of D_E: the sum of |Q| over Q inside R' is <= lambda_hat |R'|
    E, R, J, b, s = case
    try:
        witness = build_witness(E, R, J, s, b)
    except PorosityFailure:
        return
    assert carleson_constant(enumerate_DE(E, R, J, b)) <= witness.lambda_hat


def test_the_packing_constant_stays_below_the_witness_ratio_on_cantor():
    E, R = cantor_middle_thirds(), DyadicCube.root(1)
    for J, packing in ((4, Fraction(35, 8)), (6, Fraction(85, 16)), (8, Fraction(757, 128))):
        assert carleson_constant(enumerate_DE(E, R, J)) == packing
        assert build_witness(E, R, J).lambda_hat == 16


@st.composite
def cubes_below(draw, R, J):
    """A cube inside R at depth offset 0..J."""
    k = draw(st.integers(0, J))
    return DyadicCube(R.depth + k, tuple((c << k) + draw(st.integers(0, (1 << k) - 1))
                                         for c in R.coords))


@settings(max_examples=100, deadline=None)
@given(cases(), st.integers(0, MAX_BUDGET), st.data())
def test_a_larger_budget_only_narrows_the_distance_answers(case, other, data):
    E, R, J, b = case
    lo, hi = sorted((b, other))
    for q in data.draw(st.lists(cubes_below(R, J), min_size=1, max_size=4)):
        (a_lo, a_hi), (b_lo, b_hi) = E.dist_interval(q, lo), E.dist_interval(q, hi)
        assert a_lo <= b_lo <= b_hi <= a_hi
        for gamma in GAMMAS:
            decided = E.dist_below(q, gamma * q.side, lo)
            assert decided is None or E.dist_below(q, gamma * q.side, hi) is decided


@settings(max_examples=60, deadline=None)
@given(cases(dims=(1,)), st.integers(0, MAX_BUDGET), st.integers(4, 6),
       st.sampled_from((Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))))
def test_mass_brackets_at_two_budgets_overlap(case, other, split_budget, alpha):
    # point sets lie on the depth-6 grid: a refinement that reaches depth 6
    # finds each point on a cell's lower corner, so the upper end is finite
    E, R, J, b = case
    brackets = [mu_enclosure(E, R, alpha, J - 2, budget, split_budget)  # J - 2 in 0-2
                for budget in (b, other)]
    uppers = [enc.upper for enc in brackets if enc.upper is not None]
    assert all(enc.lower <= up for enc in brackets for up in uppers)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((1, 2)).flatmap(
    lambda d: st.lists(_parts(d), min_size=2, max_size=2)), st.sampled_from(GAMMAS),
    st.data())
def test_the_gamma_family_of_a_union_is_the_union_of_families(parts, gamma, data):
    # a cube's membership rests on the answers along its chain from R; where
    # all three models decide them, the union's family holds the cube
    # exactly when a part's does
    models = [UnionModel.make(parts), *parts]
    R = data.draw(roots(models[0]))
    J, b = data.draw(st.integers(2, 4)), data.draw(st.integers(0, MAX_BUDGET))
    union, *each = [set(enumerate_Dgamma(E, R, gamma, J, b).members) for E in models]

    def decided(q):
        return all(E.dist_below(a, gamma * a.side, b) is not None for E in models
                   for a in map(q.ancestor_at, range(R.depth, q.depth + 1)))
    for q in union.union(*each):
        if decided(q):
            assert (q in union) == any(q in family for family in each)
