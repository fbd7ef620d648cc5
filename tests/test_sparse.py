import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubeporos import sets
from cubeporos.analysis import free_cube_table, largest_free_cube, porosity_scan
from cubeporos.errors import EmptyFamilyError, PorosityFailure, RootIsFree
from cubeporos.families import CubeFamily, enumerate_DE
from cubeporos.generators import rng_from_seed
from cubeporos.lattice import DyadicCube, children, contains
from cubeporos.sets import PointsModel, UnionModel, cantor_middle_thirds
from cubeporos.sparse import (SparseWitness, WitnessAssignment,
                              audit_single_inheritance, build_witness,
                              carleson_constant, verify_witness)
import witness_reference
from conftest import dyadic_cubes, point_sets, small_ifs
from random_models import random_porous_model

F = Fraction
CANTOR = cantor_middle_thirds()
ROOT1 = DyadicCube.root(1)
ORIGIN = PointsModel.make([(0,)])


def chain_family(J):
    return CubeFamily.make(ROOT1, [DyadicCube(k, (0,)) for k in range(J + 1)], J)


def test_carleson_chain():
    assert carleson_constant(chain_family(10)) == 2 - F(1, 1 << 10)


def test_carleson_single_root():
    assert carleson_constant(CubeFamily.make(ROOT1, [ROOT1], 0)) == 1


def test_carleson_three_full_levels():
    halves = children(ROOT1)
    cubes = [ROOT1] + halves + [c for q in halves for c in children(q)]
    assert carleson_constant(CubeFamily.make(ROOT1, cubes, 2)) == 3


def test_carleson_empty():
    with pytest.raises(EmptyFamilyError):
        carleson_constant(CubeFamily.make(ROOT1, [], 0))


def test_witness_single_point():
    w = build_witness(ORIGIN, ROOT1, 3)
    got = {a.cube: a.free_cube for a in w.assignments}
    expected = {DyadicCube(k, (0,)): DyadicCube(k + 1, (1,)) for k in range(4)}
    assert got == expected
    assert w.lambda_hat == 2
    assert verify_witness(w, ORIGIN)
    assert audit_single_inheritance(w)


def test_witness_cantor():
    w = build_witness(CANTOR, ROOT1, 4, search_depth=4)
    assert verify_witness(w, CANTOR)
    assert audit_single_inheritance(w)
    scan = porosity_scan(CANTOR, 5, 4)
    assert w.lambda_hat <= 2 * scan.eta_hat == 16


def test_witness_porosity_failure():
    full = PointsModel.make([(F(k, 16),) for k in range(16)])
    with pytest.raises(PorosityFailure) as exc:
        build_witness(full, ROOT1, 2, search_depth=3)
    assert exc.value.cube is not None


def test_witness_root_free():
    with pytest.raises(RootIsFree):
        build_witness(ORIGIN, DyadicCube(1, (1,)), 2)


# a solid 4x4 block of points over [0,1/4) x [1/4,1/2) and five more points:
# [0,1/2)^2 carries the root's free cube [0,1/4)^2, its first other child is
# solid to depth 4, and its second holds the free cube Q(j=3, k=(2, 1))
CARRIER_SET = PointsModel.make(
    [(F(i, 16), F(4 + k, 16)) for i in range(4) for k in range(4)]
    + [(F(4, 16), F(0)), (F(4, 16), F(4, 16)), (F(0), F(8, 16)),
       (F(8, 16), F(0)), (F(8, 16), F(8, 16))])


def test_a_carrier_picks_from_all_its_other_children():
    root = DyadicCube.root(2)
    w = build_witness(CARRIER_SET, root, 1, search_depth=2)
    got = {a.cube: (a.free_cube, a.inherited_from) for a in w.assignments}
    assert got[root] == (DyadicCube(2, (0, 0)), None)
    assert got[DyadicCube(1, (0, 0))] == (DyadicCube(3, (2, 1)), root)
    assert len(w) == 5 and w.lambda_hat == 16
    assert verify_witness(w, CARRIER_SET)
    assert audit_single_inheritance(w)
    assert _outcome(build_witness, CARRIER_SET, root, 1, 2, 36) == \
        _outcome(witness_reference.build_witness, CARRIER_SET, root, 1, 2, 36)


def test_witness_upward_extension():
    # build below a non-root cube; ancestors must be assigned too
    E = PointsModel.make([(0,), (F(3, 4),)])
    R = DyadicCube(2, (0,))
    w = build_witness(E, R, 2)
    cubes = {a.cube for a in w.assignments}
    assert ROOT1 in cubes and DyadicCube(1, (0,)) in cubes and R in cubes
    assert verify_witness(w, E)
    assert audit_single_inheritance(w)


def _tampered(w, idx, new_m):
    entries = list(w.assignments)
    a = entries[idx]
    entries[idx] = WitnessAssignment(a.cube, new_m, a.inherited_from)
    return SparseWitness(tuple(entries), w.lambda_hat)


def test_verify_rejects_overlap():
    # hand-built witness whose two free cubes nest: [1/2,1) contains [1/2,3/4)
    bad = SparseWitness((
        WitnessAssignment(DyadicCube(0, (0,)), DyadicCube(1, (1,)), None),
        WitnessAssignment(DyadicCube(1, (1,)), DyadicCube(2, (2,)), None),
    ), F(2))
    verdict = verify_witness(bad, ORIGIN)
    assert not verdict.ok
    assert "overlap" in verdict.reason
    assert verdict.cubes


def test_verify_rejects_escaping_cube():
    w = build_witness(ORIGIN, ROOT1, 3)
    # cube [1/2, 1) is not inside [0, 1/2)
    bad = _tampered(w, 1, DyadicCube(2, (3,)))
    verdict = verify_witness(bad, ORIGIN)
    assert not verdict.ok
    assert "inside" in verdict.reason


def test_verify_rejects_nonfree_cube():
    w = build_witness(ORIGIN, ROOT1, 3)
    bad = _tampered(w, 0, DyadicCube(1, (0,)))  # meets the origin
    verdict = verify_witness(bad, ORIGIN)
    assert not verdict.ok


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_witness_random_models(seed):
    rng = rng_from_seed(seed)
    d = rng.choice([1, 2])
    E = random_porous_model(rng, d)
    root = DyadicCube.root(d)
    J = 4 if d == 1 else 3
    try:
        w = build_witness(E, root, J, search_depth=6)
    except PorosityFailure:
        return  # budget miss is a legal outcome; soundness tested via verify
    assert verify_witness(w, E)
    assert audit_single_inheritance(w)
    scan = porosity_scan(E, J + 1, 6)
    assert scan.eta_hat is not None
    assert w.lambda_hat <= (1 << d) * scan.eta_hat


def test_witness_extraction_gives_porosity():
    # from any valid witness, each assigned cube exhibits its own free cube
    w = build_witness(CANTOR, ROOT1, 4, search_depth=4)
    for a in w.assignments:
        assert contains(a.cube, a.free_cube)
        assert a.cube.volume <= w.lambda_hat * a.free_cube.volume


def test_carleson_bounded_by_witness_constant():
    w = build_witness(ORIGIN, ROOT1, 8)
    fam = enumerate_DE(ORIGIN, ROOT1, 8)
    assert carleson_constant(fam) <= w.lambda_hat


@st.composite
def holed_grids(draw):
    """The full depth-3 or depth-4 grid of points in [0,1)^2 less those in 1-4
    drawn dyadic holes below depth 1, so that most children of a meeting cube
    meet the set."""
    g = draw(st.integers(3, 4))
    holes = []
    for _ in range(draw(st.integers(1, 4))):
        depth = draw(st.integers(2, g))
        holes.append(DyadicCube(depth, tuple(draw(st.integers(0, (1 << depth) - 1))
                                             for _ in range(2))))
    return PointsModel.make([(F(i, 1 << g), F(k, 1 << g))
                             for i in range(1 << g) for k in range(1 << g)
                             if not any(contains(h, DyadicCube(g, (i, k))) for h in holes)])


@st.composite
def free_cube_cases(draw):
    d = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(("points", "ifs", "union", "grid")))
    if kind == "grid":
        d, E = 2, draw(holed_grids())
    elif kind == "points":
        E = draw(point_sets(dim=d))
    elif kind == "ifs":
        E = draw(small_ifs(d))
    else:
        E = UnionModel.make([draw(point_sets(dim=d, max_points=3)), draw(small_ifs(d))])
    R = draw(dyadic_cubes(dim=d, max_depth=2))
    return (E, R, draw(st.integers(0, 3)), draw(st.integers(0, 4)),
            draw(st.sampled_from((0, 1, 2, 3, 4, 36))))


def _outcome(fn, *args):
    """JSON bytes of a report, or the type and message of the error raised."""
    try:
        return json.dumps(fn(*args), sort_keys=True, default=lambda o: o.to_json())
    except (PorosityFailure, RootIsFree) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def search_cases(draw):
    """(E, R, J, budget) in d = 1-2, J <= 5 and budgets 0-8."""
    E, R, _J, _search_depth, _budget = draw(free_cube_cases())
    return E, R, draw(st.integers(0, 5)), draw(st.integers(0, 8))


@given(search_cases())
@settings(max_examples=300, deadline=None)
def test_free_cube_search_matches_the_level_order_search(case):
    E, R, J, budget = case
    assert largest_free_cube(E, R, J, budget) == \
        witness_reference.level_order_free_cube(E, R, J, budget)


@given(free_cube_cases())
@example((CARRIER_SET, DyadicCube.root(2), 1, 2, 36))
@settings(max_examples=300, deadline=None)
def test_free_cube_table_matches_per_cube_searches(case):
    E, R, J, search_depth, budget = case
    # a small node cap bounds the IFS oracles' time; library and reference
    # ask the same oracles, so both see the same capped answers
    with mock.patch.object(sets, "_MAX_NODES", 1000):
        DE = enumerate_DE(E, R, J, budget)
        assert free_cube_table(E, DE, search_depth, budget) == \
            {q: largest_free_cube(E, q, search_depth, budget) for q in DE.members}
        assert _outcome(porosity_scan, E, R.depth + J, search_depth, budget) == \
            _outcome(witness_reference.porosity_scan, E, R.depth + J, search_depth, budget)
        assert _outcome(build_witness, E, R, J, search_depth, budget) == \
            _outcome(witness_reference.build_witness, E, R, J, search_depth, budget)
