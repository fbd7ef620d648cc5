from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeporos import families, sets
from cubeporos.analysis import de_sum, dynkin_sum, parent_multiplicity_margin
from cubeporos.errors import EmptySetError, FamilyTooLarge, RootIsFree
from cubeporos.families import (CubeFamily, FreeDecomposition, enumerate_DE,
                                enumerate_Dgamma, enumerate_FE)
from cubeporos.lattice import DyadicCube, parent
from cubeporos.sets import (EmptyModel, PointsModel, Status, UnionModel,
                            cantor_middle_thirds)
import fe_reference
from conftest import dyadic_cubes, point_sets, small_ifs

F = Fraction
CANTOR = cantor_middle_thirds()
ROOT1 = DyadicCube.root(1)


def cubes(*specs):
    return [DyadicCube(d, tuple(k)) for d, k in specs]


def test_de_single_point():
    E = PointsModel.make([(0,)])
    fam = enumerate_DE(E, ROOT1, 2)
    assert list(fam.members) == cubes((0, [0]), (1, [0]), (2, [0]))


def test_de_empty_set():
    fam = enumerate_DE(EmptyModel(1), ROOT1, 5)
    assert fam.members == ()


@pytest.mark.parametrize("enumerate_family", [
    lambda: enumerate_DE(CANTOR, ROOT1, 6),
    lambda: enumerate_Dgamma(CANTOR, ROOT1, F(1, 2), 6)], ids=["DE", "Dgamma"])
def test_enumeration_past_the_member_cap_raises(monkeypatch, enumerate_family):
    size = len(enumerate_family())
    monkeypatch.setattr(families, "MAX_MEMBERS", size)
    assert len(enumerate_family()) == size
    monkeypatch.setattr(families, "MAX_MEMBERS", size - 1)
    with pytest.raises(FamilyTooLarge, match=f"more than {size - 1} cubes"):
        enumerate_family()


def test_de_cantor_one_level():
    fam = enumerate_DE(CANTOR, ROOT1, 1)
    assert list(fam.members) == cubes((0, [0]), (1, [0]), (1, [1]))


def test_fe_single_point():
    E = PointsModel.make([(0,)])
    dec = enumerate_FE(E, ROOT1, 3)
    assert [q for q, _ in dec.free] == cubes((1, [1]), (2, [1]), (3, [1]))
    assert list(dec.residual) == cubes((3, [0]))
    assert sum(q.volume for q, _ in dec.free) + sum(q.volume for q in dec.residual) == 1
    # distance intervals are exact for point sets
    for q, (lo, hi) in dec.free:
        assert lo == hi == q.box.lo[0]


def test_fe_root_is_free():
    E = PointsModel.make([(0,)])
    with pytest.raises(RootIsFree):
        enumerate_FE(E, DyadicCube(1, (1,)), 3)


def test_fe_cantor_two_levels():
    dec = enumerate_FE(CANTOR, ROOT1, 2)
    assert dec.free == ()
    assert len(dec.residual) == 4
    assert sum(q.volume for q in dec.residual) == 1


def test_dgamma_examples():
    E = PointsModel.make([(0,)])
    fam = enumerate_Dgamma(E, ROOT1, 2, 1)
    assert list(fam.members) == cubes((0, [0]), (1, [0]), (1, [1]))
    fam_small = enumerate_Dgamma(E, ROOT1, F(1, 4), 1)
    assert list(fam_small.members) == cubes((0, [0]), (1, [0]))
    # strict inequality: dist([1/2,1), {0}) = 1/2 = 1 * side excludes the cube
    fam_exact = enumerate_Dgamma(E, ROOT1, 1, 1)
    assert DyadicCube(1, (1,)) not in fam_exact
    with pytest.raises(EmptySetError):
        enumerate_Dgamma(EmptyModel(1), ROOT1, 1, 2)


@given(point_sets(max_points=4), st.integers(0, 4), st.fractions(
    min_value=F(1, 4), max_value=3))
@settings(max_examples=40, deadline=None)
def test_de_subset_of_dgamma(E, J, gamma):
    if gamma <= 0:
        gamma = F(1, 2)
    root = DyadicCube.root(E.dim)
    de = enumerate_DE(E, root, J)
    dg = enumerate_Dgamma(E, root, gamma, J)
    assert set(de.members) <= set(dg.members)


@given(point_sets(), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_partition_identity(E, J):
    root = DyadicCube.root(E.dim)
    if E.intersect_status(root) is Status.FREE:
        return
    dec = enumerate_FE(E, root, J)
    assert sum(q.volume for q, _ in dec.free) + sum(q.volume for q in dec.residual) \
        == root.volume


@given(point_sets(max_points=4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_monotone_refinement(E, J):
    root = DyadicCube.root(E.dim)
    small = enumerate_DE(E, root, J)
    big = enumerate_DE(E, root, J + 2)
    assert set(small.members) <= set(big.members)
    # members at depth <= J agree across truncations
    assert {q for q in big.members if q.depth <= J} == set(small.members)


@given(point_sets(max_points=5), st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_parent_closure_of_de(E, J):
    root = DyadicCube.root(E.dim)
    fam = enumerate_DE(E, root, J)
    for q in fam.members:
        if q.depth > root.depth:
            assert parent(q) in fam


@given(point_sets(max_points=5), st.integers(1, 5))
@settings(max_examples=50, deadline=None)
def test_free_maximality(E, J):
    root = DyadicCube.root(E.dim)
    if E.intersect_status(root) is Status.FREE:
        return
    dec = enumerate_FE(E, root, J)
    for q, _ in dec.free:
        assert E.intersect_status(parent(q)) is not Status.FREE


def test_family_json_round_trip():
    E = PointsModel.make([(0,), (F(1, 2),)])
    fam = enumerate_DE(E, ROOT1, 3)
    assert CubeFamily.from_json(fam.to_json()) == fam
    # J must be a JSON integer, not a float that int() would truncate
    with pytest.raises(ValueError):
        CubeFamily.from_json({**fam.to_json(), "J": 3.0})


@st.composite
def decomposition_cases(draw):
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("points", "ifs", "union")))
    if kind == "points":
        E = draw(point_sets(dim=d))
    elif kind == "ifs":
        E = draw(small_ifs(d))
    else:
        E = UnionModel.make([draw(point_sets(dim=d, max_points=3)), draw(small_ifs(d))])
    R = draw(dyadic_cubes(dim=d, max_depth=2))
    alpha = d * draw(st.sampled_from((F(0), F(1, 3), F(1, 2), F(1))))
    return (E, R, draw(st.integers(0, 6)), draw(st.sampled_from((0, 1, 2, 36))), alpha)


@given(decomposition_cases())
@settings(max_examples=300, deadline=None)
def test_fe_and_sums_match_reference_decomposition(case):
    E, R, J, budget, alpha = case
    # a small node cap bounds the IFS oracles' time; library and reference
    # ask the same oracles, so both see the same capped answers
    with mock.patch.object(sets, "_MAX_NODES", 1000):
        check_against_reference(E, R, J, budget, alpha)


def check_against_reference(E, R, J, budget, alpha):
    try:
        free, residual, meeting = fe_reference.free_decomposition(E, R, J, budget)
    except RootIsFree:
        with pytest.raises(RootIsFree):
            enumerate_FE(E, R, J, budget)
        with pytest.raises(RootIsFree):
            dynkin_sum(E, R, alpha, J, budget)
        with pytest.raises(RootIsFree):
            parent_multiplicity_margin(enumerate_DE(E, R, J, budget), alpha)
        assert de_sum(E, R, alpha, J, budget) == fe_reference.sum_report(alpha, R, J, [], 0)
        return
    assert enumerate_FE(E, R, J, budget) == FreeDecomposition(R, free, residual, J)
    free_cubes = [q for q, _ in free]
    assert dynkin_sum(E, R, alpha, J, budget) == \
        fe_reference.sum_report(alpha, R, J, free_cubes, len(residual))
    assert de_sum(E, R, alpha, J, budget) == \
        fe_reference.sum_report(alpha, R, J, meeting, len(residual))
    assert parent_multiplicity_margin(enumerate_DE(E, R, J, budget), alpha) == \
        fe_reference.multiplicity_margin(R, alpha, free_cubes, meeting)
