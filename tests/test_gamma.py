from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeporos.analysis import mu_enclosure
from cubeporos.enclosure import pow_enclosure
from cubeporos.errors import AlphaOutOfRange, NotParentClosed
from cubeporos.families import CubeFamily, enumerate_DE, enumerate_Dgamma
from cubeporos.lattice import DyadicCube, contains
from cubeporos.neighborhoods import (EmbeddingQuery, _covering_cubes, embedding_check,
                                     gamma_carleson, gamma_witness,
                                     minimal_exceeding_integer)
from cubeporos.sets import PointsModel, Status, cantor_middle_thirds
from cubeporos.sparse import build_witness, carleson_constant, verify_witness

F = Fraction
CANTOR = cantor_middle_thirds()
ROOT1 = DyadicCube.root(1)
ORIGIN = PointsModel.make([(0,)])

mpmath.mp.dps = 40


def gamma_report(E, gamma, J):
    return gamma_carleson(E, enumerate_Dgamma(E, ROOT1, gamma, J), gamma)


def witness(E, gamma, J, search_depth=6):
    return gamma_witness(E, enumerate_Dgamma(E, ROOT1, gamma, J), search_depth)


def embedding(E, query):
    family = enumerate_Dgamma(E, query.root, query.gamma, query.J)
    return embedding_check(E, query, family)


def test_minimal_exceeding_integer():
    assert minimal_exceeding_integer(F(1, 4)) == 1
    assert minimal_exceeding_integer(1) == 2
    assert minimal_exceeding_integer(F(5, 2)) == 3


def test_gamma_carleson_single_point():
    rep = gamma_report(ORIGIN, 2, 10)
    assert rep.n == 3
    assert rep.max_covering <= 3
    assert rep.measured <= 3 * (2 - F(1, 1 << 10))
    assert rep.measured <= rep.bound
    assert rep.bound == rep.base_constant * 18  # (gamma+1)*6 in one dimension


def test_gamma_zero_limit_is_meeting_family():
    fam_small = enumerate_Dgamma(ORIGIN, ROOT1, F(1, 64), 6)
    de = enumerate_DE(ORIGIN, ROOT1, 6)
    assert set(fam_small.members) == set(de.members)
    rep = gamma_report(ORIGIN, F(1, 64), 6)
    assert rep.measured == carleson_constant(de)


@pytest.mark.parametrize("gamma", [F(1, 4), F(1), F(2)])
def test_gamma_carleson_cantor(gamma):
    rep = gamma_report(CANTOR, gamma, 8)
    assert rep.measured <= rep.bound
    assert rep.max_covering <= 3

    # the base constant recomputed by brute force over every covering cube
    n = minimal_exceeding_integer(gamma)
    family = enumerate_Dgamma(CANTOR, ROOT1, gamma, 8).members
    cover = {ri for r in {ROOT1, *family} for ri in _covering_cubes(r, n)[0]}
    de = enumerate_DE(CANTOR, ROOT1, 8).members
    base = max(sum((q.volume for q in de if contains(ri, q)), F(0)) / ri.volume
               for ri in cover)
    assert rep.base_constant == max(F(1), base)


def test_gamma_monotone_and_contains_de():
    fams = [set(enumerate_Dgamma(CANTOR, ROOT1, g, 6).members)
            for g in (F(1, 4), F(1), F(2))]
    de = set(enumerate_DE(CANTOR, ROOT1, 6).members)
    assert de <= fams[0] <= fams[1] <= fams[2]


def test_gamma_family_parent_closed():
    for g in (F(1, 4), F(1), F(2)):
        fam = enumerate_Dgamma(CANTOR, ROOT1, g, 6)
        for q in fam.members:
            if q.depth > 0:
                assert q.ancestor_at(q.depth - 1) in fam


def test_gamma_witness_checks_parent_closedness_from_its_root():
    R = DyadicCube(1, (0,))
    family = CubeFamily.make(R, [R, DyadicCube(2, (0,)), DyadicCube(3, (2,))], 2)
    with pytest.raises(NotParentClosed, match=r"Q\(j=3, k=\(2,\)\)"):
        gamma_witness(ORIGIN, family)


def test_gamma_witness_small_gamma_matches_plain_witness():
    w = witness(ORIGIN, F(1, 4), 4)
    w_plain = build_witness(ORIGIN, ROOT1, 4)
    fam = set(enumerate_Dgamma(ORIGIN, ROOT1, F(1, 4), 4).members)
    assert set(enumerate_DE(ORIGIN, ROOT1, 4).members) == fam
    got = {a.cube: a.free_cube for a in w.assignments}
    expected = {a.cube: a.free_cube for a in w_plain.assignments if a.cube in fam}
    assert got == expected


def test_gamma_witness_wide_gamma():
    w = witness(ORIGIN, 2, 4)
    assert len(w.assignments) > 4
    for a in w.assignments:
        assert ORIGIN.intersect_status(a.free_cube) is Status.FREE
    assert verify_witness(w, ORIGIN)


def test_gamma_witness_cantor():
    w = witness(CANTOR, F(1, 2), 4, search_depth=4)
    for a in w.assignments:
        assert CANTOR.intersect_status(a.free_cube) is Status.FREE


def _constant_query(p, J=30):
    fam = enumerate_Dgamma(ORIGIN, ROOT1, F(1, 4), J)
    coeffs = {q: F(1) for q in fam.members}
    return EmbeddingQuery.make(p, F(1, 2), F(1, 4), ROOT1, J, coeffs)


def test_embedding_constant_coefficients_p1():
    report = embedding(ORIGIN, _constant_query(1))
    J = 30
    half = mpmath.mpf(2) ** mpmath.mpf("-0.5")
    lhs_oracle = float(2 * (1 - half ** (J + 1)) / (1 - half))
    assert report.lhs.hi - report.lhs.lo <= F(1, 10 ** 4)
    assert report.rhs.hi - report.rhs.lo <= F(1, 10 ** 4)
    assert abs(float(report.lhs.lo) - lhs_oracle) < 1e-12
    assert report.rhs.lo <= 2 <= report.rhs.hi
    assert report.mass_lower_check == "certified"


def test_embedding_constant_coefficients_p2():
    report = embedding(ORIGIN, _constant_query(2))
    # stacked-square closed form: sum over cells of height^2 * cell mass
    J = 30
    half = mpmath.mpf(2) ** mpmath.mpf("-0.5")
    total = mpmath.mpf(0)
    for k in range(J):
        mass = 2 * (half ** k) * (1 - half)
        total += (k + 1) ** 2 * mass
    total += (J + 1) ** 2 * 2 * half ** J
    lhs_oracle = float(mpmath.sqrt(total))
    assert abs(float(report.lhs.lo) - lhs_oracle) < 1e-10
    assert abs(float(report.rhs.lo) - float(mpmath.sqrt(2))) < 1e-10


def test_embedding_single_cube_identity():
    fam = enumerate_Dgamma(ORIGIN, ROOT1, F(1, 4), 6)
    for p in (F(1), F(2), F(3, 2)):
        q = EmbeddingQuery.make(p, F(1, 2), F(1, 4), ROOT1, 6, {ROOT1: F(1)})
        report = embedding_check(ORIGIN, q, fam)
        assert report.lhs == report.rhs


def test_embedding_rejects_foreign_cube():
    q = EmbeddingQuery.make(1, F(1, 2), F(1, 64), ROOT1, 3,
                            {DyadicCube(1, (1,)): F(1)})
    with pytest.raises(ValueError):
        embedding(ORIGIN, q)


def test_embedding_rejects_family_of_another_root_or_depth():
    q = _constant_query(1, J=5)
    for other in (enumerate_Dgamma(ORIGIN, ROOT1, F(1, 4), 4),
                  enumerate_Dgamma(ORIGIN, DyadicCube(1, (0,)), F(1, 4), 5)):
        with pytest.raises(ValueError):
            embedding_check(ORIGIN, q, other)


def test_embedding_rejects_alpha_at_the_dimension_before_any_mass():
    # the mass of a cell holding the origin diverges at alpha = 1 = d; the
    # query is rejected for its exponent, not for its first cell
    fam = enumerate_Dgamma(ORIGIN, ROOT1, F(1, 4), 4)
    q = EmbeddingQuery.make(1, 1, F(1, 4), ROOT1, 4, {ROOT1: F(1)})
    with pytest.raises(AlphaOutOfRange):
        embedding_check(ORIGIN, q, fam)


def test_embedding_on_a_1001_cube_chain_runs_without_recursion():
    # the gamma family of the origin at gamma = 1/4 is the chain of cubes
    # [0, 2^-j), j = 0..1000; the one coefficient sits at its bottom
    family = enumerate_Dgamma(ORIGIN, ROOT1, F(1, 4), 1000)
    assert len(family) == 1001
    query = EmbeddingQuery.make(1, F(1, 2), F(1, 4), ROOT1, 1000,
                                {DyadicCube(1000, (0,)): 1})
    rep = embedding_check(ORIGIN, query, family)
    assert rep.cells == 1
    assert rep.lhs == rep.rhs


@st.composite
def meeting_point_sets(draw):
    """1-d point sets with a point in [0, 1), some perhaps outside it."""
    inside = F(draw(st.integers(0, 15)), 16)
    others = draw(st.lists(st.builds(F, st.integers(-16, 32), st.integers(1, 16)),
                           max_size=3))
    return PointsModel.make([(x,) for x in [inside, *others]])


@given(meeting_point_sets(), st.sampled_from((F(1, 4), F(1), F(5, 2))),
       st.sampled_from((F(1, 10), F(1, 2), F(9, 10))), st.integers(0, 3),
       st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_mass_lower_check_reads_the_roots_mass_lower_end(E, gamma, alpha, J, split_budget):
    # the check stops at the first partial sum of the cells' lower ends that
    # certifies; it must say what the whole enclosure's lower end says
    family = enumerate_Dgamma(E, ROOT1, gamma, J)
    query = EmbeddingQuery.make(1, alpha, gamma, ROOT1, J, {ROOT1: 1})
    report = embedding_check(E, query, family, split_budget=split_budget)
    vol_pow = pow_enclosure(ROOT1.volume, 1 - alpha)
    scale = pow_enclosure(gamma + 2, alpha)
    lower = mu_enclosure(E, ROOT1, alpha, J, split_budget=split_budget).lower
    assert report.mass_lower_check == \
        ("certified" if vol_pow.hi <= scale.lo * lower else "inconclusive")
