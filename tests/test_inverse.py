from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubeporos.analysis import de_sum
from cubeporos.enclosure import dyadic_str, frac_str
from cubeporos.errors import NotParentClosed
from cubeporos.families import CubeFamily
from cubeporos.generators import random_parent_closed_family, rng_from_seed
from cubeporos.inverse import chain, check_parent_closed, invert
from cubeporos.lattice import DyadicCube, children, contains
from cubeporos.sparse import build_witness, verify_witness
import points_reference

F = Fraction
ROOT1 = DyadicCube.root(1)


def chain_family(J, dim=1):
    root = DyadicCube.root(dim)
    return CubeFamily.make(root, [DyadicCube(k, (0,) * dim) for k in range(J + 1)], J)


def test_chain_examples():
    ch = chain(DyadicCube(1, (0,)), 2)
    assert ch == (DyadicCube(1, (0,)), DyadicCube(2, (0,)), DyadicCube(3, (0,)))
    # geometric identity at finite truncation
    q = DyadicCube(1, (0,))
    for J in (0, 3, 7):
        total = sum(c.volume for c in chain(q, J))
        assert total == q.volume * (1 - F(1, 1 << (J + 1))) * 2
    assert chain(DyadicCube.root(2), 1) == (DyadicCube.root(2), DyadicCube(1, (0, 0)))


def test_check_parent_closed():
    ok, bad = check_parent_closed(chain_family(2))
    assert ok and bad is None
    fam = CubeFamily.make(ROOT1, [ROOT1, DyadicCube(2, (1,))], 2)
    ok, bad = check_parent_closed(fam)
    assert not ok and bad == DyadicCube(2, (1,))
    no_root = CubeFamily.make(ROOT1, children(ROOT1), 1)
    ok, bad = check_parent_closed(no_root)
    assert not ok and bad == DyadicCube(1, (0,))
    # from depth 1 the members at depth 1 need no parent
    assert check_parent_closed(no_root, 1) == (True, None)
    deep = DyadicCube(1, (1,))
    gap = CubeFamily.make(deep, [deep, DyadicCube(3, (4,))], 2)
    assert check_parent_closed(gap, 1) == (False, DyadicCube(3, (4,)))


def test_invert_chain_example():
    S = chain_family(10)
    E, rep = invert(S)
    assert rep.xi_input == 2 - F(1, 1 << 10)
    assert rep.bound == 3 * rep.xi_input + 2  # d=1 instance of the bound
    assert abs(float(rep.bound) - 8) < 0.01
    assert rep.measured <= rep.bound
    assert rep.chain_coverage_ok and rep.corner_membership_ok
    assert points_reference.points(E) == ((F(0),),)
    for s in rep.splits:
        assert s.s2 == s.s3 + s.s4
        assert s.s4 <= 2 * s.root.volume
        assert s.s3 <= 2 * rep.xi_input * s.root.volume


def test_invert_root_only():
    S = CubeFamily.make(ROOT1, [ROOT1], 0)
    E, rep = invert(S)
    assert rep.xi_input == 1
    assert rep.bound == 5  # 1 + 2 + 2 in one dimension
    assert rep.measured <= rep.bound
    # the corner family is the full corner chain with ratios below 2
    assert rep.measured == 2 - F(1, 1 << rep.J)


def test_invert_rejects_non_parent_closed():
    fam = CubeFamily.make(ROOT1, [ROOT1, DyadicCube(2, (1,))], 2)
    with pytest.raises(NotParentClosed):
        invert(fam)


def test_corner_membership_needs_the_deepest_member():
    # the corner family truncated above the deepest member cannot contain it
    S = chain_family(6)
    assert not invert(S, J=5)[1].corner_membership_ok
    assert invert(S, J=6)[1].corner_membership_ok


def test_s4_vanishes_off_the_corner():
    S = chain_family(6)
    _E, rep = invert(S, J=10)
    for s in rep.splits:
        corner_in_E = s.root.lower_corner == (F(0),)
        if not corner_in_E:
            assert s.s4 == 0


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_invert_random_families(seed):
    rng = rng_from_seed(seed)
    d = rng.choice([1, 2])
    S = random_parent_closed_family(rng, d, max_depth=6,
                                    keep_num=1, keep_den=3 if d == 1 else 5)
    ok, _ = check_parent_closed(S)
    assert ok
    J = max(q.depth for q in S.members) + 6
    E, rep = invert(S, J=J)
    assert rep.measured <= rep.bound
    assert rep.chain_coverage_ok and rep.corner_membership_ok
    for s in rep.splits:
        assert s.s2 == s.s3 + s.s4
        factor = F(1 << d, (1 << d) - 1)
        assert s.s4 <= factor * s.root.volume
        assert s.s3 <= factor * rep.xi_input * s.root.volume

    # every split recomputed from its definition, one root at a time, over
    # the meeting family read from the corner points themselves
    DE = sorted(points_reference.meeting_cubes(points_reference.points(E), J))
    assert [s.root for s in rep.splits] == DE
    owner_depth = {}
    for q in DE:
        if q not in S:
            # the chain owner: deepest strict ancestor in S with q's lower corner
            owner_depth[q] = max((k for k in range(q.depth)
                                  if q.ancestor_at(k).lower_corner == q.lower_corner
                                  and q.ancestor_at(k) in S), default=None)
    for s in rep.splits:
        inside = [q for q in DE if contains(s.root, q)]
        assert s.s1 == sum((q.volume for q in inside if q in S), F(0))
        assert s.s2 == sum((q.volume for q in inside if q not in S), F(0))
        assert s.s3 == sum((q.volume for q in inside if q not in S
                            and owner_depth[q] is not None
                            and owner_depth[q] >= s.root.depth), F(0))


def test_well_sparse_follow_through():
    # the corner set of a Carleson family admits a disjoint free-cube witness
    S = chain_family(6)
    E, rep = invert(S, J=10)
    w = build_witness(E, ROOT1, 6)
    assert verify_witness(w, E)
    # and the power-weighted sums stay bounded for a small alpha
    rep_sum = de_sum(E, ROOT1, F(1, 4), 12)
    assert rep_sum.ratio.hi < 10


def test_inverse_report_json():
    _E, rep = invert(chain_family(4))
    obj = rep.to_json()
    assert obj["xi"] == "31/16"
    assert len(obj["roots"]) == len(rep.splits)


@st.composite
def dyadic_masses(draw):
    """(n, b) with b in [0, 200] and n in [0, 2^(b+3)]: any such n, 0, an odd
    n, or 2^b."""
    b = draw(st.integers(0, 200))
    n = draw(st.one_of(st.integers(0, 1 << b + 3), st.just(0), st.just(1 << b),
                       st.integers(0, (1 << b + 2) - 1).map(lambda m: 2 * m + 1)))
    return n, b


@given(dyadic_masses())
@example((0, 0))
@example((1, 0))
@example((8, 0))
@example((0, 200))
@example((3, 200))
@example((1 << 200, 200))
@example((1 << 203, 200))
@settings(max_examples=300, deadline=None)
def test_dyadic_str_is_the_reduced_fraction(mass):
    # the report's masses are counts of depth-J cells, each written without a
    # Fraction by shifting out the factors of 2
    n, b = mass
    assert dyadic_str(n, b) == frac_str(F(n, 1 << b))
