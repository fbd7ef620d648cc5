"""The running power sums against the per-(alpha, J) formula they replaced.

`dynkin_sweep`, `de_sum` and `parent_multiplicity_margin` read one list of
per-depth powers per alpha; `sum_reference` sums fresh powers for every
(alpha, J) pair.  Every enclosure endpoint is an exact `Fraction`, so the
reports must be equal field for field.
"""

from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from cubeporos import analysis
from cubeporos.analysis import de_sum, dynkin_sweep, parent_multiplicity_margin
from cubeporos.families import CubeFamily, enumerate_DE
from cubeporos.lattice import children
from conftest import dyadic_cubes, point_sets, small_ifs
import sum_reference


@st.composite
def parent_closed_families(draw):
    """A parent-closed family below a cube down to depth 2, to depth offset
    J <= 6: each child of a member joins with a drawn probability."""
    d = draw(st.integers(1, 2))
    root = draw(dyadic_cubes(dim=d, max_depth=2))
    J = draw(st.integers(0, 6 if d == 1 else 4))
    keep = draw(st.integers(1, 4))
    members, level = [root], [root]
    for _ in range(J):
        level = [c for q in level for c in children(q) if draw(st.integers(0, 3)) < keep]
        members += level
    return CubeFamily.make(root, members, J)


def grids(d):
    return st.lists(st.fractions(0, d, max_denominator=12), min_size=1, max_size=5)


def _counting(calls):
    real = analysis.pow2_enclosure

    def pow2_enclosure(exp):
        calls.append(exp)
        return real(exp)
    return pow2_enclosure


@settings(max_examples=200, deadline=None)
@given(parent_closed_families().flatmap(lambda DE: st.tuples(
    st.just(DE), grids(DE.root.dim),
    st.lists(st.integers(0, DE.J), min_size=1, max_size=4))))
def test_the_sweep_equals_the_per_pair_formula(case):
    DE, grid, J_list = case
    calls = []
    with mock.patch.object(analysis, "pow2_enclosure", _counting(calls)):
        reports = dynkin_sweep(DE, grid, J_list)
    assert reports == sum_reference.dynkin_sweep(DE, grid, J_list)
    # one power per grid entry and depth, from the root to root + max J
    assert len(calls) <= len(grid) * (max(J_list) + 1)
    for alpha in grid:
        calls.clear()
        with mock.patch.object(analysis, "pow2_enclosure", _counting(calls)):
            margin = parent_multiplicity_margin(DE, alpha)
        assert margin == sum_reference.parent_multiplicity_margin(DE, alpha)
        assert len(calls) <= DE.J + 1


@st.composite
def sum_cases(draw):
    d = draw(st.integers(1, 2))
    E = draw(st.one_of(point_sets(dim=d), small_ifs(d)))
    alpha = draw(st.fractions(0, d, max_denominator=12))
    return (E, draw(dyadic_cubes(dim=d, max_depth=2)), alpha, draw(st.integers(0, 4)),
            draw(st.integers(0, 8)))


@settings(max_examples=100, deadline=None)
@given(sum_cases())
def test_de_sum_equals_the_per_pair_formula(case):
    E, R, alpha, J, budget = case
    DE = enumerate_DE(E, R, J, budget)
    assert de_sum(E, R, alpha, J, budget) == \
        sum_reference.sum_reports(DE, [alpha], [J], DE.level_counts())[0]
