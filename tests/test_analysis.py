import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeporos import analysis, families, sets
from cubeporos.analysis import (codim_estimate, parent_multiplicity_margin, de_sum,
                                dynkin_sum, dynkin_sweep, largest_free_cube,
                                mu_enclosure, mu_points_exact_1d,
                                porosity_scan, weighted_carleson_sum)
from cubeporos.enclosure import pow2_enclosure, pow_enclosure
from cubeporos.errors import AlphaOutOfRange, FamilyTooLarge, RootIsFree, UnresolvedMeasure
from cubeporos.families import enumerate_DE
from cubeporos.lattice import Box, DyadicCube
from cubeporos.neighborhoods import _cell_mass
from cubeporos.sets import IFSModel, PointsModel, Status, cantor_middle_thirds
from conftest import dyadic_cubes, point_sets, small_ifs
import mu_reference
import witness_reference

F = Fraction
CANTOR = cantor_middle_thirds()
ROOT1 = DyadicCube.root(1)
ORIGIN = PointsModel.make([(0,)])

mpmath.mp.dps = 40


def mp(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def geometric_sum(ratio: mpmath.mpf, first_k: int, last_k: int) -> mpmath.mpf:
    # sum of ratio^k for k in [first_k, last_k]
    return (ratio ** first_k - ratio ** (last_k + 1)) / (1 - ratio)


def test_largest_free_cube_examples():
    assert largest_free_cube(ORIGIN, ROOT1, 3) == DyadicCube(1, (1,))
    assert largest_free_cube(CANTOR, ROOT1, 4) == DyadicCube(3, (3,))
    full = PointsModel.make([(F(k, 8),) for k in range(8)])
    assert largest_free_cube(full, ROOT1, 3) is None


def _grid_points(J):
    """The points k/2^J: every dyadic cube down to depth J meets them."""
    return PointsModel.make([(F(k, 1 << J),) for k in range(1 << J)])


def test_free_cube_search_past_the_member_cap_raises(monkeypatch):
    # no free cube within 6 levels: the pass to depth offset L splits all
    # 2^L - 1 cubes above it, 120 in the six passes
    E = _grid_points(6)
    monkeypatch.setattr(families, "MAX_MEMBERS", 120)
    assert largest_free_cube(E, ROOT1, 6) is None
    monkeypatch.setattr(families, "MAX_MEMBERS", 119)
    with pytest.raises(FamilyTooLarge, match=r"more than 119 cubes below "
                                             r"Q\(j=0, k=\(0,\)\) to depth offset 6"):
        largest_free_cube(E, ROOT1, 6)


def test_free_cube_search_splits_no_deeper_than_the_shallowest_free_cube(monkeypatch):
    # [0, 1/2) meets the set at every depth down to 12; [3/4, 1) is free at
    # depth offset 2, so the passes to offsets 1 and 2 split 1 + 3 cubes
    E = PointsModel.make([(F(k, 1 << 12),) for k in range(1 << 11)] + [(F(5, 8),)])
    monkeypatch.setattr(families, "MAX_MEMBERS", 4)
    assert largest_free_cube(E, ROOT1, 12) == DyadicCube(2, (3,))


def test_free_cube_search_takes_the_first_free_cube_in_canonical_order():
    # in d = 2 the depth-2 cube (1, 0) lies below the first child and (0, 2)
    # below the second, yet (0, 2) comes first in canonical order
    free = {(1, 0), (0, 2)}
    E = PointsModel.make([(F(2 * i + 1, 8), F(2 * j + 1, 8))
                          for i in range(4) for j in range(4) if (i, j) not in free])
    root = DyadicCube.root(2)
    assert largest_free_cube(E, root, 3) == DyadicCube(2, (0, 2))
    assert largest_free_cube(E, root, 3) == witness_reference.level_order_free_cube(
        E, root, 3, sets.DEFAULT_BUDGET)


def test_free_cube_search_holds_one_path_of_views():
    # the level-order search holds a whole level's views; the library's
    # depth-first passes hold the children of the cubes on one path
    E = _grid_points(10)
    peaks = {}
    for search in [largest_free_cube, witness_reference.level_order_free_cube] * 2:
        tracemalloc.start()
        assert search(E, ROOT1, 10, 36) is None
        peaks[search] = tracemalloc.get_traced_memory()[1]  # the second run's
        tracemalloc.stop()
    assert 8 * peaks[largest_free_cube] < peaks[witness_reference.level_order_free_cube]


def test_porosity_scan_examples():
    rep = porosity_scan(ORIGIN, 4, 3)
    assert rep.eta_hat == 2 and not rep.absent
    rep_c = porosity_scan(CANTOR, 6, 4)
    assert rep_c.eta_hat == 8 and not rep_c.absent
    corners = PointsModel.make([(F(k, 64),) for k in range(64)])
    rep_f = porosity_scan(corners, 6, 0)
    assert len(rep_f.absent) == len(rep_f.records)


def test_dynkin_alpha_zero_partition():
    rep = dynkin_sum(ORIGIN, ROOT1, 0, 10)
    assert rep.value.lo == rep.value.hi == 1 - F(1, 1 << 10)
    assert rep.residual_bound.lo == rep.residual_bound.hi == F(1, 1 << 10)
    assert rep.value.lo + rep.residual_bound.lo == 1


def test_dynkin_half_matches_geometric_series():
    rep = dynkin_sum(ORIGIN, ROOT1, F(1, 2), 40)
    oracle = geometric_sum(mpmath.mpf(2) ** mpmath.mpf("-0.5"), 1, 40)
    assert rep.value.hi - rep.value.lo < F(1, 10 ** 15)
    assert float(rep.value.lo) == pytest.approx(float(oracle), abs=1e-15)
    # the infinite-series limit sits one truncation tail above the value
    limit = 1 / (mpmath.sqrt(2) - 1)
    assert abs(float(rep.value.hi) - float(limit)) < 2.5e-6


def test_dynkin_alpha_one_counts_levels():
    rep = dynkin_sum(ORIGIN, ROOT1, 1, 12)
    assert rep.value.lo == rep.value.hi == 12


def test_dynkin_alpha_range():
    with pytest.raises(AlphaOutOfRange):
        dynkin_sum(ORIGIN, ROOT1, F(3, 2), 4)
    with pytest.raises(AlphaOutOfRange):
        dynkin_sum(ORIGIN, ROOT1, F(-1, 2), 4)
    with pytest.raises(RootIsFree):
        dynkin_sum(ORIGIN, DyadicCube(1, (1,)), F(1, 2), 4)


def test_dynkin_sweep_matches_pointwise_calls():
    grid = [F(1, 4), F(1, 2)]
    J_list = [3, 6]
    DE = enumerate_DE(CANTOR, ROOT1, max(J_list))
    reports = {(r.alpha, r.J): r for r in dynkin_sweep(DE, grid, J_list)}
    for alpha in grid:
        for J in J_list:
            direct = dynkin_sum(CANTOR, ROOT1, alpha, J)
            swept = reports[(alpha, J)]
            assert swept.value == direct.value
            assert swept.residual_bound == direct.residual_bound
            assert swept.ratio == direct.ratio


def test_de_sum_examples():
    rep = de_sum(ORIGIN, ROOT1, F(1, 2), 2)
    oracle = 1 + mpmath.mpf(2) ** mpmath.mpf("-0.5") + mpmath.mpf("0.5")
    assert float(rep.value.lo) == pytest.approx(float(oracle), abs=1e-15)
    rep40 = de_sum(ORIGIN, ROOT1, F(1, 2), 40)
    limit = 1 / (1 - mpmath.mpf(2) ** mpmath.mpf("-0.5"))
    assert abs(float(rep40.value.hi) - float(limit)) < 2.5e-6
    from cubeporos.sets import EmptyModel
    rep_empty = de_sum(EmptyModel(1), ROOT1, F(1, 2), 5)
    assert rep_empty.value.lo == rep_empty.value.hi == 0


def test_mu_enclosure_single_point():
    enc = mu_enclosure(ORIGIN, ROOT1, F(1, 2), 30)
    assert enc.bounded
    assert enc.lower <= 2 <= enc.upper  # exact integral of x^(-1/2) over [0,1)
    assert enc.lower >= F(170710, 10 ** 5)
    assert enc.upper <= F(241422, 10 ** 5)


def test_mu_lower_bound_sound_when_parent_undetermined():
    # x -> x/2 on [0,1] has attractor {0}; at budget 1 the cell [1/2, 1) is
    # undetermined, which must not cap its children's distances at 2*side
    E = IFSModel.make([(F(1, 2), (F(0),))], Box.make([0], [1]))
    enc = mu_enclosure(E, DyadicCube(1, (1,)), F(1, 2), 3, budget=1, split_budget=2)
    # the mass of [1/2, 1) is 2 - sqrt(2), compared in exact rationals
    a = 2 - enc.lower
    assert a >= 0 and a * a >= 2
    assert enc.upper is not None
    b = 2 - enc.upper
    assert b <= 0 or b * b <= 2


def test_mu_alpha_zero_degenerates_to_volume():
    enc = mu_enclosure(ORIGIN, ROOT1, 0, 6, split_budget=0)
    assert enc.upper == ROOT1.volume
    assert enc.lower == 1 - F(1, 1 << 6)


def test_mu_two_points_contains_closed_form():
    E = PointsModel.make([(0,), (1,)])
    enc = mu_enclosure(E, ROOT1, F(1, 2), 24)
    exact = 2 * mpmath.sqrt(2)  # two half-interval singular integrals
    assert enc.bounded
    assert enc.lower < exact.__float__() < enc.upper


@pytest.mark.parametrize("alpha", [F(1, 4), F(1, 2), F(3, 4)])
def test_mu_closed_forms_both_models(alpha):
    exact0 = 1 / (1 - float(alpha))          # integral of x^-a over [0,1)
    enc0 = mu_enclosure(ORIGIN, ROOT1, alpha, 26)
    assert enc0.lower < exact0 < enc0.upper
    E2 = PointsModel.make([(0,), (1,)])
    exact2 = 2 * (0.5 ** (1 - float(alpha))) / (1 - float(alpha))
    enc2 = mu_enclosure(E2, ROOT1, alpha, 26)
    assert enc2.lower < exact2 < enc2.upper


def test_mu_lower_dominates_scaled_dynkin():
    for alpha in (F(1, 4), F(1, 2), F(3, 4)):
        enc = mu_enclosure(ORIGIN, ROOT1, alpha, 12, split_budget=0)
        dyn = dynkin_sum(ORIGIN, ROOT1, alpha, 12)
        scale = pow2_enclosure(-alpha)
        assert enc.lower >= (scale * dyn.value).lo


def test_mu_monotone_in_depth():
    lowers, uppers = [], []
    for J in (4, 8, 12, 16):
        enc = mu_enclosure(ORIGIN, ROOT1, F(1, 2), J, split_budget=0)
        lowers.append(enc.lower)
        uppers.append(enc.upper)
    assert lowers == sorted(lowers)
    assert uppers == sorted(uppers, reverse=True)


def test_mu_exact_1d_points():
    E = PointsModel.make([(0,)])
    enc = mu_points_exact_1d(E, ROOT1, F(1, 2))
    assert enc.lo <= 2 <= enc.hi and enc.hi - enc.lo < F(1, 10 ** 15)
    # exponents >= 1 are outside the sharp route's domain
    assert mu_points_exact_1d(E, ROOT1, 1) is None
    # two points: integral splits at the midpoint
    E2 = PointsModel.make([(0,), (1,)])
    enc2 = mu_points_exact_1d(E2, ROOT1, F(1, 2))
    assert abs(float(enc2.lo) - 2 * math.sqrt(2)) < 1e-15


def test_mu_enclosure_raises_each_power_once(pow_calls):
    # boundary layers share a side and point bounds a distance: every
    # (base, exponent) is raised once per traversal
    E = PointsModel.make([(F(k, 64),) for k in (1, 2, 9, 30, 31, 50)])
    enc = mu_enclosure(E, ROOT1, F(3, 5), 8)
    assert enc.notes.boundary_layer_cells > 1 and enc.notes.point_bound_cells > 1
    assert pow_calls and set(pow_calls.values()) == {1}


def test_the_power_cache_stays_bounded_on_distinct_bases(monkeypatch):
    # every Cantor distance is a new base: half the node cap still gives
    # about 1,800 of them, which a cache that kept them all would hold at
    # once (about 0.8 MB more traced than raising each afresh)
    monkeypatch.setattr(analysis, "MU_SPLIT_NODE_CAP", 2_000)

    def held():
        tracemalloc.start()
        mu_enclosure(cantor_middle_thirds(), ROOT1, F(3, 5), 8)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return peak
    with monkeypatch.context() as uncached:
        uncached.setattr(analysis, "powers",
                         lambda exp: lambda base: pow_enclosure(base, exp))
        afresh = held()
    assert held() <= afresh + (1 << 18)


@st.composite
def mu_cases(draw):
    """A set, a cube and an exponent in [0, d)."""
    d = draw(st.integers(1, 2))
    E = draw(st.one_of(point_sets(dim=d, max_points=5), small_ifs(d),
                       st.just(CANTOR) if d == 1 else st.nothing()))
    R = draw(dyadic_cubes(dim=d, max_depth=3))
    alpha = draw(st.sampled_from([F(k, 4) for k in range(4 * d)]))
    return E, R, alpha


@settings(max_examples=300, deadline=None)
@given(mu_cases(), st.integers(0, 4), st.sampled_from([0, 1, 2, 3, 4, 36]),
       st.integers(0, 4), st.sampled_from([1, 7, 50, analysis.MU_SPLIT_NODE_CAP]))
def test_mu_enclosure_matches_recursive_reference(case, J, budget, split_budget, cap):
    # the oracles' node cap keeps overlapping random IFS quick at budget 36
    E, R, alpha = case
    with mock.patch.object(sets, "_MAX_NODES", 1000), \
            mock.patch.object(analysis, "MU_SPLIT_NODE_CAP", cap):
        if E.restricted(R).intersect_status(R, budget) is Status.FREE:
            with pytest.raises(RootIsFree):
                mu_enclosure(E, R, alpha, J, budget, split_budget)
            return
        enc = mu_enclosure(E, R, alpha, J, budget, split_budget)
        lower, upper, notes = mu_reference.mu_enclosure(E, R, alpha, J, budget,
                                                        split_budget)
    assert (enc.lower, enc.upper) == (lower, upper)
    assert enc.notes == notes


def test_cell_mass_stops_at_the_first_unbounded_cell(monkeypatch):
    # Cantor's mass diverges at alpha = 1/2 > codim; the leftmost depth-20
    # cell is the first unbounded one, reached after 21 status queries
    calls = []
    status = IFSModel.intersect_status

    def counted(self, q, budget=36):
        calls.append(q)
        return status(self, q, budget)

    monkeypatch.setattr(IFSModel, "intersect_status", counted)
    with pytest.raises(UnresolvedMeasure):
        _cell_mass(CANTOR, ROOT1, F(1, 2), 36, 20)
    assert len(calls) <= 2 * 20 + 1


@pytest.mark.parametrize("alpha", [F(0), F(1, 2)])
@pytest.mark.parametrize("cap", [1, 3, 7, 12, 20])
def test_weighted_carleson_sum_under_a_small_node_cap(monkeypatch, cap, alpha):
    monkeypatch.setattr(analysis, "MU_SPLIT_NODE_CAP", cap)
    J = 6
    fam = enumerate_DE(ORIGIN, ROOT1, J)
    rep = weighted_carleson_sum(ORIGIN, ROOT1, alpha, J, fam)
    assert rep.identity_checked and rep.identity_consistent
    assert rep.denominator.notes.node_capped
    # the mass of [0, 2^-k) is 2^(-k(1-alpha)) / (1-alpha); the members are
    # k = 0..J, and the right side of the identity encloses the same sum
    one_m = 1 - mpmath.mpf(alpha.numerator) / alpha.denominator
    numerator = sum(mpmath.mpf(2) ** (-k * one_m) for k in range(J + 1)) / one_m
    assert mp(rep.numerator_lower) <= numerator <= mp(rep.numerator_upper)
    assert mp(rep.denominator.lower) <= 1 / one_m <= mp(rep.denominator.upper)
    lo_r, hi_r = rep.identity_rhs
    assert mp(lo_r) <= numerator <= mp(hi_r)


def test_weighted_carleson_sum_chain():
    J = 16
    fam = enumerate_DE(ORIGIN, ROOT1, J)
    rep = weighted_carleson_sum(ORIGIN, ROOT1, F(1, 2), J, fam)
    # ratio of geometric mass sums approaches 1/(1 - 2^-1/2)
    target = float(1 / (1 - mpmath.mpf(2) ** mpmath.mpf("-0.5")))
    assert rep.ratio_lower <= target
    assert rep.ratio_upper is None or rep.ratio_upper >= target * 0.7
    assert rep.identity_checked
    assert rep.identity_consistent


def test_weighted_carleson_single_root_family():
    from cubeporos.families import CubeFamily
    fam = CubeFamily.make(ROOT1, [ROOT1], 0)
    rep = weighted_carleson_sum(ORIGIN, ROOT1, F(1, 2), 8, fam)
    assert rep.ratio_lower <= 1 and (rep.ratio_upper is None or 1 <= rep.ratio_upper)


def test_growth_contrast_straddles_codimension():
    # below the codimension the meeting-family ratios settle; above they grow
    lo_small = de_sum(CANTOR, ROOT1, F(1, 5), 8).ratio.hi
    hi_small = de_sum(CANTOR, ROOT1, F(1, 5), 12).ratio.hi
    lo_large = de_sum(CANTOR, ROOT1, F(4, 5), 8).ratio.hi
    hi_large = de_sum(CANTOR, ROOT1, F(4, 5), 12).ratio.hi
    assert hi_small / lo_small < F(3, 2)
    assert hi_large / lo_large > 3


def test_codim_single_point():
    grid = [F(k, 20) for k in range(1, 21)]
    est = codim_estimate(enumerate_DE(ORIGIN, ROOT1, 20), grid, range(2, 21))
    assert abs(est.estimate - 1) <= F(1, 20)
    assert est.multiplicity_ok


def test_codim_cantor():
    grid = [F(k, 50) for k in range(1, 50)]
    est = codim_estimate(enumerate_DE(CANTOR, ROOT1, 14), grid, range(4, 15))
    target = 1 - math.log(2) / math.log(3)
    assert abs(float(est.estimate) - target) <= 0.08
    assert est.multiplicity_ok


def test_codim_saturated_grid_at_low_resolution():
    corners = PointsModel.make([(F(k, 64),) for k in range(64)])
    grid = [F(k, 20) for k in range(1, 21)]
    # nothing is free above depth 6, so with the strict threshold no alpha
    # beyond the first grid step shows a bounded trajectory
    est = codim_estimate(enumerate_DE(corners, ROOT1, 6), grid, [4, 5, 6], tau=F(1, 20))
    assert est.estimate <= F(1, 10)


@given(point_sets(dim=1, max_points=4), st.sampled_from([F(1, 4), F(1, 2), F(3, 4)]))
@settings(max_examples=30, deadline=None)
def test_multiplicity_inequality_random_points(E, alpha):
    if E.intersect_status(ROOT1) is Status.FREE:
        return
    lhs, rhs, ok = parent_multiplicity_margin(enumerate_DE(E, ROOT1, 6), alpha)
    assert ok


def test_multiplicity_inequality_on_cantor():
    DE = enumerate_DE(CANTOR, ROOT1, 10)
    for alpha in (F(1, 4), F(1, 2), F(9, 10)):
        _lhs, _rhs, ok = parent_multiplicity_margin(DE, alpha)
        assert ok
