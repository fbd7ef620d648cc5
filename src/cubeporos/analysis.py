"""Porosity measurement, weighted cube sums, measure enclosures, codimension.

Sums over cube families reduce to per-level counts because a depth-j cube
contributes 2^(-j(d-alpha)); each such power is carried as a certified
rational enclosure.  Weighted-measure integrals are bracketed from a free
decomposition: free cubes give two-sided distance bounds, cells still
meeting the set are refined and, failing that, honestly reported unbounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .enclosure import RatInterval, pow2_enclosure, pow_enclosure, sum_intervals
from .errors import AlphaOutOfRange, EmptySetError, RootIsFree
from .families import CubeFamily, enumerate_DE, free_split
from .lattice import Box, DyadicCube, children, contains, cube_order_key, parent
from .sets import DEFAULT_BUDGET, PointsModel, SetModel, Status

DEFAULT_SPLIT_BUDGET = 20
MU_SPLIT_NODE_CAP = 4_000  # meeting cells a single enclosure may refine

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# porosity

@dataclass(frozen=True)
class PorosityRecord:
    cube: DyadicCube
    free_cube: DyadicCube | None
    ratio: Fraction | None  # |R| / |M(R)| when a free cube was found


@dataclass(frozen=True)
class PorosityReport:
    records: tuple
    eta_hat: Fraction | None   # sup of ratios over the scanned cubes
    absent: tuple              # cubes with no free descendant within J
    depth: int
    J: int

    def to_json(self):
        from .enclosure import frac_str
        return {
            "depth": self.depth, "J": self.J,
            "eta_hat": frac_str(self.eta_hat) if self.eta_hat is not None else None,
            "absent": [q.to_json() for q in self.absent],
            "records": [{"cube": r.cube.to_json(),
                         "free": r.free_cube.to_json() if r.free_cube else None,
                         "ratio": frac_str(r.ratio) if r.ratio else None}
                        for r in self.records],
        }


def largest_free_cube(E: SetModel, R: DyadicCube, J: int,
                      budget: int = DEFAULT_BUDGET) -> DyadicCube | None:
    """Largest certified-free dyadic descendant of R within depth offset J.

    Ties are broken by canonical cube order (smallest corner first).  Returns
    None when no free cube exists at this resolution.
    """
    local = E.restricted(R.box)
    if local.intersect_status(R.box, budget) is Status.FREE:
        return R
    frontier = [(R, local)]
    for _ in range(J):
        best = None
        nxt = []
        for q, model in frontier:
            for c in children(q):
                sub = model.restricted(c.box)
                if sub.intersect_status(c.box, budget) is Status.FREE:
                    if best is None or cube_order_key(c) < cube_order_key(best):
                        best = c
                else:
                    nxt.append((c, sub))
        if best is not None:
            return best
        frontier = nxt
    return None


def free_cube_table(E: SetModel, DE: CubeFamily, search_depth: int,
                    budget: int = DEFAULT_BUDGET) -> dict:
    """largest_free_cube(E, q, search_depth, budget) for every member q of a
    meeting family enumerated with the same budget, in one bottom-up pass.

    A member at the family's bottom depth is searched directly.  Any other
    member takes the first, in canonical order, of its free children (its
    non-member children) and its member children's entries, or None when
    that lies deeper than its own window.  Exact: the order is depth first,
    and a search that finds nothing in a child's window finds nothing in its
    parent's window either.
    """
    bottom = DE.root.depth + DE.J
    table = {}
    for q in reversed(DE.members):  # deepest first
        if q.depth == bottom:
            table[q] = largest_free_cube(E, q, search_depth, budget)
            continue
        picks = [table[c] if c in DE else c for c in children(q)]
        m = min((p for p in picks if p is not None), key=cube_order_key, default=None)
        table[q] = m if m is not None and m.depth <= q.depth + search_depth else None
    return table


def porosity_scan(E: SetModel, depth: int, J: int,
                  budget: int = DEFAULT_BUDGET) -> PorosityReport:
    """Apply the largest-free-cube search to every E-meeting cube up to `depth`.

    Exhaustive rather than sampled: the porosity definition quantifies over
    all cubes, so we check all of them at the given resolution.  The searches
    are read from one free-cube table of the enumerated family.
    """
    root = DyadicCube.root(E.dim)
    family = enumerate_DE(E, root, depth, budget)
    table = free_cube_table(E, family, J, budget)
    records = []
    absent = []
    eta_hat = None
    for q in family.members:
        m = table[q]
        if m is None:
            absent.append(q)
            records.append(PorosityRecord(q, None, None))
            continue
        ratio = q.volume / m.volume
        records.append(PorosityRecord(q, m, ratio))
        if eta_hat is None or ratio > eta_hat:
            eta_hat = ratio
    return PorosityReport(tuple(records), eta_hat, tuple(absent), depth, J)


# ---------------------------------------------------------------------------
# weighted cube sums

@dataclass(frozen=True)
class SumReport:
    alpha: Fraction
    root: DyadicCube
    J: int
    value: RatInterval            # exact finite-depth sum, certified enclosure
    residual_count: int
    residual_bound: RatInterval   # count * (side at depth J)^(d-alpha)
    normalizer: RatInterval       # |root|^(1-alpha/d)
    ratio: RatInterval            # value / normalizer

    def to_json(self):
        from .enclosure import frac_str
        return {"alpha": frac_str(self.alpha), "root": self.root.to_json(),
                "J": self.J, "value": self.value.to_json(),
                "residual_count": self.residual_count,
                "residual_bound": self.residual_bound.to_json(),
                "normalizer": self.normalizer.to_json(),
                "ratio": self.ratio.to_json()}


def _check_alpha(alpha, d, allow_d: bool) -> Fraction:
    alpha = Fraction(alpha)
    top_ok = alpha <= d if allow_d else alpha < d
    if alpha < 0 or not top_ok:
        raise AlphaOutOfRange(f"alpha={alpha} outside [0, {d}{']' if allow_d else ')'}")
    return alpha


def _level_term(level: int, d: int, alpha: Fraction) -> RatInterval:
    # volume^(1-alpha/d) of a depth-`level` cube = 2^(-level*(d-alpha))
    return pow2_enclosure(-level * (d - alpha))


def _sum_from_level_counts(counts: dict, d: int, alpha: Fraction) -> RatInterval:
    parts = [_level_term(level, d, alpha) * n for level, n in sorted(counts.items())]
    return sum_intervals(parts) if parts else RatInterval.point(0)


def _sum_report(alpha, root, J, counts, residual_count) -> SumReport:
    d = root.dim
    value = _sum_from_level_counts(counts, d, alpha)
    residual_bound = _level_term(root.depth + J, d, alpha) * residual_count
    normalizer = _level_term(root.depth, d, alpha)
    return SumReport(alpha, root, J, value, residual_count, residual_bound,
                     normalizer, value / normalizer)


def _free_counts(DE: CubeFamily, J: int) -> dict:
    """Free cubes per depth below the root of a meeting family, offsets 1..J.

    Every child of a member above the bottom depth is a member or free, so
    2^d * n(l-1) - n(l) of the depth-l children are free.
    """
    R, n = DE.root, DE.level_counts()
    if not n:
        raise RootIsFree(f"{R} does not meet the set; no decomposition")
    free = {level: (n.get(level - 1, 0) << R.dim) - n.get(level, 0)
            for level in range(R.depth + 1, R.depth + J + 1)}
    return {level: c for level, c in free.items() if c}


def _sum_reports(DE: CubeFamily, alpha_grid, J_list, counts: dict) -> list:
    """One SumReport per (alpha, J): the power sum over the per-depth `counts`
    to depth root + J, with the family's member count there as residual."""
    R, n = DE.root, DE.level_counts()
    return [_sum_report(alpha, R, J, {lvl: c for lvl, c in counts.items()
                                      if lvl <= R.depth + J}, n.get(R.depth + J, 0))
            for alpha in alpha_grid for J in J_list]


def dynkin_sum(E: SetModel, R: DyadicCube, alpha, J: int,
               budget: int = DEFAULT_BUDGET) -> SumReport:
    """Sum of |Q'|^(1-alpha/d) over the maximal free cubes below R, to depth J.

    Bounded trajectories of this sum in J characterize porosity; the residual
    bound records the same power-weight mass of the unresolved depth-J cells.
    """
    alpha = _check_alpha(alpha, R.dim, allow_d=True)
    DE = enumerate_DE(E, R, J, budget)
    return _sum_reports(DE, [alpha], [J], _free_counts(DE, J))[0]


def de_sum(E: SetModel, R: DyadicCube, alpha, J: int,
           budget: int = DEFAULT_BUDGET) -> SumReport:
    """Sum of |Q|^(1-alpha/d) over the E-meeting cubes below R, to depth J."""
    alpha = _check_alpha(alpha, R.dim, allow_d=True)
    DE = enumerate_DE(E, R, J, budget)
    return _sum_reports(DE, [alpha], [J], DE.level_counts())[0]


def dynkin_sweep(DE: CubeFamily, alpha_grid, J_list) -> list:
    """Free-cube sum reports for a whole (alpha, J) grid from a meeting family.

    Equivalent to calling dynkin_sum per pair on the family's set and root;
    every J must be at most the family's truncation depth.
    """
    J_list = sorted(set(int(J) for J in J_list))
    alpha_grid = [_check_alpha(a, DE.root.dim, allow_d=True) for a in alpha_grid]
    if J_list[-1] > DE.J:
        raise ValueError(f"depth {J_list[-1]} beyond the family's truncation {DE.J}")
    return _sum_reports(DE, alpha_grid, J_list, _free_counts(DE, J_list[-1]))


# ---------------------------------------------------------------------------
# weighted measure mu(R) = integral over R of dist(x, E)^(-alpha) dx

@dataclass
class MuNotes:
    point_bound_cells: int = 0
    boundary_layer_cells: int = 0
    unresolved_cells: list = field(default_factory=list)
    refined_cells: int = 0
    node_capped: bool = False


@dataclass(frozen=True)
class MeasureEnclosure:
    alpha: Fraction
    root: DyadicCube
    J: int
    split_budget: int
    lower: Fraction
    upper: Fraction | None     # None means no finite certified upper bound
    notes: MuNotes

    @property
    def bounded(self) -> bool:
        return self.upper is not None

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lower <= x and (self.upper is None or x <= self.upper)

    def to_json(self):
        from .enclosure import frac_str
        return {"alpha": frac_str(self.alpha), "root": self.root.to_json(),
                "J": self.J, "split_budget": self.split_budget,
                "lower": frac_str(self.lower),
                "upper": frac_str(self.upper) if self.upper is not None else None,
                "cells": {"point_bound": self.notes.point_bound_cells,
                          "boundary_layer": self.notes.boundary_layer_cells,
                          "refined": self.notes.refined_cells,
                          "unresolved": len(self.notes.unresolved_cells),
                          "node_capped": self.notes.node_capped}}


def _boundary_layer_upper(side: Fraction, alpha: Fraction) -> Fraction:
    # d=1 only: integral over the cell of dist(x, cell boundary)^(-alpha)
    # = 2 (side/2)^(1-alpha) / (1-alpha); valid once E misses the open interior.
    return 2 * pow_enclosure(side / 2, 1 - alpha).hi / (1 - alpha)


def _free_cell_bounds(E, cube, alpha, parent_meets, budget, notes):
    d = cube.dim
    vol = cube.volume
    if alpha == 0:
        return vol, vol
    lo_d, hi_d = E.dist_interval(cube.box, budget)
    up = hi_d + cube.side
    if parent_meets:
        # a point of E lies in the parent, at most 2*side away in l-inf
        up = min(up, 2 * cube.side)
    lower = vol * pow_enclosure(up, -alpha).lo
    if parent_meets:
        # keep the lower bound never worse than volume * (2*side)^(-alpha)
        floor_term = vol * pow2_enclosure(-alpha * (cube.depth + 1)).lo
        if floor_term > lower:
            lower = floor_term
    if lo_d > 0:
        notes.point_bound_cells += 1
        return lower, vol * pow_enclosure(lo_d, -alpha).hi
    if d == 1 and alpha < 1:
        notes.boundary_layer_cells += 1
        return lower, _boundary_layer_upper(cube.side, alpha)
    notes.unresolved_cells.append(cube)
    return lower, None


def _mu_cell(E, local, cube, alpha, levels_left, parent_meets, budget, notes):
    st = local.intersect_status(cube.box, budget)
    if st is Status.FREE:
        return _free_cell_bounds(E, cube, alpha, parent_meets, budget, notes)
    if alpha == 0:
        # weight is identically 1: a meeting cell contributes [0, |cell|]
        if levels_left == 0:
            return _ZERO, cube.volume
    if levels_left > 0 and notes.refined_cells < MU_SPLIT_NODE_CAP:
        notes.refined_cells += 1
        lower = _ZERO
        upper = _ZERO
        # an undetermined cell may miss E: only a certified meet caps the
        # children's distances at 2*side
        meets = st is Status.INTERSECTS
        for c in children(cube):
            sub = local.restricted(c.box)
            l, u = _mu_cell(E, sub, c, alpha, levels_left - 1, meets, budget, notes)
            lower += l
            upper = None if (upper is None or u is None) else upper + u
        return lower, upper
    if levels_left > 0:
        notes.node_capped = True
    # terminal cell still meeting E
    if cube.dim == 1 and alpha < 1 and E.misses_interior(cube.box, budget):
        notes.boundary_layer_cells += 1
        return _ZERO, _boundary_layer_upper(cube.side, alpha)
    notes.unresolved_cells.append(cube)
    return _ZERO, None


def mu_enclosure(E: SetModel, R: DyadicCube, alpha, J: int,
                 budget: int = DEFAULT_BUDGET,
                 split_budget: int = DEFAULT_SPLIT_BUDGET) -> MeasureEnclosure:
    """Two-sided enclosure of the weighted mass of R, from a free decomposition.

    Free cells are bounded through their distance intervals; cells still
    meeting E at depth J are refined for up to `split_budget` extra levels.
    A cell that stays unresolved makes the upper end None rather than a
    fabricated constant.
    """
    alpha = _check_alpha(alpha, R.dim, allow_d=False)
    if E.is_empty:
        raise EmptySetError("weighted measure against an empty set")
    local = E.restricted(R.box)
    if local.intersect_status(R.box, budget) is Status.FREE:
        raise RootIsFree(f"{R} does not meet the set")
    notes = MuNotes()
    lower, upper = _mu_cell(E, local, R, alpha, J + split_budget, False,
                            budget, notes)
    return MeasureEnclosure(alpha, R, J, split_budget, lower, upper, notes)


def mu_points_exact_1d(E: PointsModel, box: Box, alpha) -> RatInterval | None:
    """Sharp certified mass of a 1-d box against a finite point set.

    The distance function is piecewise linear with breakpoints at the points
    and their midpoints, so the integral has a closed form per piece.
    Supports 0 <= alpha < 1 (the full range in one dimension); returns None
    for larger exponents, where the one-sided antiderivative changes shape.
    """
    alpha = Fraction(alpha)
    a, b = box.lo[0], box.hi[0]
    if a == b:
        return RatInterval.point(0)
    pts = sorted(p[0] for p in E.points)
    if alpha == 0:
        return RatInterval.point(b - a)
    if alpha >= 1:
        return None
    cuts = {a, b}
    for p in pts:
        if a < p < b:
            cuts.add(p)
    for p, q in zip(pts, pts[1:]):
        mid = (p + q) / 2
        if a < mid < b:
            cuts.add(mid)
    cuts = sorted(cuts)
    one_m = 1 - alpha
    total = RatInterval.point(0)
    for u, v in zip(cuts, cuts[1:]):
        mid = (u + v) / 2
        p = min(pts, key=lambda t: abs(t - mid))
        # integral of |x-p|^(-alpha) over [u, v]; p never lies strictly inside
        if p <= u:
            hi_part = pow_enclosure(v - p, one_m)
            lo_part = RatInterval.point(0) if p == u else pow_enclosure(u - p, one_m)
        else:  # p >= v
            hi_part = pow_enclosure(p - u, one_m)
            lo_part = RatInterval.point(0) if p == v else pow_enclosure(p - v, one_m)
        total = total + (hi_part - lo_part) * (1 / one_m)
    return RatInterval(max(total.lo, _ZERO), total.hi)


# ---------------------------------------------------------------------------
# weighted Carleson sum over a family

@dataclass(frozen=True)
class WeightedCarlesonReport:
    numerator_lower: Fraction
    numerator_upper: Fraction | None
    denominator: MeasureEnclosure
    ratio_lower: Fraction
    ratio_upper: Fraction | None
    identity_checked: bool
    identity_consistent: bool | None
    identity_lhs: tuple | None   # (lower, upper-or-None)
    identity_rhs: tuple | None

    def ratio_contains(self, x) -> bool:
        x = Fraction(x)
        return self.ratio_lower <= x and (self.ratio_upper is None or x <= self.ratio_upper)


def _mu_decomposition_terms(E, DE, alpha, budget, split_budget):
    """Per-free-cube mass bounds plus residual-cell bounds of a meeting family."""
    free, residual = free_split(DE)
    entries = []
    notes = MuNotes()
    parent_meets = {}  # parent cube -> E certified to meet it
    for q in free:
        p = parent(q)
        if p not in parent_meets:
            parent_meets[p] = E.intersect_status(p.box, budget) is Status.INTERSECTS
        lower, upper = _free_cell_bounds(E, q, alpha, parent_meets[p], budget, notes)
        entries.append((q, lower, upper, True))
    for q in residual:
        # a residual cell meets E or is undetermined, so it is never bounded
        # as a free cell and needs no parent flag
        local = E.restricted(q.box)
        lower, upper = _mu_cell(E, local, q, alpha, split_budget, False, budget, notes)
        entries.append((q, lower, upper, False))
    return entries


def weighted_carleson_sum(E: SetModel, R: DyadicCube, alpha, J: int,
                          family: CubeFamily,
                          budget: int = DEFAULT_BUDGET,
                          split_budget: int = DEFAULT_SPLIT_BUDGET) -> WeightedCarlesonReport:
    """Enclosure of (sum of member masses) / (mass of R) for a cube family.

    When the family is exactly the E-meeting family of R, the result is
    cross-checked against the depth-weighted free-cube identity: each free
    cube's mass is counted once per meeting ancestor, residual cells J+1 times.
    """
    alpha = _check_alpha(alpha, R.dim, allow_d=False)
    for q in family.members:
        if not contains(R, q):
            raise ValueError(f"family member {q} is not inside {R}")
        if q.depth > R.depth + J:
            raise ValueError(f"family member {q} deeper than truncation depth")
        if E.intersect_status(q.box, budget) is Status.FREE:
            raise ValueError(f"family member {q} does not meet the set")
    num_lo = _ZERO
    num_hi = _ZERO
    for q in family.members:
        enc = mu_enclosure(E, q, alpha, R.depth + J - q.depth, budget, split_budget)
        num_lo += enc.lower
        num_hi = None if (num_hi is None or enc.upper is None) else num_hi + enc.upper
    den = mu_enclosure(E, R, alpha, J, budget, split_budget)
    ratio_lo = num_lo / den.upper if den.upper is not None else _ZERO
    ratio_hi = None if (num_hi is None or den.lower == 0) else num_hi / den.lower

    DE = enumerate_DE(E, R, J, budget)
    checked = set(family.members) == set(DE.members)
    consistent = None
    lhs = rhs = None
    if checked:
        entries = _mu_decomposition_terms(E, DE, alpha, budget, split_budget)
        rhs_lo = _ZERO
        rhs_hi = _ZERO
        for q, lower, upper, is_free in entries:
            weight = (q.depth - R.depth) if is_free else (J + 1)
            rhs_lo += lower * weight
            rhs_hi = None if (rhs_hi is None or upper is None) else rhs_hi + upper * weight
        lhs = (num_lo, num_hi)
        rhs = (rhs_lo, rhs_hi)
        lo_l, hi_l = lhs
        lo_r, hi_r = rhs
        consistent = (hi_l is None or lo_r <= hi_l) and (hi_r is None or lo_l <= hi_r)
    return WeightedCarlesonReport(num_lo, num_hi, den, ratio_lo, ratio_hi,
                                  checked, consistent, lhs, rhs)


# ---------------------------------------------------------------------------
# Aikawa-Assouad codimension estimate

@dataclass(frozen=True)
class CodimEstimate:
    alpha_grid: tuple
    J_list: tuple
    tau: float
    estimate: Fraction
    trajectories: dict          # alpha -> tuple of (J, total ratio RatInterval)
    increments: dict            # alpha -> final per-J log increment (float) or None
    bounded: dict               # alpha -> bool
    multiplicity_ok: bool

    def to_json(self):
        from .enclosure import frac_str
        return {
            "alpha_grid": [frac_str(a) for a in self.alpha_grid],
            "J_list": list(self.J_list),
            "tau": repr(self.tau),
            "estimate": frac_str(self.estimate),
            "bounded": {frac_str(a): self.bounded[a] for a in self.alpha_grid},
            "increments": {frac_str(a): self.increments[a] for a in self.alpha_grid},
            "trajectories": {frac_str(a): [[J, r.to_json()[0], r.to_json()[1]]
                                           for J, r in self.trajectories[a]]
                             for a in self.alpha_grid},
            "multiplicity_ok": self.multiplicity_ok,
        }


def parent_multiplicity_margin(DE: CubeFamily, alpha):
    """Certified check, over a meeting family to its truncation depth, of:
    sum over meeting cubes >= 2^-d sum of parent weights over the resolved
    free cubes.  Returns (lhs, rhs, ok)."""
    d = DE.root.dim
    alpha = _check_alpha(alpha, d, allow_d=True)
    lhs = _sum_from_level_counts(DE.level_counts(), d, alpha)
    parents = {level - 1: n for level, n in _free_counts(DE, DE.J).items()}
    rhs = _sum_from_level_counts(parents, d, alpha) * Fraction(1, 1 << d)
    return lhs, rhs, lhs.lo >= rhs.hi


def codim_estimate(families, alpha_grid, J_list, tau=None) -> CodimEstimate:
    """Largest grid alpha whose free-cube sum trajectories stay bounded in J.

    `families` holds one meeting family per root, each enumerated to at
    least the largest J; the multiplicity check reads each to its truncation.

    The trajectory at each J is the residual-inclusive ratio: resolved
    free-cube mass plus the depth-J residual bound, over the root weight.
    "Bounded" means the natural-log increment between the last two J entries,
    normalized per unit J, stays below tau.  The default tau is
    log((Jmax+1)/Jmax): exactly the growth rate a log-divergent trajectory
    (the codimension boundary case) shows at the tested truncation depth, so
    strictly-boundary alphas classify as unbounded.  A trajectory that is
    still zero at the largest J is likewise unbounded: absence of resolved
    free cubes is no evidence of porosity.
    """
    alpha_grid = sorted(Fraction(a) for a in alpha_grid)
    J_list = sorted(set(int(J) for J in J_list))
    if len(J_list) < 2:
        raise ValueError("need at least two depths to measure growth")
    families = list(families)
    if not families:
        raise ValueError("need at least one meeting family")
    d = families[0].root.dim
    Jmax = max(J_list)
    tau = math.log((Jmax + 1) / Jmax) if tau is None else float(tau)
    # the multiplicity check probes the largest grid alpha below d
    probe = max((a for a in alpha_grid if a < d), default=alpha_grid[0])
    mult_ok = True
    # resolved plus unresolved mass over the root weight; the residual term is
    # per-level, so its growth reflects box-count scaling without the lag of
    # a cumulative sum
    per_root_totals = []
    for DE in families:
        reports = dynkin_sweep(DE, alpha_grid, J_list)
        per_root_totals.append({(r.alpha, r.J): (r.value + r.residual_bound) / r.normalizer
                                for r in reports})
        mult_ok = parent_multiplicity_margin(DE, probe)[2] and mult_ok

    trajectories = {}
    increments = {}
    bounded = {}
    for a in alpha_grid:
        traj = [(J, max((totals[(a, J)] for totals in per_root_totals),
                        key=lambda r: r.hi))
                for J in J_list]
        trajectories[a] = tuple(traj)
        (J1, r1), (J2, r2) = traj[-2], traj[-1]
        if r2.hi == 0 or r1.hi == 0:
            increments[a] = None
            bounded[a] = False
            continue
        inc = (math.log(float(r2.hi)) - math.log(float(r1.hi))) / (J2 - J1)
        increments[a] = inc
        bounded[a] = inc < tau

    estimate = _ZERO
    for a in alpha_grid:
        if bounded[a] and a > estimate:
            estimate = a

    return CodimEstimate(tuple(alpha_grid), tuple(J_list), tau, estimate,
                         trajectories, increments, bounded, mult_ok)
