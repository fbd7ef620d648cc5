"""Porosity measurement, weighted cube sums, measure enclosures, codimension.

Sums over cube families reduce to per-level counts because a depth-j cube
contributes 2^(-j(d-alpha)); each such power is carried as a certified
rational enclosure.  Weighted-measure integrals are bracketed from a free
decomposition: free cubes give two-sided distance bounds, cells still
meeting the set are refined and, failing that, honestly reported unbounded.
Every mass reads one depth-first traversal that yields the bounds of each
cell where the refinement stops, summed by one fold whose upper end is None
once any cell's is; a caller that needs a finite mass stops at the first
unbounded cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from .enclosure import RatInterval, frac_str, pow2_enclosure, pow_enclosure
from .errors import AlphaOutOfRange, EmptySetError, RootIsFree
from .families import CubeFamily, check_size, enumerate_DE
from .lattice import DyadicCube, children, contains
from .sets import DEFAULT_BUDGET, PointsModel, SetModel, Status

DEFAULT_SPLIT_BUDGET = 20
DEFAULT_SEARCH_DEPTH = 6  # depth offsets a free-cube search reads below its cube
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
    None when no free cube exists at this resolution.  Iterative deepening:
    one depth-first pass to each depth offset 1..J in turn, skipping every
    cube none of whose bottom descendants precedes the best found, so it
    holds a view per child of the cubes on one path and splits at most about
    twice what a level-order search would; raises FamilyTooLarge past
    MAX_MEMBERS split cubes in all passes.
    """
    local = E.restricted(R)
    if local.intersect_status(R, budget) is Status.FREE:
        return R
    splits = 0
    for bottom in range(R.depth + 1, R.depth + J + 1):
        best, stack = None, [(R, local)]
        while stack:
            q, model = stack.pop()
            shift = bottom - q.depth
            if best is not None and tuple(k << shift for k in q.coords) >= best.coords:
                continue
            splits += 1
            check_size(splits, R, J)
            answers = model.split(q, budget)
            if shift > 1:
                stack.extend((c, view) for c, _st, view in reversed(answers))
                continue
            free = [c for c, _st, view in answers if view is None]
            if free and (best is None or free[0] < best):
                best = free[0]
        if best is not None:
            return best
    return None


def first_free(table: dict, q: DyadicCube,
               skip: DyadicCube | None = None) -> DyadicCube | None:
    """The first, in canonical order, of the free cubes offered by q's children
    other than `skip`, or None: a child that is no key of the free-cube
    `table` (no member) offers itself, a member child its entry."""
    return min((m for m in (table.get(c, c) for c in children(q) if c != skip)
                if m is not None), default=None)


def free_cube_table(E: SetModel, DE: CubeFamily, search_depth: int,
                    budget: int = DEFAULT_BUDGET) -> dict:
    """largest_free_cube(E, q, search_depth, budget) for every member q of a
    meeting family enumerated with the same budget, in one bottom-up pass.

    A member at the family's bottom depth is searched directly.  Any other
    member takes `first_free` of its children, or None when that lies deeper
    than its own window.  Exact: the order is depth first, and a search that
    finds nothing in a child's window finds nothing in its parent's window
    either.
    """
    bottom = DE.root.depth + DE.J
    table = {}
    for q in reversed(DE.members):  # deepest first
        if q.depth == bottom:
            table[q] = largest_free_cube(E, q, search_depth, budget)
            continue
        m = first_free(table, q)
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
        ratio = Fraction(1 << q.dim * (m.depth - q.depth))
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
    residual_bound: RatInterval   # depth-J member count * (side at depth J)^(d-alpha)
    normalizer: RatInterval       # |root|^(1-alpha/d)
    ratio: RatInterval            # value / normalizer


def _check_alpha(alpha, d, allow_d: bool) -> Fraction:
    alpha = Fraction(alpha)
    top_ok = alpha <= d if allow_d else alpha < d
    if alpha < 0 or not top_ok:
        raise AlphaOutOfRange(f"alpha={alpha} outside [0, {d}{']' if allow_d else ')'}")
    return alpha


def _powers(R: DyadicCube, alpha: Fraction, J: int) -> list:
    # volume^(1-alpha/d) = 2^(-j(d-alpha)) of a depth-j cube, j = R.depth .. R.depth + J
    return [pow2_enclosure(-j * (R.dim - alpha)) for j in range(R.depth, R.depth + J + 1)]


def _prefix_sums(powers: list, R: DyadicCube, counts: dict) -> list:
    """Running sums of powers[i] * counts[R.depth + i], one per entry."""
    return list(accumulate(w * counts.get(R.depth + i, 0) for i, w in enumerate(powers)))


def _free_counts(DE: CubeFamily, J: int) -> dict:
    """Free cubes per depth below the root of a meeting family, offsets 1..J.

    Every child of a member above the bottom depth is a member or free, so
    2^d * n(l-1) - n(l) of the depth-l children are free.
    """
    R, n = DE.root, DE.level_counts()
    if not n:
        raise RootIsFree(R)
    free = {level: (n.get(level - 1, 0) << R.dim) - n.get(level, 0)
            for level in range(R.depth + 1, R.depth + J + 1)}
    return {level: c for level, c in free.items() if c}


def _sum_reports(DE: CubeFamily, alpha_grid, J_list, counts: dict) -> list:
    """One SumReport per (alpha, J): the power sum over the per-depth `counts`
    to depth root + J, with the family's member count there as residual."""
    R, n = DE.root, DE.level_counts()
    reports = []
    for alpha in alpha_grid:
        powers = _powers(R, alpha, max(J_list))
        sums = _prefix_sums(powers, R, counts)
        for J in J_list:
            residual = powers[J] * n.get(R.depth + J, 0)
            reports.append(SumReport(alpha, R, J, sums[J], residual, powers[0],
                                     sums[J] / powers[0]))
    return reports


def dynkin_sum(E: SetModel, R: DyadicCube, alpha, J: int,
               budget: int = DEFAULT_BUDGET) -> SumReport:
    """Sum of |Q'|^(1-alpha/d) over the maximal free cubes below R, to depth J.

    Bounded trajectories of this sum in J characterize porosity; the residual
    bound records the same power-weight mass of the unresolved depth-J cells.
    """
    return dynkin_sweep(enumerate_DE(E, R, J, budget), [alpha], [J])[0]


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

    def to_json(self):
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


def _mu_cells(E, R, alpha, levels, budget, notes=None):
    """The one mass traversal: (cell, free, lower, upper) for every cell of R
    where the refinement stops, depth first in canonical order.

    A cell meeting E is refined while `levels` allow and the refined cells
    stay under `MU_SPLIT_NODE_CAP`.  A stopped cell's lower bound comes from
    its distance interval when it is free and is 0 otherwise; its upper bound
    is the point bound of a free cell at a positive distance, else the d = 1
    boundary layer bound when E misses its open interior, else None.  A
    cell's status and view come from its parent's split, made when the
    parent is refined.  `notes`, when given, counts the refined and stopped
    cells.
    """
    notes = MuNotes() if notes is None else notes
    local = E.restricted(R)
    stack = [(R, local.intersect_status(R, budget), local, levels, False)]
    while stack:
        cube, st, local, left, parent_meets = stack.pop()
        free = st is Status.FREE
        if not free and left > 0 and notes.refined_cells < MU_SPLIT_NODE_CAP:
            notes.refined_cells += 1
            # an undetermined cell may miss E: only a certified meet caps the
            # children's distances at 2*side
            meets = st is Status.INTERSECTS
            stack.extend((c, status, view, left - 1, meets)
                         for c, status, view in reversed(local.split(cube, budget)))
            continue
        vol = cube.volume
        if alpha == 0 and (free or left == 0):
            # weight is identically 1: the cell's mass is |cell|, or in [0, |cell|]
            yield cube, free, vol if free else _ZERO, vol
            continue
        notes.node_capped = notes.node_capped or (not free and left > 0)
        lower = lo_d = _ZERO
        if free:
            lo_d, hi_d = E.dist_interval(cube, budget)
            up = hi_d + cube.side
            if parent_meets:
                # a point of E lies in the parent, at most 2*side away in l-inf
                up = min(up, 2 * cube.side)
            lower = vol * pow_enclosure(up, -alpha).lo
        if lo_d > 0:
            notes.point_bound_cells += 1
            upper = vol * pow_enclosure(lo_d, -alpha).hi
        elif cube.dim == 1 and alpha < 1 and (free or local.misses_interior(cube, budget)):
            notes.boundary_layer_cells += 1
            upper = _boundary_layer_upper(cube.side, alpha)
        else:
            notes.unresolved_cells.append(cube)
            upper = None
        yield cube, free, lower, upper


def _fold(bounds):
    """Sum of (lower, upper) bounds; the upper end is None once any is."""
    lower = upper = _ZERO
    for lo, up in bounds:
        lower += lo
        upper = None if upper is None or up is None else upper + up
    return lower, upper


def _mu_checks(E, R, alpha, budget) -> Fraction:
    alpha = _check_alpha(alpha, R.dim, allow_d=False)
    if E.is_empty:
        raise EmptySetError("weighted measure against an empty set")
    if E.restricted(R).intersect_status(R, budget) is Status.FREE:
        raise RootIsFree(R)
    return alpha


def mu_enclosure(E: SetModel, R: DyadicCube, alpha, J: int,
                 budget: int = DEFAULT_BUDGET,
                 split_budget: int = DEFAULT_SPLIT_BUDGET) -> MeasureEnclosure:
    """Two-sided enclosure of the weighted mass of R, from a free decomposition.

    Free cells are bounded through their distance intervals; cells still
    meeting E at depth J are refined for up to `split_budget` extra levels.
    A cell that stays unresolved makes the upper end None rather than a
    fabricated constant.
    """
    alpha = _mu_checks(E, R, alpha, budget)
    notes = MuNotes()
    lower, upper = _fold(cell[2:] for cell in _mu_cells(E, R, alpha, J + split_budget,
                                                        budget, notes))
    return MeasureEnclosure(alpha, R, J, split_budget, lower, upper, notes)


def mu_points_exact_1d(E: PointsModel, q: DyadicCube, alpha) -> RatInterval | None:
    """Sharp certified mass of a 1-d cube against a finite point set.

    The distance function is piecewise linear with breakpoints at the points
    and their midpoints, so the integral has a closed form per piece; only the
    points in the cube and the nearest one beyond each end take part.
    Supports 0 <= alpha < 1 (the full range in one dimension); returns None
    for larger exponents, where the one-sided antiderivative changes shape.
    """
    alpha = Fraction(alpha)
    a = q.lower_corner[0]
    b = a + q.side
    if alpha == 0:
        return RatInterval.point(b - a)
    if alpha >= 1:
        return None
    pts = [Fraction(n, E.L) for (n,) in E.around(q)]
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


def weighted_carleson_sum(E: SetModel, R: DyadicCube, alpha, J: int,
                          family: CubeFamily,
                          budget: int = DEFAULT_BUDGET,
                          split_budget: int = DEFAULT_SPLIT_BUDGET) -> WeightedCarlesonReport:
    """Enclosure of (sum of member masses) / (mass of R) for a cube family.

    When the family is exactly the E-meeting family of R, the result is
    cross-checked against the depth-weighted free-cube identity: each free
    cube's mass is counted once per meeting ancestor, residual cells J+1 times.
    The denominator and the identity's right side read one traversal of R.
    """
    alpha = _mu_checks(E, R, alpha, budget)
    for q in family.members:
        if not contains(R, q):
            raise ValueError(f"family member {q} is not inside {R}")
        if q.depth > R.depth + J:
            raise ValueError(f"family member {q} deeper than truncation depth")
        if E.intersect_status(q, budget) is Status.FREE:
            raise ValueError(f"family member {q} does not meet the set")
    num_lo, num_hi = _fold(
        (enc.lower, enc.upper) for enc in
        (mu_enclosure(E, q, alpha, R.depth + J - q.depth, budget, split_budget)
         for q in family.members))
    notes = MuNotes()
    cells = list(_mu_cells(E, R, alpha, J + split_budget, budget, notes))
    den = MeasureEnclosure(alpha, R, J, split_budget,
                           *_fold(cell[2:] for cell in cells), notes)
    ratio_lo = num_lo / den.upper if den.upper is not None else _ZERO
    ratio_hi = None if (num_hi is None or den.lower == 0) else num_hi / den.lower

    DE = enumerate_DE(E, R, J, budget)
    checked = set(family.members) == set(DE.members)
    consistent = None
    lhs = rhs = None
    if checked:
        def weighted(q, free, lower, upper):
            # a free cell at offset k <= J lies in its k meeting ancestors;
            # any other point of R lies in at most J+1 members, and a cell
            # that is not free has lower bound 0
            k = q.depth - R.depth
            w = k if free and k <= J else J + 1
            return lower * w, None if upper is None else upper * w
        lhs = (num_lo, num_hi)
        rhs = _fold(weighted(*cell) for cell in cells)
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
    reports: tuple              # the sweep's SumReports, in dynkin_sweep's order

    def to_json(self):
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
    powers = _powers(DE.root, alpha, DE.J)
    lhs = _prefix_sums(powers, DE.root, DE.level_counts())[-1]
    parents = {level - 1: n for level, n in _free_counts(DE, DE.J).items()}
    rhs = _prefix_sums(powers, DE.root, parents)[-1] * Fraction(1, 1 << d)
    return lhs, rhs, lhs.lo >= rhs.hi


def codim_estimate(DE: CubeFamily, alpha_grid, J_list, tau=None) -> CodimEstimate:
    """Largest grid alpha whose free-cube sum trajectories stay bounded in J.

    `DE` is a meeting family enumerated to at least the largest J; the
    multiplicity check reads it to its truncation.

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
    d = DE.root.dim
    Jmax = max(J_list)
    tau = math.log((Jmax + 1) / Jmax) if tau is None else float(tau)
    # the multiplicity check probes the largest grid alpha below d
    probe = max((a for a in alpha_grid if a < d), default=alpha_grid[0])
    # resolved plus unresolved mass over the root weight; the residual term is
    # per-level, so its growth reflects box-count scaling without the lag of
    # a cumulative sum
    reports = tuple(dynkin_sweep(DE, alpha_grid, J_list))
    totals = {(r.alpha, r.J): (r.value + r.residual_bound) / r.normalizer
              for r in reports}
    mult_ok = parent_multiplicity_margin(DE, probe)[2]

    trajectories = {}
    increments = {}
    bounded = {}
    for a in alpha_grid:
        traj = [(J, totals[(a, J)]) for J in J_list]
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
                         trajectories, increments, bounded, mult_ok, reports)
