"""Reference point-set oracles: the linear `Fraction` scan.

These are the oracles `PointsModel` answered with before its Z-order index,
its one-dimensional bisection and its direct per-axis gaps, and `mu_points_exact_1d` as it was before
it read only the points near its cube.  They take a point tuple and a `Box`
(the property tests pass a query cube's `box`) and decide every point with
the box predicates; `points` gives a model's points in that form.  The
property tests require the model to return exactly the same values.
`meeting_cubes` is D_E of a point set from its definition, with no descent:
each point of [0,1)^d lies in exactly one half-open cube per depth.
"""

from fractions import Fraction
from math import floor

from cubeporos.enclosure import RatInterval, pow_enclosure
from cubeporos.lattice import Box, DyadicCube, linf_dist
from cubeporos.sets import Status


def points(E) -> tuple:
    """A point model's points as d-tuples of Fraction, in its row order, or ()
    for no model (the view of a free child)."""
    return () if E is None else tuple(tuple(Fraction(n, E.L) for n in p) for p in E.nums)


def meeting_cubes(points, J) -> set:
    """The cubes of depth 0..J that meet the points: for each point p in
    [0,1)^d and each depth j, the cube (j, floor(p * 2^j))."""
    return {DyadicCube(j, tuple(floor(x * (1 << j)) for x in p))
            for p in points if all(0 <= x < 1 for x in p) for j in range(J + 1)}


def intersect_status(points, box: Box) -> Status:
    if any(box.contains_point(p) for p in points):
        return Status.INTERSECTS
    return Status.FREE


def dist_interval(points, box: Box) -> tuple:
    d = min(linf_dist(box, Box(p, p)) for p in points)
    return (d, d)


def dist_below(points, box: Box, threshold) -> bool:
    # distances are exact, so the threshold query is always decided
    return dist_interval(points, box)[0] < threshold


def restricted(points, box: Box) -> tuple:
    """The points that the restricted model keeps."""
    return tuple(p for p in points if box.contains_point(p))


def misses_interior(points, box: Box) -> bool:
    return not any(all(a < x < b for a, b, x in zip(box.lo, box.hi, p)) for p in points)


def mu_points_exact_1d(points, box: Box, alpha) -> RatInterval | None:
    """The closed-form mass over every point: cuts at all points and
    midpoints in the box, nearest point by a scan per piece."""
    alpha = Fraction(alpha)
    a, b = box.lo[0], box.hi[0]
    if a == b:
        return RatInterval.point(0)
    pts = sorted(p[0] for p in points)
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
        if p <= u:
            hi_part = pow_enclosure(v - p, one_m)
            lo_part = RatInterval.point(0) if p == u else pow_enclosure(u - p, one_m)
        else:
            hi_part = pow_enclosure(p - u, one_m)
            lo_part = RatInterval.point(0) if p == v else pow_enclosure(p - v, one_m)
        total = total + (hi_part - lo_part) * (1 / one_m)
    return RatInterval(max(total.lo, Fraction(0)), total.hi)
