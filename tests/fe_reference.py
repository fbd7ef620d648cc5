"""Reference free decomposition: the two-loop descent of the old `enumerate_FE`.

The library reads its free cubes from the meeting family and its power sums
from that family's per-depth counts.  This module keeps the direct walk
instead: the first loop descends through the cubes the set may meet and
records every child it certifiably misses as a free cube, the second gives
each free cube its distance interval.  The sums below add one power per cube,
so they share no counting identity with the library.
"""

from fractions import Fraction
from functools import lru_cache

from cubeporos.analysis import SumReport
from cubeporos.enclosure import pow2_enclosure, sum_intervals
from cubeporos.errors import RootIsFree
from cubeporos.lattice import children
from cubeporos.sets import Status


def free_decomposition(E, R, J, budget):
    """(free cubes with distance intervals, residual, meeting cubes) below R.

    Raises RootIsFree when the set certifiably misses R.
    """
    local = E.restricted(R)
    if local.intersect_status(R, budget) is Status.FREE:
        raise RootIsFree(R)
    free, residual, meeting = [], [], []
    stack = [(R, local)]
    while stack:
        q, model = stack.pop()
        meeting.append(q)
        if q.depth - R.depth >= J:
            residual.append(q)
            continue
        for c in children(q):
            sub = model.restricted(c)
            if sub.intersect_status(c, budget) is Status.FREE:
                free.append(c)
            else:
                stack.append((c, sub))
    free.sort(key=lambda q: (q.depth, q.coords))
    residual.sort(key=lambda q: (q.depth, q.coords))
    free_entries = tuple((q, E.dist_interval(q, budget)) for q in free)
    return free_entries, tuple(residual), meeting


@lru_cache(maxsize=None)
def _power(depth, d, alpha):
    # |Q|^(1 - alpha/d) of a cube at this depth; cached, as every cube of a
    # depth asks for the same enclosure
    return pow2_enclosure(-depth * (d - alpha))


def _cube_sum(depths, d, alpha):
    return sum_intervals(_power(j, d, alpha) for j in depths)


def sum_report(alpha, R, J, cubes, residual_count):
    """The SumReport of a power sum over `cubes`, one term per cube."""
    d = R.dim
    value = _cube_sum((q.depth for q in cubes), d, alpha)
    normalizer = _power(R.depth, d, alpha)
    return SumReport(alpha, R, J, value,
                     _power(R.depth + J, d, alpha) * residual_count,
                     normalizer, value / normalizer)


def multiplicity_margin(R, alpha, free_cubes, meeting):
    """(lhs, rhs, ok) of: meeting-cube sum >= 2^-d * parent weights of free cubes."""
    d = R.dim
    lhs = _cube_sum((q.depth for q in meeting), d, alpha)
    rhs = _cube_sum((q.depth - 1 for q in free_cubes), d, alpha) * Fraction(1, 1 << d)
    return lhs, rhs, lhs.lo >= rhs.hi
