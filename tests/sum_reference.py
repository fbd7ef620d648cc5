"""Reference power sums: the per-(alpha, J) formula `analysis` used before it
made each depth's power once.

Every (alpha, J) pair sums one fresh `pow2_enclosure` per non-empty depth
down to root + J, in depth order, and takes its normalizer and residual
powers afresh too.  The property tests require the library's running sums
to give reports equal to these field for field.
"""

from fractions import Fraction

from cubeporos.analysis import SumReport, _free_counts
from cubeporos.enclosure import RatInterval, pow2_enclosure, sum_intervals


def _level_term(level, d, alpha):
    # volume^(1-alpha/d) of a depth-`level` cube = 2^(-level*(d-alpha))
    return pow2_enclosure(-level * (d - alpha))


def _sum_from_level_counts(counts, d, alpha):
    parts = [_level_term(level, d, alpha) * n for level, n in sorted(counts.items())]
    return sum_intervals(parts) if parts else RatInterval.point(0)


def sum_reports(DE, alpha_grid, J_list, counts):
    """One SumReport per (alpha, J), alpha slowest, as `_sum_reports` gives them."""
    R, n = DE.root, DE.level_counts()
    reports = []
    for alpha in alpha_grid:
        normalizer = _level_term(R.depth, R.dim, alpha)
        for J in J_list:
            bottom = R.depth + J
            value = _sum_from_level_counts({lvl: c for lvl, c in counts.items()
                                            if lvl <= bottom}, R.dim, alpha)
            residual = _level_term(bottom, R.dim, alpha) * n.get(bottom, 0)
            reports.append(SumReport(alpha, R, J, value, residual, normalizer,
                                     value / normalizer))
    return reports


def dynkin_sweep(DE, alpha_grid, J_list):
    J_list = sorted(set(J_list))
    return sum_reports(DE, [Fraction(a) for a in alpha_grid], J_list,
                       _free_counts(DE, J_list[-1]))


def parent_multiplicity_margin(DE, alpha):
    d = DE.root.dim
    lhs = _sum_from_level_counts(DE.level_counts(), d, alpha)
    parents = {level - 1: n for level, n in _free_counts(DE, DE.J).items()}
    rhs = _sum_from_level_counts(parents, d, alpha) * Fraction(1, 1 << d)
    return lhs, rhs, lhs.lo >= rhs.hi
