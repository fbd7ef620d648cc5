"""Reference packing: the `Fraction` kernel the library used before its
integer cell counts and one-pass chain split.

`subtree_sums` adds each cube's exact volume into its ancestors,
`per_root_ratios` divides by each root's volume and `carleson_constant`
takes their largest, `invert` finds every non-member's chain owner by
walking up from it, and `gamma_carleson` reads its covering masses from the
same `Fraction` sums over the covering cubes that `covering_cubes` finds by
clipping the `Fraction` dilation box.  Both take a point set's meeting
family from its points' own cubes (`points_reference.meeting_cubes`), not
from the descent under test.  The property tests require the library to
give reports equal to these field for field; as the library's inverse
report holds its masses as counts of depth-J cells, `invert` converts each
of its `Fraction` masses and asserts that it is a whole count.
"""

import itertools
from fractions import Fraction

from cubeporos.families import CubeFamily
from cubeporos.inverse import (InverseReport, RootSplit, carleson_bound,
                               check_parent_closed, default_depth)
from cubeporos.lattice import DyadicCube, dilate
from cubeporos.neighborhoods import GammaReport, minimal_exceeding_integer
from cubeporos.sets import corner_set
from points_reference import meeting_cubes, points

_ZERO = Fraction(0)
_ONE = Fraction(1)


def subtree_sums(weighted) -> dict:
    """(depth, coords) -> total weight inside that cube, from (cube, weight)
    pairs, for every given cube and its ancestors."""
    levels = {}
    for q, w in weighted:
        level = levels.setdefault(q.depth, {})
        level[q.coords] = level.get(q.coords, _ZERO) + w
    sums = {}
    for depth in range(max(levels, default=-1), -1, -1):
        up = levels.setdefault(depth - 1, {})
        for coords, w in levels.get(depth, {}).items():
            sums[(depth, coords)] = w
            if depth:
                p = tuple(k >> 1 for k in coords)
                up[p] = up.get(p, _ZERO) + w
    return sums


def per_root_ratios(S) -> tuple:
    """((root, exact packing ratio), ...) for the root of S and every
    member, in canonical order."""
    roots = set(S.members)
    roots.add(S.root)
    mass = subtree_sums((q, q.volume) for q in S.members)
    return tuple((r, mass.get((r.depth, r.coords), _ZERO) / r.volume)
                 for r in sorted(roots, key=lambda q: (q.depth, q.coords)))


def carleson_constant(S) -> Fraction:
    return max(x for _, x in per_root_ratios(S))


def _chain_owner(q, S):
    """Smallest member of S that contains q and shares q's lower corner:
    walks up while the corner is preserved (all coordinates even)."""
    depth, coords = q.depth, q.coords
    while depth > 0 and all(k % 2 == 0 for k in coords):
        depth -= 1
        coords = tuple(k >> 1 for k in coords)
        probe = DyadicCube(depth, coords)
        if probe in S:
            return probe
    return None


def invert(S, J=None):
    """(corner set, InverseReport) of a non-empty parent-closed family."""
    assert check_parent_closed(S)[0]
    if J is None:
        J = default_depth(S)
    xi = carleson_constant(S)
    E = corner_set(S.members)
    d = S.root.dim
    DE = CubeFamily.make(DyadicCube.root(d), meeting_cubes(points(E), J), J)
    corner_membership_ok = all(q in DE for q in S.members)
    per_root = per_root_ratios(DE)

    members, others, owned = [], [], []
    coverage_ok = True
    for q in DE.members:
        if q in S:
            members.append((q, q.volume))
            continue
        others.append((q, q.volume))
        owner = _chain_owner(q, S)
        if owner is None:
            coverage_ok = False
        else:
            owned.append((owner, q.volume))
    s1, s2, s3 = subtree_sums(members), subtree_sums(others), subtree_sums(owned)
    bits = d * J
    splits = []
    for r, _ratio in per_root:
        key = (r.depth, r.coords)
        in_s2, in_s3 = s2.get(key, _ZERO), s3.get(key, _ZERO)
        masses = (s1.get(key, _ZERO), in_s2, in_s3, in_s2 - in_s3)
        splits.append(RootSplit(r, bits, tuple(_cells(x, bits) for x in masses)))
    measured = max(x for _, x in per_root)
    return E, InverseReport(xi, carleson_bound(xi, d), _cells(measured, bits), bits, J,
                            tuple(splits), coverage_ok, corner_membership_ok)


def _cells(x, bits):
    """The mass x as its count of depth-J cells of volume 2^-bits, which must
    be a whole count."""
    n = x * (1 << bits)
    assert n.denominator == 1, (x, bits)
    return n.numerator


def covering_cubes(R, n):
    """Dyadic cubes of side 2^-m, dilated_side/2 <= 2^-m < dilated_side,
    covering the dilation of R clipped to the unit root; and whether it was
    clipped."""
    tilde = dilate(R, n)
    m = max(0, R.depth - (2 * n + 1).bit_length() + 1)
    side = Fraction(1, 1 << m)
    clipped = False
    ranges = []
    for lo, hi in zip(tilde.lo, tilde.hi):
        if lo < 0 or hi > 1:
            clipped = True
        lo = max(lo, _ZERO)
        hi = min(hi, _ONE)
        first = lo // side
        last = -((-hi) // side) - 1  # ceil(hi/side) - 1
        last = min(last, (1 << m) - 1)
        ranges.append(range(int(first), int(last) + 1))
    return [DyadicCube(m, k) for k in itertools.product(*ranges)], clipped


def gamma_carleson(E, family, gamma) -> GammaReport:
    """The gamma report of a point set E, whose answers need no budget."""
    gamma = Fraction(gamma)
    R, J = family.root, family.J
    measured = carleson_constant(family)
    n = minimal_exceeding_integer(gamma)
    d = R.dim
    mass = subtree_sums((q, q.volume) for q in meeting_cubes(points(E), R.depth + J))
    covering_counts = []
    base_constant = _ONE
    clipped_any = False
    for r in sorted({R} | set(family.members), key=lambda q: (q.depth, q.coords)):
        cover, clipped = covering_cubes(r, n)
        clipped_any = clipped_any or clipped
        covering_counts.append(len(cover))
        for ri in cover:
            base_constant = max(base_constant,
                                mass.get((ri.depth, ri.coords), _ZERO) / ri.volume)
    bound = base_constant * (gamma + 1) ** d * Fraction(6) ** d
    return GammaReport(gamma, n, len(family.members), measured, base_constant,
                       bound, max(covering_counts), clipped_any)
