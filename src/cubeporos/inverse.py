"""From a parent-closed Carleson family to a porous corner set, with certificates.

Planting the lower corner of every family cube produces a point set whose
meeting family contains the input.  The packing constant of that larger
family is certified against the explicit bound

    C(xi) = xi + 2^d/(2^d - 1) + (2^d/(2^d - 1)) * xi

by splitting each tested root's mass into family members (S1) and corner
chains (S2 = S3 + S4): chain cubes below an in-root owner (S3) and the
single chain through the root itself (S4).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .enclosure import frac_str
from .errors import EmptyFamilyError, NotParentClosed
from .families import CubeFamily, enumerate_DE
from .lattice import DyadicCube
from .sets import corner_set
from .sparse import carleson_constant, subtree_sums

_ZERO = Fraction(0)


@dataclass(frozen=True)
class ChainFamily:
    """Nested cubes sharing one lower corner, truncated at depth offset J."""

    base: DyadicCube
    members: tuple

    def total_volume(self) -> Fraction:
        return sum((q.volume for q in self.members), _ZERO)

    def to_json(self):
        return {"base": self.base.to_json(),
                "members": [q.to_json() for q in self.members]}


def chain(Q: DyadicCube, J: int) -> ChainFamily:
    """The J+1 nested descendants of Q that keep Q's lower corner."""
    if J < 0:
        raise ValueError("chain length must be >= 0")
    members = [Q]
    cur = Q
    for _ in range(J):
        cur = DyadicCube(cur.depth + 1, tuple(k << 1 for k in cur.coords))
        members.append(cur)
    return ChainFamily(Q, tuple(members))


def check_parent_closed(S: CubeFamily):
    """(True, None) when every non-root member's parent is a member,
    else (False, first offending cube in canonical order)."""
    for q in S.members:
        if q.depth == 0:
            continue
        p = DyadicCube(q.depth - 1, tuple(k >> 1 for k in q.coords))
        if p not in S:
            return False, q
    return True, None


@dataclass(frozen=True)
class RootSplit:
    root: DyadicCube
    s1: Fraction   # mass of family members inside the root
    s2: Fraction   # mass of corner-family members outside S
    s3: Fraction   # chain cubes whose owning member sits inside the root
    s4: Fraction   # chain cubes owned through an ancestor of the root

    def to_json(self):
        return {"root": self.root.to_json(),
                "s1": frac_str(self.s1), "s2": frac_str(self.s2),
                "s3": frac_str(self.s3), "s4": frac_str(self.s4)}


@dataclass(frozen=True)
class InverseReport:
    xi_input: Fraction
    bound: Fraction                 # C(xi)
    measured: Fraction              # packing constant of the corner family
    J: int
    splits: tuple                   # RootSplit per tested root
    chain_coverage_ok: bool         # every non-member lies on a member's chain
    corner_membership_ok: bool      # S is contained in the corner family to depth J

    def to_json(self):
        return {"xi": frac_str(self.xi_input), "bound": frac_str(self.bound),
                "measured": frac_str(self.measured), "J": self.J,
                "chain_coverage_ok": self.chain_coverage_ok,
                "corner_membership_ok": self.corner_membership_ok,
                "roots": [s.to_json() for s in self.splits]}


def carleson_bound(xi: Fraction, d: int) -> Fraction:
    factor = Fraction(1 << d, (1 << d) - 1)
    return xi + factor + factor * xi


def _chain_owner(q: DyadicCube, S: CubeFamily) -> DyadicCube | None:
    """Smallest member of S that contains q and shares q's lower corner.

    Walks up while the corner is preserved (all coordinates even).
    """
    depth, coords = q.depth, q.coords
    while depth > 0 and all(k % 2 == 0 for k in coords):
        depth -= 1
        coords = tuple(k >> 1 for k in coords)
        probe = DyadicCube(depth, coords)
        if probe in S:
            return probe
    return None


def invert(S: CubeFamily, J: int | None = None) -> tuple:
    """Corner set of S plus the certified packing report of its meeting family.

    J defaults to (deepest member depth) + 8; deeper chain tails contribute
    less than 2^(-8d) of a cube each and only lower the measured constant.
    Returns (PointsModel, InverseReport).
    """
    if not S.members:
        raise EmptyFamilyError("cannot invert an empty family")
    ok, offender = check_parent_closed(S)
    if not ok:
        raise NotParentClosed(offender)
    max_depth = max(q.depth for q in S.members)
    if J is None:
        J = max_depth + 8
    xi = carleson_constant(S).xi_hat
    E = corner_set(S.members)

    d = S.root.dim
    DE = enumerate_DE(E, DyadicCube.root(d), J)  # point-set answers are exact
    # every member holds its own corner, so this fails only for members
    # deeper than J
    corner_membership_ok = all(q in DE for q in S.members)
    measured_report = carleson_constant(DE)
    measured = measured_report.xi_hat

    # split every corner-family member: in S, or on the chain of its owner
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
            # owner contains q, so it lies inside a root containing q
            # exactly when it is at least as deep as that root
            owned.append((owner, q.volume))
    s1, s2, s3 = subtree_sums(members), subtree_sums(others), subtree_sums(owned)

    splits = []
    for r, _ratio in measured_report.per_root:
        key = (r.depth, r.coords)
        in_s2, in_s3 = s2.get(key, _ZERO), s3.get(key, _ZERO)
        splits.append(RootSplit(r, s1.get(key, _ZERO), in_s2, in_s3, in_s2 - in_s3))

    report = InverseReport(xi, carleson_bound(xi, d), measured, J,
                           tuple(splits), coverage_ok, corner_membership_ok)
    return E, report
