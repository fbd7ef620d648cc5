"""From a parent-closed Carleson family to a porous corner set, with certificates.

Planting the lower corner of every family cube produces a point set whose
meeting family contains the input.  The packing constant of that larger
family is certified against the explicit bound

    C(xi) = xi + 2^d/(2^d - 1) + (2^d/(2^d - 1)) * xi

by splitting each tested root's mass into family members (S1) and corner
chains (S2 = S3 + S4): chain cubes below an in-root owner (S3) and the
single chain through the root itself (S4).

The measured constant and every split come from one pass over the corner
family in canonical order.  A non-member whose coordinates are all even
(and whose depth is positive) shares its parent's lower corner, so it is
owned by its parent if that is in the family and otherwise by the parent's
owner; any other non-member has no owner.  Masses are integer counts of
depth-J cells, summed bottom-up by the packing kernel.  A report keeps every
root's splits and the measured constant as those counts and writes each as a
reduced dyadic string (`dyadic_str`), building no `Fraction`; `RootSplit.s1`
.. `s4` and `InverseReport.measured` read them as exact Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .enclosure import dyadic_str, frac_str
from .errors import EmptyFamilyError, NotParentClosed
from .families import CubeFamily, enumerate_DE
from .lattice import DyadicCube, parent
from .sets import corner_set
from .sparse import carleson_constant, subtree_sums


def chain(Q: DyadicCube, J: int) -> tuple:
    """The J+1 nested descendants of Q that keep Q's lower corner, Q first."""
    if J < 0:
        raise ValueError("chain length must be >= 0")
    members = [Q]
    cur = Q
    for _ in range(J):
        cur = DyadicCube(cur.depth + 1, tuple(k << 1 for k in cur.coords))
        members.append(cur)
    return tuple(members)


def check_parent_closed(S: CubeFamily, top: int = 0):
    """(True, None) when every member deeper than depth `top` has its parent
    in S, else (False, first offending cube in canonical order)."""
    for q in S.members:
        if q.depth > top and parent(q) not in S:
            return False, q
    return True, None


@dataclass(frozen=True, slots=True)
class RootSplit:
    """A tested root's masses, each a count of depth-J cells of volume 2^-bits."""
    root: DyadicCube
    bits: int
    # (S1, S2, S3, S4): family members inside the root; corner-family members
    # outside S; chain cubes whose owning member sits inside the root; chain
    # cubes owned through an ancestor of the root
    cells: tuple

    @property
    def s1(self) -> Fraction:
        return Fraction(self.cells[0], 1 << self.bits)

    @property
    def s2(self) -> Fraction:
        return Fraction(self.cells[1], 1 << self.bits)

    @property
    def s3(self) -> Fraction:
        return Fraction(self.cells[2], 1 << self.bits)

    @property
    def s4(self) -> Fraction:
        return Fraction(self.cells[3], 1 << self.bits)

    def to_json(self):
        (n1, n2, n3, n4), b = self.cells, self.bits
        return {"root": self.root.to_json(),
                "s1": dyadic_str(n1, b), "s2": dyadic_str(n2, b),
                "s3": dyadic_str(n3, b), "s4": dyadic_str(n4, b)}


@dataclass(frozen=True)
class InverseReport:
    xi_input: Fraction
    bound: Fraction                 # C(xi)
    measured_cells: int             # the packing constant of the corner family,
    bits: int                       # in depth-J cells of volume 2^-bits
    J: int
    splits: tuple                   # RootSplit per tested root
    chain_coverage_ok: bool         # every non-member lies on a member's chain
    corner_membership_ok: bool      # S is contained in the corner family to depth J

    @property
    def measured(self) -> Fraction:
        return Fraction(self.measured_cells, 1 << self.bits)

    def to_json(self):
        return {"xi": frac_str(self.xi_input), "bound": frac_str(self.bound),
                "measured": dyadic_str(self.measured_cells, self.bits), "J": self.J,
                "chain_coverage_ok": self.chain_coverage_ok,
                "corner_membership_ok": self.corner_membership_ok,
                # RootSplits, each rendered by the report writer as it is reached
                "roots": self.splits}


def carleson_bound(xi: Fraction, d: int) -> Fraction:
    factor = Fraction(1 << d, (1 << d) - 1)
    return xi + factor + factor * xi


def default_depth(S: CubeFamily) -> int:
    """The J `invert` takes when none is given: the deepest member's depth + 8;
    deeper chain tails contribute less than 2^(-8d) of a cube each and only
    lower the measured constant."""
    return max(q.depth for q in S.members) + 8


def invert(S: CubeFamily, J: int | None = None) -> tuple:
    """Corner set of S plus the certified packing report of its meeting family.

    J defaults to `default_depth(S)`.  Returns (PointsModel, InverseReport).
    Most of the meeting family is one-point chains, which its descent walks
    one short split per cube.  One pass reads each member once for its
    weight and chain owner; its work lists are freed once the three subtree
    sums are taken, before the per-root splits are built.
    """
    if not S.members:
        raise EmptyFamilyError("cannot invert an empty family")
    ok, offender = check_parent_closed(S)
    if not ok:
        raise NotParentClosed(offender)
    if J is None:
        J = default_depth(S)
    xi = carleson_constant(S)
    E = corner_set(S.members)

    d = S.root.dim
    DE = enumerate_DE(E, DyadicCube.root(d), J)  # point-set answers are exact
    # every member holds its own corner, so this fails only for members
    # deeper than J
    corner_membership_ok = all(q in DE for q in S.members)

    # each cube weighs its depth-J cells; a non-member's weight is also placed
    # at its owner, which contains it and so lies inside a root containing it
    # exactly when it is at least as deep as that root (s3)
    in_family = S._index
    in_S, all_DE, owned = [], [], []
    owners = {}  # non-member -> its owner, or None
    coverage_ok = True
    for q in DE.members:
        depth, coords = q
        w = 1 << d * (J - depth)
        all_DE.append((q, w))
        if q in in_family:
            in_S.append((q, w))
            continue
        owner = None
        if depth and not any([k & 1 for k in coords]):
            up = (depth - 1, tuple([k >> 1 for k in coords]))
            owner = up if up in in_family else owners[up]
        owners[q] = owner
        if owner is None:
            coverage_ok = False
        else:
            owned.append((owner, w))
    total, s1, s3 = subtree_sums(all_DE), subtree_sums(in_S), subtree_sums(owned)
    del in_S, all_DE, owned, owners

    # the tested roots are the members of DE, the lattice root first
    bits = d * J
    splits, peak = [], 0
    for q in DE.members:
        in_all, in_s1, in_s3 = total[q], s1.get(q, 0), s3.get(q, 0)
        peak = max(peak, in_all << d * q.depth)
        in_s2 = in_all - in_s1
        splits.append(RootSplit(q, bits, (in_s1, in_s2, in_s3, in_s2 - in_s3)))

    report = InverseReport(xi, carleson_bound(xi, d), peak, bits, J,
                           tuple(splits), coverage_ok, corner_membership_ok)
    return E, report
