"""Carleson packing measurement and construction of disjoint free-cube witnesses.

The witness builder runs one preorder induction: every E-meeting cube
receives its own free cube, and a cube that already holds a cube assigned to
an ancestor places its own pick inside a different child, so own and
inherited cubes never share a child.  The same pass then climbs from the
requested root to the lattice root, assigning each ancestor a free cube
inside a child off the path to the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analysis import DEFAULT_SEARCH_DEPTH, first_free, free_cube_table
from .enclosure import frac_str
from .errors import EmptyFamilyError, PorosityFailure, RootIsFree, UnresolvedMeasure
from .families import CubeFamily, enumerate_DE
from .lattice import DyadicCube, children, contains
from .sets import DEFAULT_BUDGET, SetModel, Status


def subtree_sums(weighted) -> dict:
    """Total integer weight inside each cube, from (cube, weight) pairs; a
    plain (depth, coords) tuple serves as a cube.

    The packing kernel weighs a depth-j cube as its count of depth-B cells,
    1 << d*(B - j), B the deepest depth in play, so every mass is an integer
    over 2^(dB).  One bottom-up pass, level by level: each node's sum is added
    into its parent.  Returns (depth, coords) -> total weight for every given
    cube and all of its ancestors.
    """
    levels = {}
    for (depth, coords), w in weighted:
        level = levels.setdefault(depth, {})
        level[coords] = level.get(coords, 0) + w
    sums = {}
    for depth in range(max(levels, default=-1), -1, -1):
        up = levels.setdefault(depth - 1, {})
        for coords, w in levels.get(depth, {}).items():
            sums[(depth, coords)] = w
            if depth:
                p = tuple([k >> 1 for k in coords])
                up[p] = up.get(p, 0) + w
    return sums


def carleson_constant(S: CubeFamily) -> Fraction:
    """The largest exact packing ratio sum(|Q| : Q in S, Q inside R') / |R'|.

    Tests every member of S plus the family root.  Masses are integer counts
    of the deepest cells, so a root's ratio is its count over its own cells.
    """
    if not S.members:
        raise EmptyFamilyError("Carleson constant of an empty family")
    d = S.root.dim
    B = max(S.root.depth, max(q.depth for q in S.members))
    mass = subtree_sums((q, 1 << d * (B - q.depth)) for q in S.members)
    peak = max(mass.get(r, 0) << d * r.depth for r in (S.root, *S.members))
    return Fraction(peak, 1 << d * B)


@dataclass(frozen=True)
class WitnessAssignment:
    cube: DyadicCube
    free_cube: DyadicCube
    inherited_from: DyadicCube | None   # ancestor whose free cube this cube carried

    @property
    def ratio(self) -> int:
        """|Q| / |M(Q)| of the nested free cube, 2^(d (depth M - depth Q))."""
        return 1 << self.cube.dim * (self.free_cube.depth - self.cube.depth)


@dataclass(frozen=True)
class SparseWitness:
    assignments: tuple        # WitnessAssignment in canonical cube order
    lambda_hat: Fraction

    def __len__(self):
        return len(self.assignments)

    def restrict_to(self, cubes) -> "SparseWitness":
        keep = set(cubes)
        kept = tuple(a for a in self.assignments if a.cube in keep)
        return SparseWitness(kept, Fraction(max((a.ratio for a in kept), default=1)))

    def to_json(self):
        return {"assignments": [
            {"q": a.cube.to_json(), "m": a.free_cube.to_json(),
             "inherited_from": a.inherited_from.to_json() if a.inherited_from else None}
            for a in self.assignments],
            "lambda_hat": frac_str(self.lambda_hat)}


def _carrier_child(q: DyadicCube, inner: DyadicCube) -> DyadicCube:
    # the child of q containing `inner` (inner strictly deeper than q)
    return inner.ancestor_at(q.depth + 1)


def build_witness(E: SetModel, R: DyadicCube, J: int,
                  search_depth: int = DEFAULT_SEARCH_DEPTH,
                  budget: int = DEFAULT_BUDGET) -> SparseWitness:
    """Disjoint free cubes M(Q), one per E-meeting cube Q, down to R.depth + J.

    Raises PorosityFailure naming the first cube with no free descendant
    within `search_depth`; that distinguishes a budget miss from a disproof.
    Every free-cube choice is read from one meeting family, enumerated from
    the lattice root one level below the deepest assigned cube, and its
    free-cube table: a cube is free exactly when it is not a member.
    """
    DE = enumerate_DE(E, DyadicCube.root(R.dim), R.depth + J + 1, budget)
    if R not in DE:
        raise RootIsFree(R)
    table = free_cube_table(E, DE, search_depth, budget)
    # (cube, child its pick avoids, ancestor whose cube it carries): R's
    # subtree in preorder, then each ancestor, nearest first, avoiding its
    # child toward R, then the subtrees of its other meeting children
    stack = [(R.ancestor_at(j), R.ancestor_at(j + 1), None) for j in range(R.depth)]
    stack.append((R, None, None))
    assignments = {}
    while stack:
        q, skip, origin = stack.pop()
        m = table[q] if skip is None else first_free(table, q, skip)
        if m is None:
            # a carrier's failure names its first other child
            raise PorosityFailure(q if origin is None else
                                  next(c for c in children(q) if c != skip))
        assignments[q] = WitnessAssignment(q, m, origin)
        if q.depth >= R.depth + J:
            continue
        carried = assignments[origin].free_cube if origin else None
        for c in reversed(children(q)):  # popped in canonical order
            if c not in DE or c in assignments:
                continue
            # own cube and carried cube never share a child by construction
            if contains(c, m):
                stack.append((c, _carrier_child(c, m), q))
            elif carried and contains(c, carried):
                stack.append((c, _carrier_child(c, carried), origin))
            else:
                stack.append((c, None, None))
    ordered = tuple(assignments[q] for q in sorted(assignments))
    return SparseWitness(ordered, Fraction(max(a.ratio for a in ordered)))


@dataclass(frozen=True)
class WitnessVerdict:
    ok: bool
    reason: str | None = None
    cubes: tuple = ()

    def __bool__(self):
        return self.ok

    def failure(self) -> UnresolvedMeasure:
        """The budget failure of a witness this verdict did not verify."""
        return UnresolvedMeasure(f"witness not verified: {self.reason} at "
                                 + ", ".join(map(str, self.cubes)))


def verify_witness(W: SparseWitness, E: SetModel,
                   budget: int = DEFAULT_BUDGET) -> WitnessVerdict:
    """Re-check containment, freeness, disjointness and the volume ratio bound.

    Disjointness uses ancestor-prefix lookups rather than the relate predicate,
    so the check is independent of the construction path.
    """
    seen = set()
    for a in W.assignments:
        if a.cube in seen:
            return WitnessVerdict(False, "duplicate assignment", (a.cube,))
        seen.add(a.cube)
        m = a.free_cube
        if m.depth <= a.cube.depth or not contains(a.cube, m):
            return WitnessVerdict(False, "free cube not strictly inside its cube",
                                  (a.cube, m))
        if a.ratio > W.lambda_hat:
            return WitnessVerdict(False, "volume ratio exceeds lambda_hat",
                                  (a.cube, m))
        if E.intersect_status(m, budget) is not Status.FREE:
            return WitnessVerdict(False, "assigned cube is not certified free",
                                  (a.cube, m))
    placed = {}
    for a in W.assignments:
        m = a.free_cube
        if m in placed:
            return WitnessVerdict(False, "two cubes share one free cube",
                                  (placed[m], a.cube))
        placed[m] = a.cube
    for a in W.assignments:
        m = a.free_cube
        coords = m.coords
        for depth in range(m.depth - 1, -1, -1):
            coords = tuple(k >> 1 for k in coords)
            other = placed.get((depth, coords))
            if other is not None:
                return WitnessVerdict(False, "overlapping free cubes",
                                      (other, a.cube))
    return WitnessVerdict(True)


def audit_single_inheritance(W: SparseWitness) -> WitnessVerdict:
    """Check that no cube carries more than one ancestor cube, and that own
    and inherited cubes occupy distinct children."""
    index = {a.cube: a for a in W.assignments}
    carried = {}
    for a in W.assignments:
        m = a.free_cube
        # every strict intermediate cube on the path q -> M(q) that has its
        # own assignment is carrying m as an inherited cube
        for depth in range(a.cube.depth + 1, m.depth):
            mid = m.ancestor_at(depth)
            if mid in index:
                carried.setdefault(mid, []).append(a.cube)
    for mid, owners in carried.items():
        if len(owners) > 1:
            return WitnessVerdict(False, "cube inherits more than one ancestor cube",
                                  (mid,) + tuple(owners))
        own = index[mid].free_cube
        inherited = index[owners[0]].free_cube
        if _carrier_child(mid, own) == _carrier_child(mid, inherited):
            return WitnessVerdict(False, "own and inherited cubes share a child",
                                  (mid,))
    return WitnessVerdict(True)
