"""Carleson packing measurement and construction of disjoint free-cube witnesses.

The witness builder runs a level-by-level induction: every E-meeting cube
receives its own free cube, and a cube that already holds a cube assigned to
an ancestor places its own pick inside a different child, so own and
inherited cubes never share a child.  The construction is then extended
upward from the requested root to the lattice root, assigning each ancestor
a free cube inside a sibling subtree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analysis import free_cube_table
from .enclosure import frac_str
from .errors import EmptyFamilyError, PorosityFailure, RootIsFree
from .families import CubeFamily, enumerate_DE
from .lattice import DyadicCube, children, contains, cube_order_key, parent
from .sets import DEFAULT_BUDGET, SetModel, Status

_ZERO = Fraction(0)


@dataclass(frozen=True)
class CarlesonReport:
    family_size: int
    per_root: tuple            # ((root cube, exact ratio), ...) in canonical order
    xi_hat: Fraction

    def to_json(self):
        return {"family_size": self.family_size,
                "xi_hat": frac_str(self.xi_hat),
                "per_root": [{"root": r.to_json(), "ratio": frac_str(x)}
                             for r, x in self.per_root]}


def subtree_sums(weighted) -> dict:
    """Total weight inside each cube, from (cube, weight) pairs.

    One bottom-up pass, level by level: each node's sum is added into its
    parent.  Returns (depth, coords) -> total weight for every given cube and
    all of its ancestors.
    """
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


def carleson_constant(S: CubeFamily) -> CarlesonReport:
    """Exact packing ratios sum(|Q| : Q in S, Q inside R') / |R'| per test root.

    Tests every member of S plus the family root.
    """
    if not S.members:
        raise EmptyFamilyError("Carleson constant of an empty family")
    roots = set(S.members)
    roots.add(S.root)
    mass = subtree_sums((q, q.volume) for q in S.members)
    per_root = tuple((r, mass.get((r.depth, r.coords), _ZERO) / r.volume)
                     for r in sorted(roots, key=cube_order_key))
    xi_hat = max(x for _, x in per_root)
    return CarlesonReport(len(S.members), per_root, xi_hat)


@dataclass(frozen=True)
class WitnessAssignment:
    cube: DyadicCube
    free_cube: DyadicCube
    inherited_from: DyadicCube | None   # ancestor whose free cube this cube carried


@dataclass(frozen=True)
class SparseWitness:
    assignments: tuple        # WitnessAssignment in canonical cube order
    lambda_hat: Fraction

    def __len__(self):
        return len(self.assignments)

    def restrict_to(self, cubes) -> "SparseWitness":
        keep = {(q.depth, q.coords) for q in cubes}
        kept = tuple(a for a in self.assignments
                     if (a.cube.depth, a.cube.coords) in keep)
        lam = max((a.cube.volume / a.free_cube.volume for a in kept), default=Fraction(1))
        return SparseWitness(kept, lam)

    def to_json(self):
        return {"assignments": [
            {"q": a.cube.to_json(), "m": a.free_cube.to_json(),
             "inherited_from": a.inherited_from.to_json() if a.inherited_from else None}
            for a in self.assignments],
            "lambda_hat": frac_str(self.lambda_hat)}

    @classmethod
    def from_json(cls, obj) -> "SparseWitness":
        from .enclosure import frac_parse
        assignments = tuple(WitnessAssignment(
            DyadicCube.from_json(e["q"]), DyadicCube.from_json(e["m"]),
            DyadicCube.from_json(e["inherited_from"]) if e["inherited_from"] else None)
            for e in obj["assignments"])
        return cls(assignments, frac_parse(obj["lambda_hat"]))


def _carrier_child(q: DyadicCube, inner: DyadicCube) -> DyadicCube:
    # the child of q containing `inner` (inner strictly deeper than q)
    return inner.ancestor_at(q.depth + 1)


def build_witness(E: SetModel, R: DyadicCube, J: int, search_depth: int = 6,
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
        raise RootIsFree(f"{R} does not meet the set")
    table = free_cube_table(E, DE, search_depth, budget)
    assignments = {}

    def assign(q, inherited, origin):
        """Assign q its own free cube, honoring an inherited one, then recurse."""
        c = q
        if inherited is not None:
            s_star = _carrier_child(q, inherited) if inherited.depth > q.depth + 1 \
                else inherited
            others = [c for c in children(q) if c != s_star]
            # a whole free child avoiding the inherited cube, else the
            # canonical-order-first meeting one
            c = next((c for c in others if c not in DE), others[0])
        m = table.get(c, c)  # a non-member is its own largest free cube
        if m is None:
            raise PorosityFailure(c)
        assignments[q] = WitnessAssignment(q, m, origin)
        if q.depth >= R.depth + J:
            return
        for c in children(q):
            if c not in DE:
                continue
            inh, orig = None, None
            if inherited is not None and contains(c, inherited):
                inh, orig = inherited, origin
            if contains(c, m):
                # own cube and inherited cube never share a child by construction
                inh, orig = m, q
            assign(c, inh, orig)

    assign(R, None, None)

    # extend the construction upward: each ancestor takes the best free cube
    # found inside a sibling subtree, then the siblings are filled in.
    cur = R
    while cur.depth > 0:
        p = parent(cur)
        siblings = [c for c in children(p) if c != cur]
        picks = [m for m in (table.get(c, c) for c in siblings) if m is not None]
        if not picks:
            raise PorosityFailure(p)
        m_p = min(picks, key=cube_order_key)
        assignments[p] = WitnessAssignment(p, m_p, None)
        for c in siblings:
            if c in DE:
                if contains(c, m_p):
                    assign(c, m_p, p)
                else:
                    assign(c, None, None)
        cur = p

    ordered = tuple(sorted(assignments.values(), key=lambda a: cube_order_key(a.cube)))
    lambda_hat = max(a.cube.volume / a.free_cube.volume for a in ordered)
    return SparseWitness(ordered, lambda_hat)


@dataclass(frozen=True)
class WitnessVerdict:
    ok: bool
    reason: str | None = None
    cubes: tuple = ()

    def __bool__(self):
        return self.ok


def verify_witness(W: SparseWitness, E: SetModel,
                   budget: int = DEFAULT_BUDGET) -> WitnessVerdict:
    """Re-check containment, freeness, disjointness and the volume ratio bound.

    Disjointness uses ancestor-prefix lookups rather than the relate predicate,
    so the check is independent of the construction path.
    """
    seen = set()
    for a in W.assignments:
        if (a.cube.depth, a.cube.coords) in seen:
            return WitnessVerdict(False, "duplicate assignment", (a.cube,))
        seen.add((a.cube.depth, a.cube.coords))
        m = a.free_cube
        if m.depth <= a.cube.depth or m.ancestor_at(a.cube.depth) != a.cube:
            return WitnessVerdict(False, "free cube not strictly inside its cube",
                                  (a.cube, m))
        if a.cube.volume > W.lambda_hat * m.volume:
            return WitnessVerdict(False, "volume ratio exceeds lambda_hat",
                                  (a.cube, m))
        if E.intersect_status(m.box, budget) is not Status.FREE:
            return WitnessVerdict(False, "assigned cube is not certified free",
                                  (a.cube, m))
    placed = {}
    for a in W.assignments:
        key = (a.free_cube.depth, a.free_cube.coords)
        if key in placed:
            return WitnessVerdict(False, "two cubes share one free cube",
                                  (placed[key], a.cube))
        placed[key] = a.cube
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
