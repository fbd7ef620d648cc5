"""Finite-depth enumeration of the cube families attached to a set model.

Three families matter here: the cubes meeting E, the maximal free cubes
below a root (a Whitney-type decomposition with exact residual accounting),
and the gamma-neighborhood family of cubes relatively close to E.
Truncation depth is always explicit; deeper levels are never implied.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .enclosure import int_parse
from .errors import DimensionMismatch, EmptySetError, FamilyTooLarge, RootIsFree
from .lattice import DyadicCube, children, contains
from .sets import DEFAULT_BUDGET, SetModel, Status

# most cubes an enumeration may hold; a deeper run would exhaust memory first
MAX_MEMBERS = 1 << 20


@dataclass(frozen=True)
class CubeFamily:
    root: DyadicCube
    members: tuple
    J: int

    @classmethod
    def make(cls, root, cubes, J) -> "CubeFamily":
        return cls(root, tuple(sorted(set(cubes))), J)

    @cached_property
    def _index(self):
        return frozenset(self.members)

    def __contains__(self, q: DyadicCube) -> bool:
        return q in self._index

    def __len__(self) -> int:
        return len(self.members)

    def level_counts(self) -> dict:
        """Member count per absolute depth."""
        return Counter(q.depth for q in self.members)

    def to_json(self):
        return {"root": self.root.to_json(), "J": self.J,
                "members": [q.to_json() for q in self.members]}

    @classmethod
    def from_json(cls, obj) -> "CubeFamily":
        root = DyadicCube.from_json(obj["root"])
        members = [DyadicCube.from_json(c) for c in obj["members"]]
        for q in members:
            if q.dim != root.dim:
                raise DimensionMismatch(f"{q.dim}-d member {q} of a {root.dim}-d family")
            if not contains(root, q):
                raise ValueError(f"member {q} is not inside the root {root}")
        return cls.make(root, members, int_parse(obj["J"]))


@dataclass(frozen=True)
class FreeDecomposition:
    """Partition of a root into maximal free cubes plus depth-J residual cubes.

    Exact identity: sum of free volumes + sum of residual volumes = |root|.
    Each free cube carries a certified distance interval to E.
    """

    root: DyadicCube
    free: tuple       # tuple of (DyadicCube, (dist_lo, dist_hi))
    residual: tuple   # cubes at exact offset J still meeting E
    J: int


def check_size(n: int, R: DyadicCube, J: int):
    """Raise FamilyTooLarge once a search below R to depth offset J holds or
    has split more than MAX_MEMBERS cubes."""
    if n > MAX_MEMBERS:
        raise FamilyTooLarge(f"more than {MAX_MEMBERS} cubes below {R} to depth "
                             f"offset {J}")


def enumerate_DE(E: SetModel, R: DyadicCube, J: int,
                 budget: int = DEFAULT_BUDGET) -> CubeFamily:
    """All dyadic subcubes of R, to depth offset J, that meet E.

    Pruned descent: a certified-free cube closes its whole subtree.
    Undetermined oracle answers count as meeting (conservative).  Raises
    FamilyTooLarge past MAX_MEMBERS cubes.
    """
    if J < 0:
        raise ValueError("truncation depth must be >= 0")
    members = []
    local = E.restricted(R)
    stack = [(R, local)] if local.intersect_status(R, budget) is not Status.FREE else []
    while stack:
        q, model = stack.pop()
        members.append(q)
        check_size(len(members), R, J)
        if q.depth - R.depth < J:
            stack.extend((c, view) for c, _st, view in model.split(q, budget)
                         if view is not None)
    return CubeFamily.make(R, members, J)


def free_split(family: CubeFamily) -> tuple:
    """(maximal free cubes, depth-J residual) of a meeting family, both sorted.

    The free cubes are the children of members above depth root + J that are
    not members themselves; the residual is the members at depth root + J.
    """
    bottom = family.root.depth + family.J
    free = [c for q in family.members if q.depth < bottom
            for c in children(q) if c not in family]
    free.sort()
    return free, [q for q in family.members if q.depth == bottom]


def enumerate_FE(E: SetModel, R: DyadicCube, J: int,
                 budget: int = DEFAULT_BUDGET) -> FreeDecomposition:
    """Maximal free cubes below R (offsets 1..J) plus the meeting residual at J,
    read from the meeting family; each free cube gets its distance interval."""
    family = enumerate_DE(E, R, J, budget)
    if not family.members:
        raise RootIsFree(R)
    free, residual = free_split(family)
    return FreeDecomposition(R, tuple((q, E.dist_interval(q, budget)) for q in free),
                             tuple(residual), J)


def enumerate_Dgamma(E: SetModel, R: DyadicCube, gamma, J: int,
                     budget: int = DEFAULT_BUDGET) -> CubeFamily:
    """Cubes Q below R with dist(Q, E) < gamma * side(Q), to depth offset J.

    Strict inequality; a cube whose certified distance lower bound already
    reaches gamma*side is excluded together with its whole subtree (children
    can only be farther relative to their smaller side).  Raises
    FamilyTooLarge past MAX_MEMBERS cubes.
    """
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if E.is_empty:
        raise EmptySetError("gamma family of the empty set")
    if J < 0:
        raise ValueError("truncation depth must be >= 0")
    members = []
    stack = [R]
    while stack:
        q = stack.pop()
        if E.dist_below(q, gamma * q.side, budget) is False:
            continue  # certified dist >= gamma*side; children only get farther
        members.append(q)
        check_size(len(members), R, J)
        if q.depth - R.depth < J:
            stack.extend(children(q))
    return CubeFamily.make(R, members, J)
