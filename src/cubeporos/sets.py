"""Verified set models: three-valued intersection and distance-interval oracles.

Every oracle takes a dyadic cube of the lattice, the paper's unit of query.
A model answers `Free` or `Intersects` only when the answer is exact; refinement
budgets turn hard cases into `Undetermined`, never into a wrong exact answer.
Callers that must commit treat `Undetermined` as `Intersects`, which only
enlarges enumerated families and inflates measured constants monotonically.
The IFS oracles share one exact integer kernel: a hull image is a node
(P, D, LO), integer numerators over its own denominator that hold at every
query depth, compared with a depth-j cube's integer corners by shifting and
cross-multiplication; a `Fraction` is built only for a returned value.  A
restricted IFS model is a view that shares the kernel and keeps the frontier
of hull images meeting its cube, built from its parent view's frontier; its
intersection searches start there instead of the root.  An IFS distance
interval is read from all hull images of its budget's level, with the
subtrees of settled images read from per-level extreme tables; the search
yields a nested certified interval per level, and a threshold query stops
at the first that decides it.
A point set holds integer rows over one denominator L, builds a `Fraction`
only from its input and for a returned distance, finds a cube's rows by
bisection in a Z-order index (a linear quadtree) and in d = 1 a distance from
two bisected rows; its split shares its cube's slice among the children,
and a one-row view's split names the one child its row's address bits pick.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .enclosure import frac_parse, int_parse
from .errors import (DenominatorTooLarge, DimensionMismatch, EmptyFamilyError,
                     EmptySetError)
from .lattice import Box, DyadicCube, children, contains

DEFAULT_BUDGET = 36
# The largest budget the command line takes.  An IFS keeps distance tables for
# levels 0..budget, level m holding 4 integers per axis of about m*log2(Q) bits
# (Q the lcm of the ratio denominators): about 2*d*budget^2*log2(Q) bits in
# all: 0.4 MB for the Cantor set at this bound, growing with its square.
MAX_BUDGET = 1_000
# The largest depth times dimension the command line enumerates to: a depth-J
# cube's volume has the denominator 2^(dJ), the power the packing kernel
# builds to count a family's depth-J cells.
MAX_DEPTH_BITS = 1_000
# The largest bit length of a point set's common denominator L: every
# coordinate is held as a numerator over L, so a set's integers take about
# N*d*log2(L) bits, and a larger L is refused before they are built.
MAX_POINT_BITS = 1_000
_MAX_NODES = 200_000  # hard cap on hull expansions per oracle call
_ZERO = Fraction(0)


class Status(Enum):
    INTERSECTS = "intersects"
    FREE = "free"
    UNDETERMINED = "undetermined"


class SetModel:
    """Common oracle interface; all models are immutable and pure.  Every query
    `q` is a `DyadicCube`, read as its half-open box."""

    kind = "abstract"

    @property
    def dim(self) -> int:
        raise NotImplementedError

    @property
    def is_empty(self) -> bool:
        return False

    def intersect_status(self, q: DyadicCube, budget: int = DEFAULT_BUDGET) -> Status:
        raise NotImplementedError

    def _bounds(self, q: DyadicCube, budget: int, cut=None):
        """Certified intervals for dist(q, E) from one search, each inside the
        one before, the last being `dist_interval`: the one distance search
        every model defines.  With a `cut`, a search may skip what lies at
        least the cut away and give min(lower end, cut) as each lower end."""
        raise NotImplementedError

    def dist_interval(self, q: DyadicCube, budget: int = DEFAULT_BUDGET):
        """Certified [lo, hi] with lo <= dist(q, E) <= hi.  Exact on a point
        set.  An IFS answers (0, 0) when a hull image above level `budget` lies
        in q's closure, else (min gap, min gap + largest side) over the
        level-`budget` hull images, or a wider interval at `_MAX_NODES`."""
        self._check_dim(q)
        if self.is_empty:
            raise EmptySetError("distance to the empty set is undefined")
        *_, last = self._bounds(q, budget)
        return last

    def dist_below(self, q: DyadicCube, threshold, budget: int = DEFAULT_BUDGET):
        """Three-valued threshold query: is dist(q, E) < threshold?

        On every model it is the reading of `_bounds`: True when an upper end
        is below the threshold, False when a lower end reaches it, None (the
        budget ran out) otherwise; the empty set is never near.  It stops the
        search at the first of its nested intervals that decides, which
        decides the same way as the last.
        """
        self._check_dim(q)
        if self.is_empty:
            return False
        for lo, hi in self._bounds(q, budget, threshold):
            if hi < threshold:
                return True
            if lo >= threshold:
                return False
        return None

    def restricted(self, q: DyadicCube) -> "SetModel":
        """Model whose intersection answers agree with self on subcubes of `q`.

        Only valid for intersection queries, `intersect_status` and
        `misses_interior`; distances must use the full model.
        """
        self._check_dim(q)
        return self

    def split(self, q: DyadicCube, budget: int = DEFAULT_BUDGET) -> list:
        """The one descent step, self being restricted to q: (child, status,
        view) for each child of q in canonical order, `view` restricted to the
        child and None exactly when the child is certified free."""
        views = [(c, self.restricted(c)) for c in children(q)]
        answers = [(c, view.intersect_status(c, budget), view) for c, view in views]
        return [(c, st, None if st is Status.FREE else view) for c, st, view in answers]

    def misses_interior(self, q: DyadicCube, budget: int = DEFAULT_BUDGET) -> bool:
        """True only when E is certified not to meet the open interior of `q`."""
        self._check_dim(q)
        return self.is_empty

    def _check_dim(self, q: DyadicCube):
        if q.dim != self.dim:
            raise DimensionMismatch(f"{self.dim}-d set vs {q.dim}-d cube")


@dataclass(frozen=True)
class EmptyModel(SetModel):
    dimension: int

    kind = "empty"

    @property
    def dim(self) -> int:
        return self.dimension

    @property
    def is_empty(self) -> bool:
        return True

    def intersect_status(self, q, budget=DEFAULT_BUDGET):
        self._check_dim(q)
        return Status.FREE


def _zorder(coords, spread) -> int:
    """Interleave the coordinates' bits, the first one's highest at each level;
    `spread` maps each byte to its bits moved d places apart."""
    step, z = 8 * len(coords), 0
    for k in coords:
        s = shift = 0
        while k:
            s |= spread[k & 255] << shift
            k >>= 8
            shift += step
        z = z << 1 | s
    return z


def _check_bits(L: int) -> int:
    """L, refused when longer than MAX_POINT_BITS bits."""
    if L.bit_length() > MAX_POINT_BITS:
        raise DenominatorTooLarge(f"the points' common denominator has more than "
                                  f"{MAX_POINT_BITS} bits")
    return L


@dataclass(frozen=True)
class PointsModel(SetModel):
    """Finite rational point set; every oracle answer is exact.  Points are
    numerator tuples over L, the lcm of their reduced denominators, so equal
    sets compare equal; a split's view keeps its parent's L."""

    nums: tuple  # distinct sorted d-tuples of numerators (key order in a split's view)
    L: int

    kind = "points"

    @classmethod
    def make(cls, pts) -> "PointsModel":
        norm = {tuple(map(Fraction, p)) for p in pts}
        L = 1
        for den in {x.denominator for p in norm for x in p}:
            L = _check_bits(lcm(L, den))
        return cls._of_rows((tuple(x.numerator * L // x.denominator for x in p)
                             for p in norm), L)

    @classmethod
    def _of_rows(cls, rows, L: int) -> "PointsModel":
        """The model of integer rows over L, checked, sorted and deduplicated."""
        nums = sorted(set(rows))
        if not nums:
            raise EmptySetError("points model needs at least one point")
        if len({len(p) for p in nums}) != 1:
            raise DimensionMismatch("points of mixed dimension")
        if not nums[0]:
            raise ValueError("a point needs at least one coordinate")
        return cls(tuple(nums), L)

    @property
    def dim(self) -> int:
        return len(self.nums[0])

    @cached_property
    def _index(self):
        """(K, spread, keys, rows): the points in [0,1)^d sorted by Z-order key,
        the interleaved bits of their depth-K addresses (n << K) // L, with K
        the bit length of the largest reduced denominator."""
        d, L = self.dim, self.L
        spread = tuple(sum((b >> i & 1) << i * d for i in range(8)) for b in range(256))
        K = max(L // gcd(n, L) for p in self.nums for n in p).bit_length()
        rows = sorted((_zorder([(n << K) // L for n in p], spread), p)
                      for p in self.nums if all(0 <= n < L for n in p))
        return K, spread, tuple(key for key, _ in rows), tuple(p for _, p in rows)

    def _cube_rows(self, q: DyadicCube):
        """The index keys and rows inside q.  A depth-j cube, j <= K, owns the
        keys [z << d(K-j), (z+1) << d(K-j)), z its interleaved coordinates; a
        deeper one keeps the rows of its depth-K ancestor at its address."""
        self._check_dim(q)
        K, spread, keys, rows = self._index
        j = min(q.depth, K)
        s = q.depth - j
        z = _zorder([k >> s for k in q.coords], spread)
        lo = bisect_left(keys, z << self.dim * (K - j))
        hi = bisect_left(keys, (z + 1) << self.dim * (K - j), lo)
        if not s:
            return keys[lo:hi], rows[lo:hi]
        kept = tuple(p for p in rows[lo:hi]
                     if [(n << q.depth) // self.L for n in p] == list(q.coords))
        return (z,) * len(kept), kept

    def around(self, q: DyadicCube) -> tuple:
        """The sorted rows of a 1-d set in q's closure, the numerators
        ceil(k*L / 2^j) to floor((k+1)*L / 2^j), and the nearest row beyond
        each end: all that decides distances from q."""
        (k,), j, rows = q.coords, q.depth, self.nums
        lo = bisect_left(rows, (-(-k * self.L >> j),))
        hi = bisect_right(rows, ((k + 1) * self.L >> j,), lo)
        return rows[max(lo - 1, 0):hi + 1]

    def intersect_status(self, q, budget=DEFAULT_BUDGET):
        return Status.INTERSECTS if self._cube_rows(q)[1] else Status.FREE

    def _bounds(self, q, budget, cut=None):
        # a row's gap to the closed cube, [a, a + L] per axis over L * 2^j, is
        # its largest axis gap; in d = 1 the first two rows around q hold one
        # inside it if there is one, else the nearest on each side
        L, j = self.L, q.depth
        corner = [k * L for k in q.coords]
        rows = self.around(q)[:2] if self.dim == 1 else self.nums
        gap = min(max(max(a - (n << j), (n << j) - a - L) for a, n in zip(corner, p))
                  for p in rows)
        d = Fraction(max(gap, 0), L << j)
        yield (d, d)

    def split(self, q, budget=DEFAULT_BUDGET):
        """One cut of q's slice, shared among the children: down to the index
        depth K they own consecutive key ranges in canonical (Z-) order, and
        below it each row goes to the child its exact address bits name.  A
        one-row view cuts nothing: if the row lies in q, its next address bits
        (the first coordinate's highest) name the one meeting child, whose
        view is this model; every other child is free."""
        if len(self.nums) == 1:
            (p,), (j, coords), L = self.nums, q, self.L
            out = [(c, Status.FREE, None) for c in children(q)]
            if [(n << j) // L for n in p] != [*coords]:
                self._check_dim(q)  # the row misses q, or q has another dimension
                return out
            i = 0
            for n in p:
                i = i << 1 | (n << j + 1) // L & 1
            out[i] = (out[i][0], Status.INTERSECTS, self)
            return out
        K, spread = self._index[:2]
        keys, rows = self._cube_rows(q)
        d, j, L = self.dim, q.depth, self.L
        if j < K:
            z, shift = _zorder(q.coords, spread) << d, d * (K - j - 1)
            cuts = [0, *(bisect_left(keys, (z + i) << shift) for i in range(1, 1 << d)),
                    len(keys)]
            parts = [(keys[a:b], rows[a:b]) for a, b in zip(cuts, cuts[1:])]
        else:
            groups = [[] for _ in range(1 << d)]
            for p in rows:  # the child's index interleaves the next address bits
                groups[_zorder([(n << j + 1) // L & 1 for n in p], spread)].append(p)
            # at depth >= K every key in the slice is q's depth-K ancestor's
            parts = [(keys[:1] * len(g), tuple(g)) for g in groups]
        out = []
        for c, (part_keys, kept) in zip(children(q), parts):
            view = PointsModel(kept, L) if kept else None
            if kept:
                view.__dict__["_index"] = (K, spread, part_keys, kept)
            out.append((c, Status.INTERSECTS if kept else Status.FREE, view))
        return out

    def misses_interior(self, q, budget=DEFAULT_BUDGET):
        # q's open interior is its half-open box less its lower faces
        return not any(all(n << q.depth > k * self.L for n, k in zip(p, q.coords))
                       for p in self._cube_rows(q)[1])


def _relate(node, S, BL, j):
    """Compare an IFS node's hull with the depth-j query cube in integers.

    `node` is (P, D, LO): the hull image's corners are LO/D and
    (LO + P*S)/D, S the kernel's integer hull sides, at every cube depth;
    the cube's are BL/2^j and (BL + 1)/2^j, compared as lo << j against
    BL*D.  Returns (gap, inside_closed, inside_open, meets_open): `gap` is
    the numerator over D*2^j of the l-inf distance between the closures (0
    exactly when they meet); the flags say whether the hull lies in the
    closed cube, lies in its open interior, and meets its open interior.
    """
    P, D, LO = node
    gap = 0
    closed = opened = meets = True
    for lo, s, bl in zip(LO, S, BL):
        hi = (lo + P * s) << j
        lo <<= j
        bl *= D
        bh = bl + D
        g = lo - bh if lo - bh > bl - hi else bl - hi
        if g > gap:
            gap = g
        if not (bl <= lo and hi <= bh):
            closed = opened = False
        elif not (bl < lo and hi < bh):
            opened = False
        if hi <= bl or lo >= bh:
            meets = False
    return gap, closed, opened, meets


def _children(node, maps):
    """The nodes of `node` composed with every map, in map order."""
    P, D, LO = node
    return [(P * p, D * q, tuple(lo * q + P * o for lo, o in zip(LO, off)))
            for p, q, off in maps]


def _walk(stack, S, maps, BL, j, budget, interior):
    """Depth-first search from the (node, level) entries of `stack` for a hull
    image inside the open depth-j cube at BL.

    A branch is pruned when its hull's closure misses the cube's closure, or,
    with `interior`, when its hull misses the open interior.  FREE means every
    branch was pruned; a budget or node-cap hit makes it UNDETERMINED.
    Returns the status and whether the node cap was hit.
    """
    undetermined = capped = False
    nodes = 0
    while stack:
        node, level = stack.pop()
        nodes += 1
        gap, _closed, inside, meets = _relate(node, S, BL, j)
        if (not meets) if interior else gap > 0:
            continue
        if inside:
            return Status.INTERSECTS, capped
        capped = nodes > _MAX_NODES
        if level >= budget or capped:
            undetermined = True
            continue
        stack.extend((c, level + 1) for c in _children(node, maps))
    return (Status.UNDETERMINED if undetermined else Status.FREE), capped


def _settled(node, S, BL, j, gap):
    """The (axis k, side) along which a node with gap > 0 lies beyond the
    depth-j cube (side 0 above, 1 below) by at least its separation plus its
    side along every other axis, or None: every image below it is nearest
    along k."""
    P, D, LO = node
    found = None
    for k, (lo, s, bl) in enumerate(zip(LO, S, BL)):
        w = P * s << j
        lo <<= j
        bl *= D
        above, below = lo - bl - D, bl - lo - w
        if found is None and gap in (above, below):
            found = k, int(below == gap)
        elif max(above, below, 0) + w > gap:
            return None
    return found


@dataclass(frozen=True)
class IFSModel(SetModel):
    """Attractor of contracting similarities x -> r*x + t with rational data.

    `hull` is a closed box mapped into itself by every map; the attractor is
    covered by the composed hull images at every refinement level, and each
    composed hull contains at least one attractor point.  Both facts drive
    the oracle.
    """

    maps: tuple  # tuple of (ratio: Fraction, shift: tuple[Fraction, ...])
    hull: Box

    kind = "ifs"
    _view = None  # (cube, deepest level examined, frontier) on a restricted view

    @classmethod
    def make(cls, maps, hull: Box) -> "IFSModel":
        norm = tuple((Fraction(r), tuple(Fraction(t) for t in ts)) for r, ts in maps)
        if not norm:
            raise EmptySetError("IFS needs at least one map")
        for r, ts in norm:
            if not 0 < r < 1:
                raise ValueError(f"similarity ratio must be in (0,1), got {r}")
            if len(ts) != hull.dim:
                raise DimensionMismatch("shift dimension differs from hull")
            img_lo = tuple(r * a + t for a, t in zip(hull.lo, ts))
            img_hi = tuple(r * b + t for b, t in zip(hull.hi, ts))
            if any(il < a or ih > b for il, ih, a, b
                   in zip(img_lo, img_hi, hull.lo, hull.hi)):
                raise ValueError("every map must send the hull into itself")
        return cls(norm, hull)

    @property
    def dim(self) -> int:
        return self.hull.dim

    @cached_property
    def _kernel(self):
        """The model in integers, computed once: (root, S, W, maps).

        Hull corners are A and A + S over one denominator M (the lcm of the
        hull and shift denominators), and W is the largest side max(S).  A
        node (P, D, LO) is the image f_w(H) with lower corner LO/D and ratio
        P*M/D; the root is (1, M, A).  Map x -> (p/q)x + t sends it to
        (P*p, D*q, LO*q + P*off), off being the map's lower-corner offset
        p*A + q*(t*M - A) over q*M; each map is listed as (p, q, off).  The
        upper corner is (LO + P*S)/D, as a similarity moves both corners
        alike.
        """
        coords = self.hull.lo + self.hull.hi + tuple(t for _r, ts in self.maps for t in ts)
        M = lcm(*(x.denominator for x in coords))
        A = tuple(int(a * M) for a in self.hull.lo)
        S = tuple(int(b * M) - a for a, b in zip(A, self.hull.hi))
        maps = tuple((r.numerator, r.denominator,
                      tuple(r.numerator * a + r.denominator * (int(t * M) - a)
                            for a, t in zip(A, ts)))
                     for r, ts in self.maps)
        return (1, M, A), S, max(S), maps

    @cached_property
    def _tables(self):
        """Q, the lcm of the ratio denominators; per axis and side the maps'
        steps for `_extremes`; and its levels so far, shared with every view."""
        _root, S, W, maps = self._kernel
        Q = lcm(*(q for _p, q, _off in maps))
        steps = tuple((tuple((Q // q * p, Q // q * off[k]) for p, q, off in maps),
                       tuple((Q // q * p, Q // q * ((q - p) * S[k] - off[k]))
                             for p, q, off in maps))
                      for k in range(len(S)))
        return Q, steps, [(1, tuple(((0, W), (0, W)) for _ in S))]

    def _extremes(self, n):
        """The table levels 0..n at least.  Level m is Q^m and per axis how far
        the level-m images reach in from the hull's faces, over M*Q^m: side 0
        the least lo - A and lo + width - A, side 1 the least B - hi and B - hi
        + width, B = A + S.  Level m is f_i of level m-1 (Hutchinson 1981), so
        an entry is min_i (r_i z + e_i), z the entry before, e_i f_i's face
        offset."""
        Q, steps, levels = self._tables
        while len(levels) <= n:
            Qm, rows = levels[-1]
            levels.append((Qm * Q, tuple(tuple(
                tuple(min(c * z + e * Qm for c, e in step) for z in pair)
                for pair, step in zip(row, axis)) for row, axis in zip(rows, steps))))
        return levels

    def _from_view(self, q):
        """This view's frontier and the deepest level its builds examined, or
        None unless this is a view of a cube holding q."""
        if self._view is None:
            return None
        cube, deepest, frontier = self._view
        return (frontier, deepest) if contains(cube, q) else None

    def restricted(self, q):
        """A view for descent inside q: on q's subcubes its intersection
        answers equal the root search's unless that search hits the node cap,
        and then are never less decided.

        It keeps the frontier of hull nodes whose closures meet q's closure,
        expanded from this model's frontier (or the root) until each is no
        wider than q, so every hull image a search inside q can decide on
        lies below it.  A build that would pass the node cap gives the
        unrestricted model.
        """
        self._check_dim(q)
        root, S, W, maps = self._kernel
        BL, j = q.coords, q.depth
        todo, deepest = self._from_view(q) or ([(root, 0)], 0)
        todo, frontier, nodes = list(todo), [], 0
        while todo and nodes < _MAX_NODES:
            nodes += 1
            node, level = todo.pop()
            if _relate(node, S, BL, j)[0] > 0:
                continue
            if node[0] * W << j <= node[1]:
                frontier.append((node, level))
            else:
                deepest = max(deepest, level + 1)
                todo.extend((c, level + 1) for c in _children(node, maps))
        sub = IFSModel(self.maps, self.hull)
        sub.__dict__.update(_kernel=self._kernel, _tables=self._tables,
                            _view=None if todo else (q, deepest, tuple(frontier)))
        return sub

    def _search(self, q, budget, interior) -> Status:
        """Depth-first search for a hull image inside q's open interior, from
        the view's frontier when that gives the root search's answer: the
        frontier is there, holds q, was built no deeper than `budget`, and
        its search stays under the node cap."""
        self._check_dim(q)
        root, S, _W, maps = self._kernel
        BL, j = q.coords, q.depth
        start = self._from_view(q)
        if start is not None and budget >= start[1]:
            status, capped = _walk(list(start[0]), S, maps, BL, j, budget, interior)
            if not capped:
                return status
        return _walk([(root, 0)], S, maps, BL, j, budget, interior)[0]

    def intersect_status(self, q, budget=DEFAULT_BUDGET):
        return self._search(q, budget, False)

    def _bounds(self, q, budget, cut=None):
        """Level-order search that adds a settled image's least level-`budget`
        gap and reach from `_extremes` instead of expanding it.  Each level
        yields the least gap of the settled and unsettled images and the least
        reach so far; gap never falls and reach never rises below an image
        (Hutchinson 1981), so each interval lies inside the one before.
        Distances are (numerator, denominator) pairs, compared crosswise.
        With a `cut`, an unsettled image at least the cut away is dropped, as
        every image below it is too, and each lower end is at most the cut:
        each level then decides a threshold at the cut as it would without
        it, and the frontier stays smaller."""
        root, S, W, maps = self._kernel
        BL, j = q.coords, q.depth
        levels = self._extremes(budget)
        cut_n, cut_d = (None, 1) if cut is None else Fraction(cut).as_integer_ratio()
        hi_n, hi_d = _relate(root, S, BL, j)[0] + (W << j), root[1] << j
        lo_n, lo_d = hi_n, hi_d  # least settled gap; the answer's is never above hi
        frontier = [root]
        for level in range(budget + 1):
            Qn, rows = levels[budget - level]
            scored = []  # the unsettled images of this level
            for node in frontier:
                gap, closed, _inside, _meets = _relate(node, S, BL, j)
                if closed and level < budget:
                    # the hull carries an attractor point inside the closure
                    yield (_ZERO, _ZERO)
                    return
                den = node[1] << j
                if gap * hi_d > hi_n * den:
                    continue  # no image below it comes as close as hi
                settled = _settled(node, S, BL, j, gap) if gap > 0 else None
                if settled is None:
                    if cut_n is not None and gap * cut_d >= cut_n * den:
                        continue
                    scored.append((gap, den, node))
                    reach = gap + (node[0] * W << j)
                else:
                    k, side = settled
                    least, least_reach = rows[k][side]
                    s, g = node[0] << j, gap * Qn
                    gap, reach, den = g + s * least, g + s * least_reach, den * Qn
                    if gap * lo_d < lo_n * den:
                        lo_n, lo_d = gap, den
                if reach * hi_d < hi_n * den:
                    hi_n, hi_d = reach, den
            frontier = [node for gap, den, node in scored if gap * hi_d <= hi_n * den]
            low_n, low_d = lo_n, lo_d
            for gap, den, _node in scored:
                if gap * low_d < low_n * den:
                    low_n, low_d = gap, den
            if cut_n is not None and cut_n * low_d < low_n * cut_d:
                low_n, low_d = cut_n, cut_d
            yield (Fraction(low_n, low_d), Fraction(hi_n, hi_d))
            if level == budget or not frontier or len(frontier) * len(maps) > _MAX_NODES:
                return
            frontier = [c for node in frontier for c in _children(node, maps)]

    def misses_interior(self, q, budget=DEFAULT_BUDGET):
        return self._search(q, budget, True) is Status.FREE


def _union_status(statuses) -> Status:
    """The union's answer from its parts', read only until one meets."""
    undetermined = False
    for st in statuses:
        if st is Status.INTERSECTS:
            return Status.INTERSECTS
        undetermined = undetermined or st is Status.UNDETERMINED
    return Status.UNDETERMINED if undetermined else Status.FREE


@dataclass(frozen=True)
class UnionModel(SetModel):
    parts: tuple

    kind = "union"

    @classmethod
    def make(cls, parts) -> "UnionModel":
        parts = tuple(parts)
        if not parts:
            raise EmptySetError("union of no parts")
        dims = {p.dim for p in parts}
        if len(dims) != 1:
            raise DimensionMismatch("union of mixed dimensions")
        return cls(parts)

    @property
    def dim(self) -> int:
        return self.parts[0].dim

    @property
    def is_empty(self) -> bool:
        return all(p.is_empty for p in self.parts)

    def intersect_status(self, q, budget=DEFAULT_BUDGET):
        return _union_status(p.intersect_status(q, budget) for p in self.parts)

    def _bounds(self, q, budget, cut=None):
        """The parts' searches in step, each interval the least ends of the
        parts' latest ones."""
        runs = [p._bounds(q, budget, cut) for p in self.parts if not p.is_empty]
        latest = [next(run) for run in runs]
        while True:
            yield (min(lo for lo, _ in latest), min(hi for _, hi in latest))
            moved = False
            for i, run in enumerate(runs):
                iv = next(run, None)
                if iv is not None:
                    latest[i], moved = iv, True
            if not moved:
                return

    def split(self, q, budget=DEFAULT_BUDGET):
        """The parts' splits zipped; a child's view keeps the parts not certified
        free on it, which no answer below it can need, or is the one left."""
        out = []
        for answers in zip(*(p.split(q, budget) for p in self.parts)):
            status = _union_status(st for _c, st, _view in answers)
            views = tuple(view for _c, _st, view in answers if view is not None)
            view = UnionModel(views) if len(views) > 1 else views[0] if views else None
            out.append((answers[0][0], status, view))
        return out

    def misses_interior(self, q, budget=DEFAULT_BUDGET):
        return all(p.misses_interior(q, budget) for p in self.parts)


def corner_set(cubes) -> PointsModel:
    """Point model of the lower ('left-down') corners of a cube family, built
    from the cubes' coordinates: k/2^j is k*L >> j over L, the largest of the
    reduced denominators 2^j / gcd(k, 2^j)."""
    cubes = list(cubes)
    if not cubes:
        raise EmptyFamilyError("corner set of an empty family")
    L = _check_bits(max((1 << q.depth) // gcd(k, 1 << q.depth)
                        for q in cubes for k in q.coords))
    return PointsModel._of_rows((tuple(k * L >> q.depth for k in q.coords)
                                 for q in cubes), L)


def cantor_middle_thirds() -> IFSModel:
    """The standard middle-thirds Cantor set on [0, 1]."""
    third = Fraction(1, 3)
    return IFSModel.make(
        [(third, (Fraction(0),)), (third, (Fraction(2, 3),))],
        Box.make([0], [1]),
    )


def model_from_json(obj) -> SetModel:
    kind = obj.get("kind")
    if kind == "points":
        return PointsModel.make([tuple(frac_parse(x) for x in p) for p in obj["points"]])
    if kind == "ifs":
        maps = [(frac_parse(m["ratio"]), tuple(frac_parse(t) for t in m["shift"]))
                for m in obj["maps"]]
        return IFSModel.make(maps, Box.from_json(obj["hull"]))
    if kind == "union":
        return UnionModel.make([model_from_json(p) for p in obj["parts"]])
    if kind == "corners":
        return corner_set([DyadicCube.from_json(c) for c in obj["family"]])
    if kind == "empty":
        dim = int_parse(obj["dim"])
        if dim < 1:
            raise ValueError(f"an empty set needs dim >= 1, got {dim}")
        return EmptyModel(dim)
    raise ValueError(f"unknown set kind {kind!r}")
