"""Reference IFS oracles: the composed-map walk in `Fraction` arithmetic.

These are the oracles `IFSModel` answered with before its integer kernel.
They walk the same tree in the same order with the same level, budget and
node-cap rules (the cap is read from `sets._MAX_NODES` at call time, as the
kernel reads it), building every hull image as a `Box` of Fractions and
deciding it with the box predicates below.  The property tests require the
kernel to return exactly the same values, except that `dist_interval` may
return an interval inside the walk's where the walk hits the node cap.
`all_images_dist_interval` states what `dist_interval` computes, by
enumerating every hull image; the kernel's `dist_below` is its three-valued
reading, and must agree with the threshold walk `dist_below` wherever that
walk decides.
"""

from fractions import Fraction

from cubeporos import sets
from cubeporos.lattice import Box, linf_dist
from cubeporos.sets import Status


def closed_disjoint(a: Box, b: Box) -> bool:
    """True when the closures of the two boxes do not meet."""
    return any(blo > ahi or alo > bhi
               for alo, ahi, blo, bhi in zip(a.lo, a.hi, b.lo, b.hi))


def inside_open(outer: Box, inner: Box) -> bool:
    """True when the closed `inner` box lies in the open interior of `outer`."""
    return all(olo < ilo and ihi < ohi
               for olo, ohi, ilo, ihi in zip(outer.lo, outer.hi, inner.lo, inner.hi))


def inside_closed(outer: Box, inner: Box) -> bool:
    """True when the closed `inner` box lies in the closure of `outer`."""
    return all(olo <= ilo and ihi <= ohi
               for olo, ohi, ilo, ihi in zip(outer.lo, outer.hi, inner.lo, inner.hi))


def meets_open(a: Box, open_box: Box) -> bool:
    """True when closed box `a` meets the open interior of `open_box`."""
    return all(ahi > olo and alo < ohi
               for alo, ahi, olo, ohi in zip(a.lo, a.hi, open_box.lo, open_box.hi))


def _image(E, ratio, shift):
    return Box(tuple(ratio * a + t for a, t in zip(E.hull.lo, shift)),
               tuple(ratio * b + t for b, t in zip(E.hull.hi, shift)))


def _compose(E, ratio, shift):
    # (ratio, shift) o (r, t) applied as outer(inner(x))
    for r, t in E.maps:
        yield ratio * r, tuple(ratio * ti + s for ti, s in zip(t, shift))


def _diameter(box):
    # the l-inf diameter: the box's longest side
    return max(b - a for a, b in zip(box.lo, box.hi))


def _identity(E):
    return Fraction(1), (Fraction(0),) * E.dim


def intersect_status(E, box, budget):
    ratio, shift = _identity(E)
    stack = [(ratio, shift, 0)]
    undetermined = False
    nodes = 0
    while stack:
        ratio, shift, level = stack.pop()
        nodes += 1
        hull = _image(E, ratio, shift)
        if closed_disjoint(hull, box):
            continue
        if inside_open(box, hull):
            return Status.INTERSECTS
        if level >= budget or nodes > sets._MAX_NODES:
            undetermined = True
            continue
        for r2, s2 in _compose(E, ratio, shift):
            stack.append((r2, s2, level + 1))
    return Status.UNDETERMINED if undetermined else Status.FREE


def dist_interval(E, box, budget):
    """The level-order walk's interval, and whether it hit the node cap."""
    zero = Fraction(0)
    frontier = [_identity(E)]
    diam0 = _diameter(E.hull)
    best_hi = linf_dist(box, E.hull) + diam0
    lo = zero
    for _ in range(budget):
        scored = []
        for ratio, shift in frontier:
            hull = _image(E, ratio, shift)
            if inside_closed(box, hull):
                return (zero, zero), False
            d = linf_dist(box, hull)
            reach = d + ratio * diam0
            if reach < best_hi:
                best_hi = reach
            scored.append((d, ratio, shift))
        lo = min(d for d, _r, _s in scored)
        survivors = [(r, s) for d, r, s in scored if d <= best_hi]
        if len(survivors) * len(E.maps) > sets._MAX_NODES:
            return (lo, best_hi), True
        nxt = []
        for ratio, shift in survivors:
            nxt.extend(_compose(E, ratio, shift))
        frontier = nxt
    scored = [(linf_dist(box, _image(E, r, s)), r, s) for r, s in frontier]
    if scored:
        lo = min(d for d, _r, _s in scored)
        for d, r, _s in scored:
            reach = d + r * diam0
            if reach < best_hi:
                best_hi = reach
    return (lo, best_hi), False


def all_images_dist_interval(E, box, budget):
    """(0, 0) when a hull image above level `budget` lies in the closed box,
    else the least gap and the least gap + width over every level-`budget`
    hull image, width being the image's largest side."""
    zero = Fraction(0)
    level = [_identity(E)]
    for _ in range(budget):
        if any(inside_closed(box, _image(E, r, s)) for r, s in level):
            return (zero, zero)
        level = [c for r, s in level for c in _compose(E, r, s)]
    gaps = [(linf_dist(box, _image(E, r, s)), r) for r, s in level]
    return (min(g for g, _r in gaps), min(g + r * _diameter(E.hull) for g, r in gaps))


def dist_below(E, box, threshold, budget):
    """The level-order threshold walk.  Only for threshold > 0: it answers
    True whenever a hull image lies in the closed box, which is wrong for a
    threshold <= 0, as no distance is below 0."""
    threshold = Fraction(threshold)
    frontier = [_identity(E)]
    diam0 = _diameter(E.hull)
    for _ in range(budget):
        keep = []
        for ratio, shift in frontier:
            hull = _image(E, ratio, shift)
            if inside_closed(box, hull):
                return True
            d = linf_dist(box, hull)
            if d >= threshold:
                continue
            if d + ratio * diam0 < threshold:
                return True
            keep.append((ratio, shift))
        if not keep:
            return False
        if len(keep) * len(E.maps) > sets._MAX_NODES:
            return None
        frontier = []
        for ratio, shift in keep:
            frontier.extend(_compose(E, ratio, shift))
    return None


def misses_interior(E, box, budget):
    ratio, shift = _identity(E)
    stack = [(ratio, shift, 0)]
    nodes = 0
    while stack:
        ratio, shift, level = stack.pop()
        nodes += 1
        hull = _image(E, ratio, shift)
        if not meets_open(hull, box):
            continue
        if inside_open(box, hull):
            return False
        if level >= budget or nodes > sets._MAX_NODES:
            return False
        for r2, s2 in _compose(E, ratio, shift):
            stack.append((r2, s2, level + 1))
    return True
