"""Reference porosity scan and witness builder: one free-cube search per cube.

The library reads every free cube from one meeting family and its free-cube
table.  This module keeps the direct construction instead: the scan runs
`largest_free_cube` from each meeting cube, and the builder descends the
meeting cubes itself, asks the oracle whether each child is free, and runs a
fresh `largest_free_cube` search for every pick.  A cube that carries an
inherited cube takes the canonical-first free cube over its other children,
searching each meeting one.  It also keeps the search's level-order form,
which splits a whole level before looking for a free cube and so holds that
level's views at once.
"""

from cubeporos.analysis import PorosityRecord, PorosityReport, largest_free_cube
from cubeporos.errors import PorosityFailure, RootIsFree
from cubeporos.families import enumerate_DE
from cubeporos.lattice import DyadicCube, children, contains, parent
from cubeporos.sets import Status
from cubeporos.sparse import SparseWitness, WitnessAssignment


def level_order_free_cube(E, R, J, budget):
    """Largest free descendant of R within depth offset J, the canonical
    first of the shallowest free level, or None."""
    local = E.restricted(R)
    if local.intersect_status(R, budget) is Status.FREE:
        return R
    frontier = [(R, local)]
    for _ in range(J):
        answers = [a for q, model in frontier for a in model.split(q, budget)]
        free = [c for c, _st, view in answers if view is None]
        if free:
            return min(free)
        frontier = [(c, view) for c, _st, view in answers]
    return None


def porosity_scan(E, depth, J, budget):
    family = enumerate_DE(E, DyadicCube.root(E.dim), depth, budget)
    records, absent, eta_hat = [], [], None
    for q in family.members:
        m = largest_free_cube(E, q, J, budget)
        if m is None:
            absent.append(q)
            records.append(PorosityRecord(q, None, None))
            continue
        ratio = q.volume / m.volume
        records.append(PorosityRecord(q, m, ratio))
        if eta_hat is None or ratio > eta_hat:
            eta_hat = ratio
    return PorosityReport(tuple(records), eta_hat, tuple(absent), depth, J)


def _carrier_child(q, inner):
    return inner.ancestor_at(q.depth + 1)


class _Builder:
    def __init__(self, E, search_depth, budget, max_depth):
        self.E = E
        self.search_depth = search_depth
        self.budget = budget
        self.max_depth = max_depth
        self.assignments = {}

    def _status(self, model, cube):
        return model.intersect_status(cube, self.budget)

    def assign(self, q, local, inherited, inherited_origin):
        if inherited is None:
            m = largest_free_cube(self.E, q, self.search_depth, self.budget)
            if m is None:
                raise PorosityFailure(q)
        else:
            s_star = _carrier_child(q, inherited) if inherited.depth > q.depth + 1 \
                else inherited
            # the canonical-first free cube of the other children: a free
            # child is its own, a meeting child offers its search's answer
            picks, meeting = [], []
            for c in children(q):
                if c == s_star:
                    continue
                if self._status(local.restricted(c), c) is Status.FREE:
                    picks.append(c)
                    continue
                meeting.append(c)
                found = largest_free_cube(self.E, c, self.search_depth, self.budget)
                if found is not None:
                    picks.append(found)
            if not picks:
                raise PorosityFailure(meeting[0])
            m = min(picks, key=lambda m: (m.depth, m.coords))
        self.assignments[q] = WitnessAssignment(q, m, inherited_origin)
        if q.depth >= self.max_depth:
            return
        for c in children(q):
            sub = local.restricted(c)
            if self._status(sub, c) is Status.FREE:
                continue
            inh, origin = None, None
            if inherited is not None and contains(c, inherited) and c != inherited:
                inh, origin = inherited, inherited_origin
            if contains(c, m) and c != m:
                inh, origin = m, q
            self.assign(c, sub, inh, origin)


def build_witness(E, R, J, search_depth, budget):
    local = E.restricted(R)
    if local.intersect_status(R, budget) is Status.FREE:
        raise RootIsFree(R)
    builder = _Builder(E, search_depth, budget, R.depth + J)
    builder.assign(R, local, None, None)
    cur = R
    while cur.depth > 0:
        p = parent(cur)
        best = None
        for c in children(p):
            if c == cur:
                continue
            m = largest_free_cube(E, c, search_depth, budget)
            if m is None:
                continue
            key = (-m.volume, m.depth, m.coords)
            if best is None or key < best[0]:
                best = (key, m)
        if best is None:
            raise PorosityFailure(p)
        m_p = best[1]
        builder.assignments[p] = WitnessAssignment(p, m_p, None)
        for c in children(p):
            if c == cur:
                continue
            sub = E.restricted(c)
            if sub.intersect_status(c, budget) is Status.FREE:
                continue
            if contains(c, m_p) and c != m_p:
                builder.assign(c, sub, m_p, p)
            else:
                builder.assign(c, sub, None, None)
        cur = p
    assignments = tuple(sorted(builder.assignments.values(),
                               key=lambda a: (a.cube.depth, a.cube.coords)))
    lambda_hat = max(a.cube.volume / a.free_cube.volume for a in assignments)
    return SparseWitness(assignments, lambda_hat)
