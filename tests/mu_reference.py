"""Reference mass enclosure: the recursive refinement `mu_enclosure` used
before its one explicit-stack traversal.

`_mu_cell` sums the bounds of a cell's children by recursion, in canonical
child order, building each child's view as it recurses.  Its free cells keep
the floor vol * 2^(-alpha(depth+1)) on their lower bound, which the library
dropped because it never binds.  It reads
`analysis.MU_SPLIT_NODE_CAP` at call time, so a test that patches the cap
patches both.  The property tests require the traversal to give exactly the
same bounds and the same `MuNotes`, unresolved cells in the same order.
"""

from cubeporos import analysis
from cubeporos.analysis import MuNotes
from cubeporos.enclosure import pow2_enclosure, pow_enclosure
from cubeporos.lattice import children
from cubeporos.sets import Status

_ZERO = analysis._ZERO


def _boundary_layer_upper(side, alpha):
    # d=1 only: integral over the cell of dist(x, cell boundary)^(-alpha)
    # = 2 (side/2)^(1-alpha) / (1-alpha); valid once E misses the open interior.
    return 2 * pow_enclosure(side / 2, 1 - alpha).hi / (1 - alpha)


def _free_cell_bounds(E, cube, alpha, parent_meets, budget, notes):
    d = cube.dim
    vol = cube.volume
    if alpha == 0:
        return vol, vol
    lo_d, hi_d = E.dist_interval(cube, budget)
    up = hi_d + cube.side
    if parent_meets:
        up = min(up, 2 * cube.side)
    lower = vol * pow_enclosure(up, -alpha).lo
    if parent_meets:
        floor_term = vol * pow2_enclosure(-alpha * (cube.depth + 1)).lo
        if floor_term > lower:
            lower = floor_term
    if lo_d > 0:
        notes.point_bound_cells += 1
        return lower, vol * pow_enclosure(lo_d, -alpha).hi
    if d == 1 and alpha < 1:
        notes.boundary_layer_cells += 1
        return lower, _boundary_layer_upper(cube.side, alpha)
    notes.unresolved_cells.append(cube)
    return lower, None


def _mu_cell(E, local, cube, alpha, levels_left, parent_meets, budget, notes):
    st = local.intersect_status(cube, budget)
    if st is Status.FREE:
        return _free_cell_bounds(E, cube, alpha, parent_meets, budget, notes)
    if alpha == 0 and levels_left == 0:
        return _ZERO, cube.volume
    if levels_left > 0 and notes.refined_cells < analysis.MU_SPLIT_NODE_CAP:
        notes.refined_cells += 1
        lower = _ZERO
        upper = _ZERO
        meets = st is Status.INTERSECTS
        for c in children(cube):
            sub = local.restricted(c)
            l, u = _mu_cell(E, sub, c, alpha, levels_left - 1, meets, budget, notes)
            lower += l
            upper = None if (upper is None or u is None) else upper + u
        return lower, upper
    if levels_left > 0:
        notes.node_capped = True
    if cube.dim == 1 and alpha < 1 and local.misses_interior(cube, budget):
        notes.boundary_layer_cells += 1
        return _ZERO, _boundary_layer_upper(cube.side, alpha)
    notes.unresolved_cells.append(cube)
    return _ZERO, None


def mu_enclosure(E, R, alpha, J, budget, split_budget):
    """(lower, upper, notes) of the mass of a cube R that meets E."""
    notes = MuNotes()
    lower, upper = _mu_cell(E, E.restricted(R), R, alpha, J + split_budget, False,
                            budget, notes)
    return lower, upper, notes
