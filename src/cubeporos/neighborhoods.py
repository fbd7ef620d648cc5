"""Analytics for the family of cubes relatively close to a set.

A cube belongs to the gamma family when its distance to the set is below
gamma times its side.  Packing constants of that family are certified
against the dilation-and-covering bound, well-sparseness is obtained by
rebuilding a witness against the family's own corner set, and the dyadic
embedding inequality is evaluated with certified per-cell masses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .analysis import (DEFAULT_SEARCH_DEPTH, DEFAULT_SPLIT_BUDGET, _check_alpha, _mu_cells,
                       mu_points_exact_1d)
from .enclosure import RatInterval, frac_str, pow_enclosure
from .errors import EmptyFamilyError, EmptySetError, NotParentClosed, UnresolvedMeasure
from .families import CubeFamily, enumerate_DE
from .inverse import check_parent_closed
from .lattice import DyadicCube, children
from .sets import DEFAULT_BUDGET, PointsModel, SetModel, UnionModel, corner_set
from .sparse import (SparseWitness, build_witness, carleson_constant, subtree_sums,
                     verify_witness)

_ZERO = Fraction(0)


@dataclass(frozen=True)
class GammaReport:
    gamma: Fraction
    n: int                        # minimal integer exceeding gamma
    family_size: int
    measured: Fraction            # packing constant of the gamma family
    base_constant: Fraction       # measured packing constant of the meeting family
    bound: Fraction               # base_constant * (gamma+1)^d * 6^d
    max_covering: int             # most covering cubes of a tested root
    clipped: bool                 # dilations left the unit root and were clipped

    def to_json(self):
        return {"gamma": frac_str(self.gamma), "n": self.n,
                "family_size": self.family_size,
                "measured": frac_str(self.measured),
                "base_constant": frac_str(self.base_constant),
                "bound": frac_str(self.bound),
                "max_covering": self.max_covering,
                "clipped": self.clipped}


def minimal_exceeding_integer(gamma: Fraction) -> int:
    g = Fraction(gamma)
    n = g.numerator // g.denominator + 1
    assert n > g >= n - 1
    return n


def _covering_cubes(R: DyadicCube, n: int):
    """Dyadic cubes of comparable size covering the clipped dilation of R.

    Side 2^-m is chosen with dilated_side/2 <= 2^-m < dilated_side, so at
    most 3 cubes per axis are needed.  In units of R's side the dilation
    spans [k - n, k + n + 1) on each axis; it is clipped to the unit root
    before covering.
    """
    m = max(0, R.depth - (2 * n + 1).bit_length() + 1)
    t, top = R.depth - m, 1 << R.depth
    clipped = False
    ranges = []
    for k in R.coords:
        clipped = clipped or k < n or k + n + 1 > top
        ranges.append(range(max(k - n, 0) >> t, ((min(k + n + 1, top) - 1) >> t) + 1))
    # canonical order: the first axis varies slowest
    return [DyadicCube(m, c) for c in itertools.product(*ranges)], clipped


def gamma_carleson(E: SetModel, family: CubeFamily, gamma,
                   budget: int = DEFAULT_BUDGET) -> GammaReport:
    """Measure the packing constant of E's gamma family and certify the covering bound.

    `family` is the gamma family of E below its root to its depth J, as
    enumerate_Dgamma gives it.  The comparison constant is the measured
    packing constant of the plain meeting family over covering cubes of the
    dilated root, scaled by (gamma+1)^d * 6^d.
    """
    gamma = Fraction(gamma)
    if E.is_empty:
        raise EmptySetError("gamma family of an empty set")
    R, J = family.root, family.J
    if not family.members:
        raise EmptyFamilyError(f"{R} is not within reach of the set at gamma={gamma}")
    measured = carleson_constant(family)
    n = minimal_exceeding_integer(gamma)

    d = R.dim
    B = R.depth + J
    DE = enumerate_DE(E, DyadicCube.root(d), B, budget)
    # integer counts of depth-B cells; a covering cube's ratio is its count
    # over its own cells, compared over the common 2^(dB) as count << d*depth
    mass = subtree_sums((q, 1 << d * (B - q.depth)) for q in DE.members)

    max_covering = 0
    # floor at 1: the comparison constant of a meeting family never drops
    # below 1, while a clipped covering measurement can undershoot
    best = 1 << d * B
    clipped_any = False
    for r in {R, *family.members}:  # the tested roots, in any order
        cover, clipped = _covering_cubes(r, n)
        clipped_any = clipped_any or clipped
        max_covering = max(max_covering, len(cover))
        for ri in cover:
            best = max(best, mass.get(ri, 0) << d * ri.depth)
    base_constant = Fraction(best, 1 << d * B)
    bound = base_constant * (gamma + 1) ** d * Fraction(6) ** d
    return GammaReport(gamma, n, len(family.members), measured, base_constant,
                       bound, max_covering, clipped_any)


def gamma_witness(E: SetModel, family: CubeFamily,
                  search_depth: int = DEFAULT_SEARCH_DEPTH,
                  budget: int = DEFAULT_BUDGET) -> SparseWitness:
    """Disjoint free cubes for E's gamma family (from enumerate_Dgamma), free
    for the set itself too.

    Route: the corner set of the family stands in for the infinite corner
    construction, whose untruncated version would contain the closure of E.
    At finite depth that containment can fail, so the witness is built
    against the union of corner set and underlying set, then restricted to
    the family members; `verify_witness` then certifies it against the union,
    which is free exactly where both models are.
    """
    R, J = family.root, family.J
    if not family.members:
        raise EmptyFamilyError("gamma family is empty")
    ok, offender = check_parent_closed(family, R.depth)
    if not ok:
        raise NotParentClosed(offender)
    combined = UnionModel.make([corner_set(family.members), E])
    witness = build_witness(combined, R, J, search_depth, budget)
    restricted = witness.restrict_to(family.members)
    verdict = verify_witness(restricted, combined, budget)
    if not verdict:
        raise verdict.failure()
    return restricted


@dataclass(frozen=True)
class EmbeddingQuery:
    p: Fraction
    alpha: Fraction
    gamma: Fraction
    root: DyadicCube
    J: int
    coeffs: dict                  # DyadicCube -> nonnegative Fraction

    @classmethod
    def make(cls, p, alpha, gamma, root, J, coeffs) -> "EmbeddingQuery":
        p = Fraction(p)
        if p < 1:
            raise ValueError("exponent p must be >= 1")
        norm = {}
        for q, a in coeffs.items():
            a = Fraction(a)
            if a < 0:
                raise ValueError("coefficients must be nonnegative")
            if a > 0:
                norm[q] = a
        return cls(p, Fraction(alpha), Fraction(gamma), root, int(J), norm)

    def to_json(self):
        return {"p": frac_str(self.p), "alpha": frac_str(self.alpha),
                "gamma": frac_str(self.gamma), "R": self.root.to_json(),
                "J": self.J,
                "coeffs": [{"q": q.to_json(), "a": frac_str(a)}
                           for q, a in sorted(self.coeffs.items())]}


@dataclass(frozen=True)
class EmbeddingReport:
    lhs: RatInterval
    rhs: RatInterval
    ratio: RatInterval
    cells: int
    mass_lower_check: str   # "certified" | "inconclusive" | "skipped"

    def to_json(self):
        return {"lhs": self.lhs.to_json(), "rhs": self.rhs.to_json(),
                "ratio": self.ratio.to_json(), "cells": self.cells,
                "mass_lower_check": self.mass_lower_check}


def _cell_mass(E, cube, alpha, budget, split_budget) -> RatInterval:
    """Certified mass of one cell; sharp closed form for 1-d point sets.  The
    mass traversal stops at the first unbounded cell, which decides it."""
    if isinstance(E, PointsModel) and E.dim == 1:
        return mu_points_exact_1d(E, cube, alpha)

    lower = upper = _ZERO
    for _cell, _free, lo, up in _mu_cells(E, cube, alpha, split_budget, budget):
        if up is None:
            raise UnresolvedMeasure(f"no finite certified mass for cell {cube}")
        lower += lo
        upper += up
    return RatInterval(lower, upper)


def _interval_pow(iv: RatInterval, e: Fraction) -> RatInterval:
    # t^e is monotone increasing on t >= 0 for e > 0
    lo = _ZERO if iv.lo == 0 else pow_enclosure(iv.lo, e).lo
    hi = _ZERO if iv.hi == 0 else pow_enclosure(iv.hi, e).hi
    return RatInterval(lo, hi)


def embedding_check(E: SetModel, query: EmbeddingQuery, family: CubeFamily,
                    budget: int = DEFAULT_BUDGET,
                    split_budget: int = DEFAULT_SPLIT_BUDGET) -> EmbeddingReport:
    """Certified p-norm enclosures for the stack sum and stack sup of a query.

    `family` is the query's gamma family (enumerate_Dgamma at the query's
    gamma, root and J); a family with another root or J is rejected.  Both
    sides are piecewise constant on the cells where the coefficient
    stack is locally constant, so each norm is a finite weighted sum of
    certified cell masses.  Also certifies, when the root belongs to the
    family, that the root's plain volume power is dominated by
    (gamma+2)^alpha times its weighted mass; the root may miss the set.
    """
    if family.root != query.root or family.J != query.J:
        raise ValueError(f"family of {family.root} to depth {family.J} does not "
                         f"match the query's {query.root} to depth {query.J}")
    for q in query.coeffs:
        if q not in family:
            raise ValueError(f"coefficient cube {q} is not a family member")
    _check_alpha(query.alpha, query.root.dim, allow_d=False)

    # ancestors-or-equals of coefficient cubes: the only places the stack
    # can still change deeper down
    coeff_prefixes = {q.ancestor_at(j) for q in query.coeffs
                      for j in range(query.root.depth, q.depth + 1)}

    # (cube, stack sum, stack sup) with the stack constant on cube, in
    # preorder; only a prefix's children can hold a coefficient
    cells = []
    stack = [(query.root, _ZERO, _ZERO)] if query.coeffs else []
    while stack:
        q, total, peak = stack.pop()
        a = query.coeffs.get(q, _ZERO)
        total += a
        if a > peak:
            peak = a
        kids = children(q) if q in coeff_prefixes else []
        if any(c in coeff_prefixes for c in kids):
            stack.extend((c, total, peak) for c in reversed(kids))
        elif total > 0:
            cells.append((q, total, peak))

    lhs_p = RatInterval.point(0)
    rhs_p = RatInterval.point(0)
    for cube, total, peak in cells:
        mass = _cell_mass(E, cube, query.alpha, budget, split_budget)
        lhs_p = lhs_p + _interval_pow(RatInterval.point(total), query.p) * mass
        rhs_p = rhs_p + _interval_pow(RatInterval.point(peak), query.p) * mass
    inv_p = 1 / query.p
    lhs = _interval_pow(lhs_p, inv_p)
    rhs = _interval_pow(rhs_p, inv_p)
    if rhs.hi == 0:
        ratio = RatInterval.point(0)
    elif rhs.lo == 0:
        raise UnresolvedMeasure("sup-side mass has no positive lower bound")
    else:
        ratio = lhs / rhs

    mass_check = "skipped"
    if query.root in family:
        # the root's mass lower end is a sum of nonnegative cell lower ends:
        # stop at the first partial sum that certifies
        vol_pow = pow_enclosure(query.root.volume, 1 - query.alpha / query.root.dim)
        scale = pow_enclosure(query.gamma + 2, query.alpha)
        mass_check, mass = "inconclusive", _ZERO
        for _cell, _free, lo, _up in _mu_cells(E, query.root, query.alpha,
                                               query.J + split_budget, budget):
            mass += lo
            if vol_pow.hi <= scale.lo * mass:
                mass_check = "certified"
                break
    return EmbeddingReport(lhs, rhs, ratio, len(cells), mass_check)
