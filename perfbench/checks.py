"""Independent checks of cubeporos reports.

Every expected value is recomputed here from the generated inputs with the
oracles in `oracles.py`, or is a property the method must have; nothing is
compared against a stored copy of an earlier report, and nothing here calls
into cubeporos.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

from oracles import packing_constant


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def frac(s) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def cube(obj) -> tuple:
    return (int(obj["depth"]), tuple(int(k) for k in obj["coords"]))


def strictly_inside(inner, outer) -> bool:
    (dj, dk), (oj, ok) = inner, outer
    return dj > oj and tuple(x >> (dj - oj) for x in dk) == ok


def volume_ratio(outer, inner, dim) -> Fraction:
    return Fraction(1 << (dim * (inner[0] - outer[0])))


# ---------------------------------------------------------------------------
# one-dimensional masses  integral of min_p |x - p|^(-alpha) dx, in closed form

def _iv(x: Fraction):
    from mpmath import iv
    iv.prec = 256  # far below the program's 2^-60 relative enclosure widths
    return iv.mpf(x.numerator) / iv.mpf(x.denominator)


def _ipow(x: Fraction, e: Fraction):
    """Rigorous mpmath interval around x**e for x >= 0, e > 0."""
    from mpmath import iv
    if x == 0:
        return iv.mpf(0)
    return iv.exp(_iv(e) * iv.log(_iv(x)))


def mass_1d(points, u: Fraction, v: Fraction, alpha: Fraction):
    """Interval around the mass of [u, v] against the sorted 1-d points."""
    from mpmath import iv
    beta = 1 - alpha
    cuts = {u, v}
    cuts.update(p for p in points if u < p < v)
    cuts.update((p + q) / 2 for p, q in zip(points, points[1:]) if u < (p + q) / 2 < v)
    cuts = sorted(cuts)
    total = iv.mpf(0)
    for s, t in zip(cuts, cuts[1:]):
        mid = (s + t) / 2
        p = min(points, key=lambda x: abs(x - mid))
        if p <= s:
            part = _ipow(t - p, beta) - _ipow(s - p, beta)
        else:
            part = _ipow(p - s, beta) - _ipow(p - t, beta)
        total += part
    return total / _iv(beta)


def interval_inside(value, lo: Fraction, hi: Fraction | None) -> bool:
    """True when the rigorous interval `value` lies in [lo, hi] (hi None = inf)."""
    return _iv(lo).b <= value.a and (hi is None or value.b <= _iv(hi).a)


# ---------------------------------------------------------------------------
# per-command checks

def check_porosity(report, oracle, dim):
    por = report["porosity"]
    require(not por["absent"], f"porosity scan left {len(por['absent'])} cubes absent")
    best = None
    for rec in por["records"]:
        q = cube(rec["cube"])
        require(rec["free"] is not None, f"no free cube recorded for {q}")
        m = cube(rec["free"])
        require(strictly_inside(m, q), f"porosity free cube {m} not inside {q}")
        require(not oracle.meets(*m), f"porosity free cube {m} meets the set")
        ratio = volume_ratio(q, m, dim)
        require(frac(rec["ratio"]) == ratio, f"porosity ratio of {q} is not |Q|/|M|")
        best = ratio if best is None or ratio > best else best
    require(frac(por["eta_hat"]) == best, "eta_hat is not the largest porosity ratio")


def check_cantor_analyze(report):
    mu = report["mu"]
    require(mu is not None and mu["upper"] is None,
            "Cantor mass at alpha above the codimension reported finite")
    require(frac(mu["lower"]) > 0, "Cantor mass lower bound is not positive")
    codim = report["codim"]
    grid = sorted(frac(a) for a in codim["alpha_grid"])
    step = max(b - a for a, b in zip(grid, grid[1:]))
    target = 1 - math.log(2) / math.log(3)
    est = float(frac(codim["estimate"]))
    require(abs(est - target) <= float(step),
            f"codim estimate {est} not within {step} of 1 - log2/log3")


def check_points_analyze(report, points):
    mu = report["mu"]
    require(mu is not None and mu["upper"] is not None, "points mass reported unbounded")
    true = mass_1d(points, Fraction(0), Fraction(1), frac(mu["alpha"]))
    require(interval_inside(true, frac(mu["lower"]), frac(mu["upper"])),
            f"mu enclosure misses the closed-form mass {true}")


def brute_gamma_family(oracle, gamma: Fraction, J: int) -> set:
    """1-d cubes down to depth J with dist(Q, E) < gamma * side(Q), no pruning."""
    return {(j, (k,)) for j in range(J + 1) for k in range(1 << j)
            if oracle.cube_dist(j, (k,)) < gamma / (1 << j)}


def check_gamma(report, oracle, family):
    gr = report["gamma_report"]
    require(gr["family_size"] == len(family),
            f"gamma family size {gr['family_size']} != brute force {len(family)}")
    measured = frac(gr["measured"])
    require(measured == packing_constant(family, 1),
            "gamma packing constant differs from the brute-force family's")
    require(measured <= frac(gr["bound"]), "gamma packing constant exceeds its bound")
    wit = report["witness"]
    require("error" not in wit, f"gamma witness failed: {wit.get('error')}")
    for a in wit["assignments"]:
        m = cube(a["m"])
        require(not oracle.meets(*m), f"gamma witness cube {m} meets the set")


def embedding_sides(query, points):
    """(lhs, rhs) intervals: p-norms of the stack sum and stack sup, summed
    over the depth-J cells of the query root with closed-form cell masses."""
    from mpmath import iv
    p, alpha = frac(query["p"]), frac(query["alpha"])
    root = cube(query["R"])
    J = int(query["J"])
    require(root == (0, (0,)), "embedding root is not the unit root")
    coeffs = {cube(e["q"]): frac(e["a"]) for e in query["coeffs"]}
    lhs = iv.mpf(0)
    rhs = iv.mpf(0)
    side = Fraction(1, 1 << J)
    for k in range(1 << J):
        stack = [coeffs.get((j, (k >> (J - j),)), Fraction(0)) for j in range(J + 1)]
        total, peak = sum(stack), max(stack)
        if total == 0:
            continue
        mass = mass_1d(points, k * side, (k + 1) * side, alpha)
        lhs += _ipow(total, p) * mass
        rhs += _ipow(peak, p) * mass
    inv_p = 1 / p
    return (iv.exp(_iv(inv_p) * iv.log(lhs)), iv.exp(_iv(inv_p) * iv.log(rhs)))


def check_embedding(report, expected):
    emb = report["embedding"]
    require("error" not in emb, f"embedding failed: {emb.get('error')}")
    lhs, rhs = expected
    rep = emb["report"]
    require(interval_inside(lhs, frac(rep["lhs"][0]), frac(rep["lhs"][1])),
            f"embedding lhs misses the recomputed sum {lhs}")
    require(interval_inside(rhs, frac(rep["rhs"][0]), frac(rep["rhs"][1])),
            f"embedding rhs misses the recomputed sum {rhs}")


def check_witness(report, oracle, dim, meeting):
    require(report.get("verified") is True, "witness not verified by the program")
    placed = set()
    assigned = set()
    lam = Fraction(1)
    for a in report["assignments"]:
        q, m = cube(a["q"]), cube(a["m"])
        require(strictly_inside(m, q), f"witness cube {m} not strictly inside {q}")
        require(not oracle.meets(*m), f"witness cube {m} meets the set")
        require(m not in placed, f"witness cube {m} assigned twice")
        placed.add(m)
        assigned.add(q)
        lam = max(lam, volume_ratio(q, m, dim))
    for depth, coords in placed:
        for up in range(1, depth + 1):
            anc = (depth - up, tuple(x >> up for x in coords))
            require(anc not in placed, f"witness cubes {anc} and {(depth, coords)} overlap")
    require(frac(report["lambda_hat"]) == lam, "lambda_hat is not the largest volume ratio")
    missing = meeting - assigned
    require(not missing, f"{len(missing)} meeting cubes have no witness cube")


def check_plotdata(sweep_path, families_path, counts):
    with open(families_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    got = [(int(d), int(n)) for d, n in rows]
    require(got == list(enumerate(counts)),
            "per-level family counts differ from the independent count")
    with open(sweep_path, encoding="utf-8", newline="") as fh:
        sweep = list(csv.DictReader(fh))
    require(sweep, "empty sweep")
    by_alpha = {}
    for row in sweep:
        by_alpha.setdefault(row["alpha"], []).append(
            (int(row["J"]), frac(row["value_lo"]), frac(row["value_hi"])))
    for alpha, traj in by_alpha.items():
        traj.sort()
        for (_j1, lo1, hi1), (_j2, lo2, hi2) in zip(traj, traj[1:]):
            require(lo1 <= lo2 and hi1 <= hi2, f"sweep at alpha={alpha} decreases in J")


def level_counts(cubes, depth) -> list:
    counts = [0] * (depth + 1)
    for j, _k in cubes:
        counts[j] += 1
    return counts


def check_invert(report, members, dim, depth, xi):
    require(frac(report["xi"]) == xi, "xi differs from the family's packing constant")
    factor = Fraction(1 << dim, (1 << dim) - 1)
    bound = xi + factor + factor * xi
    require(frac(report["bound"]) == bound, "bound is not C(xi)")
    require(frac(report["measured"]) <= bound, "measured packing constant exceeds C(xi)")
    require(report["J"] == depth, f"inverse measured at J={report['J']}, asked {depth}")
    require(report["chain_coverage_ok"] is True, "chain coverage not certified")
    require(report["corner_membership_ok"] is True, "corner membership not certified")
    roots = set()
    for split in report["roots"]:
        roots.add(cube(split["root"]))
        require(frac(split["s2"]) == frac(split["s3"]) + frac(split["s4"]),
                f"s2 != s3 + s4 at {split['root']}")
    missing = set(members) - roots
    require(not missing, f"{len(missing)} family members are not among the roots")


def sqrt2_minus_bounds(lower: Fraction, upper: Fraction | None) -> bool:
    """True when [lower, upper] contains 2 - sqrt(2), decided in exact rationals."""
    a = 2 - lower          # lower <= 2 - sqrt2  <=>  a >= sqrt2
    low_ok = a >= 0 and a * a >= 2
    if upper is None:
        return low_ok
    b = 2 - upper          # upper >= 2 - sqrt2  <=>  b <= sqrt2
    return low_ok and (b <= 0 or b * b <= 2)
