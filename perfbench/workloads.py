"""The three workloads: seeded input generation and the operations of a round.

A workload's `setup(seed, workdir)` writes its input files and returns the
operations of one round.  Each operation is a CLI call made in-process
through `cubeporos.cli.main`, or one library call, and carries a check that
recomputes the expected output with `oracles.py` (see `checks.py`).  The
expected values are computed lazily on the first check, after set-up.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from cubeporos import analysis, cli
from cubeporos.lattice import Box, DyadicCube
from cubeporos.sets import IFSModel

import checks
from checks import CheckFailed, load_json, require
from oracles import CantorOracle, DyadicPointsOracle, meeting_cubes, packing_constant

EXIT_OK = 0
EXIT_BUDGET = 3


@dataclass
class Op:
    """One operation: `run()` returns a result that `check(result)` verifies."""

    name: str
    run: Callable
    check: Callable
    timed_as: str | None = None     # name of its per-call time; None: untimed
    known_fault: str | None = None  # the program fault that makes it fail


def cli_op(name, argv, expect, check) -> Op:
    def verify(code):
        require(code == expect, f"exit code {code}, expected {expect}")
        check()
    return Op(name, lambda: cli.main(argv), verify, timed_as=f"{name}_s")


class Lazy:
    """Expected values, each computed once per process on first use."""

    def __init__(self, **makers):
        self._makers = makers
        self._values = {}

    def __getattr__(self, key):
        if key.startswith("_"):
            raise AttributeError(key)
        if key not in self._values:
            self._values[key] = self._makers[key]()
        return self._values[key]


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _frac_str(num, bits):
    x = Fraction(num, 1 << bits)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# cantor-ifs

CANTOR = {"kind": "ifs",
          "maps": [{"ratio": "1/3", "shift": ["0/1"]},
                   {"ratio": "1/3", "shift": ["2/3"]}],
          "hull": {"lo": ["0/1"], "hi": ["1/1"]}}

MU_FAULT = ("_mu_cell passes parent_meets=True to the children of an UNDETERMINED "
            "parent, so _free_cell_bounds caps their distance at 2*side and "
            "raises the lower bound above the true mass")


def mu_low_budget() -> Op:
    """mu_enclosure on the IFS x -> x/2 (attractor {0}) at budget 1.

    The true mass of [1/2, 1) at alpha = 1/2 is 2(1 - sqrt(1/2)) = 2 - sqrt 2.
    """
    E = IFSModel.make([(Fraction(1, 2), (Fraction(0),))], Box.make([0], [1]))
    R = DyadicCube(1, (1,))

    def run():
        return analysis.mu_enclosure(E, R, Fraction(1, 2), 3, budget=1, split_budget=2)

    def check(enc):
        if not checks.sqrt2_minus_bounds(enc.lower, enc.upper):
            hi = "inf" if enc.upper is None else f"{float(enc.upper):.4f}"
            raise CheckFailed(f"enclosure [{float(enc.lower):.4f}, {hi}] misses "
                              f"2(1 - sqrt(1/2)) = 0.5858: {MU_FAULT}")
    return Op("mu-low-budget", run, check, known_fault=MU_FAULT)


def setup_cantor(seed, work) -> list:
    set_path = os.path.join(work, "cantor.json")
    _write_json(set_path, CANTOR)
    oracle = CantorOracle()
    gamma, J_gamma = Fraction(2), 8
    exp = Lazy(
        meeting_10=lambda: meeting_cubes(oracle, 1, 10),
        counts_16=lambda: checks.level_counts(meeting_cubes(oracle, 1, 16), 16),
        gamma_family=lambda: checks.brute_gamma_family(oracle, gamma, J_gamma),
    )
    out = lambda name: os.path.join(work, name)

    def check_analyze():
        rep = load_json(out("analyze.json"))
        checks.check_porosity(rep, oracle, 1)
        checks.check_cantor_analyze(rep)

    def check_gamma():
        rep = load_json(out("gamma.json"))
        checks.check_gamma(rep, oracle, exp.gamma_family)
        # alpha = 1/2 exceeds the codimension 1 - log2/log3: masses are infinite
        require("error" in rep["embedding"], "embedding reported a finite Cantor mass")

    analyze = cli_op("analyze", ["analyze", "--set", set_path, "--depth", "8",
                                 "--out", out("analyze.json")], EXIT_BUDGET, check_analyze)
    gamma_op = cli_op("gamma", ["gamma", "--set", set_path, "--gamma", "2/1",
                                "--depth", str(J_gamma), "--seed", str(seed),
                                "--out", out("gamma.json")], EXIT_BUDGET, check_gamma)
    witness = cli_op("witness", ["witness", "--set", set_path, "--depth", "10",
                                 "--out", out("witness.json")], EXIT_OK,
                     lambda: checks.check_witness(load_json(out("witness.json")),
                                                  oracle, 1, exp.meeting_10))
    plotdata = cli_op("plotdata", ["plotdata", "--set", set_path, "--depth", "16",
                                   "--out", out("sweep.csv")], EXIT_OK,
                      lambda: checks.check_plotdata(out("sweep.csv"),
                                                    out("sweep_families.csv"),
                                                    exp.counts_16))
    return [analyze, gamma_op, witness, plotdata, mu_low_budget()]


# ---------------------------------------------------------------------------
# points-1d

POINT_BITS = 16
POINT_STRATA = 32   # two points per stratum of width 1/32


def points_1d(seed) -> list:
    """64 distinct numerators over 2^16, two drawn in each 1/32 stratum.

    Stratifying keeps the spacing, and so the cost, comparable across seeds
    while still leaving empty depth-6 cells for the porosity search.
    """
    rng = random.Random(seed)
    width = (1 << POINT_BITS) // POINT_STRATA
    nums = []
    for s in range(POINT_STRATA):
        nums.extend(s * width + x for x in rng.sample(range(width), 2))
    return sorted(nums)


def setup_points(seed, work) -> list:
    nums = points_1d(seed)
    set_path = os.path.join(work, "points.json")
    _write_json(set_path, {"kind": "points",
                           "points": [[_frac_str(n, POINT_BITS)] for n in nums]})
    oracle = DyadicPointsOracle([(n,) for n in nums], POINT_BITS)
    pts = [Fraction(n, 1 << POINT_BITS) for n in nums]
    gamma, J_gamma = Fraction(3, 2), 10
    out = lambda name: os.path.join(work, name)
    exp = Lazy(
        meeting_14=lambda: meeting_cubes(oracle, 1, 14),
        counts_24=lambda: checks.level_counts(meeting_cubes(oracle, 1, 24), 24),
        gamma_family=lambda: checks.brute_gamma_family(oracle, gamma, J_gamma),
    )
    embeddings = {}   # query text -> recomputed (lhs, rhs)

    def check_analyze():
        rep = load_json(out("analyze.json"))
        checks.check_porosity(rep, oracle, 1)
        checks.check_points_analyze(rep, pts)

    def check_gamma():
        rep = load_json(out("gamma.json"))
        checks.check_gamma(rep, oracle, exp.gamma_family)
        query = rep["embedding"]["query"]
        key = json.dumps(query, sort_keys=True)
        if key not in embeddings:
            embeddings[key] = checks.embedding_sides(query, pts)
        checks.check_embedding(rep, embeddings[key])

    analyze = cli_op("analyze", ["analyze", "--set", set_path, "--depth", "12",
                                 "--out", out("analyze.json")], EXIT_OK, check_analyze)
    # the gamma witness is built against the family's dense corner set, which
    # has no free cube within the default 6 search levels (exit 3)
    gamma_op = cli_op("gamma", ["gamma", "--set", set_path, "--gamma", "3/2",
                                "--depth", str(J_gamma), "--search-depth", "8",
                                "--seed", str(seed), "--out", out("gamma.json")],
                      EXIT_OK, check_gamma)
    return [
        analyze,
        gamma_op,
        cli_op("witness", ["witness", "--set", set_path, "--depth", "14",
                           "--out", out("witness.json")], EXIT_OK,
               lambda: checks.check_witness(load_json(out("witness.json")), oracle, 1,
                                            exp.meeting_14)),
        cli_op("plotdata", ["plotdata", "--set", set_path, "--depth", "24",
                            "--out", out("sweep.csv")], EXIT_OK,
               lambda: checks.check_plotdata(out("sweep.csv"), out("sweep_families.csv"),
                                             exp.counts_24)),
    ]


# ---------------------------------------------------------------------------
# families-2d

FAMILY_DEPTH = 16


def level_sizes() -> list:
    """Members per depth: round(1.5^j) for j = 0..16, 1,969 in all."""
    return [round(1.5 ** j) for j in range(FAMILY_DEPTH + 1)]


def percolation_family(seed) -> list:
    """Parent-closed 2-d family: at each depth a seeded random choice of the
    children of the previous depth's members, with fixed per-depth sizes so
    that the member count and depth profile do not vary with the seed."""
    rng = random.Random(seed)
    level = [(0, 0)]
    members = [(0, level[0])]
    for depth, size in enumerate(level_sizes()[1:], start=1):
        kids = sorted((2 * x + dx, 2 * y + dy) for x, y in level
                      for dx in (0, 1) for dy in (0, 1))
        level = sorted(rng.sample(kids, size))
        members.extend((depth, k) for k in level)
    return members


def setup_families(seed, work) -> list:
    members = percolation_family(seed)
    cubes = [{"depth": j, "coords": list(k)} for j, k in members]
    family_path = os.path.join(work, "family.json")
    corners_path = os.path.join(work, "corners.json")
    _write_json(family_path, {"root": {"depth": 0, "coords": [0, 0]},
                              "J": FAMILY_DEPTH, "provenance": "USER",
                              "members": cubes})
    _write_json(corners_path, {"kind": "corners", "family": cubes})
    corners = [tuple(x << (FAMILY_DEPTH - j) for x in k) for j, k in members]
    oracle = DyadicPointsOracle(corners, FAMILY_DEPTH)
    # explicit: the CLI would pass its --depth default of 8, not deepest + 8
    J_invert = max(j for j, _k in members) + 8
    out = lambda name: os.path.join(work, name)
    exp = Lazy(
        xi=lambda: packing_constant(members, 2),
        meeting_6=lambda: meeting_cubes(oracle, 2, 6),
        counts_10=lambda: checks.level_counts(meeting_cubes(oracle, 2, 10), 10),
    )
    invert = cli_op("invert", ["invert", "--family", family_path,
                               "--depth", str(J_invert), "--out", out("inverse.json")],
                    EXIT_OK,
                    lambda: checks.check_invert(load_json(out("inverse.json")), members,
                                                2, J_invert, exp.xi))
    return [
        invert,
        cli_op("witness", ["witness", "--set", corners_path, "--depth", "6",
                           "--out", out("witness.json")], EXIT_OK,
               lambda: checks.check_witness(load_json(out("witness.json")), oracle, 2,
                                            exp.meeting_6)),
        cli_op("plotdata", ["plotdata", "--set", corners_path, "--depth", "10",
                            "--out", out("sweep.csv")], EXIT_OK,
               lambda: checks.check_plotdata(out("sweep.csv"), out("sweep_families.csv"),
                                             exp.counts_10)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    setup: Callable


WORKLOADS = {w.name: w for w in (
    Workload("cantor-ifs", 1, setup_cantor),
    Workload("points-1d", 16, setup_points),
    Workload("families-2d", 2, setup_families),
)}
