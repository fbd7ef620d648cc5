#!/usr/bin/env python3
"""Sweep the power-weighted sums for the one-point set at the origin.

Prints the free-cube sum trajectories for a grid of exponents and compares
the deepest values against the geometric-series limits.  A quick sanity
experiment, not a test.
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cubeporos.analysis import codim_estimate, de_sum, dynkin_sum  # noqa: E402
from cubeporos.families import enumerate_DE  # noqa: E402
from cubeporos.lattice import DyadicCube  # noqa: E402
from cubeporos.sets import PointsModel  # noqa: E402


def run(J: int = 20):
    E = PointsModel.make([(0,)])
    root = DyadicCube.root(1)
    print(f"{'alpha':>6} {'dynkin':>12} {'de':>12} {'limit(de)':>12}")
    for k in range(1, 20):
        alpha = Fraction(k, 20)
        dyn = dynkin_sum(E, root, alpha, J)
        de = de_sum(E, root, alpha, J)
        q = 2 ** (1 - float(alpha))
        limit = q / (q - 1)
        print(f"{float(alpha):6.2f} {float(dyn.value.lo):12.6f} "
              f"{float(de.value.lo):12.6f} {limit:12.6f}")
    grid = [Fraction(k, 20) for k in range(1, 21)]
    est = codim_estimate(enumerate_DE(E, root, J), grid, range(2, J + 1))
    print(f"codimension estimate: {est.estimate} (true value 1)")


if __name__ == "__main__":
    run(int(sys.argv[1]) if len(sys.argv) > 1 else 20)
