#!/usr/bin/env python3
"""Estimate the Aikawa-Assouad codimension of the middle-thirds Cantor set.

The true value is 1 - log 2 / log 3 ~ 0.36907.  Prints the trajectory
increments per grid exponent and the resulting estimate at several depths.
"""

import math
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cubeporos.analysis import codim_estimate, porosity_scan  # noqa: E402
from cubeporos.families import enumerate_DE  # noqa: E402
from cubeporos.lattice import DyadicCube  # noqa: E402
from cubeporos.sets import cantor_middle_thirds  # noqa: E402


def run(J_max: int = 14):
    C = cantor_middle_thirds()
    root = DyadicCube.root(1)
    target = 1 - math.log(2) / math.log(3)
    scan = porosity_scan(C, 5, 4)
    print(f"porosity constant at depth 5: {scan.eta_hat}")
    grid = [Fraction(k, 50) for k in range(1, 50)]
    for J in (8, 11, J_max):
        t0 = time.time()
        est = codim_estimate(enumerate_DE(C, root, J), grid, range(4, J + 1))
        print(f"J={J:2d}: estimate {float(est.estimate):.2f} "
              f"(target {target:.5f}) in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    run(int(sys.argv[1]) if len(sys.argv) > 1 else 14)
