#!/usr/bin/env python3
"""Regenerate the golden reports used by the regression tests.

Every golden run is one row of `RUNS`: its argument list, the exit code it
must end with and the files it writes.  A run's input is the file after
`--set` or `--family`, one of `INPUTS`.  All runs go in one temporary
directory, with paths relative to it, so the reports carry no
machine-specific path and compare byte-for-byte.  Only when every run ended
with its row's exit code are the inputs, the outputs and the manifest
`runs.json` of the rows copied into tests/golden/; otherwise nothing is.

Usage: python scripts/regen_goldens.py
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cubeporos.cli import main  # noqa: E402
from cubeporos.generators import (random_parent_closed_family,  # noqa: E402
                                  rng_from_seed)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "golden"

# file -> its JSON, or the seeded builder of it
INPUTS = {
    "origin.json": {"kind": "points", "points": [["0/1"]]},
    "cantor.json": {"kind": "ifs",
                    "maps": [{"ratio": "1/3", "shift": ["0/1"]},
                             {"ratio": "1/3", "shift": ["2/3"]}],
                    "hull": {"lo": ["0/1"], "hi": ["1/1"]}},
    "points_2d.json": {"kind": "points", "points": [["1/4", "1/2"], ["3/4", "1/8"]]},
    # seeded 2-d parent-closed family: 249 cubes, deepest at depth 10
    "invert_family_2d.json": lambda: random_parent_closed_family(
        rng_from_seed(1), 2, max_depth=10, keep_num=2, keep_den=5).to_json(),
}

# name -> (argument list, exit code, files the run writes)
RUNS = {
    **{f"gamma_seed{seed}": (
        f"gamma --set origin.json --gamma 3/2 --depth 5 --seed {seed} "
        f"--out gamma_seed{seed}.json".split(), 0, [f"gamma_seed{seed}.json"])
       for seed in (11, 12, 13)},
    "origin_analyze": ("analyze --set origin.json --depth 5 "
                       "--out origin_analyze.json".split(),
                       0, ["origin_analyze.json", "origin_analyze.csv"]),
    # 130 point-bound cells read the d >= 2 distance scan
    "points_2d_analyze": ("analyze --set points_2d.json --depth 3 "
                          "--out points_2d_analyze.json".split(),
                          3, ["points_2d_analyze.json", "points_2d_analyze.csv"]),
    "cantor_analyze": ("analyze --set cantor.json --depth 5 --split-budget 4 "
                       "--out cantor_analyze.json".split(),
                       3, ["cantor_analyze.json", "cantor_analyze.csv"]),
    "cantor_plotdata": ("plotdata --set cantor.json --depth 10 "
                        "--out cantor_plotdata.csv".split(),
                        0, ["cantor_plotdata.csv", "cantor_plotdata_families.csv"]),
    "cantor_gamma": ("gamma --set cantor.json --gamma 2/1 --depth 5 "
                     "--out cantor_gamma.json".split(), 3, ["cantor_gamma.json"]),
    "cantor_witness": ("witness --set cantor.json --depth 6 "
                       "--out cantor_witness.json".split(), 0, ["cantor_witness.json"]),
    "invert_2d": ("invert --family invert_family_2d.json --depth 12 "
                  "--out invert_2d.json".split(), 0, ["invert_2d.json"]),
    "family_plotdata": ("plotdata --family invert_family_2d.json "
                        "--out family_plotdata.csv".split(),
                        0, ["family_plotdata.csv", "family_plotdata_families.csv"]),
}


def regen():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, payload in INPUTS.items():
            payload = payload() if callable(payload) else payload
            (tmp / name).write_text(json.dumps(payload, sort_keys=True) + "\n")
        manifest = {}
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, (argv, code, files) in RUNS.items():
                got = main(argv)
                if got != code:
                    raise SystemExit(f"run {name} exited with {got}, not {code}: "
                                     f"no golden written")
                manifest[name] = {"argv": argv, "exit": code, "files": files}
        finally:
            os.chdir(cwd)
        (tmp / "runs.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        for f in [*INPUTS, *(f for row in manifest.values() for f in row["files"]),
                  "runs.json"]:
            target = GOLDEN_DIR / f
            target.write_bytes((tmp / f).read_bytes())
            print(f"wrote {target}")


if __name__ == "__main__":
    # no options: --help prints the usage, any other argument exits 2
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    regen()
