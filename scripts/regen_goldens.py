#!/usr/bin/env python3
"""Regenerate the golden reports used by the regression tests.

Writes the gamma reports on the origin point set (seeds 11-13), listed
with their argument lists and exit codes in `gamma_runs.json`, the
Cantor-set runs of `analyze`, `plotdata` and `gamma`, whose argument lists,
exit codes and output files are listed in `cantor_runs.json`, and the
`invert` run on a seeded 2-d parent-closed family, listed with its input
file in `invert_runs.json`.  Every run uses paths relative to its working
directory, so the reports carry no machine-specific path and compare
byte-for-byte.

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

CANTOR = {"kind": "ifs",
          "maps": [{"ratio": "1/3", "shift": ["0/1"]},
                   {"ratio": "1/3", "shift": ["2/3"]}],
          "hull": {"lo": ["0/1"], "hi": ["1/1"]}}

# name -> (arguments after `--set cantor.json`, files the run writes)
CANTOR_RUNS = {
    "analyze": (["analyze", "--depth", "5", "--split-budget", "4",
                 "--out", "cantor_analyze.json"],
                ["cantor_analyze.json", "cantor_analyze.csv"]),
    "plotdata": (["plotdata", "--depth", "10", "--out", "cantor_plotdata.csv"],
                 ["cantor_plotdata.csv", "cantor_plotdata_families.csv"]),
    "gamma": (["gamma", "--gamma", "2/1", "--depth", "5",
               "--out", "cantor_gamma.json"],
              ["cantor_gamma.json"]),
}

FAMILY_FILE = "invert_family_2d.json"
INVERT_ARGV = ["invert", "--family", FAMILY_FILE, "--depth", "12",
               "--out", "invert_2d.json"]


def regen_gamma(tmp: Path):
    (tmp / "origin.json").write_text(json.dumps({"kind": "points", "points": [["0/1"]]}))
    manifest = {}
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for seed in (11, 12, 13):
            out = f"gamma_seed{seed}.json"
            argv = ["gamma", "--set", "origin.json", "--gamma", "3/2",
                    "--depth", "5", "--seed", str(seed), "--out", out]
            code = main(argv)
            if code != 0:
                raise SystemExit(f"gamma run for seed {seed} exited with {code}")
            manifest[out] = {"argv": argv, "exit": code, "files": [out]}
            target = GOLDEN_DIR / out
            target.write_bytes((tmp / out).read_bytes())
            print(f"wrote {target}")
    finally:
        os.chdir(cwd)
    target = GOLDEN_DIR / "gamma_runs.json"
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target}")


def regen_cantor(tmp: Path):
    (tmp / "cantor.json").write_text(json.dumps(CANTOR))
    manifest = {}
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        for name, (args, files) in CANTOR_RUNS.items():
            argv = [args[0], "--set", "cantor.json"] + args[1:]
            code = main(argv)
            manifest[name] = {"argv": argv, "exit": code, "files": files}
            for f in files:
                target = GOLDEN_DIR / f
                target.write_bytes((tmp / f).read_bytes())
                print(f"wrote {target}")
    finally:
        os.chdir(cwd)
    target = GOLDEN_DIR / "cantor_runs.json"
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target}")


def regen_invert(tmp: Path):
    # seeded 2-d parent-closed family: 249 cubes, deepest at depth 10
    family = random_parent_closed_family(rng_from_seed(1), 2, max_depth=10,
                                         keep_num=2, keep_den=5)
    text = json.dumps(family.to_json(), sort_keys=True) + "\n"
    (tmp / FAMILY_FILE).write_text(text)
    (GOLDEN_DIR / FAMILY_FILE).write_text(text)
    print(f"wrote {GOLDEN_DIR / FAMILY_FILE}")
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        code = main(INVERT_ARGV)
    finally:
        os.chdir(cwd)
    out = INVERT_ARGV[-1]
    target = GOLDEN_DIR / out
    target.write_bytes((tmp / out).read_bytes())
    print(f"wrote {target}")
    manifest = {"invert": {"argv": INVERT_ARGV, "exit": code,
                           "inputs": [FAMILY_FILE], "files": [out]}}
    target = GOLDEN_DIR / "invert_runs.json"
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target}")


def regen():
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        regen_gamma(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        regen_cantor(Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        regen_invert(Path(tmp))


if __name__ == "__main__":
    # no options: --help prints the usage, any other argument exits 2
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    regen()
