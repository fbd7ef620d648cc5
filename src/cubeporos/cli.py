"""Command-line front end: parse set/family files, run analyses, emit reports.

Exit codes: 0 success, 2 validation error (malformed input, violated
precondition), 3 mathematical budget failure (porosity search or measure
resolution gave up; a partial report is still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from .analysis import (DEFAULT_SPLIT_BUDGET, codim_estimate, dynkin_sweep,
                       mu_enclosure, porosity_scan)
from .enclosure import frac_parse, frac_str
from .errors import (CubeporosError, EmptyFamilyError, EmptySetError,
                     NotParentClosed, PorosityFailure, UnresolvedMeasure)
from .families import CubeFamily, enumerate_DE, enumerate_Dgamma
from .generators import random_coefficients, rng_from_seed
from .inverse import invert
from .lattice import DyadicCube
from .neighborhoods import EmbeddingQuery, embedding_check, gamma_carleson, gamma_witness
from .sets import DEFAULT_BUDGET, SetModel, Status, model_from_json
from .sparse import build_witness, verify_witness

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3


class ValidationError(Exception):
    pass


@dataclass
class RunConfig:
    """One command's settings; holds the default of every CLI flag."""
    command: str
    set_path: str | None = None
    family_path: str | None = None
    dim: int | None = None
    depth: int | None = 8
    budget: int = DEFAULT_BUDGET
    split_budget: int = DEFAULT_SPLIT_BUDGET
    search_depth: int = 6
    alpha_grid: tuple = ()
    alpha: Fraction | None = None
    gamma: Fraction | None = None
    p: Fraction = Fraction(1)
    tau: Fraction | None = None
    seed: int = 0
    out: str = "report.json"

    def to_json(self):
        return {
            "command": self.command,
            "set": self.set_path, "family": self.family_path,
            "depth": self.depth, "budget": self.budget,
            "split_budget": self.split_budget, "search_depth": self.search_depth,
            "alpha_grid": [frac_str(a) for a in self.alpha_grid],
            "alpha": frac_str(self.alpha) if self.alpha is not None else None,
            "gamma": frac_str(self.gamma) if self.gamma is not None else None,
            "p": frac_str(self.p),
            "tau": frac_str(self.tau) if self.tau is not None else "adaptive",
            "seed": self.seed, "out": self.out,
        }


def _parse_grid(spec: str) -> tuple:
    try:
        lo_s, hi_s, step_s = spec.split(":")
        lo, hi, step = frac_parse(lo_s), frac_parse(hi_s), frac_parse(step_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be LO:HI:STEP, got {spec!r}")
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad alpha grid {spec!r}")
    grid = []
    a = lo
    while a <= hi:
        grid.append(a)
        a += step
    return tuple(grid)


def _load_json_file(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {what} file {path}: {exc}")


def _load_set(config: RunConfig) -> SetModel:
    if not config.set_path:
        raise ValidationError("--set FILE is required for this command")
    obj = _load_json_file(config.set_path, "set")
    try:
        model = model_from_json(obj)
    except (KeyError, ValueError, CubeporosError) as exc:
        raise ValidationError(f"bad set description at {config.set_path}: {exc}")
    if config.dim is not None and model.dim != config.dim:
        raise ValidationError(
            f"--dim {config.dim} does not match the {model.dim}-d set model")
    return model


def _load_family(config: RunConfig) -> CubeFamily:
    if not config.family_path:
        raise ValidationError("--family FILE is required for this command")
    obj = _load_json_file(config.family_path, "family")
    try:
        return CubeFamily.from_json(obj)
    except (KeyError, ValueError, CubeporosError) as exc:
        raise ValidationError(f"bad family file at {config.family_path}: {exc}")


def _dump_json(path: str, payload):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv_path(out: str) -> str:
    return os.path.splitext(out)[0] + ".csv"


def _sweep_rows(DE, alpha_grid, J_list):
    rows = []
    root = json.dumps(DE.root.to_json(), sort_keys=True)
    for rep in dynkin_sweep(DE, alpha_grid, J_list):
        rows.append([frac_str(rep.alpha), rep.J, root,
                     frac_str(rep.value.lo), frac_str(rep.value.hi),
                     frac_str(rep.ratio.lo), frac_str(rep.ratio.hi)])
    return rows


def _write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


SWEEP_HEADER = ["alpha", "J", "root", "value_lo", "value_hi", "ratio_lo", "ratio_hi"]


def _analysis_J_list(J: int):
    cand = sorted({max(1, J - 6), max(1, J - 4), max(1, J - 2), J})
    if len(cand) < 2:
        cand = sorted({max(1, J - 1), J})
    return cand


def cmd_analyze(config: RunConfig) -> int:
    E = _load_set(config)
    if E.is_empty:
        raise ValidationError("cannot analyze an empty set")
    d = E.dim
    root = DyadicCube.root(d)
    grid = config.alpha_grid or _parse_grid("1/10:1:1/10")
    for a in grid:
        if a < 0 or a > d:
            raise ValidationError(f"alpha grid entry {a} outside [0, {d}]")
    J = config.depth
    J_list = _analysis_J_list(J)
    scan_depth = min(J, 6 if d == 1 else 3)
    scan = porosity_scan(E, scan_depth, min(J, config.search_depth), config.budget)
    # one family serves the codimension estimate and the sweep CSV
    family = enumerate_DE(E, root, J_list[-1], config.budget)
    codim = codim_estimate([family], grid, J_list, config.tau)

    failure = bool(scan.absent)
    mu_json = None
    if E.intersect_status(root.box, config.budget) is not Status.FREE:
        alpha_mid = grid[len(grid) // 2]
        if alpha_mid >= d:
            alpha_mid = grid[0] if grid[0] < d else Fraction(1, 2) * d
        mu = mu_enclosure(E, root, alpha_mid, J, config.budget, config.split_budget)
        mu_json = mu.to_json()
        failure = failure or not mu.bounded

    report = {
        "config": config.to_json(),
        "porosity": scan.to_json(),
        "codim": codim.to_json(),
        "mu": mu_json,
    }
    _dump_json(config.out, report)
    _write_csv(_csv_path(config.out), SWEEP_HEADER, _sweep_rows(family, grid, J_list))
    return EXIT_BUDGET if failure else EXIT_OK


def cmd_witness(config: RunConfig) -> int:
    E = _load_set(config)
    if E.is_empty:
        raise ValidationError("cannot build a witness for an empty set")
    root = DyadicCube.root(E.dim)
    try:
        witness = build_witness(E, root, config.depth, config.search_depth,
                                config.budget)
    except PorosityFailure as exc:
        _dump_json(config.out, {
            "config": config.to_json(),
            "error": "porosity-failure",
            "cube": exc.cube.to_json(),
        })
        print(f"porosity failure at {exc.cube}", file=sys.stderr)
        return EXIT_BUDGET
    verdict = verify_witness(witness, E, config.budget)
    payload = witness.to_json()
    payload["verified"] = bool(verdict)
    payload["config"] = config.to_json()
    _dump_json(config.out, payload)
    return EXIT_OK if verdict else EXIT_BUDGET


def cmd_invert(config: RunConfig) -> int:
    family = _load_family(config)
    try:
        _E, report = invert(family, config.depth, config.budget)
    except NotParentClosed as exc:
        _dump_json(config.out, {
            "config": config.to_json(),
            "error": "not-parent-closed",
            "cube": exc.cube.to_json(),
        })
        print(f"family not parent-closed at {exc.cube}", file=sys.stderr)
        return EXIT_VALIDATION
    except EmptyFamilyError as exc:
        raise ValidationError(str(exc))
    payload = report.to_json()
    payload["config"] = config.to_json()
    _dump_json(config.out, payload)
    return EXIT_OK


def cmd_gamma(config: RunConfig) -> int:
    E = _load_set(config)
    if E.is_empty:
        raise ValidationError("cannot run gamma analysis on an empty set")
    if config.gamma is None:
        raise ValidationError("--gamma P/Q is required")
    if config.gamma <= 0:
        raise ValidationError(f"--gamma must be positive, got {config.gamma}")
    d = E.dim
    root = DyadicCube.root(d)
    alpha = config.alpha if config.alpha is not None else Fraction(1, 2)
    if not 0 < alpha < d:
        raise ValidationError(f"alpha {alpha} outside (0, {d})")
    payload = {"config": config.to_json()}
    code = EXIT_OK
    family = enumerate_Dgamma(E, root, config.gamma, config.depth, config.budget)
    try:
        report = gamma_carleson(E, family, config.gamma, config.budget)
        payload["gamma_report"] = report.to_json()
    except EmptyFamilyError as exc:
        raise ValidationError(str(exc))
    try:
        witness = gamma_witness(E, family, config.search_depth, config.budget)
        payload["witness"] = witness.to_json()
    except (PorosityFailure, UnresolvedMeasure) as exc:
        payload["witness"] = {"error": str(exc)}
        code = EXIT_BUDGET

    rng = rng_from_seed(config.seed)
    coeffs = random_coefficients(rng, family)
    query = EmbeddingQuery.make(config.p, alpha, config.gamma, root,
                                config.depth, coeffs)
    try:
        emb = embedding_check(E, query, family, config.budget, config.split_budget)
        payload["embedding"] = {"query": query.to_json(), "report": emb.to_json()}
    except UnresolvedMeasure as exc:
        payload["embedding"] = {"query": query.to_json(), "error": str(exc)}
        code = EXIT_BUDGET
    _dump_json(config.out, payload)
    return code


def cmd_plotdata(config: RunConfig) -> int:
    rows = []
    family_rows = []
    if config.set_path:
        E = _load_set(config)
        if not E.is_empty:
            root = DyadicCube.root(E.dim)
            grid = config.alpha_grid or _parse_grid("1/10:1:1/10")
            J_list = _analysis_J_list(config.depth)
            # J_list ends at --depth or above, so one family serves both files
            family = enumerate_DE(E, root, J_list[-1], config.budget)
            rows = _sweep_rows(family, grid, J_list)
            counts = family.level_counts()
            family_rows = [[depth, counts.get(depth, 0)]
                           for depth in range(config.depth + 1)]
    elif config.family_path:
        family = _load_family(config)
        counts = family.level_counts()
        if family.members:
            top = max(counts)
            family_rows = [[depth, counts.get(depth, 0)] for depth in range(top + 1)]
    else:
        raise ValidationError("plotdata needs --set or --family")
    sweep_path = _csv_path(config.out)
    _write_csv(sweep_path, SWEEP_HEADER, rows)
    _write_csv(sweep_path.removesuffix(".csv") + "_families.csv",
               ["depth", "family_size"], family_rows)
    return EXIT_OK


# every flag's converter; its default is the RunConfig field's
FLAGS = {
    "--set": {"dest": "set_path"},
    "--family": {"dest": "family_path"},
    "--dim": {"type": int},
    "--depth": {"type": int},
    "--budget": {"type": int},
    "--split-budget": {"type": int},
    "--search-depth": {"type": int},
    "--alpha-grid": {"type": _parse_grid},
    "--alpha": {"type": frac_parse},
    "--gamma": {"type": frac_parse},
    "--p": {"type": frac_parse},
    "--tau": {"type": frac_parse},
    "--seed": {"type": int},
    "--out": {},
}

# name -> (command, its flags, its defaults that differ from RunConfig's)
COMMANDS = {
    "analyze": (cmd_analyze, "--set --dim --depth --budget --split-budget "
                "--search-depth --alpha-grid --tau --out", {}),
    "witness": (cmd_witness, "--set --dim --depth --budget --search-depth --out", {}),
    # depth None lets invert() take the deepest family member + 8
    "invert": (cmd_invert, "--family --depth --budget --out", {"depth": None}),
    "gamma": (cmd_gamma, "--set --dim --depth --budget --split-budget "
              "--search-depth --alpha --gamma --p --seed --out", {}),
    "plotdata": (cmd_plotdata, "--set --family --dim --depth --budget --alpha-grid "
                 "--out", {}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubeporos",
        description="exact dyadic-lattice analytics for porous sets")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_run, flags, defaults) in COMMANDS.items():
        # an absent flag leaves its RunConfig default; no prefix matching, so
        # a flag a command does not read cannot pass for one it does
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS,
                           allow_abbrev=False)
        for flag in flags.split():
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(**defaults)
    return parser


def main(argv=None) -> int:
    try:
        config = RunConfig(**vars(_build_parser().parse_args(argv)))
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        for flag, value in (("--depth", config.depth),
                            ("--search-depth", config.search_depth)):
            if value is not None and value < 0:
                raise ValidationError(f"{flag} must be >= 0, got {value}")
        return COMMANDS[config.command][0](config)
    except (ValidationError, EmptySetError, EmptyFamilyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PorosityFailure, UnresolvedMeasure) as exc:
        print(f"budget failure: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
