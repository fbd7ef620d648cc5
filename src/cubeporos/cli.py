"""Command-line front end: parse set/family files, run analyses, emit reports.

Exit codes: 0 success, 2 for every library error (malformed input, violated
precondition), 3 for the three budget failures (a porosity search or a
measure resolution gave up, or a family enumeration or free-cube search
passed its cube cap).
`main` alone turns a library error into its exit code, its one stderr line
and, for a failure at a named cube, a partial report; only `gamma` catches
the budget failures that let the rest of its report stand.  `analyze` and
`witness` write their whole report when a part fails, and print one such
line per failed part.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .analysis import (DEFAULT_SEARCH_DEPTH, DEFAULT_SPLIT_BUDGET, codim_estimate,
                       dynkin_sweep, mu_enclosure, porosity_scan)
from .enclosure import frac_parse, frac_str
from .errors import (CubeporosError, FamilyTooLarge, NotParentClosed,
                     PorosityFailure, UnresolvedMeasure)
from .families import CubeFamily, enumerate_DE, enumerate_Dgamma
from .generators import random_coefficients, rng_from_seed
from .inverse import default_depth, invert
from .lattice import DyadicCube
from .neighborhoods import EmbeddingQuery, embedding_check, gamma_carleson, gamma_witness
from .sets import DEFAULT_BUDGET, MAX_BUDGET, MAX_DEPTH_BITS, SetModel, model_from_json
from .sparse import build_witness, verify_witness

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
MAX_GRID = 1000  # --alpha-grid entries, counted before the grid is built
# numerator and denominator of a rational flag, in absolute value: a larger
# one can make an exact power or a float conversion run away
MAX_RATIONAL = 1000
_BATCH = 256  # report pieces gathered before a file write
# the library errors that exit 3; every other one exits 2
BUDGET_FAILURES = (PorosityFailure, UnresolvedMeasure, FamilyTooLarge)
# the failures at a named cube that leave a partial report
PARTIAL_REPORTS = {PorosityFailure: "porosity-failure",
                   NotParentClosed: "not-parent-closed"}


class ValidationError(CubeporosError):
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
    search_depth: int = DEFAULT_SEARCH_DEPTH
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
    n = (hi - lo) // step + 1
    if n > MAX_GRID:
        raise argparse.ArgumentTypeError(
            f"alpha grid {spec!r} has {n} entries, more than {MAX_GRID}")
    return tuple(lo + i * step for i in range(n))


def _failure_line(exc: CubeporosError, search_depth: int) -> str:
    """The one stderr line of a library error, naming a porosity search's depth."""
    if isinstance(exc, PorosityFailure):
        return (f"porosity failure at {exc.cube}: no free cube within "
                f"--search-depth {search_depth}")
    kind = "budget failure" if isinstance(exc, BUDGET_FAILURES) else "error"
    return f"{kind}: {exc}"


def _load_json_file(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"{what} file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {what} file {path}: {exc}")


# what reading JSON of the wrong shape raises: a missing key, a list where an
# object belongs, a number where a list belongs, a bad value
_BAD_SHAPE = (AttributeError, KeyError, TypeError, ValueError, CubeporosError)


def _load_set(config: RunConfig, purpose: str | None = None) -> SetModel:
    """The --set model, checked against --dim; a `purpose` refuses an empty set."""
    if not config.set_path:
        raise ValidationError("--set FILE is required for this command")
    obj = _load_json_file(config.set_path, "set")
    try:
        model = model_from_json(obj)
    except _BAD_SHAPE as exc:
        raise ValidationError(f"bad set description at {config.set_path}: {exc}")
    if config.dim is not None and model.dim != config.dim:
        raise ValidationError(
            f"--dim {config.dim} does not match the {model.dim}-d set model")
    if purpose and model.is_empty:
        raise ValidationError(f"cannot {purpose} an empty set")
    return model


def _check_depth(depth: int, d: int):
    """Refuse, before any enumeration, a depth whose cells need more than
    MAX_DEPTH_BITS bits of denominator."""
    if depth * d > MAX_DEPTH_BITS:
        raise ValidationError(f"depth {depth} times dimension {d} exceeds "
                              f"{MAX_DEPTH_BITS}")


def _load_family(config: RunConfig) -> CubeFamily:
    if not config.family_path:
        raise ValidationError("--family FILE is required for this command")
    obj = _load_json_file(config.family_path, "family")
    try:
        return CubeFamily.from_json(obj)
    except _BAD_SHAPE as exc:
        raise ValidationError(f"bad family file at {config.family_path}: {exc}")


def _dump_json(path: str, payload):
    """Write exactly `json.dumps(payload, sort_keys=True, indent=2) + "\\n"`,
    streamed: one recursive appender gathers the pieces and writes them out
    between items once `_BATCH` have gathered, so the whole text is never
    held.  A container's string items go through json's
    `encode_basestring_ascii` and its exact-int items through `int.__repr__`
    in its own loop; every other item, empty container and non-str key goes
    to `json.dumps`, which words it, or raises TypeError, as the indenting
    encoder would.  The payload is a tree: a cycle is not detected."""
    out = []

    def put(o, pad):
        if isinstance(o, (list, tuple, dict)) and o:
            inner, keyed = pad + "  ", isinstance(o, dict)
            out.append("{" if keyed else "[")
            for i, x in enumerate(sorted(o.items()) if keyed else o):
                out.append("," + inner if i else inner)
                if keyed:
                    # '{"<key>": 0}' less its brace and tail is the key as json words it
                    key, x = x
                    out.append((encode_basestring_ascii(key) if isinstance(key, str)
                                else json.dumps({key: 0})[1:-4]) + ": ")
                if isinstance(x, str):
                    out.append(encode_basestring_ascii(x))
                elif type(x) is int:
                    out.append(int.__repr__(x))
                else:
                    put(x, inner)
                if len(out) >= _BATCH:
                    fh.write("".join(out))
                    out.clear()
            out.append(pad + ("}" if keyed else "]"))
        else:
            out.append(json.dumps(o))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        put(payload, "\n")
        fh.write("".join(out) + "\n")


def _csv_path(out: str) -> str:
    return os.path.splitext(out)[0] + ".csv"


def _sweep_rows(reports):
    return [[frac_str(rep.alpha), rep.J, json.dumps(rep.root.to_json(), sort_keys=True),
             frac_str(rep.value.lo), frac_str(rep.value.hi),
             frac_str(rep.ratio.lo), frac_str(rep.ratio.hi)] for rep in reports]


def _write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


SWEEP_HEADER = ["alpha", "J", "root", "value_lo", "value_hi", "ratio_lo", "ratio_hi"]


def _alpha_grid(config: RunConfig, d: int) -> tuple:
    """The --alpha-grid (default 1/10:1:1/10), each entry checked to lie in [0, d]."""
    grid = config.alpha_grid or _parse_grid("1/10:1:1/10")
    for a in grid:
        if a < 0 or a > d:
            raise ValidationError(f"alpha grid entry {a} outside [0, {d}]")
    return grid


def _analysis_J_list(J: int):
    """Depths J-6, J-4, J-2 and J, floored at 1; J = 0 and J = 1 read [0, 1],
    the two depths a growth rate needs."""
    if J <= 1:
        return [0, 1]
    return sorted({max(1, J - 6), max(1, J - 4), max(1, J - 2), J})


def cmd_analyze(config: RunConfig) -> int:
    E = _load_set(config, "analyze")
    d = E.dim
    _check_depth(config.depth, d)
    root = DyadicCube.root(d)
    grid = _alpha_grid(config, d)
    J = config.depth
    J_list = _analysis_J_list(J)
    scan_depth = min(J, 6 if d == 1 else 3)
    search_depth = min(J, config.search_depth)
    scan = porosity_scan(E, scan_depth, search_depth, config.budget)
    # the codimension estimate's sweep is the CSV's; the grid is ascending
    codim = codim_estimate(enumerate_DE(E, root, J_list[-1], config.budget), grid,
                           J_list, config.tau)

    # the root meets E: codim_estimate has required a non-empty family
    alpha_mid = grid[len(grid) // 2]
    if alpha_mid >= d:
        alpha_mid = grid[0] if grid[0] < d else Fraction(1, 2) * d
    mu = mu_enclosure(E, root, alpha_mid, J, config.budget, config.split_budget)
    failures = [PorosityFailure(scan.absent[0])] if scan.absent else []
    if not mu.bounded:
        failures.append(UnresolvedMeasure(
            f"no finite certified mass for {root} at alpha {alpha_mid}, "
            f"unresolved cells: {len(mu.notes.unresolved_cells)}"))
    for exc in failures:
        print(_failure_line(exc, search_depth), file=sys.stderr)

    report = {
        "config": config.to_json(),
        "porosity": scan.to_json(),
        "codim": codim.to_json(),
        "mu": mu.to_json(),
    }
    _dump_json(config.out, report)
    _write_csv(_csv_path(config.out), SWEEP_HEADER, _sweep_rows(codim.reports))
    return EXIT_BUDGET if failures else EXIT_OK


def cmd_witness(config: RunConfig) -> int:
    E = _load_set(config, "build a witness for")
    _check_depth(config.depth, E.dim)
    root = DyadicCube.root(E.dim)
    witness = build_witness(E, root, config.depth, config.search_depth, config.budget)
    verdict = verify_witness(witness, E, config.budget)
    payload = witness.to_json()
    payload["verified"] = bool(verdict)
    payload["config"] = config.to_json()
    _dump_json(config.out, payload)
    if not verdict:
        print(_failure_line(verdict.failure(), config.search_depth), file=sys.stderr)
    return EXIT_OK if verdict else EXIT_BUDGET


def cmd_invert(config: RunConfig) -> int:
    family = _load_family(config)
    J = config.depth
    if family.members:
        J = default_depth(family) if J is None else J
        _check_depth(J, family.root.dim)
    # the corner set is not reported; dropping it first lowers the peak
    report = invert(family, J)[1]
    payload = report.to_json()
    payload["config"] = config.to_json()
    _dump_json(config.out, payload)
    return EXIT_OK


def cmd_gamma(config: RunConfig) -> int:
    E = _load_set(config, "run gamma analysis on")
    if config.gamma is None:
        raise ValidationError("--gamma P/Q is required")
    if config.gamma <= 0:
        raise ValidationError(f"--gamma must be positive, got {config.gamma}")
    if config.p < 1:
        raise ValidationError(f"--p must be >= 1, got {config.p}")
    d = E.dim
    _check_depth(config.depth, d)
    root = DyadicCube.root(d)
    alpha = config.alpha if config.alpha is not None else Fraction(1, 2)
    if not 0 < alpha < d:
        raise ValidationError(f"alpha {alpha} outside (0, {d})")
    payload = {"config": config.to_json()}
    code = EXIT_OK
    family = enumerate_Dgamma(E, root, config.gamma, config.depth, config.budget)
    payload["gamma_report"] = gamma_carleson(E, family, config.gamma,
                                             config.budget).to_json()
    # a budget failure of the witness or the embedding leaves the rest of
    # the report standing
    try:
        witness = gamma_witness(E, family, config.search_depth, config.budget)
        payload["witness"] = witness.to_json()
    except BUDGET_FAILURES as exc:
        payload["witness"] = {"error": str(exc)}
        print(_failure_line(exc, config.search_depth), file=sys.stderr)
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
        print(_failure_line(exc, config.search_depth), file=sys.stderr)
        code = EXIT_BUDGET
    _dump_json(config.out, payload)
    return code


def cmd_plotdata(config: RunConfig) -> int:
    rows, counts, top = [], {}, -1  # a count row per depth 0..top
    if config.family_path and (config.set_path or config.alpha_grid or any(
            x is not None for x in (config.dim, config.depth, config.budget))):
        raise ValidationError("plotdata --family reads none of --set, --dim, "
                              "--depth, --budget and --alpha-grid")
    if config.set_path:
        config.depth = RunConfig.depth if config.depth is None else config.depth
        config.budget = RunConfig.budget if config.budget is None else config.budget
        E = _load_set(config)
        if not E.is_empty:
            _check_depth(config.depth, E.dim)
            root = DyadicCube.root(E.dim)
            grid = _alpha_grid(config, E.dim)
            J_list = _analysis_J_list(config.depth)
            # J_list ends at --depth or above, so one family serves both files
            family = enumerate_DE(E, root, J_list[-1], config.budget)
            rows = _sweep_rows(dynkin_sweep(family, grid, J_list))
            counts, top = family.level_counts(), config.depth
    elif config.family_path:
        counts = _load_family(config).level_counts()
        top = max(counts, default=-1)
    else:
        raise ValidationError("plotdata needs --set or --family")
    family_rows = [[depth, counts.get(depth, 0)] for depth in range(top + 1)]
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
    "invert": (cmd_invert, "--family --depth --out", {"depth": None}),
    "gamma": (cmd_gamma, "--set --dim --depth --budget --split-budget "
              "--search-depth --alpha --gamma --p --seed --out", {}),
    # depth and budget None let plotdata --family refuse them
    "plotdata": (cmd_plotdata, "--set --family --dim --depth --budget --alpha-grid "
                 "--out", {"depth": None, "budget": None}),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A flag failure's one stderr line, with no usage block; exit 2."""
        self.exit(EXIT_VALIDATION, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        for flag in ("--depth", "--budget", "--split-budget", "--search-depth"):
            value = getattr(config, flag[2:].replace("-", "_"))
            if value is not None and value < 0:
                raise ValidationError(f"{flag} must be >= 0, got {value}")
        if config.budget is not None and config.budget > MAX_BUDGET:
            raise ValidationError(f"--budget must be <= {MAX_BUDGET}, got {config.budget}")
        rationals = [("--alpha", config.alpha), ("--gamma", config.gamma),
                     ("--p", config.p), ("--tau", config.tau)]
        for flag, x in rationals + [("--alpha-grid", a) for a in config.alpha_grid]:
            if x is not None and max(abs(x.numerator), x.denominator) > MAX_RATIONAL:
                raise ValidationError(f"{flag} needs a numerator and denominator of at "
                                      f"most {MAX_RATIONAL} in absolute value")
        return COMMANDS[config.command][0](config)
    except CubeporosError as exc:
        print(_failure_line(exc, config.search_depth), file=sys.stderr)
        error = PARTIAL_REPORTS.get(type(exc))
        if error is not None:
            _dump_json(config.out, {"config": config.to_json(), "error": error,
                                    "cube": exc.cube.to_json()})
        return EXIT_BUDGET if isinstance(exc, BUDGET_FAILURES) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
