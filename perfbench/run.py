"""Per-command benchmark of the cubeporos CLI.

    python3 perfbench/run.py --workload cantor-ifs --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

One process per workload.  After set-up, the process runs whole rounds of
the workload's operations until `--seconds` have passed, checks every
operation's output, and prints a summary followed, as its last line, by one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones from a run with every layer's public functions wrapped.
`correct` is false when an operation fails for any reason other than a
known program fault (see README.md).  Run from the root of a cubeporos
checkout; the program is imported from its `src/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")   # relative to ROOT, so reports do not name it
WORKLOAD_NAMES = ("cantor-ifs", "points-1d", "families-2d")
THREADS = "2"   # CUBEPOROS_THREADS, the core count of the reference machine

# end-to-end metrics: (name, unit); every workload reports each of them
END_TO_END = (("round_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed; each workload has its own default")
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measure whole rounds until this many seconds have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="DIR",
                    help="set the workload up in DIR and exit (times setup_s)")
    return ap.parse_args(argv)


def import_program():
    src = ROOT / "src"
    if not (src / "cubeporos" / "__init__.py").is_file():
        sys.exit(f"error: no cubeporos sources under {src}; "
                 "run from the root of a cubeporos checkout")
    sys.path.insert(0, str(src))
    os.environ["CUBEPOROS_THREADS"] = THREADS


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        code = max(code, subprocess.run(cmd, check=False).returncode)
    return code


def setup_sample(args, seed, n) -> float:
    """Wall seconds of a fresh process that imports, generates and writes."""
    target = WORK / f"{args.workload}-{os.getpid():07d}-setup{n:03d}"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(seed), "--setup-only", str(target)]
    start = time.perf_counter()
    subprocess.run(cmd, check=True)
    elapsed = time.perf_counter() - start
    shutil.rmtree(target, ignore_errors=True)
    return elapsed


def run_op(op):
    """(seconds, failure message or None) of one operation and its check."""
    gc.collect()
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising operation is a failed operation
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        op.check(result)
    except Exception as exc:  # CheckFailed, or a report too malformed to read
        return elapsed, f"{type(exc).__name__}: {exc}"
    return elapsed, None


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    os.chdir(ROOT)
    import_program()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if args.setup_only:
        os.makedirs(args.setup_only, exist_ok=True)
        workload.setup(seed, args.setup_only)
        return 0

    # fixed-length name: the paths appear in reports, whose sizes are counted
    work = WORK / f"{args.workload}-{os.getpid():07d}"
    try:
        os.makedirs(work, exist_ok=True)
        ops = workload.setup(seed, str(work))
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        rounds = []           # per round: metric name -> [seconds, ...]
        layer_rounds = []     # per round: per-layer metrics
        failures = {}         # op name -> first failure message
        unexpected = False
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            if tracer:
                tracer.reset()
            samples = {"round_s": [0.0]}
            for op in ops:
                elapsed, error = run_op(op)
                attempted += 1
                if op.timed_as:
                    samples.setdefault(op.timed_as, []).append(elapsed)
                    samples["round_s"][0] += elapsed
                if error:
                    failed += 1
                    failures.setdefault(op.name, error)
                    unexpected = unexpected or op.known_fault is None
                if not tracer:
                    # set-up samples spread over the run, like the calls
                    samples.setdefault("setup_s", []).append(
                        setup_sample(args, seed, attempted))
            rounds.append(samples)
            if tracer:
                layer_rounds.append(tracer.metrics())
            if time.perf_counter() - start >= args.seconds:
                break

        print(f"{args.workload} seed {seed}: {len(rounds)} rounds, "
              f"{attempted} operations attempted, {failed} failed")
        for name, msg in failures.items():
            print(f"  FAILED {name}: {msg}")
        medians = {name: statistics.median(x for r in rounds for x in r[name])
                   for name in rounds[0]}
        for name, value in medians.items():
            count = sum(len(r[name]) for r in rounds)
            print(f"  {name:12s} {value:9.4f} s  (median of {count}"
                  f"{', traced' if tracer else ''})")
        if tracer:
            names = list(layer_rounds[0])
            metrics = {n: statistics.median(r[n] for r in layer_rounds) for n in names}
            units = {n: tracing.unit_of(n) for n in names}
        else:
            metrics = {name: medians[name] for name, _unit in END_TO_END
                       if name in medians}
            metrics["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = dict(END_TO_END)
        result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
                  "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # not empty: another run is using it
            pass


if __name__ == "__main__":
    sys.exit(main())
