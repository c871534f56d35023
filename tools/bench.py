#!/usr/bin/env python3
"""Write a BENCH record: exact-table time or reach, CLI command time, per-layer trial time
and memory, trial RSS.

    python3 tools/bench.py --out BENCH.json [--baseline DIR]

A checkout's record has four parts, each measured in a fresh process that
imports the package from the checkout's src/:

- "tables": each exact table (the enumeration routes of goe-goe, pte-pte
  and goe-pte, and the goe-bce and bce-bce genus tables) gets one of two
  measures.  A table with an `ENUMERATION_LIMITS` entry (goe-goe, pte-pte,
  goe-pte, bce-bce) is timed at its limit m only, the median of REPEAT
  calls: its reach would be that limit whatever the speed.  A table without
  one (goe-bce) is timed at m = 1, 2, ... until the median of REPEAT calls
  exceeds BUDGET_S seconds, and the largest m timed within the budget is
  its reach.
- "commands": each of COMMANDS runs in process through `cli.main`, its
  standard output captured, REPEAT times after one untimed call; the median
  seconds is reported.
- "layers": at each N in SIZES, every sampler kind, `matops.anticommutator`
  on a goe-checker:5 pair and `matops.eigenvalues` on the result are timed
  (median of REPEAT calls), and each call's `tracemalloc` peak is taken
  once, in bytes and in N x N float64 matrices.  `anticommutator` consumes
  its first factor, so each call gets a fresh copy, made untimed and
  untraced.
- "run_trials_rss": `stats.run_trials` runs RSS_TRIALS trials of each pair
  in RSS_PAIRS at each N in RSS_SIZES, one process each, and reports the
  process's `ru_maxrss` above what importing the package took.

Each record also holds the checkout's commit and a digest of its package
source.  The checkout this file sits in is "after"; with --baseline DIR, a
checkout of another commit, DIR is "before", and each part runs on "before"
and then on "after" before the next part starts.  Both sit beside the
machine they ran on and its BLAS.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUDGET_S = 2.0  # seconds per exact-table call
REPEAT = 3  # timed calls per table and m, or per layer and N; their median counts
SIZES = (1000, 1500, 3000)
K = 5  # block and modulus parameter of bce and checkerboard
RSS_PAIRS = ("goe-goe", "goe-checker:5")
RSS_SIZES = (1500, 3000)
RSS_TRIALS = 2

# (name, combinatorics function, extra arguments after m)
TABLES = (
    ("goe-goe enumeration", "moment_goe_goe", ("enumeration",)),
    ("pte-pte enumeration", "moment_pte_pte", ("enumeration",)),
    ("goe-pte enumeration", "moment_goe_pte", ("enumeration",)),
    ("goe-bce genus", "moment_goe_bce", ()),
    ("bce-bce genus", "moment_bce_bce", ()),
)

# CLI commands timed by measure_commands
COMMANDS = (
    ("density", "--which", "goe-goe", "--grid=-4:4:400"),
    ("density", "--which", "pte-pte", "--grid=-4:4:400"),
    ("moments", "--pair", "goe-goe", "--m", "5", "--method", "enumeration"),
    ("moments", "--pair", "goe-pte", "--m", "4", "--method", "enumeration"),
)


def _table_seconds(compute, m, extra):
    """Median seconds of REPEAT calls compute(m, *extra), stopping after a call over budget."""
    calls = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        compute(m, *extra)
        calls.append(time.perf_counter() - start)
        if calls[-1] > BUDGET_S:
            break
    return round(statistics.median(calls), 6)


def measure_tables():
    """Per table: the median seconds at its enumeration limit, or, with no limit,
    the median seconds at each m and the largest m within budget."""
    from antispectra import combinatorics

    report = {}
    for name, attr, extra in TABLES:
        compute = getattr(combinatorics, attr)
        limit = combinatorics.ENUMERATION_LIMITS.get(name.split()[0])
        if limit is not None:
            report[name] = {"measure": "time at the enumeration limit", "m": limit,
                            "seconds": _table_seconds(compute, limit, extra)}
            continue
        seconds, m = {}, 0
        while not seconds or seconds[str(m)] <= BUDGET_S:
            m += 1
            seconds[str(m)] = _table_seconds(compute, m, extra)
        report[name] = {"measure": "reach", "seconds": seconds, "largest_m": m - 1}
    return report


def measure_commands():
    """Per command in COMMANDS: median seconds of REPEAT in-process `cli.main` calls."""
    from antispectra import cli

    report = {}
    for argv in COMMANDS:
        seconds = []
        for _ in range(REPEAT + 1):  # the first call warms up and is not counted
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(list(argv))
                seconds.append(time.perf_counter() - start)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
        report[" ".join(argv)] = round(statistics.median(seconds[1:]), 6)
    return report


def _layer(call, args):
    """Median seconds of REPEAT calls, then one call's tracemalloc peak in bytes.

    args() gives each call its arguments.  It runs outside the timed call and
    the traced window, so a call that consumes an argument gets a fresh one
    at no cost to its numbers.
    """
    seconds = []
    for _ in range(REPEAT):
        given = args()
        start = time.perf_counter()
        call(*given)
        seconds.append(time.perf_counter() - start)
    given = args()
    tracemalloc.start()
    try:
        call(*given)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(seconds), peak


def measure_layers():
    """Per N, per layer: median seconds, tracemalloc peak, and that peak over 8N^2."""
    from antispectra.ensembles import EnsembleSpec, KINDS, sample_ensemble
    from antispectra.matops import anticommutator, eigenvalues

    report = {}
    for N in SIZES:
        specs = {kind: EnsembleSpec(kind, N, K if kind in ("bce", "checkerboard") else None)
                 for kind in KINDS}
        # (call, args): anticommutator consumes its first factor, so each of
        # its calls gets a fresh copy of A.
        calls = {f"sample {kind}": (sample_ensemble, lambda spec=spec: (spec, 1))
                 for kind, spec in specs.items()}
        A = sample_ensemble(specs["goe"], 2)
        B = sample_ensemble(specs["checkerboard"], 3)
        calls["anticommutator"] = (anticommutator, lambda: (A.copy(), B))
        C = anticommutator(A.copy(), B)
        calls["eigenvalues"] = (eigenvalues, lambda: (C,))
        rows = {}
        for name, (call, args) in calls.items():
            seconds, peak = _layer(call, args)
            rows[name] = {"seconds": round(seconds, 5), "peak_bytes": peak,
                          "peak_matrices": round(peak / (8 * N * N), 3)}
        report[str(N)] = rows
        del A, B, C
    return report


def trial_rss(pair, N):
    """ru_maxrss of this process above its import, over RSS_TRIALS trials of pair at N."""
    from antispectra import stats

    def maxrss():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux

    imported = maxrss()
    plan = stats.ExperimentPlan(pair, (N,), trials=RSS_TRIALS, seed=1, outputs=("spectra",))
    start = time.perf_counter()
    stats.run_trials(plan)
    seconds = time.perf_counter() - start
    above = maxrss() - imported
    return {"pair": pair, "N": N, "trials": RSS_TRIALS, "seconds": round(seconds, 3),
            "import_mib": round(imported / 2**20, 1), "above_import_mib": round(above / 2**20, 1),
            "above_import_matrices": round(above / (8 * N * N), 3)}


def run_on(root, *args):
    """Run this script with args in a fresh process importing root's src/; parse its JSON."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    command = [sys.executable, __file__, *args]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def tree_record(root):
    """The commit and source digest of the checkout at root."""
    src = Path(root).resolve() / "src"
    digest = hashlib.sha256()
    for path in sorted((src / "antispectra").glob("*.py")):
        digest.update(path.read_bytes())
    git = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    status = subprocess.run(["git", "-C", str(root), "status", "--porcelain", "--", "src"],
                            capture_output=True, text=True)
    return {
        "git_commit": git.stdout.strip() or None,
        "src_changed_since_commit": bool(status.stdout.strip()),
        "src_sha256": digest.hexdigest(),
    }


def tree_records(roots):
    """Per side of roots (side name -> checkout): tree_record and the four parts.

    Each part, and each RSS run, is measured on every side before the next
    one starts, so a shift in the machine's speed during the run falls on
    both sides of a part alike rather than on one side's whole record.
    """
    records = {side: dict(tree_record(root), run_trials_rss=[]) for side, root in roots.items()}
    for part in ("tables", "commands", "layers"):
        for side, root in roots.items():
            records[side][part] = run_on(root, f"--{part}")
    for pair in RSS_PAIRS:
        for N in RSS_SIZES:
            for side, root in roots.items():
                records[side]["run_trials_rss"].append(run_on(root, "--rss", pair, str(N)))
    return records


def machine():
    """The CPU, Python, NumPy and its BLAS, and the BLAS thread variables."""
    import numpy as np

    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": model or platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {key: os.environ.get(key)
                       for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--baseline", help="checkout of the commit to compare against")
    # Child processes: measure one part of the package on PYTHONPATH, print it as JSON.
    parser.add_argument("--tables", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--commands", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--layers", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss", nargs=2, metavar=("PAIR", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.tables or args.commands or args.layers or args.rss:
        part = (measure_tables() if args.tables else measure_commands() if args.commands
                else measure_layers() if args.layers
                else trial_rss(args.rss[0], int(args.rss[1])))
        print(json.dumps(part))
        return 0
    if not args.out:
        parser.error("--out is required")
    record = {"budget_s": BUDGET_S, "repeat": REPEAT, "sizes": SIZES, "k": K,
              "machine": machine()}
    roots = {"before": args.baseline} if args.baseline else {}
    record.update(tree_records({**roots, "after": ROOT}))
    text = json.dumps(record, indent=2) + "\n"
    Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
