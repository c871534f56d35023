#!/usr/bin/env python3
"""Write a BENCH record: exact-table time or reach, CLI command time, per-layer trial time
and memory, trial RSS.

    python3 tools/bench.py --out BENCH.json [--baseline DIR]

Each side (the checkout this file sits in is "after"; with --baseline DIR, a
checkout of another commit, DIR is "before") gets one worker process that
imports the package from the checkout's src/ and times one call per
request.  Every timed row is REPEAT calls per side, the sides' calls
alternating (before, after, after, before, ...), and each side reports the
median of its calls.  The machine's speed can shift within seconds, so
alternating single calls lets a shift fall on both sides alike.  A side's
median can still land in another speed mode than the other side's, so with
--baseline the record also holds "after_over_before": per timed row of the
first three parts below, keyed like the row, the median over the REPEAT
adjacent call pairs of the after call's seconds over the before call's
(None past one side's reach, where the other side runs alone).  The record
has four parts:

- "tables": each exact table (the enumeration routes of goe-goe, pte-pte
  and goe-pte, and the goe-bce and bce-bce genus tables) gets one of two
  measures.  A table with an `ENUMERATION_LIMITS` entry (goe-goe, pte-pte,
  goe-pte, bce-bce) is timed at its limit m only: its reach would be that
  limit whatever the speed.  A table without one (goe-bce) is timed at
  m = 1, 2, ... until its median exceeds BUDGET_S seconds, and the largest
  m timed within the budget is its reach.
- "commands": each of COMMANDS runs in process through `cli.main`, its
  standard output captured, after one untimed call.
- "layers": at each N in SIZES, every sampler kind, `matops.anticommutator`
  on a goe-checker:5 pair and on three factors (that pair and a third GOE,
  the three-ordering loop of anti-l:3), and `matops.eigenvalues` on the
  pair's result are timed, and each call's `tracemalloc` peak is taken
  once, in bytes and in N x N float64 matrices.  `anticommutator` consumes
  its first factor, so each call gets a fresh copy, made untimed and
  untraced.
- "run_trials_rss": `stats.run_trials` runs RSS_TRIALS trials of each pair
  in RSS_PAIRS at each N in RSS_SIZES in a fresh process, and reports the
  process's `ru_maxrss` above what importing the package took; each side
  runs REPEAT such processes, alternating as above, and each number is the
  median of its REPEAT values.

Each record also holds the checkout's commit and a digest of its package
source.  Both sides sit beside the machine they ran on and its BLAS.
"""

import argparse
import contextlib
import functools
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
REPEAT = 3  # timed calls per row and side, or RSS processes per side; their median counts
SIZES = (1000, 1500, 3000)
K = 5  # block and modulus parameter of bce and checkerboard
RSS_PAIRS = ("goe-goe", "goe-checker:5", "anti-l:3")
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


def enumeration_limit(table):
    """The table's ENUMERATION_LIMITS entry, None if it has none."""
    from antispectra import combinatorics

    return combinatorics.ENUMERATION_LIMITS.get(table)


def time_table(attr, m, extra):
    """Seconds of one call combinatorics.<attr>(m, *extra)."""
    from antispectra import combinatorics

    start = time.perf_counter()
    getattr(combinatorics, attr)(m, *extra)
    return time.perf_counter() - start


def time_command(argv):
    """Seconds of one in-process `cli.main` call, its standard output captured."""
    from antispectra import cli

    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(list(argv))
        seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return seconds


@functools.lru_cache(maxsize=1)
def layer_calls(N):
    """(call, args) per layer at N, the arrays of the last N only kept.

    args() gives each call its arguments.  It runs outside the timed call and
    the traced window, so a call that consumes an argument (anticommutator
    its first factor) gets a fresh one at no cost to its numbers.
    """
    from antispectra.ensembles import EnsembleSpec, KINDS, rng_stream, sample_ensemble
    from antispectra.matops import anticommutator, eigenvalues

    specs = {kind: EnsembleSpec(kind, N, K if kind in ("bce", "checkerboard") else None)
             for kind in KINDS}
    calls = {f"sample {kind}": (sample_ensemble, lambda spec=spec: (spec, rng_stream(1)))
             for kind, spec in specs.items()}
    A = sample_ensemble(specs["goe"], rng_stream(2))
    B = sample_ensemble(specs["checkerboard"], rng_stream(3))
    D = sample_ensemble(specs["goe"], rng_stream(4))
    calls["anticommutator"] = (anticommutator, lambda: (A.copy(), B))
    calls["anticommutator of 3"] = (anticommutator, lambda: (A.copy(), B, D))
    C = anticommutator(A.copy(), B)
    calls["eigenvalues"] = (eigenvalues, lambda: (C,))
    return calls


def time_layer(N, name):
    """Seconds of one call of the layer."""
    call, args = layer_calls(N)[name]
    given = args()
    start = time.perf_counter()
    call(*given)
    return time.perf_counter() - start


def layer_peak(N, name):
    """The tracemalloc peak of one call of the layer, in bytes."""
    call, args = layer_calls(N)[name]
    given = args()
    tracemalloc.start()
    try:
        call(*given)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: What a worker answers: each request is a JSON list, its kind first.
REQUESTS = {
    "limit": enumeration_limit,
    "table": time_table,
    "command": time_command,
    "layers": lambda N: list(layer_calls(N)),
    "layer": time_layer,
    "peak": layer_peak,
}


def serve():
    """Answer each request line on standard input with one JSON line."""
    for line in sys.stdin:
        kind, *args = json.loads(line)
        print(json.dumps(REQUESTS[kind](*args)), flush=True)


class Worker:
    """A process serving REQUESTS with the package from root's src/."""

    def __init__(self, root):
        env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
        self.process = subprocess.Popen([sys.executable, __file__, "--serve"], env=env,
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)

    def __call__(self, *request):
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        answer = self.process.stdout.readline()
        if not answer:
            raise RuntimeError(f"worker exited with {self.process.wait()} on {request}")
        return json.loads(answer)

    def close(self):
        self.process.stdin.close()
        self.process.wait()


def alternating(sides):
    """The sides REPEAT times over, their order reversed every other time."""
    for rep in range(REPEAT):
        yield from sides if rep % 2 == 0 else sides[::-1]


def paired(workers, *request):
    """Per side, the median seconds of REPEAT calls of request, the sides alternating;
    and the median after / before ratio of the REPEAT adjacent call pairs, None
    unless both sides ran."""
    seconds = {side: [] for side in workers}
    for side in alternating(list(workers)):
        seconds[side].append(workers[side](*request))
    ratio = None
    if {"before", "after"} <= seconds.keys():
        ratio = round(statistics.median(
            after / before for after, before in zip(seconds["after"], seconds["before"])), 4)
    return {side: statistics.median(calls) for side, calls in seconds.items()}, ratio


def measure_tables(workers):
    """Per side, per table: the median seconds at the side's enumeration limit, or,
    with no limit, the median seconds at each m and the largest m within budget;
    and per table the after / before ratio, or one per m."""
    report, ratios = {side: {} for side in workers}, {}
    for name, attr, extra in TABLES:
        limits = {side: worker("limit", name.split()[0]) for side, worker in workers.items()}
        for limit in dict.fromkeys(limits.values()):
            group = {side: workers[side] for side in workers if limits[side] == limit}
            if limit is not None:
                medians, ratios[name] = paired(group, "table", attr, limit, extra)
                for side, seconds in medians.items():
                    report[side][name] = {"measure": "time at the enumeration limit",
                                          "m": limit, "seconds": round(seconds, 6)}
                continue
            for side in group:
                report[side][name] = {"measure": "reach", "seconds": {}}
            m = 0
            while group:
                m += 1
                medians, ratio = paired(group, "table", attr, m, extra)
                ratios.setdefault(name, {})[str(m)] = ratio
                for side, seconds in medians.items():
                    report[side][name]["seconds"][str(m)] = round(seconds, 6)
                    if seconds > BUDGET_S:
                        report[side][name]["largest_m"] = m - 1
                        del group[side]
    return report, ratios


def measure_commands(workers):
    """Per side, per command in COMMANDS: the median seconds after one untimed call;
    and per command the after / before ratio."""
    report, ratios = {side: {} for side in workers}, {}
    for argv in COMMANDS:
        key = " ".join(argv)
        for worker in workers.values():
            worker("command", argv)
        medians, ratios[key] = paired(workers, "command", argv)
        for side, seconds in medians.items():
            report[side][key] = round(seconds, 6)
    return report, ratios


def measure_layers(workers):
    """Per side, per N, per layer: median seconds, tracemalloc peak, and that peak over
    8N^2; and per N, per layer the after / before ratio."""
    report, ratios = {side: {} for side in workers}, {}
    for N in SIZES:
        names = next(iter(workers.values()))("layers", N)
        for name in names:
            seconds, ratio = paired(workers, "layer", N, name)
            ratios.setdefault(str(N), {})[name] = ratio
            for side, worker in workers.items():
                peak = worker("peak", N, name)
                report[side].setdefault(str(N), {})[name] = {
                    "seconds": round(seconds[side], 5), "peak_bytes": peak,
                    "peak_matrices": round(peak / (8 * N * N), 3)}
    return report, ratios


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


def measure_rss(roots):
    """Per side: trial_rss of each pair and N, each number the median of REPEAT
    fresh processes per side, the sides alternating."""
    report = {side: [] for side in roots}
    for pair in RSS_PAIRS:
        for N in RSS_SIZES:
            runs = {side: [] for side in roots}
            for side in alternating(list(roots)):
                runs[side].append(run_on(roots[side], "--rss", pair, str(N)))
            for side, side_runs in runs.items():
                report[side].append({
                    key: statistics.median(run[key] for run in side_runs)
                    if isinstance(value, (int, float)) else value
                    for key, value in side_runs[0].items()})
    return report


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
    """Per side of roots (side name -> checkout): tree_record and the four parts; with
    two sides, also after_over_before."""
    records = {side: dict(tree_record(root), run_trials_rss=[]) for side, root in roots.items()}
    ratios = {}
    workers = {side: Worker(root) for side, root in roots.items()}
    try:
        for part, measure in (("tables", measure_tables), ("commands", measure_commands),
                              ("layers", measure_layers)):
            report, ratios[part] = measure(workers)
            for side, record in report.items():
                records[side][part] = record
    finally:
        for worker in workers.values():
            worker.close()
    for side, runs in measure_rss(roots).items():
        records[side]["run_trials_rss"] = runs
    if len(roots) > 1:
        records["after_over_before"] = ratios
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
    # Child processes: serve timing requests, or measure one RSS run, with the
    # package on PYTHONPATH.
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss", nargs=2, metavar=("PAIR", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve:
        serve()
        return 0
    if args.rss:
        print(json.dumps(trial_rss(args.rss[0], int(args.rss[1]))))
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
