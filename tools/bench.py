#!/usr/bin/env python3
"""Write a BENCH record: exact-table time or reach, CLI command time, per-layer trial time
and memory, trial RSS.

    python3 tools/bench.py --out BENCH.json [--baseline DIR]

The checkout this file sits in is "after"; with --baseline DIR, a checkout of
another commit, DIR is "before".  Both sides' packages are imported into this
one process, each from its checkout's src/ under a name of its own (`load`).
The package imports NumPy alone, no SciPy (tests/test_imports.py), so both
sides call one NumPy and one BLAS thread pool: no side's idle BLAS threads
compete with the other side's call.  Every timed row is rounds of one call
per side, the sides' calls alternating (before, after, after, before, ...),
and each side reports the median of its calls.  A row runs REPEAT rounds, and
more while either side's calls sum to less than MIN_S seconds, up to
MAX_ROUNDS.  The machine's speed can shift within seconds, so alternating
single calls lets a shift fall on both sides alike.  A side's median can
still land in another speed mode than the other side's, so with --baseline
the record also holds "after_over_before": per timed row of the first three
parts below, keyed like the row, "ratio", the median over the row's adjacent
call pairs of the after call's seconds over the before call's, and "quartiles",
their first and third quartiles (both None past one side's reach, where the
other side runs alone), beside "rounds", the number of those pairs.  A row
whose quartiles straddle 1 is unresolved.  The record has four parts:

- "tables": each exact table (the enumeration routes of goe-goe, pte-pte
  and goe-pte, and the goe-bce and bce-bce genus tables) gets one of two
  measures.  A table with an `ENUMERATION_LIMITS` entry (goe-goe, pte-pte,
  goe-pte, bce-bce) is timed at its limit m only: its reach would be that
  limit whatever the speed.  A table without one (goe-bce) is timed at
  m = 1, 2, ... until its median exceeds BUDGET_S seconds, and the largest
  m timed within the budget is its reach.
- "commands": each of COMMANDS runs in process through `cli.main`, its
  standard output captured, after one untimed call.
- "layers": at each N in SIZES, every sampler kind (pte, bce and
  checkerboard also under each of OTHER_DISTS), `matops.anticommutator`
  on a goe-checker:5 pair and on three factors (that pair and a third GOE,
  the three-ordering loop of anti-l:3), and `matops.eigenvalues` on the
  pair's result are timed, and each call's `tracemalloc` peak is taken
  once, in bytes and in N x N float64 matrices.  `anticommutator` consumes
  its first factor, so each call gets a fresh copy, made untimed and
  untraced.
- "run_trials_rss": `stats.run_trials` runs RSS_TRIALS trials of each pair
  in RSS_PAIRS at each N in RSS_SIZES in a fresh process, since `ru_maxrss`
  is the whole process's peak, and reports the process's `ru_maxrss` above
  what importing the package took; each side runs REPEAT such processes,
  alternating as above, and each number is the median of its REPEAT values.
  A child's `ru_maxrss` starts at the peak of the process that started it,
  so these run before this process imports NumPy or either package.

Each record also holds the checkout's commit and a digest of its package
source.  Both sides sit beside the machine they ran on and its BLAS.
"""

import argparse
import contextlib
import functools
import hashlib
import importlib
import importlib.util
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
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUDGET_S = 2.0  # seconds per exact-table call
REPEAT = 3  # least timed calls per row and side, or RSS processes per side; their median counts
# A row of short calls runs past REPEAT rounds until each side's calls sum to MIN_S
# seconds, at most MAX_ROUNDS.  At REPEAT rounds unchanged code read ratios of 1.2053
# (sample checkerboard, 0.017 s a call) and 1.1546 (sample goe, 0.036 s); at 21 rounds
# the same rows read 1.0025 and 0.9891.  So a call under MIN_S / REPEAT gets more rounds.
MIN_S = 1.0
MAX_ROUNDS = 21
SIZES = (1000, 1500, 3000)
K = 5  # block and modulus parameter of bce and checkerboard
OTHER_DISTS = ("rademacher", "uniform-scaled")  # the entry dists the GOE does not take
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


#: The submodules the rows call; the others load as their imports.
SUBMODULES = ("cli", "combinatorics", "ensembles", "matops", "stats")


def load(root, name):
    """The package in root's src/, imported as `name` with its SUBMODULES.

    The package's modules import each other relatively, so each loaded copy
    binds its own.  A module importing `antispectra` absolutely would bind
    whichever copy this process finds under that name, so a loaded module
    holding a module, function or class of `antispectra` proper is refused.
    """
    src = Path(root).resolve() / "src" / "antispectra"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for submodule in SUBMODULES:
        importlib.import_module(f"{name}.{submodule}")
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != name:
            continue
        for value in vars(module).values():
            if isinstance(value, types.ModuleType):
                owner = value.__name__
            elif isinstance(value, (type, types.FunctionType)):
                owner = value.__module__
            else:
                continue
            if str(owner).split(".")[0] == "antispectra":
                raise ImportError(f"{module_name} binds {owner}, not its own copy: "
                                  f"{src} imports antispectra absolutely")
    return package


def time_table(package, attr, m, extra):
    """Seconds of one call combinatorics.<attr>(m, *extra)."""
    start = time.perf_counter()
    getattr(package.combinatorics, attr)(m, *extra)
    return time.perf_counter() - start


def time_command(package, argv):
    """Seconds of one in-process `cli.main` call, its standard output captured."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = package.cli.main(list(argv))
        seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}")
    return seconds


@functools.lru_cache(maxsize=2)
def layer_calls(package, N):
    """(call, args) per layer of package at N, the arrays of the last two (package, N) only kept.

    args() gives each call its arguments.  It runs outside the timed call and
    the traced window, so a call that consumes an argument (anticommutator
    its first factor) gets a fresh one at no cost to its numbers.
    """
    ensembles, matops = package.ensembles, package.matops
    sample, rng_stream = ensembles.sample_ensemble, ensembles.rng_stream

    def spec(kind, dist="standard-normal"):
        return ensembles.EnsembleSpec(kind, N, K if kind in ("bce", "checkerboard") else None,
                                      dist=dist)

    specs = {f"sample {kind}": spec(kind) for kind in ensembles.KINDS}
    specs.update({f"sample {kind} {dist}": spec(kind, dist)
                  for kind in ("pte", "bce", "checkerboard") for dist in OTHER_DISTS})
    calls = {name: (sample, lambda given=given: (given, rng_stream(1)))
             for name, given in specs.items()}
    A = sample(spec("goe"), rng_stream(2))
    B = sample(spec("checkerboard"), rng_stream(3))
    D = sample(spec("goe"), rng_stream(4))
    calls["anticommutator"] = (matops.anticommutator, lambda: (A.copy(), B))
    calls["anticommutator of 3"] = (matops.anticommutator, lambda: (A.copy(), B, D))
    C = matops.anticommutator(A.copy(), B)
    calls["eigenvalues"] = (matops.eigenvalues, lambda: (C,))
    return calls


def time_layer(package, N, name):
    """Seconds of one call of the layer."""
    call, args = layer_calls(package, N)[name]
    given = args()
    start = time.perf_counter()
    call(*given)
    return time.perf_counter() - start


def layer_peak(package, N, name):
    """The tracemalloc peak of one call of the layer, in bytes."""
    call, args = layer_calls(package, N)[name]
    given = args()
    tracemalloc.start()
    try:
        call(*given)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def in_turn(sides, rnd):
    """The sides in the order of round rnd: reversed every other round."""
    return sides if rnd % 2 == 0 else sides[::-1]


def paired(packages, measure, *args):
    """Per side, the median seconds of its calls measure(package, *args), one call per
    side a round, the sides alternating, for REPEAT rounds and then while either
    side's calls sum to less than MIN_S seconds, up to MAX_ROUNDS; and
    {"ratio": the median after / before ratio of the rounds' adjacent call pairs,
    "quartiles": [q1, q3] of those ratios, both None unless both sides ran,
    "rounds": their number}."""
    sides, seconds = list(packages), {side: [] for side in packages}
    rounds = 0
    while rounds < REPEAT or (rounds < MAX_ROUNDS
                              and min(map(sum, seconds.values())) < MIN_S):
        for side in in_turn(sides, rounds):
            seconds[side].append(measure(packages[side], *args))
        rounds += 1
    ratio = quartiles = None
    if {"before", "after"} <= seconds.keys():
        ratios = [after / before for after, before in zip(seconds["after"], seconds["before"])]
        ratio = round(statistics.median(ratios), 4)
        q1, _, q3 = statistics.quantiles(ratios, n=4)
        quartiles = [round(q1, 4), round(q3, 4)]
    medians = {side: statistics.median(calls) for side, calls in seconds.items()}
    return medians, {"ratio": ratio, "quartiles": quartiles, "rounds": rounds}


def measure_tables(packages):
    """Per side, per table: the median seconds at the side's enumeration limit, or,
    with no limit, the median seconds at each m and the largest m within budget;
    and per table the after / before ratio, or one per m."""
    report, ratios = {side: {} for side in packages}, {}
    for name, attr, extra in TABLES:
        limits = {side: package.combinatorics.ENUMERATION_LIMITS.get(name.split()[0])
                  for side, package in packages.items()}
        for limit in dict.fromkeys(limits.values()):
            group = {side: packages[side] for side in packages if limits[side] == limit}
            if limit is not None:
                medians, ratios[name] = paired(group, time_table, attr, limit, extra)
                for side, seconds in medians.items():
                    report[side][name] = {"measure": "time at the enumeration limit",
                                          "m": limit, "seconds": round(seconds, 6)}
                continue
            for side in group:
                report[side][name] = {"measure": "reach", "seconds": {}}
            m = 0
            while group:
                m += 1
                medians, ratio = paired(group, time_table, attr, m, extra)
                ratios.setdefault(name, {})[str(m)] = ratio
                for side, seconds in medians.items():
                    report[side][name]["seconds"][str(m)] = round(seconds, 6)
                    if seconds > BUDGET_S:
                        report[side][name]["largest_m"] = m - 1
                        del group[side]
    return report, ratios


def measure_commands(packages):
    """Per side, per command in COMMANDS: the median seconds after one untimed call;
    and per command the after / before ratio."""
    report, ratios = {side: {} for side in packages}, {}
    for argv in COMMANDS:
        key = " ".join(argv)
        for package in packages.values():
            time_command(package, argv)
        medians, ratios[key] = paired(packages, time_command, argv)
        for side, seconds in medians.items():
            report[side][key] = round(seconds, 6)
    return report, ratios


def measure_layers(packages):
    """Per side, per N, per layer: median seconds, tracemalloc peak, and that peak over
    8N^2; and per N, per layer the after / before ratio."""
    report, ratios = {side: {} for side in packages}, {}
    for N in SIZES:
        for name in layer_calls(next(iter(packages.values())), N):
            seconds, ratio = paired(packages, time_layer, N, name)
            ratios.setdefault(str(N), {})[name] = ratio
            for side, package in packages.items():
                peak = layer_peak(package, N, name)
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
    plan = stats.ExperimentPlan(pair, (N,), trials=RSS_TRIALS, seed=1, outputs=())
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
            for rnd in range(REPEAT):
                for side in in_turn(list(roots), rnd):
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
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}: {done.stderr.strip()}")
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
    # The RSS processes run first, while this process has not imported NumPy:
    # a child starts with this process's ru_maxrss.
    rss = measure_rss(roots)
    records = {side: dict(tree_record(root), run_trials_rss=rss[side])
               for side, root in roots.items()}
    ratios = {}
    packages = {side: load(root, f"antispectra_{side}") for side, root in roots.items()}
    for part, measure in (("tables", measure_tables), ("commands", measure_commands),
                          ("layers", measure_layers)):
        report, ratios[part] = measure(packages)
        for side, record in report.items():
            records[side][part] = record
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
    # A child process measuring one RSS run, with the package on PYTHONPATH.
    parser.add_argument("--rss", nargs=2, metavar=("PAIR", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rss:
        print(json.dumps(trial_rss(args.rss[0], int(args.rss[1]))))
        return 0
    if not args.out:
        parser.error("--out is required")
    roots = {"before": args.baseline} if args.baseline else {}
    records = tree_records({**roots, "after": ROOT})
    record = {"budget_s": BUDGET_S, "repeat": REPEAT, "min_s": MIN_S,
              "max_rounds": MAX_ROUNDS, "sizes": SIZES, "k": K,
              "machine": machine(), **records}
    text = json.dumps(record, indent=2) + "\n"
    Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
