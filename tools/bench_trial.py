#!/usr/bin/env python3
"""Time each layer of a Monte Carlo trial and measure its memory, per layer and end to end.

    python3 tools/bench_trial.py --out BENCH.json [--baseline DIR]

At each N in SIZES, every sampler kind, `matops.anticommutator` on a
goe-checker:5 pair and `matops.eigenvalues` on the result are timed (median
of REPEAT calls), and each call's `tracemalloc` peak is taken once, in bytes
and in N x N float64 matrices.  Then `stats.run_trials` runs RSS_TRIALS trials
of goe-goe and of goe-checker:5 at each N in RSS_SIZES, each in a fresh
process, and reports the process's `ru_maxrss` above what importing the
package took.

The package is imported from src/ of the checkout this file sits in, in
fresh processes.  With --baseline DIR, a checkout of another commit, the
same measurements run on DIR/src first; the JSON written to --out then holds
both, as "before" and "after", beside the machine and its BLAS.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from bench_exact import machine, run_on, source_record

ROOT = Path(__file__).resolve().parents[1]
SIZES = (1000, 1500, 3000)
REPEAT = 3  # timed calls per layer and N; their median counts
K = 5  # block and modulus parameter of bce and checkerboard
RSS_PAIRS = ("goe-goe", "goe-checker:5")
RSS_SIZES = (1500, 3000)
RSS_TRIALS = 2


def _layer(call):
    """Median seconds of REPEAT calls, then one call's tracemalloc peak in bytes."""
    seconds = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(seconds), peak


def measure():
    """Per N, per layer: median seconds, tracemalloc peak, and that peak over 8N^2."""
    from antispectra.ensembles import EnsembleSpec, KINDS, sample_ensemble
    from antispectra.matops import anticommutator, eigenvalues

    report = {}
    for N in SIZES:
        specs = {kind: EnsembleSpec(kind, N, K if kind in ("bce", "checkerboard") else None)
                 for kind in KINDS}
        calls = {f"sample {kind}": (lambda spec=spec: sample_ensemble(spec, 1))
                 for kind, spec in specs.items()}
        A = sample_ensemble(specs["goe"], 2)
        B = sample_ensemble(specs["checkerboard"], 3)
        calls["anticommutator"] = lambda: anticommutator(A, B)
        C = anticommutator(A, B)
        calls["eigenvalues"] = lambda: eigenvalues(C)
        rows = {}
        for name, call in calls.items():
            seconds, peak = _layer(call)
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


def blas():
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": info.get("name"), "version": info.get("version")},
        "thread_env": {key: os.environ.get(key)
                       for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def tree_record(root):
    """Measure the checkout at root, each part in a fresh process."""
    return {
        **source_record(root),
        "layers": run_on(root, __file__, "--measure"),
        "run_trials_rss": [run_on(root, __file__, "--rss", pair, str(N))
                           for pair in RSS_PAIRS for N in RSS_SIZES],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--baseline", help="checkout of the commit to compare against")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--rss", nargs=2, metavar=("PAIR", "N"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:  # a child process: time the package on PYTHONPATH
        print(json.dumps(measure()))
        return 0
    if args.rss:  # a child process: one pair's trials
        print(json.dumps(trial_rss(args.rss[0], int(args.rss[1]))))
        return 0
    if not args.out:
        parser.error("--out is required")
    record = {"sizes": SIZES, "repeat": REPEAT, "k": K, "machine": {**machine(), **blas()}}
    if args.baseline:
        record["before"] = tree_record(args.baseline)
    record["after"] = tree_record(ROOT)
    text = json.dumps(record, indent=2) + "\n"
    Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
