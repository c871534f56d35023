#!/usr/bin/env python3
"""Run one workload of the antispectra benchmark and print its metrics.

    python3 perfbench/run.py --workload bulk-goe-goe --seed 1 --seconds 14 --trace 0

Workloads: bulk-goe-goe, blip-goe-checker, exact-tables (see
perfbench/README.md).  With --trace 0 the last line of standard output is a
JSON object whose metrics are BENCHMARK.json's end-to-end metrics; with
--trace 1 they are its per-layer metrics, taken from spans around the
package's layers.  The line before it holds the run's details: provenance,
every op's latency and every failed check.  Both, and the spans of a traced
run, are also written to perfbench/out/.

The package is imported from src/ of the checkout this file sits in; without
it the run exits with code 2 and prints no result.  The run sets no thread
variable: BLAS keeps whatever the environment gives it.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3  # set-ups per untraced run; setup_s is their median
GEMM_N = 1500
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", type=int, default=0,
                        help=argparse.SUPPRESS)  # set by the run for its extra set-ups
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(args):
    """Import the package, build the workload's ops and run one warm-up op.

    Returns (seconds taken, workloads module, workload, ops).
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import antispectra

    if SRC not in Path(antispectra.__file__).resolve().parents:
        raise ImportError(f"antispectra came from {antispectra.__file__}, not {SRC}")
    import workloads

    workload = workloads.build(args.workload)
    ops = workload.ops(args.seed, args.seconds)
    workload.warmup(args.seed, args.setup_sample).call()
    return time.perf_counter() - start, workloads, workload, ops


def setup_sample(args, sample):
    """Seconds one more set-up takes in a fresh process."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--setup-sample", str(sample),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_op(op, tracer=None, root=None):
    """Time one op, inside a root span when traced, then check its output.

    A full collection first, untimed, starts every op from the same
    garbage-collector state.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        if tracer is None:
            output = op.call()
        else:
            with tracer.op(root):
                output = op.call()
    except Exception as exc:  # a raising op is a failed op; the run goes on
        return time.perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    try:
        return elapsed, op.check(output)
    except Exception as exc:  # a check that cannot read the output fails the op
        return elapsed, [f"check raised {type(exc).__name__}: {exc}"]


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND  # nearest rank, 1-based
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def untraced_run(args, setup_s, ops):
    latencies, failures = [], []
    start = time.perf_counter()
    for index, op in enumerate(ops):
        seconds, problems = run_op(op)
        latencies.append(seconds)
        if problems:
            failures.append({"op": index, "problems": problems})
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = [setup_s] + [setup_sample(args, s) for s in range(1, SETUP_SAMPLES)]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "trials_per_s": sum(op.units for op in ops) / wall,
        "op_s.p50": statistics.median(latencies),
        "op_s.tail": tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "op_s.tail_percentile": tail_pct,
        "ops_beyond_tail": TAIL_BEYOND,
        "setup_samples_s": setups,
        "latencies_s": latencies,
    }
    return metrics, len(ops), failures, detail, None


def traced_run(workloads, workload, ops):
    """Run the first half of the ops twice each, once traced, alternating which goes first."""
    import spans

    tracer = spans.Tracer()
    plain = traced = 0.0
    failures = []
    paired = ops[: math.ceil(len(ops) / 2)]
    for index, op in enumerate(paired):
        for trace_it in (False, True) if index % 2 == 0 else (True, False):
            if trace_it:
                with tracer.instrumented(workloads.HOOKS):
                    seconds, problems = run_op(op, tracer, workload.root)
                traced += seconds
            else:
                seconds, problems = run_op(op)
                plain += seconds
            if problems:
                failures.append({"op": index, "traced": trace_it, "problems": problems})
    metrics = workloads.layer_metrics(tracer, workload.per_pass)
    metrics["trace.overhead_frac"] = traced / plain - 1
    detail = {"traced_s": traced, "untraced_s": plain, "self_s": tracer.self_times()}
    return metrics, 2 * len(paired), failures, detail, tracer.as_records()


def gemm_gflops(np):
    """Median rate of three GEMM_N x GEMM_N float64 products, after an untimed one."""
    a, b = np.random.default_rng(0).standard_normal((2, GEMM_N, GEMM_N))
    a @ b
    times = []
    for _ in range(3):
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return 2 * GEMM_N**3 / statistics.median(times) / 1e9


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def src_digest():
    """sha256 over the package sources, which names the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(np, scipy, seed, gemm):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads_env": {
            key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload_seed": seed,
        "machine.gemm_gflops": gemm,
    }


def main(argv=None):
    args = parse_args(argv)
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        setup_s, workloads, workload, ops = set_up(args)
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot set up from {ROOT}: {exc}", file=sys.stderr)
        return 2
    if args.setup_sample:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np
    import scipy

    if args.trace:
        run = traced_run(workloads, workload, ops)
    else:
        run = untraced_run(args, setup_s, ops)
    metrics, attempted, failures, detail, records = run
    gemm = gemm_gflops(np)
    kind = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        metrics["machine.gemm_gflops"] = gemm
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(ops),
        "error_rate": len(failures) / attempted,
        "failures": failures,
        **detail,
        "provenance": provenance(np, scipy, args.seed, gemm),
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    if records is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(records))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
