#!/usr/bin/env python3
"""Time the exact moment tables and report the largest m each reaches in a time budget.

    python3 tools/bench_exact.py --out BENCH.json [--baseline DIR]

Each exact table (the enumeration routes of goe-goe, pte-pte and goe-pte, and
the goe-bce and bce-bce genus tables) is timed at m = 1, 2, ... until it
raises its enumeration-budget error or the median of REPEAT calls exceeds
BUDGET_S seconds.  The largest m timed within the budget is reported with
what stopped the walk.

The package is imported from src/ of the checkout this file sits in, in a
fresh process.  With --baseline DIR, a checkout of another commit, the same
measurement runs on DIR/src first; the JSON written to --out then holds
both, as "before" and "after", beside the machine they ran on.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUDGET_S = 2.0  # seconds per call
REPEAT = 3  # calls per m; their median counts

# (name, combinatorics function, extra arguments after m)
TABLES = (
    ("goe-goe enumeration", "moment_goe_goe", ("enumeration",)),
    ("pte-pte enumeration", "moment_pte_pte", ("enumeration",)),
    ("goe-pte enumeration", "moment_goe_pte", ("enumeration",)),
    ("goe-bce genus", "moment_goe_bce", ()),
    ("bce-bce genus", "moment_bce_bce", ()),
)


def measure():
    """Per table: median seconds per call at each m, the largest m within budget, the stop."""
    from antispectra import combinatorics

    report = {}
    for name, attr, extra in TABLES:
        compute = getattr(combinatorics, attr)
        seconds, largest, stopped = {}, 0, None
        m = 1
        while stopped is None:
            calls = []
            try:
                for _ in range(REPEAT):
                    start = time.perf_counter()
                    compute(m, *extra)
                    calls.append(time.perf_counter() - start)
                    if calls[-1] > BUDGET_S:
                        break
            except ValueError as exc:
                if "budget exceeded" not in str(exc):
                    raise
                stopped = "enumeration limit"
                break
            seconds[str(m)] = round(statistics.median(calls), 6)
            if seconds[str(m)] > BUDGET_S:
                stopped = "time budget"
            else:
                largest = m
            m += 1
        report[name] = {"seconds": seconds, "largest_m": largest, "stopped_by": stopped}
    return report


def run_on(root, script, *args):
    """Run script with args in a fresh process that imports root's src/; parse its JSON."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    command = [sys.executable, str(script), *args]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def source_record(root):
    """The commit of the checkout at root and a digest of its package source."""
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


def tree_record(root):
    """Measure the checkout at root in a fresh process, with its commit and source digest."""
    return {**source_record(root), "tables": run_on(root, __file__, "--measure")}


def machine():
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model or platform.processor() or platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="JSON file to write")
    parser.add_argument("--baseline", help="checkout of the commit to compare against")
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:  # the child process: time the package on PYTHONPATH
        print(json.dumps(measure()))
        return 0
    if not args.out:
        parser.error("--out is required")
    record = {"budget_s": BUDGET_S, "repeat": REPEAT, "machine": machine()}
    if args.baseline:
        record["before"] = tree_record(args.baseline)
    record["after"] = tree_record(ROOT)
    text = json.dumps(record, indent=2) + "\n"
    Path(args.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
