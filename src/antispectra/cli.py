"""Command line front end emitting plot-ready CSV and JSON."""

import argparse
import functools
import io
import json
import os
import sys
import tempfile
from collections import Counter

import numpy as np

from . import blips, densities, stats
from .ensembles import check_memory, parse_ensemble, rng_stream, sample_ensemble
from .spectra import check_norm_exp, empirical_histogram, write_csv


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".antispectra-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_list(text, what, least):
    """Comma-separated integers, each >= least; what names the list in errors."""
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"invalid {what} list {text!r}") from None
    if any(value < least for value in values):
        raise ValueError(f"invalid {what} list {text!r}")
    return values


#: A density table's bytes a grid point: x, density, their stacked copy, the row's Python
#: floats, its format and text; on 200,000 points either law's tracemalloc peak is 155.
_GRID_POINT_BYTES = 160


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"invalid grid {text!r}: want lo:hi:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"invalid grid {text!r}") from None
    if count < 2 or not 0 < hi - lo < np.inf:
        raise ValueError(f"invalid grid {text!r}: want finite lo < hi, count >= 2")
    check_memory(f"invalid grid {text!r}: its table", _GRID_POINT_BYTES * count)
    return np.linspace(lo, hi, count)


def _cmd_sample(args):
    spec = parse_ensemble(args.ensemble, args.n, args.dist)
    matrix = sample_ensemble(spec, rng_stream(args.seed, 0))
    buffer = io.StringIO()
    write_csv(buffer, f"# symmetric N={args.n} kind={args.ensemble}", *matrix.T)
    return buffer.getvalue(), None


def _cmd_spectrum(args):
    plan = stats.ExperimentPlan(
        args.pair, (args.n,), trials=args.trials, seed=args.seed,
        outputs=("spectra", "moments"), dist=args.dist,
    )
    if args.bins < 1:
        raise ValueError(f"invalid --bins {args.bins}: must be >= 1")
    # The histogram holds its counts, edges and densities: 24 bytes a bin.
    check_memory(f"invalid --bins {args.bins}: its histogram", 24 * args.bins)
    p = args.norm_exp
    if p is None:
        p = float(stats.parse_pair(args.pair).norm_exp)
    try:
        check_norm_exp(p, args.n)
    except ValueError as exc:
        raise ValueError(f"--norm-exp: {exc}") from None
    aggregate = stats.run_trials(plan)
    hist = empirical_histogram(aggregate.spectra[args.n], args.n, p=p, bins=args.bins)
    buffer = io.StringIO()
    hist.write_csv(buffer)
    summary = {**aggregate.moments[args.n].as_dict(), "bins": args.bins, "norm_exp": p}
    return buffer.getvalue(), summary


def _cmd_moments(args):
    pair = stats.parse_pair(args.pair)
    method = args.method or pair.methods[0]
    value = pair.moment(args.m, method)
    try:
        return None, {"pair": args.pair, "m": args.m, "method": method, "value": float(value),
                      "exact": str(value)}
    except OverflowError:
        raise ArithmeticError(f"--pair {args.pair} --m {args.m}: moment too large for a float")


def _cmd_genus(args):
    if args.k is not None and args.k < 1:
        raise ValueError(f"invalid --k {args.k}: must be >= 1")
    laurent = stats.genus_expansion(args.pair, args.m)
    payload = {"pair": args.pair, "m": args.m, "symbolic": str(laurent)}
    if args.k is not None:
        payload["k"] = args.k
        payload["value"] = float(laurent.at(args.k))
    return None, payload


def _cmd_density(args):
    grid = _parse_grid(args.grid)
    curve = densities.tabulate_density(args.which, grid)
    buffer = io.StringIO()
    curve.write_csv(buffer)
    return buffer.getvalue(), {"which": args.which, "points": int(curve.x.size),
                               "out": args.out}


def _cmd_blip(args):
    orders = _parse_list(args.m, "order", 0)
    plan = stats.ExperimentPlan(
        args.pair, (args.n,), trials=args.trials, seed=args.seed,
        outputs=("blips",), orders=orders, dist=args.dist,
    )
    report = stats.averaged_blip_measure(plan)
    return None, {**report.as_dict(), "trials": plan.trials_for(args.n)}


def _cmd_regimes(args):
    pair = stats.parse_pair(args.pair)
    pair.blip_regime()  # a checkerboard pair, its k and j checked before sampling
    plan = stats.ExperimentPlan(
        args.pair, (args.n,), trials=args.trials, seed=args.seed,
        outputs=("spectra",), dist=args.dist,
    )
    spectra = stats.run_trials(plan).spectra[args.n]
    counts = [blips.regime_classify(eigs, args.n, *pair.params) for eigs in spectra]
    keys = list(counts[0])
    mean_counts = {key: float(np.mean([c[key] for c in counts])) for key in keys}
    # most_common breaks a tie by first appearance, so the first signature seen wins.
    [(modal_signature, modal_count)] = Counter(
        tuple(c[key] for key in keys) for c in counts).most_common(1)
    return None, {
        "pair": args.pair,
        "N": args.n,
        "trials": len(counts),
        "mean_counts": mean_counts,
        "modal_counts": dict(zip(keys, (int(v) for v in modal_signature))),
        "modal_fraction": modal_count / len(counts),
    }


def _cmd_convergence(args):
    sizes = _parse_list(args.n, "size", 1)
    report = stats.moment_variance_scan(args.pair, args.m, sizes, args.trials,
                                        seed=args.seed, dist=args.dist)
    return None, report.as_dict()


def _seed(text):
    """A --seed value: an integer >= 0, of any size."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")
    return int(text)


def _add_common(parser, exact=False):
    """--seed and --out, which every command takes."""
    parser.add_argument("--seed", type=_seed, default=0,
                        help="ignored by the exact tables" if exact else None)
    parser.add_argument("--out")


def _add_trials(parser, trials, with_n=True):
    """Every option of a command that runs trials; trials is the default count."""
    _add_common(parser)
    parser.add_argument("--dist", default="standard-normal")
    if with_n:
        parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--trials", type=int, default=trials)


@functools.cache
def _build_parser():
    """The one parser of the process: a constant description of the CLI.

    parse_args keeps nothing between calls, so every call may share it.
    """
    parser = argparse.ArgumentParser(
        prog="antispectra",
        description="Spectra of anticommutators of structured random matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="emit one sampled matrix as CSV")
    p.add_argument("--ensemble", required=True,
                   help="goe | pte | bce:k | checker:k[:w]; goe is Gaussian only")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", default="standard-normal")
    _add_common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("spectrum", help="histogram of pooled eigenvalues")
    p.add_argument("--pair", required=True)
    p.add_argument("--bins", type=int, default=80)
    p.add_argument("--norm-exp", type=float,
                   help="bin lambda / N^p; default the pair's scale, l/2 for anti-l:l, else 1")
    _add_trials(p, 100)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("moments", help="exact limiting moments")
    p.add_argument("--pair", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--method")
    _add_common(p, exact=True)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("genus", help="genus-expansion moment as a polynomial in 1/k^2")
    p.add_argument("--pair", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int)
    _add_common(p, exact=True)
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("density", help="tabulate a limiting density")
    p.add_argument("--which", required=True, choices=("goe-goe", "pte-pte"))
    p.add_argument("--grid", default="-4:4:201", help="lo:hi:count")
    _add_common(p, exact=True)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("blip", help="averaged weighted blip measure")
    p.add_argument("--pair", required=True)
    p.add_argument("--m", default="0,1,2", help="comma-separated orders")
    _add_trials(p, None)
    p.set_defaults(func=_cmd_blip)

    p = sub.add_parser("regimes", help="classify eigenvalues by regime")
    p.add_argument("--pair", required=True)
    _add_trials(p, 10)
    p.set_defaults(func=_cmd_regimes)

    p = sub.add_parser("convergence", help="moment-variance scan across sizes")
    p.add_argument("--pair", required=True)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--n", required=True, help="comma-separated sizes")
    _add_trials(p, 200, with_n=False)
    p.set_defaults(func=_cmd_convergence)

    return parser


def main(argv=None):
    """Run one command and write the (CSV table or None, JSON dict or None) it returns.

    The primary artifact is the table if there is one, else the payload.  --out
    gets it; stdout gets it without --out, and the payload (if any) with --out.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            raise ValueError(f"invalid --out {args.out!r}: no such directory")
        table, payload = args.func(args)
        if payload is not None:
            payload = json.dumps(payload, indent=2) + "\n"
        primary = payload if table is None else table
        if args.out:
            try:
                _atomic_write(args.out, primary)
            except OSError as exc:
                raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}")
        shown = payload if args.out else primary
        if shown is not None:
            sys.stdout.write(shown)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
