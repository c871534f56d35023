"""Watch empirical anticommutator moments converge to their exact limits.

Samples pairs of independent random matrices at a few sizes, forms the
anticommutator AB + BA, and compares the rescaled spectral moments
sum(lambda^m) / N^(m+1) against the exact limiting values.  Also writes
an optional CSV of the pooled eigenvalue histogram next to the limiting
density curve, which is the picture worth a thousand moment tables.
"""

import argparse

import numpy as np

from antispectra import densities, stats
from antispectra.spectra import empirical_histogram, write_csv


def moment_table(pair, sizes, trials, seed):
    orders = (1, 2, 3, 4)
    plan = stats.ExperimentPlan(pair, sizes, trials=trials, seed=seed,
                                orders=orders)
    result = stats.run_trials(plan)
    print(f"{pair} moments over {trials} trials per size:")
    header = f"{'N':>6}" + "".join(f" {'M' + str(m):>12}" for m in orders)
    print(header + "   (exact: " + ", ".join(
        str(stats.parse_pair(pair).moment(i)) for i in (1, 2)) + " at m=2,4)")
    for N in sizes:
        report = result.moments[N]
        row = "".join(f" {report.mean(m):>12.5f}" for m in orders)
        print(f"{N:>6}" + row)
    return result


def histogram_csv(pair, spectra, N, path):
    hist = empirical_histogram(spectra, N, p=1.0, bins=80)
    centers = (hist.edges[:-1] + hist.edges[1:]) / 2
    curve = densities.tabulate_density(pair, centers)
    with open(path, "w") as f:
        write_csv(f, "x,empirical,limit", centers, hist.density, curve.density)
    l1 = float(np.sum(np.abs(hist.density - curve.density) * np.diff(hist.edges)))
    print(f"wrote {path} (L1 distance to the limit curve: {l1:.4f})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pair", default="goe-goe",
                        choices=("goe-goe", "pte-pte"))
    parser.add_argument("--sizes", default="100,300,1000",
                        help="comma-separated matrix sizes")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", default=None,
                        help="write a histogram-vs-density CSV here")
    args = parser.parse_args()
    sizes = tuple(int(s) for s in args.sizes.split(","))
    result = moment_table(args.pair, sizes, args.trials, args.seed)
    if args.csv:
        histogram_csv(args.pair, result.spectra[sizes[-1]], sizes[-1], args.csv)


if __name__ == "__main__":
    main()
