"""Tour the outlier eigenvalues a checkerboard matrix adds to the bulk.

A checkerboard matrix has mean structure on top of its noise, and the
anticommutator with a GOE matrix inherits a handful of eigenvalues that
escape the bulk: 2k of them at scale N^1.5 for a single k-checkerboard,
and a split hierarchy topped by one eigenvalue near 2 N^2 / (k j) when
both matrices are checkerboards.  This script classifies the spectrum
into its regimes, applies the polynomial weight to the outliers, and
compares the weighted moments with their exact limits.  The largest
eigenvalue of the two mean parts alone is computed exactly as a check.
"""

import argparse

import numpy as np

from antispectra import blips, stats
from antispectra.ensembles import mean_matrix
from antispectra.matops import anticommutator, eigenvalues


def single_checker(k, N, trials, seed):
    plan = stats.ExperimentPlan(f"goe-checker:{k}", (N,), trials=trials,
                                seed=seed, outputs=("blips",), orders=(1, 2))
    reports = stats.run_trials(plan).blips[N]
    counts = [r.counts["pos_blip"] + r.counts["neg_blip"] for r in reports]
    m1 = np.mean([r.moment(1) for r in reports])
    m2 = np.mean([r.moment(2) for r in reports])
    theory2 = blips.theory_blip_moment_goe_checker(2, k)
    print(f"{{GOE, {k}-checkerboard}} at N={N}, {trials} trials:")
    print(f"  blips per trial: mean {np.mean(counts):.2f} (expected 2k = {2 * k})")
    print(f"  weighted m=1: {m1:+.4f}  (limit 0, approached slowly in N)")
    print(f"  weighted m=2: {m2:.4f}  (limit {float(theory2):.4f}, "
          f"ratio {m2 / float(theory2):.2f})")


def double_checker(k, j, N, trials, seed):
    plan = stats.ExperimentPlan(f"checker-checker:{k},{j}", (N,), trials=trials,
                                seed=seed, outputs=("blips",), orders=(0, 1))
    reports = stats.run_trials(plan).blips[N]
    tops = [r.counts["largest"] for r in reports]
    m0 = np.mean([r.moment(0) for r in reports])
    m1 = np.mean([r.moment(1) for r in reports])
    target = blips.theory_largest_blip_moment(1, k, j)
    print(f"\n{{{k}-checkerboard, {j}-checkerboard}} at N={N}, {trials} trials:")
    print(f"  largest-regime count per trial: mean {np.mean(tops):.2f} (expected 1)")
    print(f"  weighted m=0: {m0:.4f}  (limit 1)")
    print(f"  weighted m=1: {m1:.4f}  (limit {target:.4f})")


def mean_part_check(k, j, N):
    top = eigenvalues(anticommutator(mean_matrix(N, k), mean_matrix(N, j)))[-1]
    exact = 2 * N**2 / (k * j)
    print(f"\nMean parts alone at N={N}: largest eigenvalue {top:.6f}, "
          f"exact 2N^2/(kj) = {exact:.6f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=5,
                        help="block count of the single checkerboard")
    parser.add_argument("--pair", default="3,5",
                        help="block counts for the two-checkerboard run")
    parser.add_argument("--size", type=int, default=900)
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    k, j = (int(s) for s in args.pair.split(","))
    N = args.size - args.size % np.lcm(args.k, k * j)
    if N != args.size:
        print(f"(rounded N down to {N} so every block count divides it)\n")
    single_checker(args.k, N, args.trials, args.seed)
    double_checker(k, j, N, args.trials, args.seed)
    mean_part_check(k, j, N)


if __name__ == "__main__":
    main()
