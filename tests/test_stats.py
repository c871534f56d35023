"""Pair specs, experiment plans, trial runners, averaging, and convergence scans."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import antispectra
from antispectra import combinatorics, stats
from antispectra.ensembles import EnsembleSpec, rng_stream, sample_ensemble
from antispectra.matops import anticommutator, eigenvalues


@pytest.mark.parametrize("pair,kinds,params", [
    ("goe-goe", ("goe", "goe"), (None, None)),
    ("pte-pte", ("pte", "pte"), (None, None)),
    ("goe-pte", ("goe", "pte"), (None, None)),
    ("goe-bce:3", ("goe", "bce"), (None, 3)),
    ("bce-bce:3", ("bce", "bce"), (3, 3)),
    ("goe-checker:5", ("goe", "checkerboard"), (None, 5)),
    ("checker-checker:3,5", ("checkerboard", "checkerboard"), (3, 5)),
    ("anti-l:3", ("goe", "goe", "goe"), (None, None, None)),
])
def test_ensemble_specs_parsing(pair, kinds, params):
    specs = stats.parse_pair(pair).specs(30)
    assert tuple(s.kind for s in specs) == kinds
    assert tuple(s.k for s in specs) == params


def test_pairs_carry_their_eigenvalue_scale():
    # N^(l/2) for anti-l:l, N for every other pair; anti-l:2 keeps an int
    # scale N^(1 + m), as goe-goe does.
    assert stats.parse_pair("anti-l:3").norm_exp == Fraction(3, 2)
    assert stats.parse_pair("anti-l:4").norm_exp == 2
    for spec in ("anti-l:2", "goe-goe", "goe-checker:5", "checker-checker:3,5"):
        p = stats.parse_pair(spec).norm_exp
        assert p == 1 and isinstance(10 ** (1 + p * 3), int)


def test_ensemble_specs_distribution_rules():
    for pair in ("goe-pte", "goe-bce:3", "goe-checker:3"):
        specs = stats.parse_pair(pair).specs(12, dist="rademacher")
        assert specs[0].dist == "standard-normal"  # GOE members stay Gaussian
        assert specs[1].dist == "rademacher"


@pytest.mark.parametrize("pair", ["goe-goe", "anti-l:3"])
@pytest.mark.parametrize("dist", ["rademacher", "uniform-scaled"])
def test_all_goe_pairs_take_no_other_dist(pair, dist):
    # No member would read dist, so a run would ignore it without a word.
    with pytest.raises(ValueError) as info:
        stats.parse_pair(pair).specs(12, dist)
    assert str(info.value) == f"pair {pair!r}: goe entries are Gaussian, not {dist!r}"
    assert {spec.dist for spec in stats.parse_pair(pair).specs(12)} == {"standard-normal"}


@pytest.mark.parametrize("pair", [
    "nope-nope", "goe-bce", "goe-checker:x", "anti-l:1", "checker-checker:4",
    "goe-bce:-3", "bce-bce:0", "checker-checker:3,0", "goe-goe:2", "goe-bce:2,3",
])
def test_ensemble_specs_rejects_bad_pairs(pair):
    with pytest.raises(ValueError, match="pair spec"):
        stats.parse_pair(pair)


def test_pair_moment_checks_method_and_calls_through_the_module(monkeypatch):
    pair = stats.parse_pair("goe-goe")
    assert pair.methods[0] == "recurrence"
    with pytest.raises(ValueError, match="method 'genus'"):
        pair.moment(2, "genus")
    # The function is looked up on combinatorics at call time, so a
    # replacement of the module attribute is seen.
    monkeypatch.setattr(combinatorics, "moment_goe_goe", lambda m, method: (m, method))
    assert pair.moment(3) == (3, "recurrence")


def test_plan_trial_counts():
    plan = stats.ExperimentPlan("goe-goe", (100,), trials=7)
    assert plan.trials_for(100) == 7
    plan = stats.ExperimentPlan("goe-goe", (100,))
    assert plan.trials_for(100) == 10  # ceil(sqrt(N))


def test_plan_validation():
    with pytest.raises(ValueError, match="size"):
        stats.ExperimentPlan("goe-goe", ())
    with pytest.raises(ValueError, match="trials"):
        stats.ExperimentPlan("goe-goe", (10,), trials=0)
    # GOE members never read dist, so the plan itself checks the tag.
    with pytest.raises(ValueError, match="'bogus'"):
        stats.ExperimentPlan("goe-goe", (10,), dist="bogus")
    with pytest.raises(ValueError, match="output"):
        stats.ExperimentPlan("goe-goe", (10,), outputs=("sketches",))
    with pytest.raises(ValueError, match="invalid size: -4"):
        stats.ExperimentPlan("goe-goe", (10, -4))
    # Integers only, never truncated: each message names the field and value.
    with pytest.raises(ValueError, match="invalid size: 10.9 is not an integer"):
        stats.ExperimentPlan("goe-goe", (10.9,))
    with pytest.raises(ValueError, match="invalid order: 2.7 is not an integer"):
        stats.ExperimentPlan("goe-goe", (10,), orders=(2.7, 2))
    with pytest.raises(ValueError, match="invalid order: -1 must be >= 0"):
        stats.ExperimentPlan("goe-goe", (10,), orders=(2, -1))
    with pytest.raises(ValueError, match="invalid trials: 2.5 is not an integer"):
        stats.ExperimentPlan("goe-goe", (10,), trials=2.5)
    with pytest.raises(ValueError, match="invalid size: 16.9 is not an integer"):
        stats.moment_variance_scan("goe-goe", 2, (16.9, 24.2, 32.7), 3)
    # Results are keyed by size, so a repeated size would be sampled twice
    # and kept once.
    with pytest.raises(ValueError, match=r"invalid sizes: \(8, 8\) repeats a size"):
        stats.ExperimentPlan("goe-goe", (8, 8), trials=2)
    with pytest.raises(ValueError, match=r"invalid sizes: \(8, 8, 16, 32\) repeats a size"):
        stats.moment_variance_scan("goe-goe", 2, (8, 8, 16, 32), 3)
    with pytest.raises(ValueError, match="invalid seed: 1.5 is not an integer"):
        stats.ExperimentPlan("goe-goe", (8,), seed=1.5)
    with pytest.raises(ValueError, match="invalid seed: -1 must be >= 0"):
        stats.ExperimentPlan("goe-goe", (8,), seed=-1)
    # The benchmark's op seeds are 64-bit unsigned.
    assert stats.ExperimentPlan("goe-goe", (8,), seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    # NumPy integers pass, as Python ints.
    plan = stats.ExperimentPlan("goe-goe", (np.int64(10),), trials=np.int32(2),
                                orders=(np.int64(2),))
    values = (*plan.sizes, plan.trials, *plan.orders)
    assert values == (10, 2, 2) and {type(v) for v in values} == {int}


_ONE_TRIAL = """
import sys
from antispectra import stats
plan = stats.ExperimentPlan("goe-goe", (300,), trials=1, seed=7, outputs=("spectra",))
sys.stdout.buffer.write(stats.run_trials(plan).spectra[300][0].tobytes())
"""


def _one_trial_spectrum(blas_threads):
    """One goe-goe trial at N = 300 in a fresh process with that many BLAS threads."""
    src = str(Path(antispectra.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", _ONE_TRIAL], env=env,
                         capture_output=True, check=True)
    return np.frombuffer(run.stdout, dtype=np.float64)


def test_trials_are_bit_reproducible_at_a_fixed_blas_thread_count():
    # Same seed and thread count: the same bits.  Another thread count may
    # sum the GEMM and the eigensolve in another order (about 1e-14 relative
    # at N = 300), but no more.
    first, again, two = (_one_trial_spectrum(t) for t in (1, 1, 2))
    assert first.size == 300
    assert first.tobytes() == again.tobytes()
    assert np.max(np.abs(first - two)) <= 1e-12 * np.max(np.abs(first))


def test_benchmark_calls_run_one_trial_at_a_time(monkeypatch):
    # The benchmark's two stats calls, as it makes them.
    plan = stats.ExperimentPlan("goe-goe", (60,), trials=2, seed=5)
    spectra = stats.run_trials(plan, threads=1).spectra[60]
    assert not np.array_equal(spectra[0], spectra[1])
    blip_plan = stats.ExperimentPlan("goe-checker:5", (250,), trials=2, seed=3,
                                     outputs=("blips",), orders=(0, 1, 2))
    assert stats.averaged_blip_measure(blip_plan, threads=1).N == 250

    def no_sampling(spec, seed=None):
        raise AssertionError("sampled a matrix before rejecting threads")

    monkeypatch.setattr(stats, "sample_ensemble", no_sampling)
    for threads in (2, 0):
        with pytest.raises(ValueError, match=f"invalid threads: {threads}"):
            stats.run_trials(plan, threads=threads)
        with pytest.raises(ValueError, match=f"invalid threads: {threads}"):
            stats.averaged_blip_measure(blip_plan, threads=threads)


def _trial_peaks(pair, monkeypatch):
    """tracemalloc's peak over one trial of pair at N = 1000, and what is alive
    as the solve starts, both in N x N float64 matrices.

    LAPACK's copy of C is its own malloc, which tracemalloc does not see, so
    the solve is judged by what is alive as it starts.
    """
    N = 1000
    plan = stats.ExperimentPlan(pair, (N,), trials=1, seed=4, outputs=("spectra",))
    # A small trial first, so that the modules a first trial imports (numpy.random
    # on first use, 0.1 matrices at this N) are not counted.
    stats.run_trials(replace(plan, sizes=(10,)))
    at_solve = []

    def solve(C):
        at_solve.append(tracemalloc.get_traced_memory()[0])
        return eigenvalues(C)

    monkeypatch.setattr(stats, "eigenvalues", solve)
    tracemalloc.start()
    try:
        stats.run_trials(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * N * N), at_solve[0] / (8 * N * N)


@pytest.mark.parametrize("pair", ["goe-goe", "goe-checker:5", "goe-bce:5"])
def test_a_trial_holds_two_matrices(pair, monkeypatch):
    # A trial's tracemalloc peak is A and B plus one band (2.128 matrices at
    # N = 1000): C is written into A.  An AB beside A and B makes it 3.1.
    # At the solve C alone is alive, once B is freed.
    peak, at_solve = _trial_peaks(pair, monkeypatch)
    assert peak < 2.2
    assert at_solve < 1.1


def test_an_anti_l_trial_holds_its_factors_and_one_copy(monkeypatch):
    # Three factors, the copy of the first that the band products read, and
    # two bands (4.26 matrices at N = 1000): C is written into the first
    # factor.  Whole products summed beside the factors made it 6.
    peak, at_solve = _trial_peaks("anti-l:3", monkeypatch)
    assert peak < 4.5
    assert at_solve < 1.1


def test_run_trials_matches_manual_sampling():
    plan = stats.ExperimentPlan("anti-l:3", (24,), trials=2, seed=11)
    got = stats.run_trials(plan).spectra[24][0]
    mats = [sample_ensemble(EnsembleSpec("goe", 24), rng_stream(11, 0, 0, si))
            for si in range(3)]
    np.testing.assert_array_equal(got, eigenvalues(anticommutator(*mats)))


@pytest.mark.parametrize("pair,N,table", [
    ("goe-pte", 1000, combinatorics.moment_goe_pte),
    ("goe-bce:3", 600, lambda m: combinatorics.moment_goe_bce(m).at(3)),
], ids=["goe-pte", "goe-bce:3"])
def test_sampled_moments_match_exact_tables(pair, N, table):
    # Moments normalised as criterion 6 does: mean of sum(lambda^2m) / N^(2m+1).
    plan = stats.ExperimentPlan(pair, (N,), trials=40, seed=3, orders=(2, 4, 6))
    report = stats.run_trials(plan).moments[N]
    for m in (1, 2, 3):
        z = (report.mean(2 * m) - float(table(m))) / report.stderr(2 * m)
        assert abs(z) <= 3, (pair, m, z)


def test_run_trials_outputs_follow_plan():
    plan = stats.ExperimentPlan("goe-goe", (40,), trials=3, seed=1,
                                outputs=("moments",), orders=(2,))
    result = stats.run_trials(plan)
    assert result.spectra == {} and result.blips == {}
    assert result.moments[40].mean(2) > 0


def test_blip_run_rejects_a_size_below_three_before_sampling(monkeypatch):
    # The default weight order needs N >= 3; a later size must fail before
    # the first size samples.
    def no_sampling(spec, rng):
        raise AssertionError("sampled")

    monkeypatch.setattr(stats, "sample_ensemble", no_sampling)
    plan = stats.ExperimentPlan("goe-checker:2", (10, 2), trials=3, outputs=("blips",))
    with pytest.raises(ValueError, match="N=2 must be >= 3"):
        stats.run_trials(plan)


def test_run_trials_blip_output():
    plan = stats.ExperimentPlan("goe-checker:5", (250,), trials=3, seed=2,
                                outputs=("blips",), orders=(1, 2))
    reports = stats.run_trials(plan).blips[250]
    assert len(reports) == 3
    assert all(r.regime == "goe-checker-blip" for r in reports)
    assert all(r.moment(0) is not None for r in reports)


def test_averaged_measure_reduces_to_single_trial():
    plan = stats.ExperimentPlan("goe-checker:5", (250,), trials=1, seed=3,
                                orders=(1, 2))
    averaged = stats.averaged_blip_measure(plan)
    single = stats.run_trials(
        stats.ExperimentPlan("goe-checker:5", (250,), trials=1, seed=3,
                             outputs=("blips",), orders=(1, 2))
    ).blips[250][0]
    assert averaged.moments == single.moments
    np.testing.assert_array_equal(averaged.locations, single.locations)
    assert averaged.counts == single.counts


def test_averaged_measure_is_linear_in_trials():
    plan = stats.ExperimentPlan("goe-checker:5", (250,), trials=4, seed=4,
                                orders=(1, 2))
    averaged = stats.averaged_blip_measure(plan)
    per_trial = stats.run_trials(
        stats.ExperimentPlan("goe-checker:5", (250,), trials=4, seed=4,
                             outputs=("blips",), orders=(1, 2))
    ).blips[250]
    for m in (0, 1, 2):
        np.testing.assert_allclose(averaged.moment(m),
                                   np.mean([r.moment(m) for r in per_trial]),
                                   rtol=1e-12)
    assert averaged.locations.size == sum(r.locations.size for r in per_trial)


def test_averaged_measure_reduces_variance():
    g, reps, N = 15, 16, 225
    averaged, singles = [], []
    for r in range(reps):
        plan = stats.ExperimentPlan("goe-checker:5", (N,), trials=g, seed=2000 + r,
                                    orders=(1,))
        reports = stats.run_trials(
            stats.ExperimentPlan("goe-checker:5", (N,), trials=g, seed=2000 + r,
                                 outputs=("blips",), orders=(1,))
        ).blips[N]
        values = [rep.moment(1) for rep in reports]
        singles.extend(values)
        averaged.append(np.mean(values))
    ratio = np.var(singles, ddof=1) / np.var(averaged, ddof=1)
    assert g / 3 <= ratio <= 3 * g


def test_averaged_measure_needs_single_size():
    plan = stats.ExperimentPlan("goe-checker:5", (100, 200), trials=2)
    with pytest.raises(ValueError, match="one size"):
        stats.averaged_blip_measure(plan)


def test_variance_scan_shape_and_validation():
    report = stats.moment_variance_scan("goe-goe", 2, (24, 48, 96), 40, seed=6)
    assert [row["N"] for row in report.as_dict()["rows"]] == [24, 48, 96]
    assert report.slope < 0
    variances = [row["var"] for row in report.as_dict()["rows"]]
    assert variances[0] > variances[-1]
    # Var(M_2) falls like N^-2; at 40 trials per size the fitted slope over
    # N = 24..96 has a standard error of about 0.25
    assert -2.8 <= report.var_slope <= -1.2
    assert report.as_dict()["var_slope"] == report.var_slope
    with pytest.raises(ValueError, match="sizes"):
        stats.moment_variance_scan("goe-goe", 2, (24, 48), 40)
    for m in (0, -1):
        with pytest.raises(ValueError, match=f"invalid m: {m} must be >= 1"):
            stats.moment_variance_scan("goe-goe", m, (24, 48, 96), 40)


def test_variance_scan_rejects_single_trial():
    # one trial has no spread, so there is no variance to fit
    for trials in (1, 0):
        with pytest.raises(ValueError, match=f"invalid trials: {trials} must be >= 2"):
            stats.moment_variance_scan("goe-goe", 2, (16, 32, 64), trials)

