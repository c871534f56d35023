"""Pair specs, experiment plans, trial runners, averaging, and convergence scans."""

import numpy as np
import pytest

from antispectra import combinatorics, stats
from antispectra.ensembles import rng_stream, sample_goe
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


def test_ensemble_specs_distribution_rules():
    specs = stats.parse_pair("goe-pte").specs(8, dist="rademacher")
    assert specs[0].dist == "standard-normal"  # GOE members stay Gaussian
    assert specs[1].dist == "rademacher"


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
    with pytest.raises(ValueError, match="invalid weight_order: 1.5 is not an integer"):
        stats.ExperimentPlan("goe-checker:5", (10,), outputs=("blips",), weight_order=1.5)
    with pytest.raises(ValueError, match="invalid size: 16.9 is not an integer"):
        stats.moment_variance_scan("goe-goe", 2, (16.9, 24.2, 32.7), 3)
    # NumPy integers pass, as Python ints.
    plan = stats.ExperimentPlan("goe-goe", (np.int64(10),), trials=np.int32(2),
                                orders=(np.int64(2),), weight_order=np.int64(3))
    values = (*plan.sizes, plan.trials, *plan.orders, plan.weight_order)
    assert values == (10, 2, 2, 3) and {type(v) for v in values} == {int}


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


def test_run_trials_matches_manual_sampling():
    plan = stats.ExperimentPlan("anti-l:3", (24,), trials=2, seed=11)
    got = stats.run_trials(plan).spectra[24][0]
    mats = [sample_goe(24, rng_stream(11, 0, 0, si)) for si in range(3)]
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
    np.testing.assert_array_equal(averaged.weights, single.weights)
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
    np.testing.assert_allclose(np.sum(averaged.weights),
                               np.mean([np.sum(r.weights) for r in per_trial]),
                               rtol=1e-12)


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

