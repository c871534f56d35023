"""Blip-regime measures, their weight, and exact small-matrix limits."""

import math
from fractions import Fraction

import numpy as np
import pytest

from antispectra import blips, stats
from antispectra.combinatorics import double_factorial
from antispectra.densities import SUPPORT_GOE_GOE
from antispectra.ensembles import EnsembleSpec, rng_stream, sample_ensemble
from antispectra.matops import anticommutator, eigenvalues


def test_default_blip_order():
    assert blips.default_blip_order(3) == 2
    assert blips.default_blip_order(1500) == 2
    assert blips.default_blip_order(500_000_000) == 3  # ln ln N just under 3
    assert blips.default_blip_order(600_000_000) == 4  # and just over
    with pytest.raises(ValueError):
        blips.default_blip_order(2)


def test_weight_polynomial_invariants():
    for n in (1, 2, 3):
        assert blips.weight_f(1.0, n) == 1.0
        assert blips.weight_f(0.0, n) == 0.0 and blips.weight_f(2.0, n) == 0.0
        xs = np.linspace(0.0, 2.0, 41)
        values = blips.weight_f(xs, n)
        np.testing.assert_allclose(blips.weight_f(2.0 - xs, n), values, atol=1e-12)
        assert np.all(values >= 0) and np.all(values <= 1 + 1e-12)
    with pytest.raises(ValueError):
        blips.weight_f(1.0, 0)


def test_band_scales_values_and_validation():
    w1, w2, w3 = blips.band_scales(3, 5)
    assert math.isclose(w1, math.sqrt(1 - 1 / 5) / 3, rel_tol=1e-15)
    assert math.isclose(w2, math.sqrt(1 - 1 / 3) / 5, rel_tol=1e-15)
    assert math.isclose(w3, 2 / 15, rel_tol=1e-15)
    for bad in ((1, 5), (3, 3), (2, 4)):
        with pytest.raises(ValueError):
            blips.band_scales(*bad)


def test_regime_classify_single_parameter_counts():
    N, k = 1000, 5
    thr = math.sqrt(SUPPORT_GOE_GOE * math.sqrt(1 - 1 / k) * N * N**1.5 / k)
    eigs = np.concatenate([
        np.linspace(-2000, 2000, 990),
        np.full(6, thr * 1.2),
        np.full(4, -thr * 1.2),
    ])
    counts = blips.regime_classify(eigs, N, k)
    assert counts == {"bulk": 990, "pos_blip": 6, "neg_blip": 4}
    assert sum(counts.values()) == N


def test_regime_classify_two_parameter_counts():
    N, k, j = 900, 3, 5
    eigs = np.concatenate([
        np.linspace(-2000, 2000, 890),
        np.full(3, 4000.0), np.full(2, -4000.0),   # inner band (scale w2)
        np.full(2, 7000.0), np.full(2, -7000.0),   # outer band (scale w1)
        np.full(1, 50000.0),
    ])
    counts = blips.regime_classify(eigs, N, k, j)
    assert counts == {
        "bulk": 890,
        "pos_inter_2": 3, "neg_inter_2": 2,
        "pos_inter_1": 2, "neg_inter_1": 2,
        "largest": 1, "neg_largest": 0,
    }
    assert sum(counts.values()) == N


def test_blip_measure_matches_hand_computation():
    N, k = 100, 5
    mus = np.array([-2.0, -0.5, 1.0, 2.5])
    lam = np.sqrt(N**3 / k**2 * (1 + 2 * mus / math.sqrt(N)))
    eigs = np.concatenate([np.linspace(-40, 40, 92), lam])
    report = blips.blip_measure_goe_checker(eigs, N, k, orders=(0, 1, 2))
    weights = blips.weight_f(k**2 * eigs**2 / N**3, 2)
    locs = (eigs**2 - N**3 / k**2) / N**2.5
    for m in (0, 1, 2):
        oracle = np.sum(weights * locs**m) / (2 * k)
        np.testing.assert_allclose(report.moment(m), oracle, rtol=1e-12)
    # the synthetic blips alone give 2 mu / k^2 locations at weight f(1 + 2 mu/sqrt(N));
    # the residual is the weight leaking onto the synthetic bulk
    blip_only = np.sum(blips.weight_f(1 + 2 * mus / math.sqrt(N), 2) * (2 * mus / k**2)) / (2 * k)
    np.testing.assert_allclose(report.moment(1), blip_only, atol=5e-5)
    assert report.regime == "goe-checker-blip" and report.n == 2


def test_largest_measure_matches_hand_computation():
    N, k, j = 300, 3, 5
    top = 2 * N**2 / (k * j)
    offsets = np.array([-0.4, 0.2])
    lam = top + offsets * N
    eigs = np.concatenate([np.linspace(-500, 500, 298), lam])
    report = blips.blip_measure_largest(eigs, N, k, j, orders=(0, 1))
    assert blips.default_blip_order(N) == 2
    weights = blips.weight_f(j * k * lam / (2 * N**2), 2)
    locs = (lam - top) / N
    for m in (0, 1):
        bulk_w = blips.weight_f(5 * 3 * np.linspace(-500, 500, 298) / (2 * N**2), 2)
        bulk_l = (np.linspace(-500, 500, 298) - top) / N
        oracle = np.sum(weights * locs**m) + np.sum(bulk_w * bulk_l**m)
        np.testing.assert_allclose(report.moment(m), oracle, rtol=1e-10)
    assert report.regime == "largest-blip" and report.n == 2


@pytest.mark.parametrize("x,outside", [
    ([0.0, 0.5, 1.0, 1.999], 0),
    ([0.1, 1.9, 2.001, 3.0, 40.0], 3),
])
def test_outside_bump_counts_arguments_past_two(x, outside):
    N, k, j = 60, 3, 5
    x = np.array(x)
    checker = blips.blip_measure_goe_checker(np.sqrt(x * N**3) / k, N, k)
    largest = blips.blip_measure_largest(x * 2 * N**2 / (j * k), N, k, j)
    assert checker.counts["outside_bump"] == outside
    assert largest.counts["outside_bump"] == outside


def test_outside_bump_counts_arguments_below_one_minus_sqrt_two():
    # (x(2 - x))^(2n) exceeds its peak 1 once x < 1 - sqrt(2) = -0.4142;
    # only the largest-blip argument j k lambda / (2 N^2) can be negative.
    N, k, j = 60, 3, 5
    x = np.array([-3.0, -0.42, -0.41, -0.1, 0.5, 2.5])
    report = blips.blip_measure_largest(x * 2 * N**2 / (j * k), N, k, j)
    assert report.counts["outside_bump"] == 3
    below, above = blips.weight_f(np.array([-0.42, -0.41]), 2)
    assert below > 1 > above


def test_report_accessors():
    report = blips.blip_measure_goe_checker(np.zeros(10), 10, 5, orders=(0, 1))
    payload = report.as_dict()
    assert set(payload) == {"regime", "N", "k", "j", "n", "moments", "moments_valid",
                            "counts"}
    assert payload["moments_valid"] is True  # every argument is 0, inside the bump
    with pytest.raises(KeyError):
        report.moment(7)


def test_report_moments_are_keyed_by_order():
    report = blips.blip_measure_goe_checker(np.zeros(10), 10, 5, orders=(2, 0, 1))
    assert list(report.moments) == [2, 0, 1]
    assert report.moment(0) == report.moments[0]
    assert [entry["m"] for entry in report.as_dict()["moments"]] == [2, 0, 1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [2000, 10**400], ids=["power", "order"])
def test_moment_past_the_float_range_names_m_and_n(m):
    # The most negative eigenvalue sits 2.5 N from the largest blip's centre.
    N, k, j = 30, 3, 5
    eigs = np.array([-0.5, 0.0, 2.0]) * N
    with pytest.raises(ArithmeticError,
                       match=f"^blip moment of order {m} at N={N} is not a finite float$"):
        blips.blip_measure_largest(eigs, N, k, j, orders=(0, m))


@pytest.mark.parametrize("theory", [
    lambda m: blips.theory_blip_moment_goe_checker(m, 5),
    lambda m: blips.theory_largest_blip_moment(m, 3, 5),
], ids=["goe_checker", "largest"])
def test_theory_moments_reject_a_negative_order(theory):
    with pytest.raises(ValueError) as info:
        theory(-1)
    assert str(info.value) == "invalid order: m=-1 must be >= 0"


@pytest.mark.parametrize("k,m", [(2, 4), (3, 4), (3, 6), (4, 4)])
def test_goe_trace_exact_agrees_with_monte_carlo(k, m):
    # GOE with diagonal variance 2, the normalisation of the ensembles GOE
    rng = np.random.default_rng(101)
    traces = []
    for _ in range(4):
        upper = np.triu(rng.standard_normal((50_000, k, k)), 1)
        diag = rng.standard_normal((50_000, k)) * math.sqrt(2.0)
        x = upper + upper.transpose(0, 2, 1) + diag[:, :, None] * np.eye(k)
        traces.append(np.einsum("bii->b", np.linalg.matrix_power(x, m)))
    traces = np.concatenate(traces)
    stderr = traces.std(ddof=1) / math.sqrt(traces.size)
    assert abs(traces.mean() - blips._trace_exact(k, m)) < 3 * stderr


def test_goe_trace_exact_small_cases():
    # k=1 is one N(0, 2) entry: E[x^(2p)] = 2^p (2p-1)!!
    for m, expected in ((2, 2), (4, 12), (6, 120)):
        assert blips._trace_exact(1, m) == expected
    for k in (2, 3, 4, 5):
        assert blips._trace_exact(k, 2) == k * (k + 1)
        assert blips._trace_exact(k, 4) == 2 * k**3 + 5 * k**2 + 5 * k
        assert blips._trace_exact(k, 3) == 0


def test_theory_blip_moment_past_the_old_index_walk():
    # E[Tr X^8] = P(k); at k = 20 the index walk would have taken 20^8 steps.
    def P(k):
        return 14 * k**5 + 93 * k**4 + 374 * k**3 + 690 * k**2 + 509 * k

    assert blips._trace_exact(20, 8) == P(20)
    assert blips.theory_blip_moment_goe_checker(8, 20) == float(
        Fraction(5**4 * P(20), 20**17))


def test_theory_blip_moment_values():
    # the blips follow (sqrt(5)/k^2) GOE_k per sign, GOE with diagonal variance 2
    for k in (2, 3, 4, 5):
        np.testing.assert_allclose(blips.theory_blip_moment_goe_checker(2, k),
                                   5 * (k + 1) / k**4, rtol=1e-12)
        np.testing.assert_allclose(blips.theory_blip_moment_goe_checker(4, k),
                                   25 * (2 * k**2 + 5 * k + 5) / k**8, rtol=1e-12)
        for m in (1, 3, 5):
            assert blips.theory_blip_moment_goe_checker(m, k) == 0.0
        assert blips.theory_blip_moment_goe_checker(0, k) == 1.0
    assert blips.theory_blip_moment_goe_checker(2, 5) == 6 / 125
    np.testing.assert_allclose(blips.theory_blip_moment_goe_checker(4, 5), 0.00512,
                               rtol=1e-12)


def test_theory_largest_moment_values():
    assert blips._theory_largest_exact(0, 3, 5) == 1
    np.testing.assert_allclose(blips.theory_largest_blip_moment(1, 3, 5), 13 / 15,
                               rtol=1e-12)
    # c = 13/15 and sigma^2 = 16/75 + 32/45 = 208/225, so m2 = c^2 + sigma^2
    assert blips._theory_largest_exact(2, 3, 5) == Fraction(377, 225)
    for m in (1, 2, 3):
        np.testing.assert_allclose(blips.theory_largest_blip_moment(m, 3, 5),
                                   blips.theory_largest_blip_moment(m, 5, 3),
                                   rtol=1e-12)
    # the regime exists only for coprime k and j
    with pytest.raises(ValueError, match="coprime"):
        blips.theory_largest_blip_moment(1, 2, 4)


def _largest_block_count_sum(m, k, j):
    """The largest blip's m-th moment as a sum over block counts.

    Compositions of m into even counts m1a, m1b of single a- and b-blocks
    and counts m2a, m2b of double blocks; an even count of single blocks
    contributes the Gaussian moment (m1 - 1)!!.
    """
    total = Fraction(0)
    for m1a in range(0, m + 1, 2):
        for m1b in range(0, m - m1a + 1, 2):
            for m2a in range(0, m - m1a - m1b + 1):
                m2b = m - m1a - m1b - m2a
                term = Fraction(math.factorial(m)) * Fraction(2, j * k) ** m
                term *= Fraction(2) ** ((m1a + m1b) // 2 - 2 * (m2a + m2b))
                term *= Fraction(
                    double_factorial(m1a - 1) * double_factorial(m1b - 1),
                    math.factorial(m1a) * math.factorial(m1b)
                    * math.factorial(m2a) * math.factorial(m2b),
                )
                ea, eb = m1a + 2 * m2a, m1b + 2 * m2b
                term *= Fraction(k) ** ea * Fraction(k - 1, k) ** (ea // 2)
                term *= Fraction(j) ** eb * Fraction(j - 1, j) ** (eb // 2)
                total += term
    return total


@pytest.mark.parametrize("k,j", [(2, 3), (3, 5), (2, 5), (5, 7), (4, 9)])
def test_theory_largest_moment_matches_block_count_sum(k, j):
    for m in range(9):
        assert blips._theory_largest_exact(m, k, j) == _largest_block_count_sum(m, k, j)


def test_largest_blip_location_follows_its_gaussian_law():
    # Each trial's location (lambda_max - 2N^2/15) / N tends to 13/15 + sigma Z
    # with sigma^2 = 208/225; its first two moments are judged by z-score.
    N, trials = 300, 120
    plan = stats.ExperimentPlan("checker-checker:3,5", (N,), trials=trials, seed=11,
                                outputs=("spectra",))
    x = np.array([(eigs[-1] - 2 * N**2 / 15) / N
                  for eigs in stats.run_trials(plan).spectra[N]])
    for values, m in ((x, 1), (x**2, 2)):
        z = (values.mean() - blips.theory_largest_blip_moment(m, 3, 5)) / (
            values.std(ddof=1) / math.sqrt(trials))
        assert abs(z) <= 3, (m, z)


def test_blip_counts_on_sampled_spectra_with_threshold_slack():
    N, k = 1000, 5
    for t in range(3):
        A = sample_ensemble(EnsembleSpec("goe", N), rng_stream(77, 0, t, 0))
        B = sample_ensemble(EnsembleSpec("checkerboard", N, k), rng_stream(77, 0, t, 1))
        eigs = eigenvalues(anticommutator(A, B))
        counts = blips.regime_classify(eigs, N, k)
        assert counts["pos_blip"] == 5 and counts["neg_blip"] == 5
        # shifting every threshold by +-10% is the same as rescaling eigenvalues
        for factor in (1.1, 1 / 1.1):
            scaled = blips.regime_classify(eigs / factor, N, k)
            assert scaled == counts


@pytest.mark.parametrize("k,j", [(3, 5), (2, 5)])
def test_intermediary_regime_counts_on_samples(k, j):
    # A sampled {k-checker, j-checker} spectrum has k - 1 eigenvalues of each
    # sign near w1 N^(3/2), j - 1 near w2 N^(3/2) and one near 2 N^2 / (k j).
    N, trials = 450, 20
    plan = stats.ExperimentPlan(f"checker-checker:{k},{j}", (N,), trials=trials,
                                seed=1, outputs=("spectra",))
    want = {"pos_inter_1": k - 1, "neg_inter_1": k - 1, "pos_inter_2": j - 1,
            "neg_inter_2": j - 1, "largest": 1, "neg_largest": 0}
    hits = 0
    for eigs in stats.run_trials(plan).spectra[N]:
        counts = blips.regime_classify(eigs, N, k, j)
        hits += all(counts[key] == value for key, value in want.items())
    assert hits >= 0.8 * trials


def test_zeroth_moment_approaches_one_with_dimension():
    gaps = []
    for N in (400, 1200):
        values = []
        for t in range(4):
            A = sample_ensemble(EnsembleSpec("goe", N), rng_stream(9011, 0, t, 0))
            B = sample_ensemble(EnsembleSpec("checkerboard", N, 5), rng_stream(9011, 0, t, 1))
            eigs = eigenvalues(anticommutator(A, B))
            values.append(blips.blip_measure_goe_checker(eigs, N, 5).moment(0))
        gaps.append(abs(np.mean(values) - 1.0))
    assert gaps[1] < gaps[0]
