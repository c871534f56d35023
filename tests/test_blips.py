"""Blip-regime measures, exact small-matrix limits, and norm decompositions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from antispectra import blips
from antispectra.densities import SUPPORT_GOE_GOE
from antispectra.ensembles import rng_stream, sample_checkerboard, sample_goe
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
        poly = blips.weight_f(n)
        assert poly(1.0) == 1.0
        assert poly(0.0) == 0.0 and poly(2.0) == 0.0
        assert sum(poly.coefficients.values()) == 1
        assert set(poly.coefficients) == set(range(2 * n, 4 * n + 1))
        xs = np.linspace(0.0, 2.0, 41)
        np.testing.assert_allclose(poly(2.0 - xs), poly(xs), atol=1e-12)
        assert np.all(poly(xs) >= 0) and np.all(poly(xs) <= 1 + 1e-12)
    with pytest.raises(ValueError):
        blips.weight_f(0)


def test_weight_expanded_coefficients_match_factored_form():
    poly = blips.weight_f(2)
    x = Fraction(1, 60)
    exact = sum(c * x**alpha for alpha, c in poly.coefficients.items())
    assert exact == Fraction(119**4, 60**8)
    np.testing.assert_allclose(poly(1.0 / 60.0), float(exact), rtol=1e-12)


def test_band_scales_values_and_validation():
    w1, w2, w3 = blips.band_scales(3, 5)
    assert math.isclose(w1, math.sqrt(1 - 1 / 5) / 3, rel_tol=1e-15)
    assert math.isclose(w2, math.sqrt(1 - 1 / 3) / 5, rel_tol=1e-15)
    assert math.isclose(w3, 2 / 15, rel_tol=1e-15)
    for bad in ((1, 5), (3, 3), (2, 4)):
        with pytest.raises(ValueError):
            blips.band_scales(*bad)


def test_weight_g_normalization():
    for s in (1, 2):
        g = blips.weight_g(2, s, 3, 5, 1500)
        assert g(1.0) == 1.0
        assert g(0.0) == 0.0
        w1, w2, w3 = blips.band_scales(3, 5)
        ws = w1 if s == 1 else w2
        wt = w2 if s == 1 else w1
        np.testing.assert_allclose(g(wt / ws), 0.0, atol=1e-30)
        np.testing.assert_allclose(g(w3 * math.sqrt(1500) / ws), 0.0, atol=1e-30)


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
    report = blips.blip_measure_goe_checker(eigs, N, k, n=2, orders=(0, 1, 2))
    poly = blips.weight_f(2)
    weights = poly(k**2 * eigs**2 / N**3)
    locs = (eigs**2 - N**3 / k**2) / N**2.5
    for m in (0, 1, 2):
        oracle = np.sum(weights * locs**m) / (2 * k)
        np.testing.assert_allclose(report.moment(m), oracle, rtol=1e-12)
    # the synthetic blips alone give 2 mu / k^2 locations at weight f(1 + 2 mu/sqrt(N));
    # the residual is the weight leaking onto the synthetic bulk
    blip_only = np.sum(poly(1 + 2 * mus / math.sqrt(N)) * (2 * mus / k**2)) / (2 * k)
    np.testing.assert_allclose(report.moment(1), blip_only, atol=5e-5)
    assert report.regime == "goe-checker-blip" and report.n == 2


def test_largest_measure_matches_hand_computation():
    N, k, j = 300, 3, 5
    top = 2 * N**2 / (k * j)
    offsets = np.array([-0.4, 0.2])
    lam = top + offsets * N
    eigs = np.concatenate([np.linspace(-500, 500, 298), lam])
    report = blips.blip_measure_largest(eigs, N, k, j, n=1, orders=(0, 1))
    poly = blips.weight_f(1)
    weights = poly(j * k * lam / (2 * N**2))
    locs = (lam - top) / N
    for m in (0, 1):
        bulk_w = poly(5 * 3 * np.linspace(-500, 500, 298) / (2 * N**2))
        bulk_l = (np.linspace(-500, 500, 298) - top) / N
        oracle = np.sum(weights * locs**m) + np.sum(bulk_w * bulk_l**m)
        np.testing.assert_allclose(report.moment(m), oracle, rtol=1e-10)
    assert report.regime == "largest-blip"


@pytest.mark.parametrize("x,outside", [
    ([0.0, 0.5, 1.0, 1.999], 0),
    ([0.1, 1.9, 2.001, 3.0, 40.0], 3),
])
def test_outside_bump_counts_arguments_past_two(x, outside):
    N, k, j = 60, 3, 5
    x = np.array(x)
    checker = blips.blip_measure_goe_checker(np.sqrt(x * N**3) / k, N, k, n=2)
    largest = blips.blip_measure_largest(x * 2 * N**2 / (j * k), N, k, j, n=2)
    assert checker.counts["outside_bump"] == outside
    assert largest.counts["outside_bump"] == outside


def test_outside_bump_counts_arguments_below_one_minus_sqrt_two():
    # (x(2 - x))^(2n) exceeds its peak 1 once x < 1 - sqrt(2) = -0.4142;
    # only the largest-blip argument j k lambda / (2 N^2) can be negative.
    N, k, j = 60, 3, 5
    x = np.array([-3.0, -0.42, -0.41, -0.1, 0.5, 2.5])
    report = blips.blip_measure_largest(x * 2 * N**2 / (j * k), N, k, j, n=2)
    assert report.counts["outside_bump"] == 3
    below, above = blips.weight_f(2)(np.array([-0.42, -0.41]))
    assert below > 1 > above


def test_report_accessors():
    report = blips.blip_measure_goe_checker(np.zeros(10), 10, 5, orders=(0, 1))
    payload = report.as_dict()
    assert set(payload) == {"regime", "N", "k", "j", "n", "moments", "counts"}
    with pytest.raises(KeyError):
        report.moment(7)


def test_hollow_exact_small_cases():
    # k=2 has a single free entry a: C^m has trace 2 a^m for even m
    for m, expected in ((2, 2), (4, 6), (6, 30)):
        assert blips.hollow_goe_moment(2, m) == expected
    for k, m in ((2, 3), (3, 3), (4, 5)):
        assert blips.hollow_goe_moment(k, m) == 0.0
    # second moment counts the off-diagonal entries: k(k-1)
    for k in (2, 3, 4, 5):
        assert blips.hollow_goe_moment(k, 2) == k * (k - 1)


@pytest.mark.parametrize("k,m", [(3, 4), (3, 6), (4, 4), (4, 6)])
def test_hollow_exact_agrees_with_monte_carlo(k, m):
    exact = blips.hollow_goe_moment(k, m)
    mean, stderr = blips.hollow_goe_moment_mc(k, m, trials=200_000, seed=99)
    assert abs(mean - exact) < 3 * stderr + 1e-9


def test_hollow_budget_and_method_validation():
    with pytest.raises(ValueError, match="budget"):
        blips.hollow_goe_moment(30, 6)
    with pytest.raises(ValueError, match="method"):
        blips.hollow_goe_moment(3, 2, method="guess")


@pytest.mark.parametrize("k,m", [(2, 4), (3, 4), (3, 6), (4, 4)])
def test_goe_trace_exact_agrees_with_monte_carlo(k, m):
    # GOE with diagonal variance 2, the normalisation of sample_goe
    rng = np.random.default_rng(101)
    traces = []
    for _ in range(4):
        upper = np.triu(rng.standard_normal((50_000, k, k)), 1)
        diag = rng.standard_normal((50_000, k)) * math.sqrt(2.0)
        x = upper + upper.transpose(0, 2, 1) + diag[:, :, None] * np.eye(k)
        traces.append(np.einsum("bii->b", np.linalg.matrix_power(x, m)))
    traces = np.concatenate(traces)
    stderr = traces.std(ddof=1) / math.sqrt(traces.size)
    assert abs(traces.mean() - blips._trace_exact(k, m, 2)) < 3 * stderr


def test_goe_trace_exact_small_cases():
    # k=1 is one N(0, 2) entry: E[x^(2p)] = 2^p (2p-1)!!
    for m, expected in ((2, 2), (4, 12), (6, 120)):
        assert blips._trace_exact(1, m, 2) == expected
    for k in (2, 3, 4, 5):
        assert blips._trace_exact(k, 2, 2) == k * (k + 1)
        assert blips._trace_exact(k, 4, 2) == 2 * k**3 + 5 * k**2 + 5 * k
        assert blips._trace_exact(k, 3, 2) == 0


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
    # recompute m=2 by hand over the compositions (m1a,m1b,m2a,m2b) summing
    # to 2 with m1a, m1b even: (2,0,0,0), (0,2,0,0), (0,0,2,0), (0,0,0,2),
    # (0,0,1,1); the total collapses to 13/5
    ka2 = 9 * (1 - 1 / 3)
    jb2 = 25 * (1 - 1 / 5)
    base = 2 * (2 / 15) ** 2
    hand = (base * 2 * (2 / 2) * ka2
            + base * 2 * (2 / 2) * jb2
            + base * (1 / 16) * (1 / 2) * ka2**2
            + base * (1 / 16) * (1 / 2) * jb2**2
            + base * (1 / 16) * ka2 * jb2)
    np.testing.assert_allclose(hand, 13 / 5, rtol=1e-12)
    np.testing.assert_allclose(blips.theory_largest_blip_moment(2, 3, 5), hand,
                               rtol=1e-12)
    for m in (1, 2, 3):
        np.testing.assert_allclose(blips.theory_largest_blip_moment(m, 3, 5),
                                   blips.theory_largest_blip_moment(m, 5, 3),
                                   rtol=1e-12)


def test_blip_counts_on_sampled_spectra_with_threshold_slack():
    N, k = 1000, 5
    for t in range(3):
        A = sample_goe(N, rng_stream(77, 0, t, 0))
        B = sample_checkerboard(N, k, 1.0, rng_stream(77, 0, t, 1))
        eigs = eigenvalues(anticommutator(A, B))
        counts = blips.regime_classify(eigs, N, k)
        assert counts["pos_blip"] == 5 and counts["neg_blip"] == 5
        # shifting every threshold by +-10% is the same as rescaling eigenvalues
        for factor in (1.1, 1 / 1.1):
            scaled = blips.regime_classify(eigs / factor, N, k)
            assert scaled == counts


def test_zeroth_moment_approaches_one_with_dimension():
    gaps = []
    for N in (400, 1200):
        values = []
        for t in range(4):
            A = sample_goe(N, rng_stream(9011, 0, t, 0))
            B = sample_checkerboard(N, 5, 1.0, rng_stream(9011, 0, t, 1))
            eigs = eigenvalues(anticommutator(A, B))
            values.append(blips.blip_measure_goe_checker(eigs, N, 5).moment(0))
        gaps.append(abs(np.mean(values) - 1.0))
    assert gaps[1] < gaps[0]


def test_weyl_decomposition_bounds_hold_on_samples():
    N, k = 900, 3
    for t in range(2):
        goe = sample_goe(N, rng_stream(9010, 0, t, 0))
        checker = sample_checkerboard(N, k, 1.0, rng_stream(9010, 0, t, 1))
        report = blips.weyl_decomposition_check(checker, goe, N, k)
        assert report.ok, report.checks
        assert report.mean_rank == 2 * k


def test_weyl_two_parameter_exact_top():
    N, k, j = 150, 3, 5
    A = sample_checkerboard(N, k, 1.0, rng_stream(55, 0, 0, 0))
    B = sample_checkerboard(N, j, 1.0, rng_stream(55, 0, 0, 1))
    report = blips.weyl_decomposition_check(A, B, N, k, j)
    assert report.ok, report.checks
    assert report.mean_top == 2 * N**2 / (k * j)
    payload = report.as_dict()
    assert payload["N"] == N and all(payload["checks"].values())


def test_weyl_rejects_non_checkerboard_input():
    N, k = 60, 3
    goe = sample_goe(N, seed=1)
    wrong = sample_checkerboard(N, k, 2.0, seed=2)
    with pytest.raises(ValueError, match="decomposition invalid"):
        blips.weyl_decomposition_check(wrong, goe, N, k)
