"""Histogram pooling and empirical moment summaries."""

import io
import re
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from antispectra import spectra as sp


def _fake_spectra(trials, N, seed=0):
    rng = np.random.default_rng(seed)
    return [np.sort(rng.normal(size=N) * N) for _ in range(trials)]


def test_histogram_has_unit_area():
    hist = sp.empirical_histogram(_fake_spectra(5, 200), 200, p=1.0, bins=40)
    area = np.sum(hist.density * np.diff(hist.edges))
    np.testing.assert_allclose(area, 1.0, rtol=1e-12)


def test_histogram_rescales_by_dimension_power():
    # 50 / 100^0.5 = 5 and 300 / 100^0.5 = 30: the bins span [5, 30].
    data = [np.concatenate([np.full(99, 50.0), [300.0]])]
    hist = sp.empirical_histogram(data, 100, p=0.5, bins=8)
    assert hist.edges[0] == 5.0 and hist.edges[-1] == 30.0
    centers = (hist.edges[:-1] + hist.edges[1:]) / 2
    peak = centers[np.argmax(hist.density)]
    np.testing.assert_allclose(peak, 5.0, atol=np.diff(hist.edges)[0])


def test_histogram_validation():
    with pytest.raises(ValueError, match="no spectra"):
        sp.empirical_histogram([], 10)
    with pytest.raises(ValueError, match="bin"):
        sp.empirical_histogram(_fake_spectra(1, 10), 10, bins=0)


@pytest.mark.parametrize("p", [1000.0, -1000.0, float("inf"), float("nan")])
def test_histogram_rejects_norm_exponent_without_finite_scale(p):
    # 10^1000 overflows and 10^-1000 underflows to 0: a ValueError naming p,
    # raised before any warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"invalid p {p!r}")):
            sp.empirical_histogram([np.linspace(-1, 1, 10)], 10, p=p)


@pytest.mark.parametrize("n", [-4, 0])
def test_check_norm_exp_rejects_a_size_below_one(n):
    # (-4)^0.5 is complex: the size is named before the power is formed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"invalid n {n}")):
            sp.empirical_histogram([np.linspace(-1, 1, 10)], n, p=0.5)


def test_write_csv_format():
    hist = sp.empirical_histogram(_fake_spectra(2, 50), 50, bins=5)
    buffer = io.StringIO()
    hist.write_csv(buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "bin_left,bin_right,density"
    assert len(lines) == 6
    lo, hi, d = (float(part) for part in lines[1].split(","))
    assert lo == hist.edges[0] and hi == hist.edges[1] and d == hist.density[0]


def test_write_csv_bytes_are_each_value_at_17_digits():
    edges = np.array([-3.5, -1e-300, 0.0, 2.0, 1 / 3, 7e22])
    density = np.array([0.1, 5e-324, 3.0, -0.0, 123456789.0])
    hist = sp.Histogram(edges=edges, density=density)
    buffer = io.StringIO()
    hist.write_csv(buffer)
    rows = "".join(f"{lo:.17g},{hi:.17g},{d:.17g}\n"
                   for lo, hi, d in zip(edges[:-1], edges[1:], density))
    assert buffer.getvalue() == "bin_left,bin_right,density\n" + rows


def test_empirical_moments_against_direct_sums():
    N = 30
    data = _fake_spectra(8, N, seed=3)
    report = sp.empirical_moments(data, (1, 2, 3), N, pair="test")
    for m in (1, 2, 3):
        per_trial = np.array([np.sum(s**m) / N ** (m + 1) for s in data])
        np.testing.assert_allclose(report.mean(m), per_trial.mean(), rtol=1e-12)
        np.testing.assert_allclose(
            report.stderr(m), per_trial.std(ddof=1) / np.sqrt(8), rtol=1e-12
        )
    assert report.trials == 8 and report.N == N and report.pair == "test"


def test_moment_report_holds_only_the_per_trial_values():
    data = _fake_spectra(4, 12, seed=5)
    report = sp.empirical_moments(data, (3, 1, 3), 12, pair="p")
    assert [f.name for f in fields(report)] == ["pair", "N", "values"]
    # A repeated order is computed once and gives one entry, in first-asked order.
    assert list(report.values) == [3, 1]
    assert [entry["m"] for entry in report.as_dict()["moments"]] == [3, 1]
    assert report.trials == 4
    assert report.as_dict() == sp.empirical_moments(data, (3, 1), 12, pair="p").as_dict()


def test_single_trial_stderr_is_zero():
    report = sp.empirical_moments(_fake_spectra(1, 10), (2,), 10)
    assert report.stderr(2) == 0.0


def test_moment_report_accessors():
    report = sp.empirical_moments(_fake_spectra(3, 12), (1, 4), 12, pair="p")
    payload = report.as_dict()
    assert [entry["m"] for entry in payload["moments"]] == [1, 4]
    assert payload["pair"] == "p" and payload["trials"] == 3
    with pytest.raises(KeyError):
        report.mean(9)
    with pytest.raises(ValueError, match="orders"):
        sp.empirical_moments(_fake_spectra(1, 10), (), 10)


def test_empirical_moments_on_the_scale_n_to_the_p():
    # sum(lambda^m) / (N * N^(pm)), exact in floats here: at N = 4 and
    # p = 3/2, order 1 is 4 / 4^(5/2) = 1/8 and order 2 is 8 / 4^4 = 1/32.
    report = sp.empirical_moments([np.array([2.0, 2.0])], (1, 2), 4, p=Fraction(3, 2))
    assert (report.mean(1), report.mean(2)) == (0.125, 0.03125)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spectrum,m,N", [
    (np.full(3, 1e200), 2, 3),  # the power overflows
    (np.full(3, 1e308), 1, 3),  # the power sum overflows
    (np.full(3, 2.0), 400, 10),  # the scale 10^401 is past the float range
    (np.full(3, 2.0), 10**8, 10),  # its int would take minutes to build
    (np.full(3, 2.0), 10**400, 10),  # so is m itself
], ids=["power", "power-sum", "scale", "huge-scale", "order"])
def test_empirical_moments_past_the_float_range_name_m_and_n(spectrum, m, N):
    with pytest.raises(ArithmeticError, match=f"^moment of order {m} at N={N} is not a finite"):
        sp.empirical_moments([spectrum], (m,), N)
