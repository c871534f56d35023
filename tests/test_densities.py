"""Closed-form densities checked against quadrature, Bessel forms, and samples."""

import io
import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from antispectra import densities, matops
from antispectra.combinatorics import moment_goe_goe, moment_pte_pte
from antispectra.ensembles import rng_stream, sample_goe, sample_pte


def test_support_constant():
    edge = densities.SUPPORT_GOE_GOE
    assert math.isclose(edge, 3.3301906767855403, rel_tol=1e-12)
    assert densities.density_goe_goe(edge - 1e-3) > 0
    assert densities.density_goe_goe(edge + 1e-3) == 0.0
    assert densities.density_goe_goe(-edge - 1.0) == 0.0


def test_density_goe_goe_even_and_normalized():
    xs = np.linspace(0.1, 3.2, 9)
    np.testing.assert_allclose(densities.density_goe_goe(-xs),
                               densities.density_goe_goe(xs), rtol=1e-12)
    total, _ = integrate.quad(densities.density_goe_goe, -densities.SUPPORT_GOE_GOE,
                              densities.SUPPORT_GOE_GOE, limit=200)
    np.testing.assert_allclose(total, 1.0, atol=1e-8)


def test_density_goe_goe_origin_limit():
    np.testing.assert_allclose(densities.density_goe_goe(0.0), 1 / math.pi, rtol=1e-6)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_density_goe_goe_moments_match_exact_values(m):
    value, _ = integrate.quad(
        lambda x: x ** (2 * m) * densities.density_goe_goe(x),
        -densities.SUPPORT_GOE_GOE, densities.SUPPORT_GOE_GOE, limit=300,
    )
    np.testing.assert_allclose(value, moment_goe_goe(m), rtol=1e-7)
    odd, _ = integrate.quad(
        lambda x: x ** (2 * m - 1) * densities.density_goe_goe(x),
        -densities.SUPPORT_GOE_GOE, densities.SUPPORT_GOE_GOE, limit=300,
    )
    np.testing.assert_allclose(odd, 0.0, atol=1e-9)


def test_density_goe_goe_against_sampled_spectra():
    # empirical CDF of pooled eigenvalues vs the integrated closed form
    spectra = []
    for t in range(6):
        A = sample_goe(300, rng_stream(42, t, 0))
        B = sample_goe(300, rng_stream(42, t, 1))
        spectra.append(matops.eigenvalues(matops.anticommutator(A, B)) / 300.0)
    pooled = np.sort(np.concatenate(spectra))
    for q in (-2.0, -1.0, 0.0, 1.0, 2.0):
        model, _ = integrate.quad(densities.density_goe_goe,
                                  -densities.SUPPORT_GOE_GOE, q, limit=200)
        empirical = np.searchsorted(pooled, q) / pooled.size
        assert abs(empirical - model) < 0.03


def test_density_pte_pte_matches_bessel_form():
    xs = (1e-12, 1e-6, 0.25, 0.5, 1.0, 2.0, 4.0, 40.0, 100.0, 200.0, 1000.0, -1.5)
    for x in xs:
        oracle = special.k0(abs(x) / 2) / (2 * math.pi)
        np.testing.assert_allclose(densities.density_pte_pte(x), oracle, rtol=1e-12)
    values = densities.density_pte_pte(np.array(xs))
    assert values.shape == (len(xs),)
    np.testing.assert_array_equal(values, [densities.density_pte_pte(x) for x in xs])


def test_density_pte_pte_vanishes_at_infinity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert densities.density_pte_pte(math.inf) == 0.0
        assert densities.density_pte_pte(-math.inf) == 0.0
        values = densities.density_pte_pte(np.array([-math.inf, 1.0, math.inf]))
    np.testing.assert_array_equal(values, [0.0, densities.density_pte_pte(1.0), 0.0])


def test_density_pte_pte_rejects_origin():
    with pytest.raises(ValueError, match="singular"):
        densities.density_pte_pte(0.0)
    with pytest.raises(ValueError, match="singular"):
        densities.density_pte_pte(np.array([-1.0, 0.0, 1.0]))


def test_density_pte_pte_normalized():
    half, _ = integrate.quad(lambda x: densities.density_pte_pte(x), 1e-9, 60,
                             points=[1e-6, 1.0], limit=300)
    np.testing.assert_allclose(2 * half, 1.0, atol=1e-6)


def test_density_pte_pte_against_sampled_spectra():
    spectra = []
    for t in range(8):
        A = sample_pte(300, rng_stream(43, t, 0))
        B = sample_pte(300, rng_stream(43, t, 1))
        spectra.append(matops.eigenvalues(matops.anticommutator(A, B)) / 300.0)
    pooled = np.sort(np.concatenate(spectra))
    for q in (-3.0, -1.0, 1.0, 3.0):
        model = 0.5 + np.sign(q) * integrate.quad(
            densities.density_pte_pte, 1e-9, abs(q), points=[1e-6], limit=200
        )[0]
        empirical = np.searchsorted(pooled, q) / pooled.size
        assert abs(empirical - model) < 0.04


def test_mgf_closed_form_and_series_agree():
    for z in (0.0, 0.1, -0.2, 0.35):
        assert math.isclose(densities.mgf_pte_pte(z), 1 / math.sqrt(1 - 4 * z * z),
                            rel_tol=1e-12)
        assert math.isclose(densities.mgf_pte_pte_series(z, terms=24),
                            densities.mgf_pte_pte(z), rel_tol=1e-7)


def test_mgf_matches_density_transform():
    z = 0.3
    half = integrate.quad(
        lambda x: (np.exp(z * x) + np.exp(-z * x)) * densities.density_pte_pte(x),
        1e-9, 80, points=[1e-6, 1.0], limit=300,
    )[0]
    np.testing.assert_allclose(half, densities.mgf_pte_pte(z), rtol=1e-5)


def test_mgf_domain_validation():
    for z in (0.5, -0.5, 1.0):
        with pytest.raises(ValueError, match="domain"):
            densities.mgf_pte_pte(z)
        with pytest.raises(ValueError, match="domain"):
            densities.mgf_pte_pte_series(z)


def test_sigma_functional_equation_residual_is_zero():
    assert densities.check_sigma_pde(6, 3) == 0


def test_sigma_table_matches_its_free_word_definition():
    table = densities.sigma_table(5, 4)
    assert densities._free_sigma(5, 4) == [list(row) for row in table]


def test_tabulate_density_handles_singular_grid_points():
    grid = np.linspace(-2, 2, 21)  # includes 0.0 exactly
    curve = densities.tabulate_density("pte-pte", grid)
    assert np.all(np.isfinite(curve.density))
    assert curve.x.size == 21
    goe = densities.tabulate_density("goe-goe", grid)
    np.testing.assert_allclose(goe.density[10], 1 / math.pi, rtol=1e-5)
    with pytest.raises(ValueError):
        densities.tabulate_density("goe-unknown", grid)


def test_density_curve_csv():
    curve = densities.tabulate_density("goe-goe", np.linspace(-1, 1, 5))
    buffer = io.StringIO()
    curve.write_csv(buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "x,density"
    assert len(lines) == 6
