"""Anticommutators, eigenvalue extraction, and trace-power moments."""

import itertools
import tracemalloc

import numpy as np
import pytest

from antispectra import matops
from antispectra.ensembles import EnsembleSpec, rng_stream, sample_ensemble


def _sample(kind, N, seed, k=None):
    """The kind's draw at N (k its block or modulus) from rng_stream(seed)."""
    return sample_ensemble(EnsembleSpec(kind, N, k), rng_stream(seed))


def test_anticommutator_matches_definition():
    A = _sample("goe", 40, 1)
    B = _sample("pte", 40, 2)
    want = A @ B + B @ A  # before the call, which consumes A
    C = matops.anticommutator(A, B)
    np.testing.assert_allclose(C, want, atol=1e-10)
    np.testing.assert_array_equal(C, C.T)


def _second_factor(kind, N):
    if kind == "pte":
        # PTE needs even N; the leading block of a symmetric matrix is symmetric.
        return _sample("pte", N + N % 2, N + 1)[:N, :N]
    k = max(d for d in (1, 2, 5) if N % d == 0)
    return _sample("checkerboard", N, N + 1, k=k)


@pytest.mark.parametrize("N", [1, 2, 37, 200])
@pytest.mark.parametrize("kind", ["pte", "checkerboard"])
def test_anticommutator_is_both_products(N, kind):
    A = _sample("goe", N, N)
    B = _second_factor(kind, N)
    both = A @ B + B @ A
    C = matops.anticommutator(A, B)
    assert np.max(np.abs(C - both)) <= 1e-12 * np.max(np.abs(both))
    np.testing.assert_array_equal(C, C.T)


def test_anticommutator_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="mismatch"):
        matops.anticommutator(np.eye(3), np.eye(4))


def test_ell_two_reduces_to_anticommutator():
    # Two factors take the one-GEMM path: P + P^T with P = AB, bit for bit.
    A = _sample("goe", 25, 3)
    B = _sample("goe", 25, 4)
    P = A @ B
    np.testing.assert_array_equal(matops.anticommutator(A, B), P + P.T)


def test_ell_three_sums_all_orderings():
    mats = [_sample("goe", 15, s) for s in (5, 6, 7)]
    brute = np.zeros((15, 15))
    for order in itertools.permutations(range(3)):
        prod = np.eye(15)
        for idx in order:
            prod = prod @ mats[idx]
        brute += prod
    got = matops.anticommutator(*mats)
    np.testing.assert_allclose(got, (brute + brute.T) / 2, atol=1e-9)
    np.testing.assert_array_equal(got, got.T)


def test_ell_four_sums_all_orderings():
    mats = [_sample("goe", 9, s) for s in (11, 12, 13, 14)]
    brute = np.zeros((9, 9))
    for order in itertools.permutations(range(4)):
        brute += np.linalg.multi_dot([mats[idx] for idx in order])
    got = matops.anticommutator(*mats)
    np.testing.assert_allclose(got, brute, rtol=1e-12, atol=1e-12 * np.max(np.abs(brute)))
    np.testing.assert_array_equal(got, got.T)


def test_ell_anticommutator_rejects_empty_and_mismatch():
    for few in ((), (np.eye(3),)):
        with pytest.raises(ValueError, match="at least two"):
            matops.anticommutator(*few)
    with pytest.raises(ValueError, match="mismatch"):
        matops.anticommutator(np.eye(3), np.eye(4), np.eye(3))
    with pytest.raises(ValueError, match="mismatch"):
        matops.anticommutator(np.ones((3, 4)), np.ones((3, 4)))


@pytest.mark.parametrize("N", [1, 2, 127, 128, 129, 300])
def test_add_transpose_is_s_plus_its_transpose(N):
    # N spans one band, one band exactly, a band and one row, and several bands.
    S = np.random.default_rng(N).standard_normal((N, N))
    want = S + S.T
    got = matops._add_transpose(S)
    assert got is S
    # Both triangles, bit for bit: eigvalsh reads only the lower one, so a
    # wrong upper triangle would not show in any spectrum.
    np.testing.assert_array_equal(np.tril(got), np.tril(want))
    np.testing.assert_array_equal(np.triu(got), np.triu(want))


def _peak_over_matrix(call, N):
    """tracemalloc peak of call(), in N x N float64 matrices."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * N * N)


def test_anticommutator_holds_one_new_matrix():
    # One band, 128 rows and an eighth of A at this N (0.125 matrices): AB is
    # written into A's storage band by band; a whole AB would make it 1.
    N = 1024
    A = _sample("goe", N, 1)
    B = _sample("goe", N, 2)
    assert _peak_over_matrix(lambda: matops.anticommutator(A, B), N) < 0.2
    # Three factors: the running sum, the next product and its intermediate;
    # keeping the previous product alive while the next is built makes it 4.
    A = _sample("goe", N, 1)
    C = _sample("goe", N, 3)
    assert _peak_over_matrix(lambda: matops.anticommutator(A, B, C), N) < 3.5


def test_anticommutator_writes_into_its_first_factor():
    # The result is the first factor's storage; the second is read, never
    # written, also when it shares the first factor's storage.
    A = _sample("goe", 300, 5)
    B = _sample("checkerboard", 300, 6, k=5)
    want, kept = A @ B + B @ A, B.copy()
    C = matops.anticommutator(A, B)
    assert C is A
    assert np.max(np.abs(C - want)) <= 1e-12 * np.max(np.abs(want))
    np.testing.assert_array_equal(B, kept)
    want = 2 * (B @ B)
    C = matops.anticommutator(B, B)
    assert np.max(np.abs(C - want)) <= 1e-12 * np.max(np.abs(want))
    # An integer first factor is not truncated: the result is a new float array.
    ints = np.arange(9).reshape(3, 3)
    ints = ints + ints.T
    np.testing.assert_array_equal(matops.anticommutator(ints, ints), 2.0 * (ints @ ints))


def test_symmetric_sampler_mirrors_in_place():
    # The matrix and one band of the mirror (1.125 matrices); one draw of
    # the whole triangle would add 0.5, a boolean mask 0.125, and a copy of
    # the transpose another whole matrix.
    N = 1024
    assert _peak_over_matrix(lambda: _sample("goe", N, 3), N) < 1.2
    assert _peak_over_matrix(lambda: _sample("checkerboard", N, 3, k=4), N) < 1.2


def test_pte_sampler_builds_one_matrix():
    # The result and two vectors of under 2N entries; the distance, mask and
    # index matrices of an N x N gather would make it 3.125.
    N = 1024
    assert _peak_over_matrix(lambda: _sample("pte", N, 3), N) < 1.2


@pytest.mark.parametrize("k", [1, 5])
def test_bce_sampler_builds_one_matrix(k):
    # The result and the free k x k blocks; gathering every block row into
    # an (n, n, k, k) array and copying it out would make it 2.
    N = 1000
    assert _peak_over_matrix(lambda: _sample("bce", N, 3, k=k), N) < 1.1


def test_eigenvalues_sorted_and_complete():
    M = _sample("goe", 50, 8)
    eigs = matops.eigenvalues(M)
    assert eigs.shape == (50,)
    assert np.all(np.diff(eigs) >= 0)
    np.testing.assert_allclose(np.sum(eigs), np.trace(M), atol=1e-8)
    np.testing.assert_allclose(np.sum(eigs**2), np.sum(M * M), atol=1e-6)


def test_eigenvalues_rejects_nonfinite():
    M = np.eye(4)
    M[1, 2] = M[2, 1] = np.nan
    with pytest.raises(ArithmeticError, match="non-finite"):
        matops.eigenvalues(M)


def test_eigenvalues_checks_finiteness_one_band_at_a_time():
    # One band of booleans, 128 rows (0.031 matrices at N = 512); checking
    # the whole matrix at once would hold an N x N boolean, 0.125.
    N = 512
    M = _sample("goe", N, 9)
    assert _peak_over_matrix(lambda: matops.eigenvalues(M), N) < 0.05
    # The last band is checked too, also when it is shorter than the others.
    for N in (512, 300):
        for bad in (np.nan, np.inf, -np.inf):
            M = _sample("goe", N, 9)
            M[-1, -1] = bad
            with pytest.raises(ArithmeticError, match="non-finite"):
                matops.eigenvalues(M)
