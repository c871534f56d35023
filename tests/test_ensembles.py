"""Structure, statistics, and round-trip checks for the matrix samplers."""

import io

import numpy as np
import pytest

from antispectra import cli, ensembles


def _sample(kind, N, seed, k=None, w=1.0, dist="standard-normal"):
    """The one entry point's draw of EnsembleSpec(kind, N, k, w, dist) from rng_stream(seed)."""
    return ensembles.sample_ensemble(ensembles.EnsembleSpec(kind, N, k, w, dist),
                                     ensembles.rng_stream(seed))


def test_rng_stream_deterministic_and_disjoint():
    a = ensembles.rng_stream(7, 0, 1, 0).standard_normal(6)
    b = ensembles.rng_stream(7, 0, 1, 0).standard_normal(6)
    c = ensembles.rng_stream(7, 0, 2, 0).standard_normal(6)
    d = ensembles.rng_stream(8, 0, 1, 0).standard_normal(6)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_samplers_take_no_default_seed():
    # A seed of None would draw from OS entropy, which no run can reproduce;
    # an int seed would skip the stream keys a run draws from.
    spec = ensembles.EnsembleSpec("goe", 4)
    with pytest.raises(TypeError):
        ensembles.sample_ensemble(spec)
    for rng in (None, 5):
        with pytest.raises(TypeError, match="^rng must be a numpy Generator"):
            ensembles.sample_ensemble(spec, rng)
    with pytest.raises(ValueError, match="^invalid seed None"):
        ensembles.rng_stream(None, 0)


def test_goe_symmetry_and_entry_moments():
    N = 400
    M = _sample("goe", N, 1)
    np.testing.assert_array_equal(M, M.T)
    off = M[np.triu_indices(N, 1)]
    assert abs(np.mean(off)) < 0.05
    assert abs(np.var(off) - 1.0) < 0.05
    assert abs(np.var(np.diag(M)) - 2.0) < 0.5


def test_pte_is_a_palindromic_toeplitz():
    N = 12
    M = _sample("pte", N, 2)
    row = M[0]
    np.testing.assert_array_equal(row, row[::-1])
    for d in range(N):
        diag = np.diagonal(M, offset=d)
        np.testing.assert_array_equal(diag, np.full(N - d, row[d]))
    assert len(set(row[: N // 2])) == N // 2  # free entries really vary


def test_bce_block_structure():
    N, k = 24, 3
    n = N // k
    M = _sample("bce", N, 3, k)
    np.testing.assert_array_equal(M, M.T)
    blocks = M.reshape(n, k, n, k).transpose(0, 2, 1, 3)
    for r in range(n):
        for c in range(n):
            np.testing.assert_array_equal(blocks[r, c], blocks[0, (c - r) % n])
    for l in range(1, n):
        np.testing.assert_array_equal(blocks[0, l].T, blocks[0, (n - l) % n])
    np.testing.assert_array_equal(blocks[0, 0], blocks[0, 0].T)
    np.testing.assert_array_equal(blocks[0, n // 2], blocks[0, n // 2].T)


@pytest.mark.parametrize("seed", [0, 4])
@pytest.mark.parametrize("N,k", [(12, 4), (10, 5), (12, 3), (6, 1)])
@pytest.mark.parametrize("dist", ensembles.DISTRIBUTIONS)
def test_bce_matches_index_construction(seed, N, k, dist):
    # Free blocks B_0..B_{n//2} in draw order, B_0 and an even n's B_{n/2}
    # symmetric; entry (r*k + a, c*k + b) is B_{(c - r) mod n}[a, b], with
    # B_{n-i} = B_i^T.
    n = N // k
    rng = ensembles.rng_stream(seed)
    free = []
    for i in range(n // 2 + 1):
        if i == 0 or 2 * i == n:
            upper = np.zeros((k, k))
            upper[np.triu_indices(k)] = ensembles.DISTRIBUTIONS[dist](rng, k * (k + 1) // 2)
            free.append(upper + np.triu(upper, 1).T)
        else:
            free.append(ensembles.DISTRIBUTIONS[dist](rng, (k, k)))
    expected = np.empty((N, N))
    for row in range(N):
        for col in range(N):
            (r, a), (c, b) = divmod(row, k), divmod(col, k)
            i = (c - r) % n
            expected[row, col] = free[i][a, b] if i < len(free) else free[n - i][b, a]
    got = _sample("bce", N, seed, k, dist=dist)
    np.testing.assert_array_equal(got, expected)


def test_checkerboard_pins_residue_classes():
    N, k, w = 20, 4, 2.5
    M = _sample("checkerboard", N, 4, k, w)
    np.testing.assert_array_equal(M, M.T)
    i = np.arange(N)
    mask = (i[:, None] - i[None, :]) % k == 0
    np.testing.assert_array_equal(M[mask], np.full(int(mask.sum()), w))
    free = M[np.triu_indices(N, 1)]
    free = free[free != w]
    assert free.size > 0 and np.std(free) > 0.5


@pytest.mark.parametrize("dist,values", [
    ("rademacher", {-1.0, 1.0}),
])
def test_alternate_entry_distributions(dist, values):
    M = _sample("pte", 16, 6, dist=dist)
    assert set(np.unique(M)) <= values
    U = _sample("checkerboard", 12, 6, 3, dist="uniform-scaled")
    i = np.arange(12)
    free = U[(i[:, None] - i[None, :]) % 3 != 0]
    assert np.max(np.abs(free)) <= np.sqrt(3.0) + 1e-12


def test_unknown_distribution_rejected():
    with pytest.raises(ValueError, match="ensemble 'pte': unknown distribution tag 'cauchy'"):
        ensembles.parse_ensemble("pte", 8, "cauchy")


def test_mean_matrix_pattern_and_spectrum():
    N, k = 20, 4
    M = ensembles.mean_matrix(N, k)
    i = np.arange(N)
    np.testing.assert_array_equal(M, ((i[:, None] - i[None, :]) % k == 0).astype(float))
    eigs = np.linalg.eigvalsh(M)
    np.testing.assert_allclose(eigs[-k:], np.full(k, N / k), atol=1e-9)
    np.testing.assert_allclose(eigs[:-k], np.zeros(N - k), atol=1e-9)


@pytest.mark.parametrize("kind,N,k,message", [
    ("goe", 0, None, "dimension"),
    ("pte", 9, None, "even"),
    ("pte", 7, None, "even"),
    ("bce", 9, 2, "divide"),
    ("bce", 10, 3, "divide"),
    ("checkerboard", 8, 16, "divide"),
    ("sparse", 8, None, "kind"),
])
def test_spec_validation(kind, N, k, message):
    with pytest.raises(ValueError, match=message):
        ensembles.EnsembleSpec(kind, N, k)


@pytest.mark.parametrize("kwargs,message", [
    ({"kind": "bce", "N": 12}, "bce needs a block parameter k"),
    ({"kind": "pte", "N": 4, "dist": "cauchy"}, "unknown distribution tag 'cauchy'"),
])
def test_spec_errors_are_exact(kwargs, message):
    with pytest.raises(ValueError) as info:
        ensembles.EnsembleSpec(**kwargs)
    assert str(info.value) == message


def test_one_even_size_rule_for_pte():
    with pytest.raises(ValueError) as info:
        ensembles.EnsembleSpec("pte", 5)
    assert str(info.value) == "invalid dimension: palindromic Toeplitz needs even N, got 5"


@pytest.mark.parametrize("call", [
    lambda: ensembles.EnsembleSpec("goe", 2**26),
    lambda: ensembles.EnsembleSpec("checkerboard", 2**26, 4),
    lambda: ensembles.mean_matrix(2**26, 4),
], ids=["goe", "spec", "mean_matrix"])
def test_a_matrix_larger_than_memory_is_rejected_before_allocation(monkeypatch, call):
    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated a matrix")

    monkeypatch.setattr(ensembles.np, "zeros", no_allocation)
    with pytest.raises(ValueError, match=r"^invalid dimension: N=67108864: an N x N "
                                         r"matrix needs \S+ GiB, more than the \S+ GiB "
                                         r"of memory$"):
        call()


@pytest.mark.parametrize("text,kind,k,w", [
    ("goe", "goe", None, 1.0),
    ("pte", "pte", None, 1.0),
    ("bce:3", "bce", 3, 1.0),
    ("checker:3", "checkerboard", 3, 1.0),
    ("checker:3:-2.5", "checkerboard", 3, -2.5),
])
def test_parse_ensemble_reads_every_kind(text, kind, k, w):
    # The GOE is Gaussian only; the others take any entry distribution.
    dist = "standard-normal" if kind == "goe" else "rademacher"
    spec = ensembles.parse_ensemble(text, 12, dist)
    assert spec == ensembles.EnsembleSpec(kind, 12, k, w, dist)


@pytest.mark.parametrize("text,message", [
    ("wishart", "unknown ensemble"),
    ("goe:", "takes no parameter"),
    ("bce", "bce needs a block parameter k"),
    ("bce:3:2", "too many parameters"),
    ("checker:3:nan", "w=nan must be finite"),
    ("checker:2:-inf", "w=-inf must be finite"),
    ("checker:0", "k=0 must be positive"),
    ("checker:5", "k=5 must divide N=12"),
    ("goe", "goe entries are Gaussian, not 'rademacher'"),
    ("hollow", "unknown ensemble"),
])
def test_parse_ensemble_errors_name_the_spec(text, message):
    # rademacher entries are valid for every kind but the GOE
    with pytest.raises(ValueError, match=message) as info:
        ensembles.parse_ensemble(text, 12, "rademacher")
    assert repr(text) in str(info.value)


def test_dump_load_round_trip(capsys):
    assert cli.main(["sample", "--ensemble", "goe", "--n", "6", "--seed", "11"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "# symmetric N=6 kind=goe"
    back = np.loadtxt(io.StringIO(text), delimiter=",")
    np.testing.assert_array_equal(back, ensembles.sample_ensemble(
        ensembles.EnsembleSpec("goe", 6), ensembles.rng_stream(11, 0)))


def _reference_upper(rng_values, N):
    """Symmetric matrix filled through np.triu_indices, the samplers' first layout."""
    a = np.zeros((N, N))
    iu = np.triu_indices(N, 1)
    a[iu] = rng_values(iu[0].size)
    return a + a.T


def _reference_residue_mask(N, k):
    i = np.arange(N)
    return (i[:, None] - i[None, :]) % k == 0


def _mask_and_single_draw(rng, N, dist, diagonal):
    """The samplers' previous fill: one draw of the whole strict upper
    triangle, placed through an N x N mask of i < j, then mirrored."""
    i = np.arange(N)
    a = np.zeros((N, N))
    a[i[:, None] < i[None, :]] = ensembles.DISTRIBUTIONS[dist](rng, N * (N - 1) // 2)
    a = a + a.T
    a[np.diag_indices(N)] = ensembles.DISTRIBUTIONS[dist](rng, N) * diagonal
    return a


@pytest.mark.parametrize("N", [1, 2, 129, 300])
@pytest.mark.parametrize("dist", ensembles.DISTRIBUTIONS)
def test_row_wise_fill_matches_one_masked_draw(N, dist):
    # Row-by-row draws are the single draw cut into pieces; the stream must
    # also end where the single draw left it.
    want_rng, got_rng = ensembles.rng_stream(8, N), ensembles.rng_stream(8, N)
    want = _mask_and_single_draw(want_rng, N, dist, 1.5)
    got = ensembles._symmetric_fill(got_rng, N, dist, 1.5)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got_rng.random(4), want_rng.random(4))


@pytest.mark.parametrize("seed", [0, 1, 17, 2024])
@pytest.mark.parametrize("N", [1, 2, 7, 60])
def test_goe_matches_index_construction(seed, N):
    rng = ensembles.rng_stream(seed)
    expected = _reference_upper(rng.standard_normal, N)
    expected[np.diag_indices(N)] = rng.standard_normal(N) * np.sqrt(2.0)
    np.testing.assert_array_equal(_sample("goe", N, seed), expected)


@pytest.mark.parametrize("seed", [0, 5, 99])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("dist", ensembles.DISTRIBUTIONS)
def test_checkerboard_matches_index_construction(seed, k, dist):
    N, w = 45, 2.5
    rng = ensembles.rng_stream(seed)
    expected = _reference_upper(lambda size: ensembles.DISTRIBUTIONS[dist](rng, size), N)
    expected[np.diag_indices(N)] = ensembles.DISTRIBUTIONS[dist](rng, N)
    expected[_reference_residue_mask(N, k)] = w
    got = _sample("checkerboard", N, seed, k, w, dist)
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("N,k", [(1, 1), (6, 1), (6, 3), (45, 5), (60, 4)])
def test_mean_matrix_matches_difference_construction(N, k):
    expected = _reference_residue_mask(N, k).astype(float)
    got = ensembles.mean_matrix(N, k)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("N", [2, 4, 6, 10, 128, 130])
@pytest.mark.parametrize("dist", ensembles.DISTRIBUTIONS)
def test_pte_matches_distance_construction(seed, N, dist):
    # Entry (i, j) is b[d] for d = |i - j| below N/2, else b[N - 1 - d].
    b = ensembles.DISTRIBUTIONS[dist](ensembles.rng_stream(seed), N // 2)
    d = np.abs(np.arange(N)[:, None] - np.arange(N)[None, :])
    expected = b[np.where(d <= N // 2 - 1, d, N - 1 - d)]
    np.testing.assert_array_equal(_sample("pte", N, seed, dist=dist), expected)
