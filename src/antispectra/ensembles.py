"""Seedable samplers for the structured symmetric ensembles.

Every sampler builds its matrix by mirroring a single set of draws, so
symmetry holds exactly (entry for entry), not just to rounding.  Passing
the same seed twice reproduces the same matrix bit for bit.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .matops import _add_transpose
from .spectra import write_csv

DISTRIBUTIONS = ("standard-normal", "rademacher", "uniform-scaled")

KINDS = ("goe", "pte", "bce", "checkerboard")

_SQRT3 = np.sqrt(3.0)


def rng_stream(seed, *stream):
    """Counter-based generator for the stream keyed by ``stream`` integers.

    Distinct keys (e.g. per trial and per matrix slot) give statistically
    independent streams under the same base seed, which None cannot be.
    """
    if seed is None:
        raise ValueError("invalid seed None: every stream needs an integer seed")
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def _as_generator(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return rng_stream(seed)


def _draw(rng, dist, size):
    """iid draws with mean 0 and variance 1 from the named distribution."""
    if dist == "standard-normal":
        return rng.standard_normal(size)
    if dist == "rademacher":
        return rng.integers(0, 2, size).astype(float) * 2.0 - 1.0
    if dist == "uniform-scaled":
        # Uniform on [-sqrt(3), sqrt(3)] has variance 1.
        return rng.uniform(-_SQRT3, _SQRT3, size)
    raise ValueError(f"unknown distribution tag {dist!r}")


def check_memory(what, nbytes):
    """Reject what, whose arrays need nbytes, when that exceeds the machine's
    physical memory: no allocation could meet it, so none is tried."""
    total = (os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
             if "SC_PHYS_PAGES" in getattr(os, "sysconf_names", {}) else math.inf)
    if nbytes > total:
        raise ValueError(f"{what} needs {nbytes / 2**30:.4g} GiB, more than the "
                         f"{total / 2**30:.4g} GiB of memory")


def _check_dims(N, k=None):
    if N < 1:
        raise ValueError(f"invalid dimension: N={N} must be positive")
    check_memory(f"invalid dimension: N={N}: an N x N matrix", 8 * int(N) ** 2)
    if k is not None:
        if k < 1:
            raise ValueError(f"invalid dimension: k={k} must be positive")
        if N % k:
            raise ValueError(f"invalid dimension: k={k} must divide N={N}")


def _symmetric_fill(rng, N, dist="standard-normal", diagonal=1.0):
    """N x N symmetric draw: the strict upper triangle, mirrored, then the diagonal.

    Each row's strict upper triangle is drawn straight into that row, so
    the draws land in row-major order, the order of np.triu_indices(N, 1).
    Draws made in pieces equal one whole draw, so the matrix is bit for bit
    the one a single draw of N(N-1)/2 values gives, without that draw or an
    N x N mask.  The mirror is matops._add_transpose, in place, so no second
    N x N array is made.  The diagonal draws, times ``diagonal``, come last.
    """
    a = np.zeros((N, N))
    for i in range(N - 1):
        a[i, i + 1:] = _draw(rng, dist, N - 1 - i)
    _add_transpose(a)
    a[np.diag_indices(N)] = _draw(rng, dist, N) * diagonal
    return a


def _pin_residues(a, k, w):
    """Set the entries of a with i = j (mod k) to w, one strided slice per residue."""
    for r in range(k):
        a[r::k, r::k] = w
    return a


def sample_goe(N, seed):
    """N x N GOE draw: off-diagonal N(0,1) mirrored, diagonal N(0,2)."""
    _check_dims(N)
    return _symmetric_fill(_as_generator(seed), N, diagonal=np.sqrt(2.0))


def _check_pte_dims(N):
    if N % 2:
        raise ValueError(f"invalid dimension: palindromic Toeplitz needs even N, got {N}")
    _check_dims(N)


def sample_pte(N, seed, dist="standard-normal"):
    """Palindromic Toeplitz draw from b_0..b_{N/2-1} iid with variance 1.

    The entry at (i, j) is b_d for d = |i-j| when d <= N/2 - 1 and
    b_{N-1-d} otherwise, which makes the first row a palindrome.  N must
    be even.  The rows are windows of one strided view, copied once.
    """
    _check_pte_dims(N)
    rng = _as_generator(seed)
    b = _draw(rng, dist, N // 2)
    row = np.concatenate([b, b[::-1]])
    mirrored = np.concatenate([row[:0:-1], row])
    return np.lib.stride_tricks.sliding_window_view(mirrored, N)[::-1].copy()


def _symmetric_block(rng, k, dist):
    m = np.zeros((k, k))
    iu = np.triu_indices(k)
    m[iu] = _draw(rng, dist, iu[0].size)
    m[(iu[1], iu[0])] = m[iu]
    return m


def sample_bce(N, k, seed, dist="standard-normal"):
    """Block circulant draw built from k x k blocks B_0..B_{N/k-1}.

    Free blocks are B_0 (symmetric) and B_1..B_{floor(n/2)} where
    n = N/k; the rest are forced by B_{n-i} = B_i^T.  When n is even the
    middle block B_{n/2} equals its own transpose, so it is drawn
    symmetric as well.  The blocks are copied straight into the one N x N
    result, so besides it the call holds only the N k floats of the blocks.
    """
    _check_dims(N, k)
    n = N // k
    rng = _as_generator(seed)
    blocks = [None] * n
    blocks[0] = _symmetric_block(rng, k, dist)
    for i in range(1, n // 2 + 1):
        if 2 * i == n:
            blocks[i] = _symmetric_block(rng, k, dist)
        else:
            blocks[i] = _draw(rng, dist, (k, k))
    for i in range(n // 2 + 1, n):
        blocks[i] = blocks[n - i].T
    # Block row r, column c is B_{(c - r) mod n}: block row 0 is B_0..B_{n-1}
    # side by side, and block row r is block row 0 rotated right by r blocks.
    a = np.empty((N, N))
    top = a[:k]
    for c, block in enumerate(blocks):
        top[:, c * k:(c + 1) * k] = block
    for r in range(1, n):
        lo = r * k
        a[lo:lo + k, lo:] = top[:, :N - lo]
        a[lo:lo + k, :lo] = top[:, N - lo:]
    return a


def sample_checkerboard(N, k, w, seed, dist="standard-normal"):
    """Symmetric iid draw with entries pinned to w where i = j (mod k).

    The pinned entries are set by k strided slice assignments, so beyond
    the matrix the call holds what _symmetric_fill does and no N x N mask.
    """
    _check_dims(N, k)
    return _pin_residues(_symmetric_fill(_as_generator(seed), N, dist), k, w)


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to draw, at what size, with what parameters.

    k is the block or modulus parameter (ignored for goe and pte), w the
    pinned checkerboard weight, dist the entry distribution tag.  Dimension
    constraints, a finite w and Gaussian entries for the GOE are enforced
    at construction.
    """

    kind: str
    N: int
    k: int = None
    w: float = 1.0
    dist: str = "standard-normal"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.dist not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution tag {self.dist!r}")
        if self.kind == "goe" and self.dist != "standard-normal":
            raise ValueError(f"{self.kind} entries are Gaussian, not {self.dist!r}")
        if not math.isfinite(self.w):
            raise ValueError(f"invalid weight: w={self.w} must be finite")
        if self.kind == "pte":
            _check_pte_dims(self.N)
        elif self.kind in ("bce", "checkerboard"):
            if self.k is None:
                raise ValueError(f"{self.kind} needs a block parameter k")
            _check_dims(self.N, self.k)
        else:
            _check_dims(self.N)


#: Each ensemble name of a sample spec: its kind and its most parameters.
_SPEC_NAMES = {"goe": ("goe", 0), "pte": ("pte", 0), "bce": ("bce", 1),
               "checker": ("checkerboard", 2)}


def parse_ensemble(text, N, dist="standard-normal"):
    """Parse a sample spec, goe, pte, bce:k or checker:k[:w], at size N.

    k is an integer and w a float; EnsembleSpec checks them against N, and
    every error names the spec.
    """
    name, colon, params = text.partition(":")
    if name not in _SPEC_NAMES:
        raise ValueError(f"unknown ensemble {text!r}")
    kind, most = _SPEC_NAMES[name]
    parts = params.split(":") if colon else []
    if len(parts) > most:
        if not most:
            raise ValueError(f"ensemble {text!r} takes no parameter")
        raise ValueError(f"ensemble {text!r} takes too many parameters")
    if most and not parts:
        raise ValueError(f"ensemble {text!r} needs a parameter k")
    try:
        k = int(parts[0]) if parts else None
        w = float(parts[1]) if len(parts) > 1 else 1.0
    except ValueError:
        raise ValueError(f"invalid ensemble {text!r}") from None
    try:
        return EnsembleSpec(kind, N, k, w, dist)
    except ValueError as exc:
        raise ValueError(f"ensemble {text!r}: {exc}") from None


def sample_ensemble(spec, seed):
    """Draw one matrix described by an EnsembleSpec."""
    if spec.kind == "goe":
        return sample_goe(spec.N, seed)
    if spec.kind == "pte":
        return sample_pte(spec.N, seed, spec.dist)
    if spec.kind == "bce":
        return sample_bce(spec.N, spec.k, seed, spec.dist)
    if spec.kind == "checkerboard":
        return sample_checkerboard(spec.N, spec.k, spec.w, seed, spec.dist)
    raise ValueError(f"unknown ensemble kind {spec.kind!r}")


def mean_matrix(N, k):
    """Deterministic 0/1 matrix with ones exactly where i = j (mod k).

    Rank k; its nonzero eigenvalues are k copies of N/k.
    """
    _check_dims(N, k)
    return _pin_residues(np.zeros((N, N)), k, 1.0)


def dump_matrix(f, M, kind):
    """Write a matrix as CSV, one row per line, 17 significant digits."""
    write_csv(f, f"# symmetric N={len(M)} kind={kind}", *M.T)
