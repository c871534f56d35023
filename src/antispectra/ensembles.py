"""Seedable samplers for the structured symmetric ensembles.

sample_ensemble draws every matrix, from an EnsembleSpec and a Generator
such as rng_stream's, by mirroring a single set of draws, so symmetry holds
exactly (entry for entry), not just to rounding.  The same stream gives the
same matrix bit for bit.
"""

import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .matops import _add_transpose

_SQRT3 = np.sqrt(3.0)

#: Every entry distribution, by tag: its iid draw (rng, size) -> array, mean 0
#: and variance 1.
DISTRIBUTIONS = {
    "standard-normal": lambda rng, size: rng.standard_normal(size),
    "rademacher": lambda rng, size: rng.integers(0, 2, size).astype(float) * 2.0 - 1.0,
    # uniform on [-sqrt(3), sqrt(3)] has variance 1
    "uniform-scaled": lambda rng, size: rng.uniform(-_SQRT3, _SQRT3, size),
}


def rng_stream(seed, *stream):
    """Counter-based generator for the stream keyed by ``stream`` integers.

    Distinct keys (e.g. per trial and per matrix slot) give statistically
    independent streams under the same base seed, which None cannot be.
    """
    if seed is None:
        raise ValueError("invalid seed None: every stream needs an integer seed")
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


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


def _symmetric_fill(rng, N, dist, diagonal=1.0):
    """N x N symmetric draw: the strict upper triangle, mirrored, then the diagonal.

    Each row's strict upper triangle is drawn straight into that row, so
    the draws land in row-major order, the order of np.triu_indices(N, 1).
    Draws made in pieces equal one whole draw, so the matrix is bit for bit
    the one a single draw of N(N-1)/2 values gives, without that draw or an
    N x N mask.  The mirror is matops._add_transpose, in place, so no second
    N x N array is made.  The diagonal draws, times ``diagonal``, come last.
    """
    draw = DISTRIBUTIONS[dist]
    a = np.zeros((N, N))
    for i in range(N - 1):
        a[i, i + 1:] = draw(rng, N - 1 - i)
    _add_transpose(a)
    a[np.diag_indices(N)] = draw(rng, N) * diagonal
    return a


def _pin_residues(a, k, w):
    """Set the entries of a with i = j (mod k) to w, one strided slice per residue."""
    for r in range(k):
        a[r::k, r::k] = w
    return a


def _sample_goe(spec, rng):
    """N x N GOE draw: off-diagonal N(0,1) mirrored, diagonal N(0,2)."""
    return _symmetric_fill(rng, spec.N, spec.dist, np.sqrt(2.0))


def _sample_pte(spec, rng):
    """Palindromic Toeplitz draw from b_0..b_{N/2-1} iid with variance 1.

    The entry at (i, j) is b_d for d = |i-j| when d <= N/2 - 1 and
    b_{N-1-d} otherwise, which makes the first row a palindrome.  N must
    be even.  The rows are windows of one strided view, copied once.
    """
    b = DISTRIBUTIONS[spec.dist](rng, spec.N // 2)
    row = np.concatenate([b, b[::-1]])
    mirrored = np.concatenate([row[:0:-1], row])
    return np.lib.stride_tricks.sliding_window_view(mirrored, spec.N)[::-1].copy()


def _symmetric_block(rng, k, draw):
    m = np.zeros((k, k))
    iu = np.triu_indices(k)
    m[iu] = draw(rng, iu[0].size)
    m[(iu[1], iu[0])] = m[iu]
    return m


def _sample_bce(spec, rng):
    """Block circulant draw built from k x k blocks B_0..B_{N/k-1}.

    Free blocks are B_0 (symmetric) and B_1..B_{floor(n/2)} where
    n = N/k; the rest are forced by B_{n-i} = B_i^T.  When n is even the
    middle block B_{n/2} equals its own transpose, so it is drawn
    symmetric as well.  The blocks are copied straight into the one N x N
    result, so besides it the call holds only the N k floats of the blocks.
    """
    N, k, draw = spec.N, spec.k, DISTRIBUTIONS[spec.dist]
    n = N // k
    blocks = [None] * n
    blocks[0] = _symmetric_block(rng, k, draw)
    for i in range(1, n // 2 + 1):
        if 2 * i == n:
            blocks[i] = _symmetric_block(rng, k, draw)
        else:
            blocks[i] = draw(rng, (k, k))
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


def _sample_checkerboard(spec, rng):
    """Symmetric iid draw with entries pinned to w where i = j (mod k).

    The pinned entries are set by k strided slice assignments, so beyond
    the matrix the call holds what _symmetric_fill does and no N x N mask.
    """
    return _pin_residues(_symmetric_fill(rng, spec.N, spec.dist), spec.k, spec.w)


class _Kind(NamedTuple):
    draw: Callable  # (spec, rng) -> the N x N matrix
    name: str  # its ensemble name in a sample spec
    most: int  # the most parameters (k, then w) a sample spec gives it


#: Every ensemble kind the package draws.
KINDS = {
    "goe": _Kind(_sample_goe, "goe", 0),
    "pte": _Kind(_sample_pte, "pte", 0),
    "bce": _Kind(_sample_bce, "bce", 1),
    "checkerboard": _Kind(_sample_checkerboard, "checker", 2),
}


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to draw, at what size, with what parameters.

    k is the block or modulus parameter (ignored for goe and pte), w the
    pinned checkerboard weight, dist the entry distribution tag.  Dimension
    constraints, a finite w and Gaussian entries for the GOE are enforced
    at construction, and nowhere else.
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
        if self.kind == "pte" and self.N % 2:
            raise ValueError(f"invalid dimension: palindromic Toeplitz needs even N, got {self.N}")
        takes_k = KINDS[self.kind].most > 0
        if takes_k and self.k is None:
            raise ValueError(f"{self.kind} needs a block parameter k")
        _check_dims(self.N, self.k if takes_k else None)


def parse_ensemble(text, N, dist="standard-normal"):
    """Parse a sample spec, goe, pte, bce:k or checker:k[:w], at size N.

    k is an integer and w a float; EnsembleSpec checks them against N, and
    every error names the spec.
    """
    name, colon, params = text.partition(":")
    kind = next((kind for kind, entry in KINDS.items() if entry.name == name), None)
    if kind is None:
        raise ValueError(f"unknown ensemble {text!r}")
    most = KINDS[kind].most
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


def sample_ensemble(spec, rng):
    """Draw the matrix an EnsembleSpec describes from rng, a Generator such as rng_stream's."""
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy Generator, not {type(rng).__name__}")
    return KINDS[spec.kind].draw(spec, rng)


def mean_matrix(N, k):
    """Deterministic 0/1 matrix with ones exactly where i = j (mod k).

    Rank k; its nonzero eigenvalues are k copies of N/k.
    """
    _check_dims(N, k)
    return _pin_residues(np.zeros((N, N)), k, 1.0)
