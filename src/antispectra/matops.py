"""Anticommutators, their higher-order cousins, and their eigenvalues."""

from functools import reduce
from itertools import permutations

import numpy as np

_BAND = 128  # rows per band of _add_transpose


def _add_transpose(S):
    """Overwrite the square S with S + S^T and return it, one band of rows at a time.

    Band [lo, hi) reads rows lo:hi and columns lo:hi from the lower-right
    block that no earlier band has written, so each entry is the single sum
    S_ij + S_ji, bit for bit the value of S + S.T.  The only temporary is
    one band, where S + S.T (or S += S.T, which copies the overlapping S.T)
    would hold a second N x N array.
    """
    N = len(S)
    for lo in range(0, N, _BAND):
        hi = min(lo + _BAND, N)
        rows = S[lo:hi, lo:] + S[lo:, lo:hi].T
        S[lo:hi, lo:] = rows
        S[lo:, lo:hi] = rows.T
    return S


def anticommutator(*matrices):
    """Sum of the products of the given symmetric matrices over all their orderings.

    With two inputs this is {A, B} = AB + BA.  The transpose of each product
    is the product in the reversed ordering, so the sum S over the l!/2
    orderings whose first index is below their last holds one of each
    reversed pair, and the full sum is S + S^T: half the products, and
    exactly symmetric, bit for bit, since entries (i, j) and (j, i) are both
    S_ij + S_ji.  For two inputs S is the single GEMM AB.  S + S^T is formed
    in place, so a two-factor call holds A, B and AB and no fourth N x N
    array.
    """
    if len(matrices) < 2:
        raise ValueError(f"need at least two matrices, got {len(matrices)}")
    square = (len(matrices[0]),) * 2
    for m in matrices:
        if m.shape != square:
            raise ValueError(f"dimension mismatch: {m.shape}, want {square}")
    # No name holds a product once it is added, so the next one is built
    # beside the running sum alone.
    orders = [o for o in permutations(range(len(matrices))) if o[0] < o[-1]]
    total = reduce(np.matmul, (matrices[i] for i in orders[0]))
    for order in orders[1:]:
        total += reduce(np.matmul, (matrices[i] for i in order))
    return _add_transpose(total)


def eigenvalues(M):
    """All eigenvalues of a symmetric matrix, ascending.

    Delegates to the dense symmetric solver of the LAPACK that NumPy ships
    (tridiagonalize, then implicitly shifted iteration).  NumPy and SciPy
    each bundle their own OpenBLAS with its own thread pool, and a pool's
    threads keep spinning for a while after a call returns.  The package
    imports no SciPy, so a process holds NumPy's pool alone; alternating
    with SciPy's solver made each call run against the other library's
    idle-spinning threads, about twice as slow on two cores.
    """
    if not np.all(np.isfinite(M)):
        raise ArithmeticError("matrix has non-finite entries")
    return np.linalg.eigvalsh(M)
