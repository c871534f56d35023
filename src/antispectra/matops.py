"""Anticommutators, their higher-order cousins, and their eigenvalues."""

from functools import reduce
from itertools import permutations

import numpy as np

_BAND = 128  # rows a band in _add_transpose and eigenvalues; no product band is smaller


def _add_transpose(S):
    """Overwrite the square S with S + S^T and return it, one band of rows at a time.

    Band [lo, hi) reads rows lo:hi and columns lo:hi from the lower-right
    block that no earlier band has written, so each entry is the single sum
    S_ij + S_ji, bit for bit the value of S + S.T.  Every band's sum goes
    into one buffer, so the only temporary is one band, where S + S.T (or
    S += S.T, which copies the overlapping S.T) would hold a second N x N
    array.
    """
    N = len(S)
    band = np.empty((min(_BAND, N), N))
    for lo in range(0, N, _BAND):
        hi = min(lo + _BAND, N)
        rows = np.add(S[lo:hi, lo:], S[lo:, lo:hi].T, out=band[:hi - lo, :N - lo])
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
    S_ij + S_ji.

    The call consumes its first argument; pass a copy to keep it.  For two
    inputs S is the single GEMM AB, written into A's storage one band of
    rows at a time (rows lo:hi of AB are A[lo:hi] @ B, and no later band
    reads them), and S + S^T is formed in place, so the call returns A's
    float64 array and holds one band, 128 rows or an eighth of A, beside
    A and B.  A band's GEMM may round differently from one whole A @ B, by
    a few ulps of the largest entry.  With three or more inputs S is a
    running sum of new products.
    """
    if len(matrices) < 2:
        raise ValueError(f"need at least two matrices, got {len(matrices)}")
    square = (len(matrices[0]),) * 2
    for m in matrices:
        if m.shape != square:
            raise ValueError(f"dimension mismatch: {m.shape}, want {square}")
    if len(matrices) == 2:
        A, B = matrices
        A = np.asarray(A, dtype=float)  # an integer A would truncate the products
        if np.may_share_memory(A, B):
            # Overwriting A's rows would change the B that later bands read.
            B = B.copy()
        # Each band's GEMM packs all of B again, so a band is an eighth of A
        # once that exceeds _BAND: at N = 3000 on a 2-core x86 with OpenBLAS
        # 0.3.31, 128-row bands made the product 22% slower than one A @ B,
        # and eighths 10%.
        rows = max(_BAND, len(A) // 8)
        for lo in range(0, len(A), rows):
            A[lo:lo + rows] = A[lo:lo + rows] @ B
        return _add_transpose(A)
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

    Finiteness is checked one band of rows at a time, so the check holds a
    band's booleans, not an N x N array of them.
    """
    if not all(np.isfinite(M[lo:lo + _BAND]).all() for lo in range(0, len(M), _BAND)):
        raise ArithmeticError("matrix has non-finite entries")
    return np.linalg.eigvalsh(M)
