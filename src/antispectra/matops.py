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

    The call consumes its first argument; pass a copy to keep it.  Rows
    lo:hi of S, the sum over the orderings o of F[o[0]][lo:hi] @ F[o[1]] @ ...,
    go into its float64 storage one band at a time, and S + S^T is formed in
    place.  A pair's one product reads the first factor's rows in place, as
    no later band reads them; more factors read a copy.  So a pair holds one
    band (128 rows or an eighth of A) beside A and B, and l >= 3 factors that
    copy and two bands.  Banded GEMMs may round unlike whole ones, by ulps.
    """
    if len(matrices) < 2:
        raise ValueError(f"need at least two matrices, got {len(matrices)}")
    N = len(matrices[0])
    for m in matrices:
        if m.shape != (N, N):
            raise ValueError(f"dimension mismatch: {m.shape}, want {(N, N)}")
    S = np.asarray(matrices[0], dtype=float)  # an integer factor would truncate the products
    orders = [o for o in permutations(range(len(matrices))) if o[0] < o[-1]]
    # Overwriting S's rows would change a factor that later bands read.
    factors = [S if len(orders) == 1 else S.copy()]
    factors += [m.copy() if np.may_share_memory(S, m) else m for m in matrices[1:]]
    # Each band's GEMMs pack their right factors again, so a band is an eighth of S
    # once that exceeds _BAND: at N = 3000 (2-core x86, OpenBLAS 0.3.31), 128-row
    # bands made a pair's product 22% slower than one A @ B, and eighths 10%.
    rows = max(_BAND, N // 8)
    for lo in range(0, N, rows):
        band = S[lo:lo + rows]
        products = (reduce(np.matmul, (factors[i] for i in o[1:]), factors[o[0]][lo:lo + rows])
                    for o in orders)
        band[...] = next(products)
        for _ in orders[1:]:
            band += next(products)  # unnamed, so freed before the next is built
    return _add_transpose(S)


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
