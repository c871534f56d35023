"""Anticommutators, their higher-order cousins, and their eigenvalues."""

from itertools import permutations

import numpy as np


def anticommutator(A, B):
    """{A, B} = AB + BA for symmetric A and B, from a single matrix product.

    For symmetric inputs BA = (AB)^T, so {A, B} = P + P^T with P = AB: one
    GEMM instead of two.  Entry (i, j) is P_ij + P_ji and entry (j, i) is
    P_ji + P_ij, so the result is exactly symmetric, bit for bit, and the
    eigensolvers downstream need no averaging step.
    """
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    P = A @ B
    return P + P.T


def ell_anticommutator(matrices):
    """Sum of products over all orderings of the given symmetric matrices.

    With two inputs this is {A, B}; with one it is just the input.  The
    transpose of each product is the product in the reversed ordering, so
    the sum S over the l!/2 orderings whose first index is below their last
    holds one of each reversed pair, and the full sum is S + S^T: exactly
    symmetric, from half the products.
    """
    mats = list(matrices)
    if not mats:
        raise ValueError("need at least one matrix")
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise ValueError(f"dimension mismatch: {m.shape} vs {shape}")
    if len(mats) == 1:
        return np.array(mats[0], dtype=float)
    total = np.zeros(shape)
    for order in permutations(range(len(mats))):
        if order[0] > order[-1]:
            continue
        prod = mats[order[0]]
        for idx in order[1:]:
            prod = prod @ mats[idx]
        total += prod
    return total + total.T


def eigenvalues(M):
    """All eigenvalues of a symmetric matrix, ascending.

    Delegates to the dense symmetric solver of the LAPACK that NumPy ships
    (tridiagonalize, then implicitly shifted iteration).  NumPy and SciPy
    each bundle their own OpenBLAS with its own thread pool, and a pool's
    threads keep spinning for a while after a call returns.  The trial loop
    forms its products with NumPy, so solving with NumPy too keeps a trial
    on one pool; alternating with SciPy's solver made each call run against
    the other library's idle-spinning threads, about twice as slow on two
    cores.
    """
    if not np.all(np.isfinite(M)):
        raise ArithmeticError("matrix has non-finite entries")
    return np.linalg.eigvalsh(M)
