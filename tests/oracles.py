"""Exact oracles that only the tests evaluate: the {PTE, PTE} moment generating
function and its series, and the sigma functional-equation residual.

Not collected by pytest (no test_ prefix); test modules import it as
``oracles``.
"""

import itertools
import math
from fractions import Fraction

from antispectra.combinatorics import (_a_first, _free_word_moment, _harer_zagier,
                                       catalan, double_factorial, moment_pte_pte,
                                       sigma_table)


def mgf_pte_pte(z):
    """Moment generating function (1 - 4 z^2)^(-1/2) on |z| < 1/2."""
    if abs(z) >= 0.5:
        raise ValueError(f"out of domain: need |z| < 1/2, got {z}")
    return 1.0 / math.sqrt(1 - 4 * z * z)


def mgf_pte_pte_series(z, terms=20):
    """Partial sum of the moment series sum_m M_2m z^(2m) / (2m)!.

    Converges on |z| < 1/2 (ratio test against the closed form); the
    truncation keeps moment orders up through 2*terms.
    """
    if abs(z) >= 0.5:
        raise ValueError(f"out of domain: need |z| < 1/2, got {z}")
    total = 1.0
    for m in range(1, terms + 1):
        total += moment_pte_pte(m) * z ** (2 * m) / math.factorial(2 * m)
    return total


def _free_sigma(n_max, s_max, row):
    """sigma[n][s], n <= n_max, s <= s_max, by its definition: the sum of phi(w b^(2s))
    over the 2^(2n) words w of (sb + bs)^(2n), for sigma_table's b and row, by the free
    word recursion, which shares no code with sigma_table."""
    memo = {}
    return [[sum(_free_word_moment(_a_first("".join(w) + "bb" * s), row, memo)
                 for w in itertools.product(("ab", "ba"), repeat=2 * n))
             for s in range(s_max + 1)]
            for n in range(n_max + 1)]


def check_sigma_pde(n_max, s_max):
    """Largest coefficientwise residual, a Fraction, of the generating
    function F(z,w) = sum sigma_{n,s} z^n w^s / s! in the equation
    F = B(w) + z (dF/dw(z,0) F + F(z,0) dF/dw), B(w) = sum_s phi(b^(2s)) w^s / s!
    being b's exponential moment series, with sigma_table on the left and
    _free_sigma's counts on the right.  b is Gaussian ((2s-1)!!), semicircular
    (Catalan) and GUE_2 (Harer-Zagier at k = 2, as Fractions) in turn.  The
    arithmetic is exact, so any nonzero residual means the table and the
    definition disagree.
    """
    wide = range(n_max + s_max + 1)
    rows = ([double_factorial(2 * i - 1) for i in wide], [catalan(i) for i in wide],
            [moment.at(2) for moment in _harer_zagier(n_max + s_max)])
    residual = Fraction(0)
    for row in rows:
        sig, free = sigma_table(n_max, s_max, row), _free_sigma(n_max - 1, s_max + 1, row)
        for n, s in itertools.product(range(n_max + 1), range(s_max + 1)):
            rhs = sum(free[k - 1][1] * free[n - k][s] + free[k - 1][0] * free[n - k][s + 1]
                      for k in range(1, n + 1)) if n else row[s]
            residual = max(residual, abs(Fraction(sig[n][s] - rhs, math.factorial(s))))
    return residual
