"""Closed-form limiting densities, the moment generating function, and
series/PDE cross-checks in exact arithmetic."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import (_Rotations, _free_word_moment, double_factorial,
                            moment_pte_pte, sigma_table)

#: Edge of the support of the two-GOE limiting density.
SUPPORT_GOE_GOE = math.sqrt((11 + 5 * math.sqrt(5)) / 2)

#: Offset below which the density formula is 0/0; see density_goe_goe.
_ZERO_OFFSET = 1e-6


@dataclass
class DensityCurve:
    """A density tabulated on an ascending grid."""

    x: np.ndarray
    density: np.ndarray

    def write_csv(self, f):
        f.write("x,density\n")
        for xi, di in zip(self.x, self.density):
            f.write(f"{xi:.17g},{di:.17g}\n")


def density_goe_goe(x):
    """Limiting spectral density of the anticommutator of two GOEs.

    Vanishes outside |x| <= sqrt((11+5*sqrt(5))/2) ~ 3.33019.  The
    formula is indeterminate at the origin, so inputs inside a 1e-6
    window are evaluated at the window edge (the function changes by
    O(1e-12) across it).  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    ax = np.maximum(np.abs(x), _ZERO_OFFSET)
    x2 = ax * ax
    # Inner square root argument hits zero exactly at the support edge;
    # clamp below it so rounding cannot go negative.
    inner = np.maximum(x2 * (1 + 11 * x2 - x2 * x2) / 27, 0.0)
    h = np.cbrt((18 * x2 + 1) / 27 + np.sqrt(inner))
    dens = -(np.sqrt(3) / (2 * np.pi * ax)) * ((3 * x2 + 1) / (9 * h) - h)
    dens = np.where(np.abs(x) <= SUPPORT_GOE_GOE, dens, 0.0)
    return float(dens) if scalar else dens


def density_pte_pte(x):
    """Limiting spectral density for two palindromic Toeplitz factors.

    The law is the difference of two iid chi^2_1 variables, with density
    K0(|x|/2) / (2 pi).  K0 comes from e^z K0(z) = int_0^inf
    exp(-2 z sinh^2(t/2)) dt by the trapezoid rule with step
    h = 0.25 / sqrt(max(z, 1)) at the nodes 0 (weight 1/2), h, ..., 99 h.
    The integrand is even and entire, so the error falls like
    exp(-pi^2 / h), and by 99 h it has decayed below 1e-100 for every
    z >= 1e-8.  Below that K0(z) = ln(2/z) - gamma to double precision.
    Against K0 at 30 digits the relative error stays under 1e-15.  Accepts
    scalars or arrays.  The origin is a (log-)singular point and is
    rejected; integrate across it instead.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x == 0):
        raise ValueError("singular point: density diverges at x = 0")
    # e^-z underflows to 0 past z = 746, so capping z at 800 changes no
    # finite result and gives the limit 0 at x = +-inf.
    z = np.minimum(np.abs(x) / 2, 800.0)
    h = 0.25 / np.sqrt(np.maximum(z, 1.0))
    total = 0.5 + sum(np.exp(-2 * z * np.sinh(k * h / 2) ** 2)
                      for k in range(1, 100))
    k0 = np.where(z < 1e-8, np.log(4) - np.log(np.abs(x)) - np.euler_gamma,
                  np.exp(-z) * h * total)
    dens = k0 / (2 * np.pi)
    return float(dens) if x.ndim == 0 else dens


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


def _free_sigma(n_max, s_max):
    """sigma[n][s], n <= n_max, s <= s_max, by its definition: the sum of phi(w b^(2s))
    over the 2^(2n) words w of (sb + bs)^(2n), s semicircular and free from a standard
    Gaussian b, by the free word recursion, which shares no code with sigma_table."""
    gaussian = [[double_factorial(2 * i - 1)] for i in range(n_max + s_max + 1)]
    memo, rotations = {}, _Rotations()

    def phi(word):  # the k^0 coefficient; a word of value 0 has none
        return sum(_free_word_moment(rotations[word], gaussian, memo, rotations)[:1])

    return [[sum(phi("".join(w) + "bb" * s)
                 for w in itertools.product(("ab", "ba"), repeat=2 * n))
             for s in range(s_max + 1)]
            for n in range(n_max + 1)]


def check_sigma_pde(n_max, s_max):
    """Largest coefficientwise residual, a Fraction, of the generating
    function F(z,w) = sum sigma_{n,s} z^n w^s / s! in the equation
    F = (1-2w)^(-1/2) + z (dF/dw(z,0) F + F(z,0) dF/dw), with sigma_table on
    the left and _free_sigma's counts on the right.  The arithmetic is exact,
    so any nonzero residual means the table and the definition disagree.
    """
    sig, free = sigma_table(n_max, s_max), _free_sigma(n_max - 1, s_max + 1)
    residual = Fraction(0)
    for n, s in itertools.product(range(n_max + 1), range(s_max + 1)):
        rhs = sum(free[k - 1][1] * free[n - k][s] + free[k - 1][0] * free[n - k][s + 1]
                  for k in range(1, n + 1)) if n else double_factorial(2 * s - 1)
        residual = max(residual, abs(Fraction(sig[n][s] - rhs, math.factorial(s))))
    return residual


def tabulate_density(pair, grid):
    """Evaluate a named limiting density on a grid, as a DensityCurve.

    For the palindromic pair a grid point at exactly 0 takes the value at
    1e-4, which the even density shares with -1e-4, to step over the
    singularity.
    """
    grid = np.asarray(grid, dtype=float)
    if pair == "goe-goe":
        return DensityCurve(x=grid, density=density_goe_goe(grid))
    if pair == "pte-pte":
        return DensityCurve(x=grid,
                            density=density_pte_pte(np.where(grid == 0, 1e-4, grid)))
    raise ValueError(f"no closed-form density for pair {pair!r}")
