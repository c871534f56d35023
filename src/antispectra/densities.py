"""Closed-form limiting densities of {GOE, GOE} and {PTE, PTE}, and their
tabulation on a grid."""

import math
from dataclasses import dataclass

import numpy as np

from .spectra import write_csv

#: Edge of the support of the two-GOE limiting density.
SUPPORT_GOE_GOE = math.sqrt((11 + 5 * math.sqrt(5)) / 2)

#: Offset below which the density formula is 0/0; see density_goe_goe.
_ZERO_OFFSET = 1e-6

#: The K0 trapezoid rule: nodes past the origin, nodes per block, points per chunk.
_K0_NODES, _K0_BLOCK, _K0_CHUNK = 99, 16, 4096


@dataclass
class DensityCurve:
    """A density tabulated on an ascending grid."""

    x: np.ndarray
    density: np.ndarray

    def write_csv(self, f):
        write_csv(f, "x,density", self.x, self.density)


def density_goe_goe(x):
    """Limiting spectral density of the anticommutator of two GOEs.

    Vanishes outside |x| <= sqrt((11+5*sqrt(5))/2) ~ 3.33019.  The
    formula is indeterminate at the origin, so inputs inside a 1e-6
    window are evaluated at the window edge (the function changes by
    O(1e-12) across it).  Accepts scalars or arrays; a NaN input gives NaN.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    # Past the support the formula overflows, and the mask below zeroes it.
    ax = np.clip(np.abs(x), _ZERO_OFFSET, SUPPORT_GOE_GOE)
    x2 = ax * ax
    # Inner square root argument hits zero exactly at the support edge;
    # clamp below it so rounding cannot go negative.
    inner = np.maximum(x2 * (1 + 11 * x2 - x2 * x2) / 27, 0.0)
    h = np.cbrt((18 * x2 + 1) / 27 + np.sqrt(inner))
    dens = -(np.sqrt(3) / (2 * np.pi * ax)) * ((3 * x2 + 1) / (9 * h) - h)
    dens = np.where(np.abs(x) > SUPPORT_GOE_GOE, 0.0, dens)
    return float(dens) if scalar else dens


def _k0_node_sum(z, h):
    """Sum over the nodes k = 1..99 of exp(-2 z sinh^2(k h / 2)), for 1-D z and h.

    The terms are added one at a time in k order, as density_pte_pte's rule
    adds them (a pairwise np.sum would round differently).  They are
    evaluated _K0_BLOCK values of k at a time on chunks of at most _K0_CHUNK
    points, and a chunk stops after the first block whose last term is below
    2^-54 times the running sum at each point with z >= 1e-8.  The terms
    fall in k, so every later term is then under half an ulp of the sum and
    adding it would change no bit.  Points with z < 1e-8 take
    density_pte_pte's log branch, so their sums are not waited on.
    """
    minus_2z, half_h = -2 * z, h / 2
    total = np.empty_like(z)
    for start in range(0, z.size, _K0_CHUNK):
        part = slice(start, start + _K0_CHUNK)
        log_branch = z[part] < 1e-8
        acc = 0.0
        for first in range(1, _K0_NODES + 1, _K0_BLOCK):
            k = np.arange(first, min(first + _K0_BLOCK, _K0_NODES + 1))[:, None]
            terms = np.exp(minus_2z[part] * np.sinh(k * half_h[part]) ** 2)
            for term in terms:
                acc = acc + term
            if np.all((terms[-1] < 2.0 ** -54 * acc) | log_branch):
                break
        total[part] = acc
    return total


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

    The nodes are summed in k order, 16 at a time on chunks of at most 4096
    points, and a chunk stops after the first block of 16 whose terms are
    too small to change any bit of its sums (_k0_node_sum): 48 nodes on a
    400-point grid over [-4, 4], 64 when a point lies within 1e-3 of the
    origin.  The result is bit for bit the full 99-node sum, and the chunks
    keep the working memory a few copies of the grid.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x == 0):
        raise ValueError("singular point: density diverges at x = 0")
    # e^-z underflows to 0 past z = 746, so capping z at 800 changes no
    # finite result and gives the limit 0 at x = +-inf.
    z = np.minimum(np.abs(x) / 2, 800.0)
    h = 0.25 / np.sqrt(np.maximum(z, 1.0))
    total = 0.5 + _k0_node_sum(z.ravel(), h.ravel()).reshape(x.shape)
    k0 = np.where(z < 1e-8, np.log(4) - np.log(np.abs(x)) - np.euler_gamma,
                  np.exp(-z) * h * total)
    dens = k0 / (2 * np.pi)
    return float(dens) if x.ndim == 0 else dens


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
