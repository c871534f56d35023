"""Weighted blip spectral measures, their theoretical moments, and regime checks."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import (_Rotations, _gaussian_trace_moment, check_moduli,
                            double_factorial)
from .densities import SUPPORT_GOE_GOE


def default_blip_order(N):
    """Default weight order max(2, ceil(log log N))."""
    if N < 3:
        raise ValueError(f"invalid dimension: N={N} must be >= 3")
    return max(2, math.ceil(math.log(math.log(N))))


def weight_f(x, n):
    """The weight (x(2 - x))^(2n) at a float or an array x: one flat bump on
    (0, 2), peak value 1 at x=1.

    The factored power form is better conditioned near the endpoints than
    the expanded polynomial.
    """
    if n < 1:
        raise ValueError(f"invalid order: n={n} must be >= 1")
    return (x * (2.0 - x)) ** (2 * n)


def band_scales(k, j):
    """Scale factors (w1, w2, w3) of the intermediary and largest regimes."""
    check_moduli(k, j)
    w1 = math.sqrt(1.0 - 1.0 / j) / k
    w2 = math.sqrt(1.0 - 1.0 / k) / j
    w3 = 2.0 / (k * j)
    return w1, w2, w3


@dataclass
class BlipReport:
    """Locations and weighted moments of one blip regime.

    locations holds every eigenvalue's location.  as_dict marks the moments
    valid only when counts["outside_bump"] is 0.
    """

    regime: str
    N: int
    k: int
    j: int
    n: int
    locations: np.ndarray
    moments: dict  # order -> weighted moment
    counts: dict

    def moment(self, m):
        return self.moments[m]

    def as_dict(self):
        return {
            "regime": self.regime,
            "N": self.N,
            "k": self.k,
            "j": self.j,
            "n": self.n,
            "moments": [{"m": m, "value": v} for m, v in self.moments.items()],
            "moments_valid": self.counts["outside_bump"] == 0,
            "counts": dict(self.counts),
        }


def regime_classify(eigs, N, k, j=None):
    """Count eigenvalues per regime using geometric-mean thresholds.

    The scales ascend: the bulk edge, then each regime's scale with its
    leading constant.  The bulk edge is the support radius of the limiting
    bulk law times the entry standard deviations; the blip scale is
    N^(3/2) / k, and for two checkerboards the intermediary scales are
    w_s N^(3/2), in increasing order, and the largest 2 N^2 / (k j).
    Thresholds sit at the geometric means of adjacent scales, and each
    regime counts its positive and negative eigenvalues; the last regime
    has no outer threshold.
    """
    eigs = np.asarray(eigs, dtype=float)
    if j is None:
        check_moduli(k)
        regimes = [("blip", N**1.5 / k)]
    else:
        w1, w2, w3 = band_scales(k, j)  # checks k and j
        regimes = sorted([("inter_1", w1 * N**1.5), ("inter_2", w2 * N**1.5)],
                         key=lambda regime: regime[1])
        regimes.append(("largest", w3 * N**2))
    j_factor = 1.0 if j is None else 1.0 - 1.0 / j
    bulk_edge = SUPPORT_GOE_GOE * math.sqrt((1.0 - 1.0 / k) * j_factor) * N
    scales = [bulk_edge] + [scale for _, scale in regimes]
    thresholds = [math.sqrt(a * b) for a, b in zip(scales, scales[1:])] + [math.inf]
    counts = {"bulk": int(np.count_nonzero(np.abs(eigs) <= thresholds[0]))}
    for (tag, _), lo, hi in zip(regimes, thresholds, thresholds[1:]):
        counts["largest" if tag == "largest" else f"pos_{tag}"] = int(
            np.count_nonzero((eigs > lo) & (eigs <= hi)))
        counts[f"neg_{tag}"] = int(np.count_nonzero((eigs < -lo) & (eigs >= -hi)))
    return counts


def _outside_bump(x):
    """How many weight arguments lie above 2 or below 1 - sqrt(2).

    The weight (x(2 - x))^(2n) peaks at 1 on x = 1.  Past the far end
    x = 2 of the bump it climbs again like x^(4n), and below 1 - sqrt(2)
    it already exceeds the peak, so each such eigenvalue carries a
    spurious weight that can swamp the moments.
    """
    return int(np.count_nonzero((x > 2.0) | (x < 1.0 - math.sqrt(2.0))))


def _weighted_report(regime, eigs, N, k, j, orders, x, locations, share):
    """The blip report of one spectrum from its weight arguments and locations.

    Each eigenvalue carries weight f^(2n)(x) at its location, n being
    default_blip_order(N); the m-th moment is the weighted power sum
    divided by share, the number of eigenvalues the regime holds; one that
    overflows a float raises ArithmeticError naming m and N.  counts
    adds outside_bump to the regime counts.
    """
    n = default_blip_order(N)
    weights = weight_f(x, n)
    moments = {}
    for m in orders:
        try:
            with np.errstate(over="raise"):
                moments[m] = float(np.sum(weights * locations**m)) / share
        except (OverflowError, FloatingPointError):  # m or a power past a float
            raise ArithmeticError(
                f"blip moment of order {m} at N={N} is not a finite float") from None
    counts = regime_classify(eigs, N, k, j)
    counts["outside_bump"] = _outside_bump(x)
    return BlipReport(regime, N, k, j, n, locations, moments, counts)


def blip_measure_goe_checker(eigs, N, k, orders=(0, 1, 2)):
    """Weighted empirical measure of the blip regime of a GOE/checkerboard pair.

    Each eigenvalue carries weight f^(2n)(k^2 lambda^2 / N^3), with
    n = default_blip_order(N), at location (lambda^2 - N^3/k^2) / N^(5/2);
    the m-th weighted moment is the weighted power sum divided by 2k.

    As N grows, the k positive and the k negative blips each take locations
    distributed as the eigenvalues of (sqrt(5)/k^2) GOE_k, so the moments
    tend to theory_blip_moment_goe_checker(m, k).  The approach is slow:
    every location carries an O(N^(-1/2)) bias, and at order n = 2 bulk
    eigenvalues leak through the weight.

    counts holds the regime counts of regime_classify plus outside_bump, the
    number of eigenvalues with k^2 lambda^2 / N^3 > 2 (the argument is
    never negative, so the lower edge 1 - sqrt(2) is never crossed).  Their
    weights are not localising, so the moments mean nothing unless it is 0
    (at N = 10, k = 5 it is about half the spectrum).
    """
    eigs = np.asarray(eigs, dtype=float)
    x = k**2 * eigs**2 / N**3
    locations = (eigs**2 - N**3 / k**2) / N**2.5
    return _weighted_report("goe-checker-blip", eigs, N, k, None, orders,
                            x, locations, 2 * k)


def blip_measure_largest(eigs, N, k, j, orders=(0, 1, 2)):
    """Weighted empirical measure of the largest blip of a two-checkerboard pair.

    Weight f^(2n)(j k lambda / (2 N^2)) at location (lambda - 2N^2/(jk)) / N,
    n as above, with no prefactor (the regime holds a single eigenvalue).  At
    small N the most negative eigenvalues have arguments below 1 - sqrt(2),
    so they count in outside_bump.
    """
    eigs = np.asarray(eigs, dtype=float)
    x = j * k * eigs / (2.0 * N**2)
    locations = (eigs - 2.0 * N**2 / (j * k)) / N
    return _weighted_report("largest-blip", eigs, N, k, j, orders,
                            x, locations, 1)


def _trace_exact(k, m):
    """Exact E[Tr X^m] for a k x k GOE X, by the Gaussian word engine.

    Off-diagonal entries have variance 1 and diagonal entries variance 2,
    the GOE that ensembles draws, so E[x_ij x_kl] = [i=k][j=l] + [i=l][j=k]
    and X / sqrt(k) is the engine's GOE letter: E[Tr X^m] is k^(m/2) times
    the engine's polynomial for the one word a^m.
    """
    if m == 0:
        return k
    if m % 2:
        return 0
    moment = _gaussian_trace_moment(("a" * m,), True, {}, _Rotations())
    return sum(c * k ** (e + m // 2) for e, c in moment.items())


def theory_blip_moment_goe_checker(m, k):
    """Limiting m-th weighted blip moment (1/k)(sqrt(5)/k^2)^m E[Tr X^m].

    This is the limit of blip_measure_goe_checker for {GOE, k-checkerboard}.
    X is a k x k GOE with off-diagonal variance 1 and diagonal variance 2,
    the normalisation of the ensembles GOE.  The limit is derived to leading
    order from the mean part M = mean_matrix(N, k) = n U U^T, with n = N/k
    and U the N x k matrix of normalised residue-class indicators:

    - {A, M} acts on span(U, AU).  Write AU = U G + W with G = U^T A U and
      W = (I - U U^T) A U.  In that span {A, M} is n [[2G, R^T], [R, 0]]
      with R^T R = W^T W.
    - G is a k x k GOE.  W has iid N(0, 1) entries, so
      H = (W^T W - N) / sqrt(N) tends to an independent k x k GOE.
    - The 2k nonzero eigenvalues are lambda = n (s sqrt(N) + delta), s = +-1,
      with delta an eigenvalue of G + s H / 2.  So the location
      (lambda^2 - N^3/k^2) / N^(5/2) tends to an eigenvalue of
      (H + 2 s G) / k^2.
    - H + 2 s G has off-diagonal variance 5 and diagonal variance 10: it is
      sqrt(5) X.  The k blips of each sign thus follow (sqrt(5)/k^2) GOE_k,
      and the measure, which divides the 2k-point sum by 2k, has the moment
      above: 5(k+1)/k^4 for m=2, 25(2k^2+5k+5)/k^8 for m=4, 0 for odd m.

    Next-order terms, among them the fluctuating part {A, B - M}, shift each
    blip location by O(N^(-1/2)), so finite-N moments approach this limit at
    that rate.
    """
    if m < 0:
        raise ValueError(f"invalid order: m={m} must be >= 0")
    if m % 2:
        return 0.0
    exact = Fraction(5 ** (m // 2) * _trace_exact(k, m), k ** (2 * m + 1))
    return float(exact)


def _theory_largest_exact(m, k, j):
    c = Fraction(k - 1, 2 * j) + Fraction(j - 1, 2 * k)
    var = Fraction(8 * (k - 1), j * j * k) + Fraction(8 * (j - 1), k * k * j)
    return sum(math.comb(m, i) * c ** (m - i) * var ** (i // 2) * double_factorial(i - 1)
               for i in range(0, m + 1, 2))


def theory_largest_blip_moment(m, k, j):
    """Limiting m-th weighted moment of the largest blip, E[(c + sigma Z)^m].

    A = M_k + W_A and B = M_j + W_B are mean part plus fluctuation, and e is
    the all-ones vector over sqrt(N).  To second order the top eigenvalue of
    {A, B} is 2N^2/(kj) + N ((2/j) e^T W_A e + (2/k) e^T W_B e + c), with
    c = (k-1)/(2j) + (j-1)/(2k); the Gaussian term has variance
    sigma^2 = 8(k-1)/(j^2 k) + 8(j-1)/(k^2 j).  The moment, exact in rationals,
    is the sum over even i of C(m, i) c^(m-i) sigma^i (i-1)!!: at k, j = 3, 5
    it is 13/15 for m = 1 and 377/225 for m = 2.
    """
    if m < 0:
        raise ValueError(f"invalid order: m={m} must be >= 0")
    check_moduli(k, j)
    return float(_theory_largest_exact(m, k, j))
