"""Weighted blip spectral measures, their theoretical moments, and regime checks."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import double_factorial
from .densities import SUPPORT_GOE_GOE
from .ensembles import _as_generator, mean_matrix, perturbation_split
from .matops import anticommutator, eigenvalues

EXACT_HOLLOW_BUDGET = 10**7


def default_blip_order(N):
    """Default weight order max(2, ceil(log log N))."""
    if N < 3:
        raise ValueError(f"invalid dimension: N={N} must be >= 3")
    return max(2, math.ceil(math.log(math.log(N))))


@dataclass(frozen=True)
class WeightPolynomial:
    """Localizing weight x^(2n) (2-x)^(2n) with its expanded integer coefficients.

    coefficients maps the exponent alpha in [2n, 4n] to the integer
    coefficient of x^alpha; the coefficients sum to 1 exactly.  Evaluation
    uses the factored power form, which is better conditioned than the
    expanded sum near the endpoints.
    """

    order: int
    coefficients: dict

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        value = (arr * (2.0 - arr)) ** (2 * self.order)
        return float(value) if value.ndim == 0 else value


def weight_f(n):
    """Weight polynomial of order n with one flat bump on (0, 2), peak value 1 at x=1."""
    if n < 1:
        raise ValueError(f"invalid order: n={n} must be >= 1")
    coeffs = {}
    for alpha in range(2 * n, 4 * n + 1):
        i = alpha - 2 * n
        coeffs[alpha] = math.comb(2 * n, i) * 2 ** (4 * n - alpha) * (-1) ** i
    return WeightPolynomial(n, coeffs)


def band_scales(k, j):
    """Scale factors (w1, w2, w3) of the intermediary and largest regimes."""
    if k < 2 or j < 2:
        raise ValueError(f"invalid dimension: k={k}, j={j} must be >= 2")
    if math.gcd(k, j) != 1:
        raise ValueError(f"invalid dimension: k={k} and j={j} must be coprime")
    w1 = math.sqrt(1.0 - 1.0 / j) / k
    w2 = math.sqrt(1.0 - 1.0 / k) / j
    w3 = 2.0 / (k * j)
    return w1, w2, w3


def weight_g(n, s, k, j, N):
    """Normalized weight for intermediary band s of the two-checkerboard pair.

    Returns a callable of x = lambda / (w_s N^(3/2)).  The polynomial has
    roots of order 2n at 0 and at the other band's rescaled position, a root
    of order 10n at the largest blip's position, and value exactly 1 at x=1.
    """
    if s not in (1, 2):
        raise ValueError(f"invalid band index: s={s} must be 1 or 2")
    if n < 1:
        raise ValueError(f"invalid order: n={n} must be >= 1")
    w1, w2, w3 = band_scales(k, j)
    ws = w1 if s == 1 else w2
    wt = w2 if s == 1 else w1
    ratio2 = (wt / ws) ** 2
    top = w3 * math.sqrt(N) / ws
    denom = (1.0 - ratio2) ** (2 * n) * (1.0 - top) ** (10 * n)

    def g(x):
        arr = np.asarray(x, dtype=float)
        value = arr ** (2 * n) * (arr**2 - ratio2) ** (2 * n) * (arr - top) ** (10 * n)
        value = value / denom
        return float(value) if value.ndim == 0 else value

    return g


@dataclass
class BlipReport:
    """Weighted point masses and summary statistics for one blip regime."""

    regime: str
    N: int
    k: int
    j: int
    n: int
    locations: np.ndarray
    weights: np.ndarray
    moments: list
    counts: dict

    def moment(self, m):
        for order, value in self.moments:
            if order == m:
                return value
        raise KeyError(f"moment of order {m} not computed")

    def as_dict(self):
        return {
            "regime": self.regime,
            "N": self.N,
            "k": self.k,
            "j": self.j,
            "n": self.n,
            "moments": [{"m": m, "value": v} for m, v in self.moments],
            "counts": dict(self.counts),
        }


def regime_classify(eigs, N, k, j=None):
    """Count eigenvalues per regime using geometric-mean thresholds.

    Thresholds sit at the geometric means of adjacent regime scales, each
    scale carrying its leading constant: the bulk edge is the support radius
    of the limiting bulk law times the entry standard deviations, the blip
    scales are N^(3/2) / k (or w_s N^(3/2)), and the largest scale is
    2 N^2 / (k j).
    """
    eigs = np.asarray(eigs, dtype=float)
    if j is None:
        bulk_edge = SUPPORT_GOE_GOE * math.sqrt(1.0 - 1.0 / k) * N
        blip_scale = N**1.5 / k
        thr = math.sqrt(bulk_edge * blip_scale)
        return {
            "bulk": int(np.count_nonzero(np.abs(eigs) <= thr)),
            "pos_blip": int(np.count_nonzero(eigs > thr)),
            "neg_blip": int(np.count_nonzero(eigs < -thr)),
        }
    w1, w2, w3 = band_scales(k, j)
    bulk_edge = SUPPORT_GOE_GOE * math.sqrt((1.0 - 1.0 / k) * (1.0 - 1.0 / j)) * N
    scale_1 = w1 * N**1.5
    scale_2 = w2 * N**1.5
    top_scale = w3 * N**2
    (inner, inner_tag), (outer, outer_tag) = sorted(
        [(scale_1, "inter_1"), (scale_2, "inter_2")]
    )
    t1 = math.sqrt(bulk_edge * inner)
    t2 = math.sqrt(inner * outer)
    t3 = math.sqrt(outer * top_scale)
    counts = {
        "bulk": int(np.count_nonzero(np.abs(eigs) <= t1)),
        f"pos_{inner_tag}": int(np.count_nonzero((eigs > t1) & (eigs <= t2))),
        f"neg_{inner_tag}": int(np.count_nonzero((eigs < -t1) & (eigs >= -t2))),
        f"pos_{outer_tag}": int(np.count_nonzero((eigs > t2) & (eigs <= t3))),
        f"neg_{outer_tag}": int(np.count_nonzero((eigs < -t2) & (eigs >= -t3))),
        "largest": int(np.count_nonzero(eigs > t3)),
        "neg_largest": int(np.count_nonzero(eigs < -t3)),
    }
    return counts


def _outside_bump(x):
    """How many weight arguments lie above 2 or below 1 - sqrt(2).

    The weight (x(2 - x))^(2n) peaks at 1 on x = 1.  Past the far end
    x = 2 of the bump it climbs again like x^(4n), and below 1 - sqrt(2)
    it already exceeds the peak, so each such eigenvalue carries a
    spurious weight that can swamp the moments.
    """
    return int(np.count_nonzero((x > 2.0) | (x < 1.0 - math.sqrt(2.0))))


def blip_measure_goe_checker(eigs, N, k, n=None, orders=(0, 1, 2)):
    """Weighted empirical measure of the blip regime of a GOE/checkerboard pair.

    Each eigenvalue carries weight f^(2n)(k^2 lambda^2 / N^3) at location
    (lambda^2 - N^3/k^2) / N^(5/2); the m-th weighted moment is the weighted
    power sum divided by 2k.

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
    if n is None:
        n = default_blip_order(N)
    f = weight_f(n)
    x = k**2 * eigs**2 / N**3
    weights = f(x)
    locations = (eigs**2 - N**3 / k**2) / N**2.5
    moments = [
        (m, float(np.sum(weights * locations**m)) / (2 * k)) for m in orders
    ]
    counts = regime_classify(eigs, N, k)
    counts["outside_bump"] = _outside_bump(x)
    return BlipReport(
        "goe-checker-blip", N, k, None, n, locations, weights, moments, counts
    )


def blip_measure_largest(eigs, N, k, j, n=None, orders=(0, 1, 2)):
    """Weighted empirical measure of the largest blip of a two-checkerboard pair.

    Weight f^(2n)(j k lambda / (2 N^2)) at location (lambda - 2N^2/(jk)) / N,
    with no prefactor (the regime holds a single eigenvalue).  counts adds
    outside_bump, the number of eigenvalues whose argument
    x = j k lambda / (2 N^2) lies above 2 or below 1 - sqrt(2) (where the
    weight exceeds its peak 1), to the regime counts.  At small N the most
    negative eigenvalues reach below the lower edge.
    """
    eigs = np.asarray(eigs, dtype=float)
    band_scales(k, j)
    if n is None:
        n = default_blip_order(N)
    f = weight_f(n)
    x = j * k * eigs / (2.0 * N**2)
    weights = f(x)
    locations = (eigs - 2.0 * N**2 / (j * k)) / N
    moments = [(m, float(np.sum(weights * locations**m))) for m in orders]
    counts = regime_classify(eigs, N, k, j)
    counts["outside_bump"] = _outside_bump(x)
    return BlipReport("largest-blip", N, k, j, n, locations, weights, moments, counts)


def _trace_exact(k, m, diagonal_variance=0):
    """Exact E[Tr X^m] for a k x k symmetric Gaussian X, summed over index tuples.

    Off-diagonal entries have variance 1 and diagonal entries variance
    diagonal_variance, so an entry met 2p times contributes (2p-1)!! off
    the diagonal and diagonal_variance^p (2p-1)!! on it.  Variance 0 is the
    hollow GOE; variance 2 is the GOE that sample_goe draws.
    """
    if m == 0:
        return k
    total = 0
    for idx in itertools.product(range(k), repeat=m):
        pairs = {}
        for t in range(m):
            a, b = idx[t], idx[(t + 1) % m]
            key = (a, b) if a < b else (b, a)
            pairs[key] = pairs.get(key, 0) + 1
        term = 1
        for (a, b), count in pairs.items():
            if count % 2:
                term = 0
                break
            term *= double_factorial(count - 1)
            if a == b:
                term *= diagonal_variance ** (count // 2)
        total += term
    return total


def hollow_goe_moment_mc(k, m, trials, seed=None):
    """Monte Carlo E[Tr C^m] for the hollow GOE; returns (mean, stderr)."""
    if trials < 1:
        raise ValueError(f"invalid trials: {trials} must be >= 1")
    rng = _as_generator(seed)
    batch = max(1, min(trials, 10**6 // max(1, k * k)))
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        upper = np.triu(rng.standard_normal((b, k, k)), 1)
        c = upper + upper.transpose(0, 2, 1)
        if m == 0:
            tr = np.full(b, float(k))
        else:
            power = c
            for _ in range(m - 1):
                power = power @ c
            tr = np.einsum("bii->b", power)
        total += float(np.sum(tr))
        total_sq += float(np.sum(tr * tr))
        done += b
    mean = total / trials
    if trials == 1:
        return mean, 0.0
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return mean, math.sqrt(var / trials)


def hollow_goe_moment(k, m, method="exact", trials=1_000_000, seed=None):
    """E[Tr C^m] over k x k hollow GOE matrices, exactly or by simulation."""
    if k < 1:
        raise ValueError(f"invalid dimension: k={k} must be >= 1")
    if m < 0:
        raise ValueError(f"invalid order: m={m} must be >= 0")
    if method == "exact":
        if k**m > EXACT_HOLLOW_BUDGET:
            raise ValueError(
                f"enumeration budget exceeded: k^m = {k**m} > {EXACT_HOLLOW_BUDGET}"
            )
        return float(_trace_exact(k, m))
    if method == "monte_carlo":
        mean, _ = hollow_goe_moment_mc(k, m, trials, seed)
        return mean
    raise ValueError(f"unknown method: {method!r}")


def theory_blip_moment_goe_checker(m, k):
    """Limiting m-th weighted blip moment (1/k)(sqrt(5)/k^2)^m E[Tr X^m].

    This is the limit of blip_measure_goe_checker for {GOE, k-checkerboard}.
    X is a k x k GOE with off-diagonal variance 1 and diagonal variance 2,
    the normalisation of sample_goe.  The limit is derived to leading
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
    if k**m > EXACT_HOLLOW_BUDGET:
        raise ValueError(f"enumeration budget exceeded: k^m = {k**m}")
    if m % 2:
        return 0.0
    exact = Fraction(5 ** (m // 2) * _trace_exact(k, m, 2), k ** (2 * m + 1))
    return float(exact)


def _theory_largest_exact(m, k, j):
    total = Fraction(0)
    for m1a in range(0, m + 1, 2):
        for m1b in range(0, m - m1a + 1, 2):
            for m2a in range(0, m - m1a - m1b + 1):
                m2b = m - m1a - m1b - m2a
                e2 = (m1a + m1b) // 2 - 2 * (m2a + m2b)
                term = Fraction(math.factorial(m)) * Fraction(2, j * k) ** m
                term *= Fraction(2) ** e2 if e2 >= 0 else Fraction(1, 2 ** (-e2))
                term *= Fraction(
                    double_factorial(m1a) * double_factorial(m1b),
                    math.factorial(m1a)
                    * math.factorial(m1b)
                    * math.factorial(m2a)
                    * math.factorial(m2b),
                )
                ea = m1a + 2 * m2a
                eb = m1b + 2 * m2b
                term *= Fraction(k) ** ea * Fraction(k - 1, k) ** (ea // 2)
                term *= Fraction(j) ** eb * Fraction(j - 1, j) ** (eb // 2)
                total += term
    return total


def theory_largest_blip_moment(m, k, j):
    """Limiting m-th weighted moment of the largest blip, by block-count sums.

    Sums the closed-form contribution over compositions of m into even
    counts of single a- and b-blocks plus counts of double blocks, in exact
    rational arithmetic.
    """
    if m < 0:
        raise ValueError(f"invalid order: m={m} must be >= 0")
    if k < 2 or j < 2:
        raise ValueError(f"invalid dimension: k={k}, j={j} must be >= 2")
    return float(_theory_largest_exact(m, k, j))


@dataclass
class WeylReport:
    """Component anticommutator norms and inequality checks for a split pair."""

    N: int
    k: int
    j: int
    norms: dict
    checks: dict
    mean_top: float
    mean_rank: int

    @property
    def ok(self):
        return all(self.checks.values())

    def as_dict(self):
        return {
            "N": self.N,
            "k": self.k,
            "j": self.j,
            "norms": dict(self.norms),
            "checks": dict(self.checks),
            "mean_top": self.mean_top,
            "mean_rank": self.mean_rank,
        }


def _require_unit_checkerboard(M, N, k, name):
    idx = np.arange(N)
    mask = (idx[:, None] - idx[None, :]) % k == 0
    if not np.all(M[mask] == 1.0):
        raise ValueError(
            f"decomposition invalid: {name} is not a weight-1 checkerboard sample"
        )


def weyl_decomposition_check(A, B, N, k, j=None):
    """Split the pair into mean and perturbation parts and test the norm bounds.

    A must be a weight-1 k-checkerboard sample; B is GOE when j is None and a
    weight-1 j-checkerboard sample otherwise.  Norm bounds use envelopes with
    constant 4 on the orders of each component.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != (N, N) or B.shape != (N, N):
        raise ValueError(f"invalid dimension: matrices must be {N} x {N}")
    _require_unit_checkerboard(A, N, k, "A")
    a_mean, a_pert = perturbation_split(A, k)
    norms = {}
    checks = {}
    pert_a = float(np.max(np.abs(eigenvalues(a_pert))))
    norms["A_perturbation"] = pert_a
    checks["A_perturbation_sqrtN"] = pert_a <= 4.0 * math.sqrt(N)
    if j is None:
        mean_anti = anticommutator(a_mean, B)
        mean_eigs = eigenvalues(mean_anti)
        norm_mean = float(np.max(np.abs(mean_eigs)))
        rank = int(np.count_nonzero(np.abs(mean_eigs) > 1e-8 * max(norm_mean, 1.0)))
        norms["mean_A_with_B"] = norm_mean
        checks["mean_norm_bound"] = norm_mean <= 4.0 * N**1.5 / k
        checks["mean_rank_2k"] = rank <= 2 * k
        pert_anti = anticommutator(a_pert, B)
        norm_pert = float(np.max(np.abs(eigenvalues(pert_anti))))
        norms["pert_A_with_B"] = norm_pert
        checks["pert_norm_bulk"] = norm_pert <= 4.0 * N
        return WeylReport(N, k, None, norms, checks, norm_mean, rank)
    _require_unit_checkerboard(B, N, j, "B")
    band_scales(k, j)
    b_mean, b_pert = perturbation_split(B, j)
    pert_b = float(np.max(np.abs(eigenvalues(b_pert))))
    norms["B_perturbation"] = pert_b
    checks["B_perturbation_sqrtN"] = pert_b <= 4.0 * math.sqrt(N)
    mean_mean = anticommutator(a_mean, b_mean)
    expected = np.full((N, N), 2.0 * N / (k * j))
    constant = bool(np.array_equal(mean_mean, expected))
    checks["mean_mean_constant"] = constant
    mean_top = 2.0 * N * N / (k * j) if constant else float(
        np.max(eigenvalues(mean_mean))
    )
    norms["mean_A_mean_B"] = mean_top
    cross_ab = anticommutator(a_mean, b_pert)
    cross_ba = anticommutator(a_pert, b_mean)
    norm_ab = float(np.max(np.abs(eigenvalues(cross_ab))))
    norm_ba = float(np.max(np.abs(eigenvalues(cross_ba))))
    norms["mean_A_pert_B"] = norm_ab
    norms["pert_A_mean_B"] = norm_ba
    checks["cross_ab_bound"] = norm_ab <= 4.0 * N**1.5 / k
    checks["cross_ba_bound"] = norm_ba <= 4.0 * N**1.5 / j
    pert_pert = anticommutator(a_pert, b_pert)
    norm_pp = float(np.max(np.abs(eigenvalues(pert_pert))))
    norms["pert_A_pert_B"] = norm_pp
    checks["pert_pert_bulk"] = norm_pp <= 4.0 * N
    return WeylReport(N, k, j, norms, checks, mean_top, 1 if constant else -1)
