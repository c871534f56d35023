"""Empirical spectral measures: pooled histograms and moment estimates."""

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Histogram:
    """Unit-area histogram of pooled, rescaled eigenvalues.

    Eigenvalues are divided by N^p before binning.  Mass falling outside
    the bin range is excluded from the bins but reported as
    ``clipped_mass`` (a fraction of all points), so a histogram of the
    bulk stays clean even when outlier eigenvalues exist.
    """

    edges: np.ndarray
    density: np.ndarray
    p: float
    trials: int
    clipped_mass: float

    def write_csv(self, f):
        rows = np.column_stack((self.edges[:-1], self.edges[1:], self.density))
        f.write("bin_left,bin_right,density\n"
                + ("%.17g,%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist()))


@dataclass
class MomentReport:
    """Empirical normalized moments with standard errors, and the per-trial values."""

    pair: str
    N: int
    trials: int
    moments: list = field(default_factory=list)  # entries (m, mean, stderr)
    values: dict = field(default_factory=dict)  # order -> array of per-trial values

    def as_dict(self):
        return {
            "pair": self.pair,
            "N": self.N,
            "trials": self.trials,
            "moments": [
                {"m": int(m), "mean": mean, "stderr": stderr}
                for m, mean, stderr in self.moments
            ],
        }

    def mean(self, m):
        for order, mean, _ in self.moments:
            if order == m:
                return mean
        raise KeyError(f"order {m} not in report")

    def stderr(self, m):
        for order, _, stderr in self.moments:
            if order == m:
                return stderr
        raise KeyError(f"order {m} not in report")


def check_norm_exp(p, n):
    """Reject a size n below 1, and a norm exponent p unless it is finite and
    n^p a finite nonzero float."""
    if n < 1:
        raise ValueError(f"invalid n {n!r}: must be >= 1")
    try:
        scale = float(n) ** p
    except OverflowError:
        scale = math.inf
    if not (math.isfinite(p) and 0 < scale < math.inf):
        raise ValueError(f"invalid p {p!r}: want a finite exponent whose scale "
                         f"N^p = {n}^{p} is a finite nonzero float")


def empirical_histogram(spectra, p=1.0, bins=80, range=None):
    """Pool eigenvalues lambda/N^p over trials and bin to unit area.

    N is taken from each spectrum's length, so mixed sizes pool on a
    common scale; check_norm_exp judges p at every nonempty size.  An
    explicit degenerate range is rejected.
    """
    spectra = list(spectra)
    if not spectra:
        raise ValueError("no spectra given")
    for n in {len(s) for s in spectra if len(s)}:
        check_norm_exp(p, n)
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    if range is not None and not range[0] < range[1]:
        raise ValueError(f"degenerate range {range}")
    scaled = np.concatenate([np.asarray(s) / len(s) ** p for s in spectra])
    counts, edges = np.histogram(scaled, bins=bins, range=range)
    kept = counts.sum()
    if kept == 0:
        raise ValueError("all mass falls outside the requested range")
    density = counts / (kept * np.diff(edges))
    clipped = 1.0 - kept / scaled.size
    return Histogram(edges=edges, density=density, p=p,
                     trials=len(spectra), clipped_mass=clipped)


def empirical_moments(spectra, orders, N, pair=""):
    """Trial means of sum(lambda^m)/N^(m+1) with standard errors.

    The standard error is the sample standard deviation over trials
    divided by sqrt(trials); a single trial reports stderr 0.  The report
    keeps each order's per-trial values.
    """
    spectra = list(spectra)
    orders = list(orders)
    if not orders:
        raise ValueError("no moment orders given")
    rows = []
    values = {}
    for m in orders:
        per_trial = values[m] = np.array([np.sum(np.asarray(s) ** m) / N ** (m + 1)
                                          for s in spectra])
        mean = float(per_trial.mean())
        if len(per_trial) > 1:
            stderr = float(per_trial.std(ddof=1) / np.sqrt(len(per_trial)))
        else:
            stderr = 0.0
        rows.append((m, mean, stderr))
    return MomentReport(pair=pair, N=N, trials=len(spectra), moments=rows, values=values)
