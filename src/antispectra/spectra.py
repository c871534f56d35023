"""Empirical spectral measures: pooled histograms and moment estimates."""

import math
from dataclasses import dataclass

import numpy as np


def write_csv(f, header, *columns):
    """Write a header line, then one line per row of the columns, each value at %.17g.

    The whole table is formatted with one % on the .tolist() values.
    """
    rows = np.column_stack(columns)
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    f.write(header + "\n" + (line * len(rows)) % tuple(rows.ravel().tolist()))


@dataclass
class Histogram:
    """Unit-area histogram of pooled, rescaled eigenvalues.

    Eigenvalues are divided by N^p before binning.  The bins span every
    eigenvalue, a checkerboard pair's blips too (bulk only: ROADMAP item 3).
    """

    edges: np.ndarray
    density: np.ndarray

    def write_csv(self, f):
        write_csv(f, "bin_left,bin_right,density", self.edges[:-1], self.edges[1:],
                  self.density)


@dataclass
class MomentReport:
    """Normalized moments: values maps each order, in the order asked, to its per-trial
    sum(lambda^m)/(N * N^(pm)), N^p the pair's eigenvalue scale; the trial count,
    means and standard errors are read off it."""

    pair: str
    N: int
    values: dict

    @property
    def trials(self):
        return len(next(iter(self.values.values())))

    def mean(self, m):
        return float(self.values[m].mean())

    def stderr(self, m):
        """The sample standard deviation over trials over sqrt(trials); 0 for one trial."""
        per_trial = self.values[m]
        if len(per_trial) < 2:
            return 0.0
        return float(per_trial.std(ddof=1) / np.sqrt(len(per_trial)))

    def as_dict(self):
        return {
            "pair": self.pair,
            "N": self.N,
            "trials": self.trials,
            "moments": [{"m": int(m), "mean": self.mean(m), "stderr": self.stderr(m)}
                        for m in self.values],
        }


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


def empirical_histogram(spectra, N, p=1.0, bins=80):
    """Pool the eigenvalues lambda/N^p of spectra of size N and bin them to unit area."""
    spectra = list(spectra)
    if not spectra:
        raise ValueError("no spectra given")
    check_norm_exp(p, N)
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    counts, edges = np.histogram(np.concatenate(spectra) / N ** p, bins=bins)
    return Histogram(edges=edges, density=counts / (counts.sum() * np.diff(edges)))


def empirical_moments(spectra, orders, N, pair="", p=1):
    """The per-trial sum(lambda^m)/(N * N^(pm)) of each order, as a MomentReport.

    N^p is the pair's eigenvalue scale (stats.Pair.norm_exp): an int p keeps
    N^(1 + pm) an int.  A repeated order is computed once and gives one
    entry.  An order whose power sum or scale overflows a float raises
    ArithmeticError naming m and N.
    """
    spectra = list(spectra)
    values = {}
    for m in dict.fromkeys(orders):
        exponent = 1 + p * m
        try:
            # Past 2^1100 the scale is no float; the bound spares building its huge int.
            if exponent * math.log2(N) > 1100:
                raise OverflowError
            scale = N ** exponent
            with np.errstate(over="raise"):
                values[m] = np.array([np.sum(np.asarray(s) ** m) / scale for s in spectra])
        except (OverflowError, FloatingPointError):  # m, the scale or a power sum
            raise ArithmeticError(
                f"moment of order {m} at N={N} is not a finite float") from None
    if not values:
        raise ValueError("no moment orders given")
    return MomentReport(pair=pair, N=N, values=values)
