"""Seeded experiment plans, deterministic trial running, and convergence scans."""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .blips import BlipReport, blip_measure_goe_checker, blip_measure_largest
from .ensembles import EnsembleSpec, rng_stream, sample_ensemble
from .matops import anticommutator, ell_anticommutator, eigenvalues
from .spectra import empirical_moments

PAIR_NAMES = (
    "goe-goe",
    "pte-pte",
    "goe-pte",
    "goe-bce",
    "bce-bce",
    "goe-checker",
    "checker-checker",
    "anti-l",
)


def ensemble_specs(pair, N, dist="standard-normal"):
    """Parse a pair string like goe-checker:5 into concrete EnsembleSpecs.

    Supported forms: goe-goe, pte-pte, goe-pte, goe-bce:k, bce-bce:k,
    goe-checker:k, checker-checker:k,j, anti-l:ell.  The GOE members keep
    Gaussian entries; dist applies to the structured members.
    """
    name, _, arg = pair.partition(":")

    def integer(text, what):
        try:
            value = int(text)
        except ValueError:
            raise ValueError(f"invalid pair spec {pair!r}: bad {what}") from None
        if value < 1:
            raise ValueError(f"invalid pair spec {pair!r}: {what} must be positive")
        return value

    if name in ("goe-goe", "pte-pte", "goe-pte"):
        if arg:
            raise ValueError(f"invalid pair spec {pair!r}: unexpected parameter")
        first, second = name.split("-")
        kinds = {"goe": "goe", "pte": "pte"}
        return (
            EnsembleSpec(kinds[first], N, dist=dist if first != "goe" else "standard-normal"),
            EnsembleSpec(kinds[second], N, dist=dist if second != "goe" else "standard-normal"),
        )
    if name in ("goe-bce", "bce-bce", "goe-checker"):
        if not arg:
            raise ValueError(f"invalid pair spec {pair!r}: missing parameter k")
        k = integer(arg, "k")
        if name == "goe-bce":
            return (EnsembleSpec("goe", N), EnsembleSpec("bce", N, k, dist=dist))
        if name == "bce-bce":
            return (
                EnsembleSpec("bce", N, k, dist=dist),
                EnsembleSpec("bce", N, k, dist=dist),
            )
        return (EnsembleSpec("goe", N), EnsembleSpec("checkerboard", N, k, dist=dist))
    if name == "checker-checker":
        parts = arg.split(",")
        if len(parts) != 2:
            raise ValueError(f"invalid pair spec {pair!r}: need k,j")
        k = integer(parts[0], "k")
        j = integer(parts[1], "j")
        return (
            EnsembleSpec("checkerboard", N, k, dist=dist),
            EnsembleSpec("checkerboard", N, j, dist=dist),
        )
    if name == "anti-l":
        if not arg:
            raise ValueError(f"invalid pair spec {pair!r}: missing parameter l")
        ell = integer(arg, "l")
        if ell < 2:
            raise ValueError(f"invalid pair spec {pair!r}: l must be >= 2")
        return tuple(EnsembleSpec("goe", N) for _ in range(ell))
    raise ValueError(f"unknown pair spec {pair!r}")


@dataclass(frozen=True)
class ExperimentPlan:
    """A reproducible batch of anticommutator samples.

    trials fixes the count per size; when None, the count is ceil(N^delta)
    with delta defaulting to 1/2.  Seeds derive from (seed, size index,
    trial index, matrix slot), so no two draws share a stream.
    """

    pair: str
    sizes: tuple
    trials: int = None
    delta: float = None
    seed: int = 0
    outputs: tuple = ("spectra", "moments")
    orders: tuple = (1, 2, 3, 4)
    dist: str = "standard-normal"
    regime: str = None
    weight_order: int = None

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "orders", tuple(int(m) for m in self.orders))
        if not self.sizes:
            raise ValueError("plan needs at least one size")
        if self.trials is not None and self.trials < 1:
            raise ValueError(f"invalid trials: {self.trials} must be >= 1")
        if self.trials is None and self.delta is not None and self.delta <= 0:
            raise ValueError(f"invalid delta: {self.delta} must be positive")
        for out in self.outputs:
            if out not in ("spectra", "moments", "blips"):
                raise ValueError(f"unknown output {out!r}")

    def trials_for(self, N):
        if self.trials is not None:
            return self.trials
        delta = 0.5 if self.delta is None else self.delta
        return max(1, math.ceil(N**delta))


@dataclass
class TrialAggregate:
    """Everything a plan produced, keyed by matrix size."""

    plan: ExperimentPlan
    spectra: dict
    moments: dict
    blips: dict


def _blip_regime(plan):
    name = plan.pair.partition(":")[0]
    regime = plan.regime
    if name == "goe-checker":
        regime = regime or "blip"
        if regime != "blip":
            raise ValueError(f"regime {regime!r} undefined for pair {plan.pair!r}")
    elif name == "checker-checker":
        regime = regime or "largest"
        if regime != "largest":
            raise ValueError(f"regime {regime!r} undefined for pair {plan.pair!r}")
    else:
        raise ValueError(f"blip outputs need a checkerboard pair, got {plan.pair!r}")
    return regime


def _blip_report(plan, specs, N, eigs, orders):
    regime = _blip_regime(plan)
    if regime == "blip":
        k = specs[1].k
        return blip_measure_goe_checker(eigs, N, k, n=plan.weight_order, orders=orders)
    k, j = specs[0].k, specs[1].k
    return blip_measure_largest(eigs, N, k, j, n=plan.weight_order, orders=orders)


def run_trials(plan, threads=1):
    """Sample every planned trial and aggregate the requested statistics.

    Per-trial work is independent; spectra come back in trial order, so the
    aggregate is identical for any worker count.
    """
    aggregate = TrialAggregate(plan, {}, {}, {})
    for ni, N in enumerate(plan.sizes):
        specs = ensemble_specs(plan.pair, N, plan.dist)

        def sampled_anticommutator(t):
            mats = [
                sample_ensemble(spec, rng_stream(plan.seed, ni, t, si))
                for si, spec in enumerate(specs)
            ]
            if len(mats) == 2:
                return anticommutator(mats[0], mats[1])
            return ell_anticommutator(mats)

        def one_trial(t):
            # The sampled matrices die with sampled_anticommutator's frame,
            # before the solver copies its input, so they add nothing to the
            # peak memory of the solve.
            return eigenvalues(sampled_anticommutator(t))

        count = plan.trials_for(N)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                spectra = list(pool.map(one_trial, range(count)))
        else:
            spectra = [one_trial(t) for t in range(count)]
        if "spectra" in plan.outputs:
            aggregate.spectra[N] = spectra
        if "moments" in plan.outputs:
            aggregate.moments[N] = empirical_moments(
                spectra, plan.orders, N, pair=plan.pair
            )
        if "blips" in plan.outputs:
            orders = tuple(sorted(set((0,) + plan.orders)))
            aggregate.blips[N] = [
                _blip_report(plan, specs, N, eigs, orders) for eigs in spectra
            ]
    return aggregate


def averaged_blip_measure(plan, regime=None, threads=1):
    """Mean of the per-trial blip measures over the plan's first g(N) samples.

    The averaged measure pools every trial's point masses at weight 1/g; its
    moments are the means of the per-trial moments and its counts the mean
    counts.  Uses the plan's single size.
    """
    if len(plan.sizes) != 1:
        raise ValueError("averaged measure wants exactly one size")
    wanted = regime if regime is not None else plan.regime
    if "blips" not in plan.outputs or wanted != plan.regime:
        plan = replace(plan, outputs=("blips",), regime=wanted)
    N = plan.sizes[0]
    reports = run_trials(plan, threads=threads).blips[N]
    g = len(reports)
    first = reports[0]
    locations = np.concatenate([r.locations for r in reports])
    weights = np.concatenate([r.weights for r in reports]) / g
    moments = [
        (m, float(np.mean([r.moment(m) for r in reports])))
        for m, _ in first.moments
    ]
    counts = {
        key: float(np.mean([r.counts[key] for r in reports])) for key in first.counts
    }
    return BlipReport(
        first.regime, N, first.k, first.j, first.n, locations, weights, moments, counts
    )


@dataclass
class ConvergenceReport:
    """Spread of a moment statistic across trials, per size, with fitted rates.

    slope is the log-log slope of the fourth central moment in N, var_slope
    that of the variance.
    """

    pair: str
    m: int
    rows: list
    slope: float
    var_slope: float

    def as_dict(self):
        return {
            "pair": self.pair,
            "m": self.m,
            "rows": [
                {"N": N, "trials": trials, "var": var, "central4": central4}
                for N, trials, var, central4 in self.rows
            ],
            "slope": self.slope,
            "var_slope": self.var_slope,
        }


def _loglog_slope(sizes, values):
    return float(np.polyfit(np.log(sizes), np.log(values), 1)[0])


def moment_variance_scan(pair, m, sizes, trials, seed=0, dist="standard-normal",
                         threads=1):
    """Variance and fourth central moment of the m-th moment across sizes.

    Fits ordinary least-squares lines to (log N, log fourth central moment)
    and (log N, log variance); needs at least three distinct sizes for a
    slope to mean anything, and at least two trials per size for a spread.
    """
    sizes = tuple(int(n) for n in sizes)
    if len(set(sizes)) < 3:
        raise ValueError("need at least 3 distinct sizes for a slope")
    if trials < 2:
        raise ValueError(
            f"invalid trials: {trials} must be >= 2 to measure a variance"
        )
    plan = ExperimentPlan(
        pair, sizes, trials=trials, seed=seed, outputs=("spectra",), dist=dist
    )
    aggregate = run_trials(plan, threads=threads)
    rows = []
    for N in sizes:
        values = np.array(
            [float(np.sum(eigs**m)) / N ** (m + 1) for eigs in aggregate.spectra[N]]
        )
        var = float(np.var(values, ddof=1))
        central4 = float(np.mean((values - values.mean()) ** 4))
        rows.append((N, len(values), var, central4))
    slope = _loglog_slope(sizes, [row[3] for row in rows])
    var_slope = _loglog_slope(sizes, [row[2] for row in rows])
    return ConvergenceReport(pair, m, rows, slope, var_slope)
