"""Pair specs, seeded experiment plans, deterministic trial running, and convergence scans."""

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import combinatorics
from .blips import (BlipReport, blip_measure_goe_checker, blip_measure_largest,
                    default_blip_order)
from .ensembles import EnsembleSpec, check_memory, rng_stream, sample_ensemble
from .matops import anticommutator, eigenvalues
from .spectra import empirical_moments

class _Family(NamedTuple):
    params: tuple  # parameter names, in spec order
    members: tuple  # (ensemble kind, index of its parameter or None) per matrix
    methods: tuple  # exact-moment methods, the default first
    moment: str  # the combinatorics function that computes the moment
    regime: str = None  # the blip regime, for checkerboard pairs


#: Every pair spec the package knows, by name.
PAIRS = {
    "goe-goe": _Family((), (("goe", None),) * 2,
                       ("recurrence", "enumeration", "explicit", "series"),
                       "moment_goe_goe"),
    "pte-pte": _Family((), (("pte", None),) * 2, ("closed_form", "enumeration"),
                       "moment_pte_pte"),
    "goe-pte": _Family((), (("goe", None), ("pte", None)), ("recurrence", "enumeration"),
                       "moment_goe_pte"),
    "goe-bce": _Family(("k",), (("goe", None), ("bce", 0)), ("genus",), "moment_goe_bce"),
    "bce-bce": _Family(("k",), (("bce", 0),) * 2, ("genus",), "moment_bce_bce"),
    "goe-checker": _Family(("k",), (("goe", None), ("checkerboard", 0)), ("bulk",),
                           "bulk_moment_checker", "blip"),
    "checker-checker": _Family(("k", "j"), (("checkerboard", 0), ("checkerboard", 1)),
                               ("bulk",), "bulk_moment_checker", "largest"),
    # l GOE factors: the single member is repeated l times
    "anti-l": _Family(("l",), (("goe", None),), ("recurrence",),
                      "moment_ell_anticommutator"),
}


@dataclass(frozen=True)
class Pair:
    """A parsed pair spec such as goe-checker:5; build it with parse_pair.

    params holds the integer parameters (k, j or l) in spec order.  The
    combinatorics functions are looked up on their module at call time.
    """

    name: str
    params: tuple = ()

    @property
    def spec(self):
        """The spec text, e.g. checker-checker:3,5."""
        if not self.params:
            return self.name
        return f"{self.name}:{','.join(map(str, self.params))}"

    @property
    def norm_exp(self):
        """The exponent p of the eigenvalue scale N^p: l/2 for anti-l:l, 1 otherwise.

        A Fraction for anti-l, so that l = 2 gives N^(1 + pm) as an int, as
        every other pair does.
        """
        return Fraction(self.params[0], 2) if self.name == "anti-l" else 1

    @property
    def methods(self):
        """The exact-moment methods, the default first."""
        return PAIRS[self.name].methods

    def specs(self, N, dist="standard-normal"):
        """Concrete EnsembleSpecs at size N.

        dist applies to the structured members, and a mixed pair's GOE member
        keeps Gaussian entries.  An all-GOE pair hands dist to its GOE
        members, so EnsembleSpec judges its tag as it judges any other.
        """
        members = PAIRS[self.name].members
        goe_dist = dist if all(kind == "goe" for kind, _ in members) else "standard-normal"
        if self.name == "anti-l":
            l = self.params[0]
            # anticommutator lists the l!/2 orderings, 48 + 8l bytes each.  Past
            # l = 100 (4e151 GiB) the bytes of l = 100 stand in, so any l gives a float.
            n = min(l, 100)
            check_memory(f"pair {self.spec!r}: the list of its l!/2 orderings",
                         math.factorial(n) // 2 * (48 + 8 * n))
            members = members * l
        return tuple(
            EnsembleSpec(kind, N, None if p is None else self.params[p],
                         dist=goe_dist if kind == "goe" else dist)
            for kind, p in members
        )

    def moment(self, m, method=None):
        """Exact limiting 2m-th moment: an int, or a Fraction for genus and bulk."""
        method = method or self.methods[0]
        if method not in self.methods:
            raise ValueError(f"unknown method {method!r} for pair {self.spec!r}")
        compute = getattr(combinatorics, PAIRS[self.name].moment)
        if method == "genus":
            return compute(m).at(self.params[0])
        return compute(m, *self.params) if self.params else compute(m, method)

    def blip_regime(self):
        """The pair's blip regime: "blip" for goe-checker, "largest" for checker-checker."""
        regime = PAIRS[self.name].regime
        if regime is None:
            raise ValueError(f"blip regimes need a checkerboard pair, got {self.spec!r}")
        return regime


def parse_pair(text):
    """Parse a pair spec: goe-goe, pte-pte, goe-pte, goe-bce:k, bce-bce:k,
    goe-checker:k, checker-checker:k,j or anti-l:l.

    Every parameter must be a positive integer and l at least 2, and the
    moduli of a pair with a blip regime must pass combinatorics.check_moduli.
    """
    name, colon, arg = text.partition(":")
    family = PAIRS.get(name)
    if family is None:
        raise ValueError(f"unknown pair spec {text!r}")
    parts = arg.split(",") if colon else []
    if len(parts) != len(family.params):
        if not family.params:
            raise ValueError(f"invalid pair spec {text!r}: unexpected parameter")
        raise ValueError(f"invalid pair spec {text!r}: need {','.join(family.params)}")
    params = []
    for what, part in zip(family.params, parts):
        try:
            value = int(part)
        except ValueError:
            raise ValueError(f"invalid pair spec {text!r}: bad {what}") from None
        least = 2 if what == "l" else 1
        if value < least:
            raise ValueError(f"invalid pair spec {text!r}: {what} must be >= {least}")
        params.append(value)
    pair = Pair(name, tuple(params))
    if family.regime is not None:
        try:
            combinatorics.check_moduli(*pair.params)
        except ValueError as exc:
            raise ValueError(f"pair {pair.spec!r}: {exc}") from None
    return pair


def genus_expansion(name, m):
    """The 2m-th moment of goe-bce or bce-bce as a LaurentMoment in 1/k^2."""
    family = PAIRS.get(name)
    if family is None or family.methods != ("genus",):
        raise ValueError(f"genus takes the family name goe-bce or bce-bce, with k "
                         f"given by --k, got {name!r}")
    return getattr(combinatorics, family.moment)(m)


def _integer(field, value, least):
    """value as an int if it is an integer (NumPy's too) >= least, else a ValueError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"invalid {field}: {value} is not an integer") from None
    if value < least:
        raise ValueError(f"invalid {field}: {value} must be >= {least}")
    return value


@dataclass(frozen=True)
class ExperimentPlan:
    """A reproducible batch of anticommutator samples, checked whole when built.

    pair is parsed to its Pair (a Pair passes as it is).  Every size's
    EnsembleSpecs are built here and kept in specs, one tuple per size, and
    a blip plan's regime and weight orders checked, so a bad run fails
    before its first draw.  Every trial's spectrum is kept; outputs names
    the statistics computed beside them, "moments" and "blips".  trials
    fixes the count per size; when None, the count is ceil(sqrt(N)).  Seeds
    derive from (seed, size index, trial index, matrix slot), so no two
    draws share a stream.
    """

    pair: Pair
    sizes: tuple
    trials: int = None
    seed: int = 0
    outputs: tuple = ("moments",)
    orders: tuple = (1, 2, 3, 4)
    dist: str = "standard-normal"
    specs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "sizes",
                           tuple(_integer("size", n, 1) for n in self.sizes))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        object.__setattr__(self, "orders",
                           tuple(_integer("order", m, 0) for m in self.orders))
        if not self.sizes:
            raise ValueError("plan needs at least one size")
        if len(set(self.sizes)) < len(self.sizes):
            raise ValueError(f"invalid sizes: {self.sizes} repeats a size")
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        if self.trials is not None:
            object.__setattr__(self, "trials", _integer("trials", self.trials, 1))
        for out in self.outputs:
            if out not in ("moments", "blips"):
                raise ValueError(f"unknown output {out!r}")
        if "moments" in self.outputs and not self.orders:
            raise ValueError("no moment orders given")
        if not isinstance(self.pair, Pair):
            object.__setattr__(self, "pair", parse_pair(self.pair))
        if "blips" in self.outputs:
            self.pair.blip_regime()
            for N in self.sizes:
                default_blip_order(N)
        object.__setattr__(self, "specs",
                           tuple(self.pair.specs(N, self.dist) for N in self.sizes))

    def trials_for(self, N):
        if self.trials is not None:
            return self.trials
        return max(1, math.ceil(N**0.5))


@dataclass
class TrialAggregate:
    """Everything a plan produced, keyed by matrix size."""

    spectra: dict
    moments: dict
    blips: dict


def run_trials(plan, threads=1):
    """Sample every planned trial, one at a time; keep the spectra and compute
    the statistics the plan's outputs name.

    BLAS threads each trial.  threads must be 1; it stays for callers that pass it.
    """
    if threads != 1:
        raise ValueError(f"invalid threads: {threads} must be 1")
    pair = plan.pair
    aggregate = TrialAggregate({}, {}, {})
    for ni, (N, specs) in enumerate(zip(plan.sizes, plan.specs)):
        # anticommutator writes C into the first factor's storage, and the
        # argument list, the only holder of the others, is freed as it
        # returns.  So a trial of l factors (two, or l for anti-l:l) holds at
        # most l + 1 N x N arrays: the factors and, beyond a pair, the first
        # one's copy while they are multiplied, then C and the solver's copy.
        spectra = aggregate.spectra[N] = [
            eigenvalues(anticommutator(*[
                sample_ensemble(spec, rng_stream(plan.seed, ni, t, si))
                for si, spec in enumerate(specs)
            ]))
            for t in range(plan.trials_for(N))
        ]
        if "moments" in plan.outputs:
            aggregate.moments[N] = empirical_moments(
                spectra, plan.orders, N, pair=pair.spec, p=pair.norm_exp
            )
        if "blips" in plan.outputs:
            # Read at call time, so a replacement of the module attribute is seen.
            measure = (blip_measure_goe_checker if PAIRS[pair.name].regime == "blip"
                       else blip_measure_largest)
            orders = tuple(sorted(set((0,) + plan.orders)))
            aggregate.blips[N] = [measure(eigs, N, *pair.params, orders=orders)
                                  for eigs in spectra]
    return aggregate


def averaged_blip_measure(plan, threads=1):
    """Mean of the per-trial blip measures over all of the plan's trials.

    That is trials_for(N) trials: g(N) = ceil(sqrt(N)) when plan.trials is
    None.  The moments are the means of the per-trial moments, the counts
    the mean counts, and the locations every trial's, in trial order.  Uses
    the plan's single size, and the plan's outputs must hold "blips".
    """
    if len(plan.sizes) != 1:
        raise ValueError("averaged measure wants exactly one size")
    if "blips" not in plan.outputs:
        raise ValueError('averaged measure needs a plan built with outputs=("blips",)')
    N = plan.sizes[0]
    reports = run_trials(plan, threads=threads).blips[N]
    first = reports[0]
    locations = np.concatenate([r.locations for r in reports])
    moments = {m: float(np.mean([r.moments[m] for r in reports])) for m in first.moments}
    counts = {
        key: float(np.mean([r.counts[key] for r in reports])) for key in first.counts
    }
    return BlipReport(first.regime, N, first.k, first.j, first.n, locations, moments, counts)


@dataclass
class ConvergenceReport:
    """Spread of a moment statistic across trials, per size, with fitted rates.

    slope is the log-log slope of the fourth central moment in N, var_slope
    that of the variance.
    """

    pair: str
    m: int
    rows: list  # (N, trials, var, central4) per size
    slope: float
    var_slope: float

    def as_dict(self):
        rows = [dict(zip(("N", "trials", "var", "central4"), row)) for row in self.rows]
        return {"pair": self.pair, "m": self.m, "rows": rows, "slope": self.slope,
                "var_slope": self.var_slope}


def _loglog_slope(sizes, values):
    return float(np.polyfit(np.log(sizes), np.log(values), 1)[0])


def moment_variance_scan(pair, m, sizes, trials, seed=0, dist="standard-normal"):
    """Variance and fourth central moment of the m-th moment across sizes.

    The statistic is empirical_moments' per-trial value.  Fits ordinary
    least-squares lines to (log N, log fourth central moment) and
    (log N, log variance); needs at least three distinct sizes for a slope
    to mean anything, and at least two trials per size for a spread.  A
    size whose variance or fourth central moment is 0 has no logarithm, and
    one past the float range has no JSON value: either raises
    ArithmeticError naming that N.
    """
    if m < 1:
        raise ValueError(f"invalid m: {m} must be >= 1")
    if len(set(sizes)) < 3:
        raise ValueError("need at least 3 distinct sizes for a slope")
    if trials < 2:
        raise ValueError(f"invalid trials: {trials} must be >= 2 to measure a variance")
    plan = ExperimentPlan(pair, sizes, trials=trials, seed=seed, orders=(m,), dist=dist)
    aggregate = run_trials(plan)
    rows = []
    for N in plan.sizes:
        values = aggregate.moments[N].values[m]
        with np.errstate(all="ignore"):
            var = float(np.var(values, ddof=1))
            central4 = float(np.mean((values - values.mean()) ** 4))
        if not (math.isfinite(var) and math.isfinite(central4)):
            raise ArithmeticError(
                f"moment {m} at N={N} has variance {var} and fourth central moment "
                f"{central4}: not finite floats")
        if var == 0 or central4 == 0:
            raise ArithmeticError(
                f"moment {m} does not vary across the {len(values)} trials at N={N} "
                f"(variance {var}, fourth central moment {central4}): no log-log slope")
        rows.append((N, len(values), var, central4))
    slope = _loglog_slope(plan.sizes, [row[3] for row in rows])
    var_slope = _loglog_slope(plan.sizes, [row[2] for row in rows])
    return ConvergenceReport(plan.pair.spec, m, rows, slope, var_slope)
