"""The benchmark's workloads, the layer hooks of a traced run, and the output checks.

An op is one timed call into the package's public API (`stats` or `cli`)
with its own seed, derived from the workload seed.  Every op's output is
checked against an exact oracle; a check returns the list of problems it
found, empty when the output is correct.
"""

import contextlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np
import scipy.special

from antispectra import blips, cli, combinatorics, densities, stats
from antispectra.combinatorics import LaurentMoment
from spans import Hook

NAMES = ("bulk-goe-goe", "blip-goe-checker", "exact-tables")
TRIALS = 4
MIN_OPS = 11  # op_s.tail needs ten ops beyond it
ROUNDS = 10  # exact-tables: rounds of the quicker commands per run of the slow one
WARMUP_INDEX = 1 << 32  # op indices from here on seed set-up warm-ups only

# Criterion 6's band.  A 4-trial goe-goe mean at N=1000 has a standard
# deviation of 0.2% (second moment) and 0.4% (fourth), so the band is more
# than ten standard deviations wide.
MOMENT_BAND = 0.05

# Exact golden values of the exact-tables commands.
GOE_GOE_M1 = 2  # second moment of the goe-goe limit law
GOE_GOE_M5 = 4066
PTE_PTE_M4 = 2822400  # 2^8 (7!!)^2
GOE_PTE_M4 = 1096
GOE_BCE_M4 = (498, 544, 54)
# Coefficients of k^0 .. k^-8.  The constant term is moment_goe_goe(4) = 498
# (k -> infinity) and they sum to the pte-pte moment 2822400 (k = 1).
BCE_BCE_M4 = (498, 33236, 529634, 1759064, 499968)
ANTI_L3_M12 = 43067021374550016
DENSITY_GRID = np.linspace(-4.0, 4.0, 400)


def op_seed(seed, index):
    """Seed of op `index` in a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Op:
    call: object  # () -> output
    check: object  # output -> list of problems
    units: int  # trials completed, or 1 for a CLI command


@dataclass(frozen=True)
class Workload:
    """A family of ops.

    root names the layer an op's own time belongs to.  nominal_s is the time
    of one pass (per_pass ops) at the parent commit on a 2-core box; with
    --seconds it fixes how many passes a run makes, never fewer than
    min_passes, so that two commits compared do the same work.
    """

    root: str
    nominal_s: float
    make_op: object  # (seed, index) -> Op
    per_pass: int = 1
    min_passes: int = MIN_OPS

    def ops(self, seed, seconds):
        passes = max(self.min_passes, math.ceil(seconds / self.nominal_s))
        return [self.make_op(seed, index) for index in range(passes * self.per_pass)]

    def warmup(self, seed, sample):
        """An op at a seed no measured op uses, which computes no table measured later."""
        return self.make_op(seed, WARMUP_INDEX + sample)


# ---------------------------------------------------------------------------
# checks


def check_moments(aggregate, N, limits):
    """Four finite spectra of N eigenvalues, each moment within MOMENT_BAND of its limit.

    limits maps a moment order to its exact limit.
    """
    problems = []
    spectra = aggregate.spectra[N]
    if len(spectra) != TRIALS or any(
        np.shape(s) != (N,) or not np.all(np.isfinite(s)) for s in spectra
    ):
        problems.append(f"want {TRIALS} finite spectra of {N} eigenvalues")
    report = aggregate.moments[N]
    for order, limit in limits.items():
        value = report.mean(order)
        if not abs(value - limit) <= MOMENT_BAND * limit:
            problems.append(f"moment {order} = {value:.6g}, outside {MOMENT_BAND:.0%} of {limit}")
    return problems


def check_blip_counts(report, N, k, trials=TRIALS):
    """Every trial of an averaged goe-checker blip measure holds exactly 2k blips."""
    want = 2 * k
    locations = np.asarray(report.locations, dtype=float)
    if locations.shape != (trials * N,):
        return [f"want {trials} x {N} locations, got shape {locations.shape}"]
    # Invert location = (lambda^2 - N^3/k^2) / N^(5/2) to |lambda|, trial by trial.
    magnitudes = np.sqrt(np.maximum(locations * N**2.5 + N**3 / k**2, 0.0))
    problems = []
    for trial, eigs in enumerate(magnitudes.reshape(trials, N)):
        counts = blips.regime_classify(eigs, N, k)
        found = counts["pos_blip"] + counts["neg_blip"]
        if found != want:
            problems.append(f"trial {trial}: {found} blips, want {want}")
    mean = report.counts["pos_blip"] + report.counts["neg_blip"]
    if mean != want:
        problems.append(f"mean blip count {mean}, want {want}")
    return problems


def run_cli(argv):
    """One in-process CLI command: (exit code, standard output, standard error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_output(result):
    """The standard output of a command, or None with the problem when it failed."""
    code, out, err = result
    if code != 0:
        return None, [f"exit code {code}: {err.strip()}"]
    return out, []


def value_is(*expected):
    """Check that a `moments` payload's value equals every expected number."""

    def check(result):
        out, problems = _cli_output(result)
        if out is None:
            return problems
        value = json.loads(out)["value"]
        return [f"value {value!r}, want {e}" for e in expected if value != float(e)]

    return check


def laurent_coefficients(symbolic):
    """Coefficients of k^0, k^-2, ... from a `genus` payload's symbolic text."""
    coeffs = {}
    for term in symbolic.split(" + "):
        coefficient, _, power = term.partition("*k^-")
        coeffs[int(power or 0) // 2] = int(coefficient)
    return tuple(coeffs.get(g, 0) for g in range(max(coeffs) + 1))


def genus_is(expected):
    """Check a `genus` payload's coefficients and its value at the payload's k."""

    def check(result):
        out, problems = _cli_output(result)
        if out is None:
            return problems
        payload = json.loads(out)
        got = laurent_coefficients(payload["symbolic"])
        if got != expected:
            problems.append(f"coefficients {got}, want {expected}")
        k = payload["k"]
        value = float(sum(Fraction(c, k ** (2 * g)) for g, c in enumerate(expected)))
        if payload["value"] != value:
            problems.append(f"value at k={k} is {payload['value']!r}, want {value!r}")
        return problems

    return check


def _density_table(out):
    table = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (DENSITY_GRID.size, 2) or not np.array_equal(table[:, 0], DENSITY_GRID):
        return None, None, [f"want the {DENSITY_GRID.size}-point grid, got shape {table.shape}"]
    return table[:, 0], table[:, 1], []


def check_goe_goe_density(result):
    """Unit mass and second moment 2, by the trapezoid rule on the grid."""
    out, problems = _cli_output(result)
    if out is None:
        return problems
    x, rho, problems = _density_table(out)
    if x is None:
        return problems
    if not np.all(np.isfinite(rho) & (rho >= 0)):
        return ["density is negative or not finite"]
    mass = float(np.trapezoid(rho, x))
    second = float(np.trapezoid(x * x * rho, x))
    if not abs(mass - 1) <= 1e-3:
        problems.append(f"mass {mass:.6f}, want 1")
    if not abs(second - GOE_GOE_M1) <= 1e-3 * GOE_GOE_M1:
        problems.append(f"second moment {second:.6f}, want {GOE_GOE_M1}")
    return problems


def check_pte_pte_density(result):
    """The law of X^2 - Y^2 = 2UV for iid standard normals: K0(|x|/2) / (2 pi)."""
    out, problems = _cli_output(result)
    if out is None:
        return problems
    x, rho, problems = _density_table(out)
    if x is None:
        return problems
    exact = scipy.special.k0(np.abs(x) / 2) / (2 * np.pi)
    error = float(np.max(np.abs(rho / exact - 1)))
    if not error <= 1e-8:
        problems.append(f"relative error {error:.3g} against K0(|x|/2)/(2 pi)")
    return problems


# ---------------------------------------------------------------------------
# workloads


def _bulk_workload():
    N = 1000
    # Criterion 6's targets: the second and fourth moments of the limit law.
    limits = {2: combinatorics.moment_goe_goe(1), 4: combinatorics.moment_goe_goe(2)}

    def make_op(seed, index):
        plan = stats.ExperimentPlan("goe-goe", (N,), trials=TRIALS, seed=op_seed(seed, index))
        return Op(
            partial(stats.run_trials, plan, threads=1),
            partial(check_moments, N=N, limits=limits),
            TRIALS,
        )

    return Workload("stats", 1.3, make_op)


def _blip_workload():
    N, k = 1500, 5

    def make_op(seed, index):
        plan = stats.ExperimentPlan(
            f"goe-checker:{k}", (N,), trials=TRIALS, seed=op_seed(seed, index),
            outputs=("blips",), orders=(0, 1, 2),
        )
        return Op(
            partial(stats.averaged_blip_measure, plan, threads=1),
            partial(check_blip_counts, N=N, k=k),
            TRIALS,
        )

    return Workload("stats", 2.8, make_op)


def _exact_workload():
    recurrence = combinatorics.moment_goe_pte(4, "recurrence")
    # genus bce-bce m=4 takes about 9 s and runs once a pass.
    slow = (["genus", "--pair", "bce-bce", "--m", "4", "--k", "2"], genus_is(BCE_BCE_M4))
    # Enumerations and tables of 0.1-0.2 s run in every round of a pass.
    tables = [
        (["moments", "--pair", "goe-goe", "--m", "5", "--method", "enumeration"],
         value_is(GOE_GOE_M5)),
        (["moments", "--pair", "pte-pte", "--m", "4", "--method", "enumeration"],
         value_is(PTE_PTE_M4)),
        (["moments", "--pair", "goe-pte", "--m", "4", "--method", "enumeration"],
         value_is(GOE_PTE_M4, recurrence)),
        (["genus", "--pair", "goe-bce", "--m", "4", "--k", "2"], genus_is(GOE_BCE_M4)),
        (["density", "--which", "pte-pte", "--grid=-4:4:400"], check_pte_pte_density),
    ]
    # Closed forms of 3-5 ms run in every fifth round.
    closed_forms = [
        *(
            (["moments", "--pair", "goe-goe", "--m", "5", "--method", method], value_is(GOE_GOE_M5))
            for method in ("recurrence", "explicit", "series")
        ),
        (["moments", "--pair", "anti-l:3", "--m", "12"], value_is(ANTI_L3_M12)),
        (["density", "--which", "goe-goe", "--grid=-4:4:400"], check_goe_goe_density),
    ]
    # Were the closed forms half of the ops, op_s.p50 would be the fastest of
    # the tables, which follows every burst of a shared box's CPU speed.  As
    # a sixth, they put it at the 67th percentile of the three 0.1-0.15 s
    # tables, whose medians drift by about 5% between runs.
    schedule = [slow]
    for round_ in range(ROUNDS):
        schedule += tables + (closed_forms if round_ % 5 == 0 else [])
    # The warm-up takes the genus path at m=2, a table no measured command computes.
    warmup = (["genus", "--pair", "goe-bce", "--m", "2", "--k", "2"], genus_is((10, 2)))

    def make_op(seed, index):
        argv, check = warmup if index >= WARMUP_INDEX else schedule[index % len(schedule)]
        argv = argv + ["--seed", str(op_seed(seed, index))]
        return Op(partial(run_cli, argv), check, 1)

    return Workload("cli", 16.0, make_op, per_pass=len(schedule), min_passes=2)


def build(name):
    """The named workload, its exact oracles evaluated."""
    if name == "bulk-goe-goe":
        return _bulk_workload()
    if name == "blip-goe-checker":
        return _blip_workload()
    if name == "exact-tables":
        return _exact_workload()
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


# ---------------------------------------------------------------------------
# traced runs


def _blip_counters(args, report):
    eigs, N, k = args[:3]
    eigs = np.asarray(eigs, dtype=float)
    return {
        "blip_trials": 1,
        "blips": report.counts["pos_blip"] + report.counts["neg_blip"],
        "outside_bump": int(np.count_nonzero(k**2 * eigs**2 / N**3 > 2)),
        "moment1": report.moment(1),
    }


def _pairings(args, result):
    return {"pairings": sum(result.coeffs)} if isinstance(result, LaurentMoment) else {}


COMBINATORICS_TIMED = (
    "moment_goe_goe",
    "moment_pte_pte",
    "moment_goe_pte",
    "moment_goe_bce",
    "moment_bce_bce",
    "moment_ell_anticommutator",
)

# The module attributes the layers call through: stats looks its helpers up
# as module globals, and cli looks combinatorics and densities functions up on
# their modules, so replacing the attribute puts a span around every call.
HOOKS = (
    Hook(stats, "sample_ensemble", lambda args: f"ensembles.{args[0].kind}",
         lambda args, result: {"bytes": 8 * args[0].N ** 2}),
    Hook(stats, "anticommutator", "matops.anticommutator",
         lambda args, result: {"anticommutator_flops": 4 * len(result) ** 3}),
    # eigvalsh's reduction to tridiagonal form takes 4N^3/3 flops.
    Hook(stats, "eigenvalues", "matops.eigenvalues",
         lambda args, result: {"eigenvalues": len(result),
                               "eigenvalues_flops": 4 * len(result) ** 3 / 3}),
    Hook(stats, "empirical_moments", "spectra.moments"),
    Hook(stats, "blip_measure_goe_checker", "blips.measure", _blip_counters),
    *(Hook(combinatorics, attr, f"combinatorics.{attr}", _pairings)
      for attr in COMBINATORICS_TIMED),
    Hook(densities, "tabulate_density", "densities.tabulate_density"),
)


def layer_metrics(tracer, per_pass):
    """Per-layer metrics of the traced ops, per op unless the name says otherwise.

    Work counts (bytes, flops, pairings) are computed from the calls'
    arguments and results, not read from the package.
    """
    ops = tracer.ops
    own = tracer.self_times()
    count = tracer.counters

    def per_op(span):
        return own.get(span, 0.0) / ops

    def rate(work, span):
        return work / own[span] if own.get(span) else 0.0

    computed = count.get("eigenvalues", 0)
    # A blip measure uses only the outliers; every other output uses the whole spectrum.
    used = count.get("blips", computed)
    blip_trials = count.get("blip_trials", 0)

    def per_trial(key):
        return count.get(key, 0) / blip_trials if blip_trials else 0.0

    pairings = count.get("pairings", 0)
    genus_s = tracer.durations({"combinatorics.moment_goe_bce", "combinatorics.moment_bce_bce"})
    metrics = {
        "ensembles.goe_s": per_op("ensembles.goe"),
        "ensembles.checkerboard_s": per_op("ensembles.checkerboard"),
        "ensembles.bytes": count.get("bytes", 0) / ops,
        "matops.anticommutator_s": per_op("matops.anticommutator"),
        "matops.anticommutator_flops": count.get("anticommutator_flops", 0) / ops,
        "matops.anticommutator_gflops":
            rate(count.get("anticommutator_flops", 0), "matops.anticommutator") / 1e9,
        "matops.eigenvalues_s": per_op("matops.eigenvalues"),
        "matops.eigenvalues_flops": count.get("eigenvalues_flops", 0) / ops,
        "matops.eigenvalues_gflops":
            rate(count.get("eigenvalues_flops", 0), "matops.eigenvalues") / 1e9,
        "matops.eigenvalues_used_frac": used / computed if computed else 0.0,
        "spectra.moments_s": per_op("spectra.moments"),
        "blips.measure_s": per_op("blips.measure"),
        "blips.blips_per_trial": per_trial("blips"),
        "blips.outside_bump": per_trial("outside_bump"),
        "blips.moment1": per_trial("moment1"),
        "stats.self_s": per_op("stats"),
        **{f"combinatorics.{attr}_s": per_op(f"combinatorics.{attr}")
           for attr in COMBINATORICS_TIMED},
        "combinatorics.pairings": pairings * per_pass / ops,
        "combinatorics.pairings_per_s": pairings / genus_s if genus_s else 0.0,
        "densities.tabulate_density_s": per_op("densities.tabulate_density"),
        "cli.self_s": per_op("cli"),
    }
    return metrics
