"""Tests of the benchmark itself: every output check passes on a correct output
and fails on a corrupted one, spans account for op time, and the run refuses
to produce a result without the package.

    python3 -m pytest perfbench
"""

import collections
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from antispectra import combinatorics, stats  # noqa: E402
from workloads import run_cli  # noqa: E402


def bulk_spectrum(N=1000, scale=1.0):
    """A spectrum whose normalized moments 2 and 4 are exactly the goe-goe limits 2 and 10.

    Two fifths of it sit at +-sqrt(5) N and the rest at 0.
    """
    side = np.full(N // 5, math.sqrt(5) * N * scale)
    return np.concatenate([-side, np.zeros(N - 2 * side.size), side])


def blip_spectrum(N=1500, k=5, blips=10):
    """A spectrum with a bulk inside the bulk edge and `blips` outliers at +-N^(3/2)/k."""
    outliers = np.array([(-1) ** i * N**1.5 / k for i in range(blips)])
    return np.concatenate([np.linspace(-2.0 * N, 2.0 * N, N - blips), outliers])


@pytest.fixture
def fake_solver(monkeypatch):
    """Make stats' trials return the given spectra without sampling or solving."""

    def install(spectra):
        queue = list(spectra)
        monkeypatch.setattr(stats, "sample_ensemble", lambda spec, rng: None)
        monkeypatch.setattr(stats, "anticommutator", lambda a, b: None)
        monkeypatch.setattr(stats, "eigenvalues", lambda anti: queue.pop(0))

    return install


def bulk_output(fake_solver, spectra):
    fake_solver(spectra)
    workload = workloads.build("bulk-goe-goe")
    op = workload.make_op(0, 0)
    return op, op.call()


def test_bulk_check_passes_on_the_limit_moments(fake_solver):
    op, output = bulk_output(fake_solver, [bulk_spectrum()] * workloads.TRIALS)
    assert op.check(output) == []


@pytest.mark.parametrize("corrupt", [
    lambda spectra: [bulk_spectrum(scale=1.03)] * 4,  # second moment 6% high
    lambda spectra: spectra[:3] + [np.where(spectra[3] > 0, 1.2 * spectra[3], spectra[3])],
    lambda spectra: spectra[:3] + [np.append(spectra[3][:-1], np.nan)],
])
def test_bulk_check_fails_on_a_corrupted_output(fake_solver, corrupt):
    spectra = [bulk_spectrum()] * workloads.TRIALS
    op, output = bulk_output(fake_solver, corrupt(spectra))
    assert op.check(output)


def test_bulk_check_fails_on_a_missing_trial(fake_solver):
    op, output = bulk_output(fake_solver, [bulk_spectrum()] * workloads.TRIALS)
    output.spectra[1000] = output.spectra[1000][:3]
    assert op.check(output)


def blip_output(fake_solver, counts):
    fake_solver([blip_spectrum(blips=c) for c in counts])
    op = workloads.build("blip-goe-checker").make_op(0, 0)
    return op, op.call()


def test_blip_check_passes_with_ten_blips_in_every_trial(fake_solver):
    op, output = blip_output(fake_solver, [10, 10, 10, 10])
    assert op.check(output) == []


def test_blip_check_fails_when_one_trial_misses_a_blip(fake_solver):
    op, output = blip_output(fake_solver, [10, 10, 9, 10])
    problems = op.check(output)
    assert any(p.startswith("trial 2:") for p in problems)


def test_blip_check_sees_a_trial_miscount_that_the_mean_hides(fake_solver):
    op, output = blip_output(fake_solver, [10, 9, 11, 10])
    assert output.counts["pos_blip"] + output.counts["neg_blip"] == 10
    assert len(op.check(output)) == 2


def test_blip_check_fails_on_lost_trials(fake_solver):
    op, output = blip_output(fake_solver, [10, 10, 10, 10])
    output.locations = output.locations[:1500]
    assert op.check(output)


EXACT = workloads.build("exact-tables")
PASS = [EXACT.make_op(0, index) for index in range(EXACT.per_pass)]
COMMANDS = list({tuple(op.call.args[0][:-2]): op for op in PASS}.values())  # argv less --seed
# genus bce-bce m=4 takes seconds; its golden coefficients are tested by identity below.
CHEAP = [op for op in COMMANDS if "bce-bce" not in op.call.args[0]]


def corrupted(result):
    """The same command output with one number changed (a value by one float step)."""
    code, out, err = result
    if out.startswith("x,density"):
        lines = out.splitlines()
        table = np.loadtxt(lines[1:], delimiter=",")
        table[:, 1] *= 1.01
        body = "\n".join(f"{x:.17g},{d:.17g}" for x, d in table)
        return code, f"{lines[0]}\n{body}\n", err
    payload = json.loads(out)
    if "symbolic" in payload:
        head, _, rest = payload["symbolic"].partition(" + ")
        payload["symbolic"] = f"{int(head) + 1} + {rest}"
    else:
        payload["value"] = float(np.nextafter(payload["value"], np.inf))
    return code, json.dumps(payload), err


@pytest.mark.parametrize("op", CHEAP, ids=lambda op: " ".join(op.call.args[0][:4]))
def test_exact_check_passes_on_the_real_output_and_fails_on_a_corrupted_one(op):
    result = op.call()
    assert op.check(result) == []
    assert op.check(corrupted(result))
    assert op.check((2, "", "error: bad input"))


def test_bce_bce_golden_coefficients_meet_both_limits():
    golden = workloads.BCE_BCE_M4
    assert golden[0] == combinatorics.moment_goe_goe(4)  # k -> infinity
    assert sum(golden) == combinatorics.moment_pte_pte(4)  # k = 1
    check = workloads.genus_is(golden)
    good = {"symbolic": str(combinatorics.LaurentMoment(golden)), "k": 2,
            "value": float(combinatorics.LaurentMoment(golden).at(2))}
    assert check((0, json.dumps(good), "")) == []
    assert check(corrupted((0, json.dumps(good), "")))


def test_goe_bce_value_check_catches_a_wrong_value_with_right_coefficients():
    result = run_cli(["genus", "--pair", "goe-bce", "--m", "4", "--k", "2"])
    payload = json.loads(result[1])
    payload["value"] += 0.5
    assert workloads.genus_is(workloads.GOE_BCE_M4)((0, json.dumps(payload), ""))


def test_density_check_fails_on_a_short_grid():
    result = run_cli(["density", "--which", "goe-goe", "--grid=-4:4:200"])
    assert workloads.check_goe_goe_density(result)


def test_ops_are_seeded_by_the_workload_seed():
    seeds = [workloads.op_seed(7, i) for i in range(20)]
    assert seeds == [workloads.op_seed(7, i) for i in range(20)]
    assert len(set(seeds)) == 20
    assert workloads.op_seed(8, 0) not in seeds
    assert workloads.op_seed(7, workloads.WARMUP_INDEX) not in seeds


def test_every_run_makes_enough_ops_for_the_tail():
    for name in workloads.NAMES:
        ops = workloads.build(name).ops(0, 1)
        assert len(ops) >= workloads.MIN_OPS == run.TAIL_BEYOND + 1


def test_an_exact_tables_pass_runs_the_slow_command_once_and_closed_forms_a_fifth_as_often():
    runs = collections.Counter(" ".join(op.call.args[0][:-2]) for op in PASS)
    assert runs.pop("genus --pair bce-bce --m 4 --k 2") == 1
    assert len(runs) == len(COMMANDS) - 1 == 10
    assert sorted(runs.values()) == [workloads.ROUNDS // 5] * 5 + [workloads.ROUNDS] * 5


def test_tail_is_the_highest_percentile_with_ten_ops_beyond_it():
    assert run.tail(list(range(11, 0, -1))) == (1, 100 / 11)
    value, percentile = run.tail(list(range(40)))
    assert value == 29 and percentile == 75.0
    assert sum(x > value for x in range(40)) == run.TAIL_BEYOND


def test_self_times_subtract_children_and_account_for_the_op():
    tracer = spans.Tracer()
    tracer.ops = 1
    tracer.spans = [
        spans.Span("stats", 0, -1, 0.0, 10.0),
        spans.Span("matops.eigenvalues", 0, 0, 1.0, 4.0),
        spans.Span("ensembles.goe", 0, 0, 5.0, 6.0),
        spans.Span("spectra.moments", 0, 2, 5.2, 5.7),
    ]
    own = tracer.self_times()
    assert own == pytest.approx({"stats": 6.0, "matops.eigenvalues": 3.0,
                                 "ensembles.goe": 0.5, "spectra.moments": 0.5})
    assert sum(own.values()) == pytest.approx(10.0)


def test_instrumented_records_nested_spans_and_restores_the_attributes():
    tracer = spans.Tracer()
    original = stats.empirical_moments
    hooks = [spans.Hook(stats, "empirical_moments", "spectra.moments",
                        lambda args, result: {"calls": 1})]
    with tracer.instrumented(hooks), tracer.op("stats"):
        stats.empirical_moments([np.ones(4)], (2,), 4)
    assert stats.empirical_moments is original
    assert [(s.name, s.op, s.parent) for s in tracer.spans] == [
        ("stats", 0, -1), ("spectra.moments", 0, 0)]
    assert tracer.counters == {"calls": 1}


def test_layer_metrics_match_the_declared_per_layer_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    tracer.ops = 1
    names = set(workloads.layer_metrics(tracer, 1))
    names |= {"machine.gemm_gflops", "trace.overhead_frac"}
    assert names == {m["name"] for m in declared["per_layer"]}
    assert set(workloads.NAMES) == {w["name"] for w in declared["workloads"]}


def test_run_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-goe-goe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
