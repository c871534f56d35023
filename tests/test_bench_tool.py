"""tools/bench.py: its in-process measures run on the package, and paired
alternates the two sides and pairs their calls."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from antispectra.ensembles import EnsembleSpec, rng_stream, sample_ensemble

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_is_timed_and_traced(bench):
    N = 10
    names = list(bench.layer_calls(N))
    assert names == ["sample goe", "sample pte", "sample bce", "sample checkerboard",
                     "anticommutator", "eigenvalues"]
    for name in names:
        assert bench.time_layer(N, name) >= 0
        assert bench.layer_peak(N, name) > 0


@pytest.mark.parametrize("kind,k", [("goe", None), ("pte", None), ("bce", 5),
                                    ("checkerboard", 5)])
def test_timed_draws_come_from_stream_one(bench, kind, k):
    call, args = bench.layer_calls(10)[f"sample {kind}"]
    np.testing.assert_array_equal(
        call(*args()), sample_ensemble(EnsembleSpec(kind, 10, k), rng_stream(1)))


def test_tables_and_commands_run_in_process(bench):
    assert bench.time_table("moment_goe_goe", 2, ("recurrence",)) >= 0
    assert bench.enumeration_limit("goe-goe") == 5
    assert bench.time_command(("moments", "--pair", "goe-goe", "--m", "2")) >= 0


def test_paired_alternates_the_sides_and_pairs_adjacent_calls(bench):
    calls = []

    def stub(side, seconds):
        values = iter(seconds)

        def worker(*request):
            calls.append((side, request))
            return next(values)

        return worker

    workers = {"before": stub("before", [1.0, 2.0, 4.0]),
               "after": stub("after", [3.0, 1.0, 2.0])}
    medians, ratio = bench.paired(workers, "layer", 10, "eigenvalues")
    order = ["before", "after", "after", "before", "before", "after"]
    assert calls == [(side, ("layer", 10, "eigenvalues")) for side in order]
    assert medians == {"before": 2.0, "after": 2.0}
    # The median of 3/1, 1/2 and 2/4, not the ratio of the medians.
    assert ratio == 0.5
