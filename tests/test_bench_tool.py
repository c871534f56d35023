"""tools/bench.py: it loads each checkout's package under its own name, its
in-process measures run on that package, and paired alternates the two sides
and pairs their calls."""

import importlib.util
import itertools
import shutil
from pathlib import Path

import numpy as np
import pytest

from antispectra.ensembles import EnsembleSpec, rng_stream, sample_ensemble

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def package(bench):
    return bench.load(_ROOT, "bench_test_package")


def _tree(tmp_path, module, old, new):
    """A copy of the package's tree under tmp_path with old replaced by new in module."""
    src = tmp_path / "src" / "antispectra"
    shutil.copytree(_ROOT / "src" / "antispectra", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    path = src / f"{module}.py"
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    return tmp_path


def test_two_trees_load_side_by_side(bench, package, tmp_path):
    root = _tree(tmp_path, "combinatorics", '"goe-goe": 5,', '"goe-goe": 4,')
    other = bench.load(root, "bench_test_other")
    assert package.combinatorics.ENUMERATION_LIMITS["goe-goe"] == 5
    assert other.combinatorics.ENUMERATION_LIMITS["goe-goe"] == 4
    assert other.stats.combinatorics is other.combinatorics
    assert package.stats.combinatorics is package.combinatorics


def test_a_tree_importing_the_package_absolutely_is_refused(bench, tmp_path):
    # The absolute import binds the copy this process already holds, not the
    # tree's, and adds no key to sys.modules.
    importlib.import_module("antispectra.combinatorics")
    root = _tree(tmp_path, "stats", "from . import combinatorics",
                 "from antispectra import combinatorics")
    with pytest.raises(ImportError, match=r"bench_test_absolute\.stats binds antispectra"):
        bench.load(root, "bench_test_absolute")


def test_a_failing_child_names_its_command_and_error(bench):
    with pytest.raises(RuntimeError,
                       match=r"(?s)--rss no-such-pair 10 exited 1: .*unknown pair spec"):
        bench.run_on(_ROOT, "--rss", "no-such-pair", "10")


def test_every_layer_is_timed_and_traced(bench, package):
    N = 10
    names = list(bench.layer_calls(package, N))
    assert names == ["sample goe", "sample pte", "sample bce", "sample checkerboard",
                     "sample pte rademacher", "sample pte uniform-scaled",
                     "sample bce rademacher", "sample bce uniform-scaled",
                     "sample checkerboard rademacher", "sample checkerboard uniform-scaled",
                     "anticommutator", "anticommutator of 3", "eigenvalues"]
    for name in names:
        assert bench.time_layer(package, N, name) >= 0
        assert bench.layer_peak(package, N, name) > 0


@pytest.mark.parametrize("name,factors", [("anticommutator", 2),
                                          ("anticommutator of 3", 3)])
def test_anticommutator_rows_get_fresh_first_factors(bench, package, name, factors):
    # Each call consumes its first factor, so every call gets a fresh copy:
    # two calls give the same result, from the factors the row was built on.
    call, args = bench.layer_calls(package, 10)[name]
    given = args()
    assert len(given) == factors
    first, kept = given[0], [m.copy() for m in given]
    got = call(*given)
    assert got is first
    np.testing.assert_array_equal(call(*args()), got)
    want = sum(np.linalg.multi_dot([kept[i] for i in order])
               for order in itertools.permutations(range(factors)))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("kind,k", [("goe", None), ("pte", None), ("bce", 5),
                                    ("checkerboard", 5)])
def test_timed_draws_come_from_stream_one(bench, package, kind, k):
    call, args = bench.layer_calls(package, 10)[f"sample {kind}"]
    np.testing.assert_array_equal(
        call(*args()), sample_ensemble(EnsembleSpec(kind, 10, k), rng_stream(1)))


@pytest.mark.parametrize("dist", ["rademacher", "uniform-scaled"])
@pytest.mark.parametrize("kind,k", [("pte", None), ("bce", 5), ("checkerboard", 5)])
def test_dist_rows_draw_their_dist_from_stream_one(bench, package, kind, k, dist):
    call, args = bench.layer_calls(package, 10)[f"sample {kind} {dist}"]
    np.testing.assert_array_equal(
        call(*args()), sample_ensemble(EnsembleSpec(kind, 10, k, dist=dist), rng_stream(1)))


def test_tables_and_commands_run_in_process(bench, package):
    assert bench.time_table(package, "moment_goe_goe", 2, ("recurrence",)) >= 0
    assert bench.time_command(package, ("moments", "--pair", "goe-goe", "--m", "2")) >= 0


def test_paired_alternates_the_sides_and_pairs_adjacent_calls(bench):
    calls = []
    seconds = {"before": iter([1.0, 2.0, 4.0]), "after": iter([3.0, 1.0, 2.0])}

    def measure(side, *args):
        calls.append((side, args))
        return next(seconds[side])

    medians, ratio = bench.paired({"before": "before", "after": "after"}, measure,
                                  10, "eigenvalues")
    order = ["before", "after", "after", "before", "before", "after"]
    assert calls == [(side, (10, "eigenvalues")) for side in order]
    assert medians == {"before": 2.0, "after": 2.0}
    # The median and quartiles of 3/1, 1/2 and 2/4, not the ratio of the medians.
    # Each side's calls sum past MIN_S, so the row stops at REPEAT rounds.
    assert ratio == {"ratio": 0.5, "quartiles": [0.5, 3.0], "rounds": bench.REPEAT}


def test_paired_gives_short_calls_more_rounds(bench):
    # Calls a tenth of MIN_S / REPEAT long run to MAX_ROUNDS, still alternating.
    calls = []
    short = bench.MIN_S / bench.REPEAT / 10

    def measure(side):
        calls.append(side)
        return short * (2 if side == "after" else 1)

    medians, ratio = bench.paired({"before": "before", "after": "after"}, measure)
    assert ratio == {"ratio": 2.0, "quartiles": [2.0, 2.0], "rounds": bench.MAX_ROUNDS}
    assert calls == ["before", "after", "after", "before"] * (bench.MAX_ROUNDS // 2) + [
        "before", "after"]
    assert medians == {"before": short, "after": 2 * short}
    # One side alone, past the other's reach, is timed the same way.
    calls.clear()
    _, ratio = bench.paired({"before": "before"}, measure)
    assert ratio == {"ratio": None, "quartiles": None, "rounds": bench.MAX_ROUNDS}
    assert calls == ["before"] * bench.MAX_ROUNDS
