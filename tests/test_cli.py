"""Command-line interface: payloads, determinism, and exit codes."""

import argparse
import contextlib
import functools
import io
import json
import math
import re
import shlex
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antispectra import blips, cli, combinatorics, densities, ensembles, stats


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ("moments", "--pair", "nope-nope", "--m", "2"),
    ("moments", "--pair", "anti-l:1", "--m", "2"),
    ("moments", "--pair", "goe-goe", "--m", "2", "--method", "bogus"),
    ("spectrum", "--pair", "goe-goe", "--n", "40", "--trials", "0"),
    ("sample", "--ensemble", "pte", "--n", "7"),
    ("sample", "--ensemble", "warped", "--n", "8"),
    ("sample", "--ensemble", "bce", "--n", "8"),
    ("regimes", "--pair", "goe-goe", "--n", "20"),
    ("regimes", "--pair", "goe-bce:2", "--n", "20"),
    ("genus", "--pair", "goe-goe", "--m", "2"),
    ("density", "--which", "goe-goe", "--grid", "1:1:5"),
    ("density", "--which", "goe-goe", "--grid", "oops"),
    ("convergence", "--pair", "goe-goe", "--m", "2", "--n", "24,48", "--trials", "5"),
    ("moments", "--pair", "goe-bce:-3", "--m", "2"),
    ("moments", "--pair", "bce-bce:0", "--m", "2"),
    ("genus", "--pair", "bce-bce", "--m", "2", "--k", "0"),
    ("sample", "--ensemble", "checker:x", "--n", "3"),
    ("moments", "--pair", "goe-goe:", "--m", "2"),
    ("sample", "--ensemble", "checker:3:2.5:9", "--n", "9"),
    ("regimes", "--pair", "goe-checker:1", "--n", "20"),
    ("spectrum", "--pair", "goe-goe", "--n", "10", "--trials", "2", "--dist", "bogus"),
    ("convergence", "--pair", "goe-goe", "--n", "8,16,24", "--trials", "3", "--dist", "nope"),
    ("sample", "--ensemble", "goe:", "--n", "4"),
    ("sample", "--ensemble", "hollow:", "--n", "4"),
    ("sample", "--ensemble", "checker:3:nan", "--n", "6"),
    ("sample", "--ensemble", "checker:2:inf", "--n", "4"),
    ("sample", "--ensemble", "checker:0", "--n", "4"),
    ("sample", "--ensemble", "goe", "--n", "3", "--seed", "1", "--dist", "rademacher"),
    ("sample", "--ensemble", "hollow", "--n", "3", "--dist", "uniform-scaled"),
    ("convergence", "--pair", "goe-goe", "--m", "0", "--n", "8,16,32", "--trials", "3"),
    ("density", "--which", "goe-goe", "--grid=-inf:4:5"),
    ("density", "--which", "pte-pte", "--grid=-4:inf:5"),
])
def test_usage_errors_exit_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv,named", [
    (("moments", "--pair", "goe-bce:-3", "--m", "2"), "'goe-bce:-3'"),
    (("moments", "--pair", "bce-bce:0", "--m", "2"), "'bce-bce:0'"),
    (("genus", "--pair", "bce-bce", "--m", "2", "--k", "0"), "--k"),
    (("sample", "--ensemble", "checker:x", "--n", "3"), "'checker:x'"),
    (("sample", "--ensemble", "bce:3:y", "--n", "3"), "'bce:3:y'"),
    (("moments", "--pair", "goe-goe:", "--m", "2"), "'goe-goe:'"),
    (("moments", "--pair", "goe-bce:", "--m", "2"), "'goe-bce:'"),
    (("sample", "--ensemble", "checker:3:2.5:9", "--n", "9"), "'checker:3:2.5:9'"),
    (("spectrum", "--pair", "goe-goe", "--n", "10", "--trials", "2", "--dist", "bogus"),
     "'bogus'"),
    (("convergence", "--pair", "goe-goe", "--n", "8,16,24", "--trials", "3",
      "--dist", "nope"), "'nope'"),
    (("sample", "--ensemble", "goe:", "--n", "4"), "'goe:'"),
    (("sample", "--ensemble", "hollow:", "--n", "4"), "'hollow:'"),
    (("sample", "--ensemble", "checker:3:nan", "--n", "6"), "'checker:3:nan'"),
    (("sample", "--ensemble", "checker:2:inf", "--n", "4"), "'checker:2:inf'"),
    (("sample", "--ensemble", "checker:0", "--n", "4"), "'checker:0'"),
    (("sample", "--ensemble", "goe", "--n", "3", "--seed", "1", "--dist", "rademacher"),
     "'goe': goe entries are Gaussian, not 'rademacher'"),
    (("sample", "--ensemble", "hollow", "--n", "3", "--dist", "uniform-scaled"),
     "unknown ensemble 'hollow'"),
    (("convergence", "--pair", "goe-goe", "--m", "0", "--n", "8,16,32", "--trials", "3"),
     "invalid m: 0 must be >= 1"),
    (("density", "--which", "goe-goe", "--grid=-inf:4:5"), "'-inf:4:5'"),
    (("density", "--which", "pte-pte", "--grid=-4:inf:5"), "'-4:inf:5'"),
    # spectrum bins on its pair's own scale (stats.Pair.norm_exp): it takes no --norm-exp.
    (("spectrum", "--pair", "goe-goe", "--n", "10", "--trials", "2", "--norm-exp", "inf"),
     "unrecognized arguments: --norm-exp inf"),
    (("spectrum", "--pair", "goe-goe", "--n", "10", "--trials", "2", "--norm-exp", "nan"),
     "unrecognized arguments: --norm-exp nan"),
    (("spectrum", "--pair", "goe-goe", "--n", "400", "--norm-exp", "1.5"),
     "unrecognized arguments: --norm-exp 1.5"),
    (("spectrum", "--pair", "goe-goe", "--n", "10", "--trials", "2", "--norm-exp", "1000"),
     "unrecognized arguments: --norm-exp 1000"),
    (("spectrum", "--pair", "goe-goe", "--n", "300", "--bins", "0"), "--bins"),
    # The blip weight order is always default_blip_order(N).
    (("blip", "--pair", "goe-checker:2", "--n", "20", "--trials", "2", "--weight-n", "2"),
     "unrecognized arguments: --weight-n 2"),
    # Trials run one at a time: the trial commands take no --threads.
    (("spectrum", "--pair", "goe-goe", "--n", "10", "--trials", "2", "--threads", "-3"),
     "unrecognized arguments: --threads -3"),
    (("regimes", "--pair", "goe-checker:2", "--n", "20", "--trials", "2", "--threads", "0"),
     "unrecognized arguments: --threads 0"),
    (("spectrum", "--pair", "goe-goe", "--n", "-4"), "invalid size: -4"),
    (("spectrum", "--pair", "goe-goe", "--n", "0"), "invalid size: 0"),
    (("blip", "--pair", "goe-checker:2", "--n", "-4", "--trials", "2"), "invalid size: -4"),
    (("moments", "--pair", "goe-goe", "--m", "2", "--out", "/nonexistent/x.json"),
     "invalid --out '/nonexistent/x.json': no such directory"),
    (("spectrum", "--pair", "goe-goe", "--n", "8", "--trials", "1", "--seed", "-1"),
     "argument --seed: '-1' is not a non-negative integer"),
    (("sample", "--ensemble", "goe", "--n", "3", "--seed", "1.5"),
     "argument --seed: '1.5' is not a non-negative integer"),
    (("convergence", "--pair", "goe-goe", "--n", "8,8,16,32", "--trials", "3"),
     "invalid sizes: (8, 8, 16, 32) repeats a size"),
    (("genus", "--pair", "goe-bce", "--m", "0"), "need m >= 1, got 0"),
    (("genus", "--pair", "goe-bce:3", "--m", "2"),
     "genus takes the family name goe-bce or bce-bce, with k given by --k, got 'goe-bce:3'"),
])
def test_errors_name_the_bad_input(capsys, argv, named):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert named in err


@pytest.mark.parametrize("argv,message", [
    (("blip", "--pair", "goe-goe"), "need a checkerboard pair"),
    (("spectrum", "--pair", "checker-checker:3"), "'checker-checker:3': need k,j"),
    (("blip", "--pair", "checker-checker:2,4"), "'checker-checker:2,4': invalid dimension"),
    (("regimes", "--pair", "checker-checker:2,4"), "must be coprime"),
    (("regimes", "--pair", "goe-bce:2"), "need a checkerboard pair"),
    (("spectrum", "--pair", "goe-bce:-3"), "'goe-bce:-3'"),
    (("regimes", "--pair", "goe-checker:1"), "'goe-checker:1': invalid dimension: k=1"),
    (("blip", "--pair", "goe-checker:1"), "'goe-checker:1': invalid dimension: k=1"),
    (("spectrum", "--pair", "goe-goe", "--norm-exp", "nan"),
     "unrecognized arguments: --norm-exp nan"),
    (("spectrum", "--pair", "goe-goe", "--bins", "0"), "--bins"),
    (("blip", "--pair", "checker-checker:3,1"),
     "'checker-checker:3,1': invalid dimension: k=3, j=1 must be >= 2"),
    (("spectrum", "--pair", "goe-goe", "--threads", "0"), "unrecognized arguments"),
    (("spectrum", "--pair", "goe-goe", "--n", "-4"), "invalid size: -4"),
    (("regimes", "--pair", "goe-checker:2", "--n", "0"), "invalid size: 0"),
    (("convergence", "--pair", "pte-pte", "--n", "8,16,33"), "needs even N, got 33"),
    (("convergence", "--pair", "goe-checker:4", "--n", "8,16,30"), "k=4 must divide N=30"),
    (("spectrum", "--pair", "goe-goe", "--out", "/nonexistent/x.csv"),
     "invalid --out '/nonexistent/x.csv': no such directory"),
    # An all-GOE pair hands --dist to its GOE members, and EnsembleSpec judges
    # it: the tag first, then the GOE's Gaussian entries.
    (("spectrum", "--pair", "goe-goe", "--dist", "rademacher"),
     "error: goe entries are Gaussian, not 'rademacher'"),
    (("convergence", "--pair", "anti-l:3", "--n", "8,16,32", "--dist", "uniform-scaled"),
     "error: goe entries are Gaussian, not 'uniform-scaled'"),
    (("spectrum", "--pair", "goe-goe", "--dist", "bogus"),
     "error: unknown distribution tag 'bogus'"),
    (("convergence", "--pair", "anti-l:3", "--n", "8,16,32", "--dist", "bogus"),
     "error: unknown distribution tag 'bogus'"),
    (("spectrum", "--pair", "goe-checker:5", "--n", "20", "--dist", "bogus"),
     "error: unknown distribution tag 'bogus'"),
])
def test_pair_errors_come_before_sampling(capsys, monkeypatch, argv, message):
    def no_sampling(spec, seed=None):
        raise AssertionError("sampled a matrix before rejecting the pair")

    monkeypatch.setattr(stats, "sample_ensemble", no_sampling)
    # The defaults come first, so a case's own --n or --trials overrides them.
    code, _, err = run_cli(capsys, argv[0], "--n", "16", "--trials", "2", *argv[1:])
    assert code == 2
    assert message in err


@pytest.mark.parametrize("argv,message", [
    (("blip", "--pair", "goe-checker:5", "--n", "60", "--m", "1,x"),
     "invalid order list '1,x'"),
    (("convergence", "--pair", "goe-goe", "--n", "0,5,10"), "invalid size: 0 must be >= 1"),
    (("density", "--which", "goe-goe", "--grid=a:b:3"), "invalid grid 'a:b:3'"),
    (("genus", "--pair", "bce-bce", "--m", "0"), "need m >= 1, got 0"),
], ids=["order_list", "size_list", "grid", "genus_limit"])
def test_input_errors_are_one_exact_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


_MEMORY = r"needs \S+ GiB, more than the \S+ GiB of memory\n"


@pytest.mark.parametrize("argv,message", [
    (("spectrum", "--pair", "goe-goe", "--n", "4", "--trials", "1",
      "--bins", "1125899906842624"), "invalid --bins 1125899906842624: its histogram "),
    (("spectrum", "--pair", "goe-goe", "--n", "4", "--trials", "1",
      "--bins", "1152921504606846976"), "invalid --bins 1152921504606846976: its histogram "),
    (("sample", "--ensemble", "goe", "--n", "67108864"),
     "ensemble 'goe': invalid dimension: N=67108864: an N x N matrix "),
    (("spectrum", "--pair", "goe-goe", "--n", "67108864", "--trials", "1"),
     "invalid dimension: N=67108864: an N x N matrix "),
    (("density", "--which", "pte-pte", "--grid=-4:4:1125899906842624"),
     "invalid grid '-4:4:1125899906842624': its table "),
], ids=["bins_2^50", "bins_2^60", "sample", "spectrum_n", "grid_2^50"])
def test_inputs_larger_than_memory_fail_before_any_work(capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("worked on an input larger than memory")

    for module, name in ((stats, "sample_ensemble"), (cli, "sample_ensemble"),
                         (cli, "empirical_histogram"), (cli.np, "linspace"),
                         (densities, "tabulate_density")):
        monkeypatch.setattr(module, name, no_work)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert re.fullmatch("error: " + re.escape(message) + _MEMORY, err), err


def _histogram_table(rows):
    # Every bin filled, each edge and density printed near %.17g's longest,
    # 24 characters: the most text a bin.  The pooled spectra are the trials'.
    spectra = [np.random.default_rng(0).uniform(-2, -1, 4 * rows) * 1e-100]
    return lambda: cli.empirical_histogram(spectra, 1, bins=rows).write_csv(io.StringIO())


def _density_table(which, rows):
    return lambda: densities.tabulate_density(which, np.linspace(-4, 4, rows)).write_csv(
        io.StringIO())


@pytest.mark.parametrize("table,row_bytes", [
    (_histogram_table, "_BIN_BYTES"),
    (functools.partial(_density_table, "goe-goe"), "_GRID_POINT_BYTES"),
    (functools.partial(_density_table, "pte-pte"), "_GRID_POINT_BYTES"),
], ids=["histogram", "goe-goe", "pte-pte"])
def test_each_table_peaks_under_its_bytes_a_row(table, row_bytes):
    # The memory guards charge a table its bytes a row before any is built.
    rows = 20_000
    build = table(rows)
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / rows < getattr(cli, row_bytes)


def test_out_of_memory_is_one_error_line(capsys, monkeypatch):
    def exhaust(matrix):
        raise MemoryError("Unable to allocate 7.45 GiB for an array")

    monkeypatch.setattr(stats, "eigenvalues", exhaust)
    assert run_cli(capsys, "spectrum", "--pair", "goe-goe", "--n", "20", "--trials", "1") == (
        2, "", "error: out of memory: Unable to allocate 7.45 GiB for an array\n")


_EIGS = np.zeros(20)

# Every command that reads a pair spec, with valid options for the rest.  genus
# is not among them: its --pair is a family name.
_PAIR_COMMANDS = (
    ("spectrum", "--n", "20", "--trials", "2"),
    ("moments", "--m", "1"),
    ("blip", "--n", "20", "--trials", "2"),
    ("regimes", "--n", "20", "--trials", "2"),
    ("convergence", "--n", "8,16,24", "--trials", "2"),
)


@pytest.mark.parametrize("spec,message,direct", [
    ("goe-checker:1", "invalid dimension: k=1 must be >= 2",
     (lambda: combinatorics.bulk_moment_checker(1, 1),
      lambda: blips.regime_classify(_EIGS, 20, 1))),
    ("checker-checker:2,4", "invalid dimension: k=2 and j=4 must be coprime",
     (lambda: combinatorics.bulk_moment_checker(1, 2, 4),
      lambda: blips.band_scales(2, 4),
      lambda: blips.regime_classify(_EIGS, 20, 2, 4))),
], ids=["k", "coprime"])
def test_one_moduli_check(capsys, monkeypatch, spec, message, direct):
    """Every checkerboard command and function rejects bad moduli with one message."""
    def no_sampling(spec, rng):
        raise AssertionError("sampled a matrix before rejecting the moduli")

    monkeypatch.setattr(stats, "sample_ensemble", no_sampling)
    for argv in _PAIR_COMMANDS:
        code, out, err = run_cli(capsys, argv[0], "--pair", spec, *argv[1:])
        assert (code, out, err) == (2, "", f"error: pair {spec!r}: {message}\n"), argv
    for call in direct:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


@st.composite
def _pair_specs(draw):
    """A spec of a known family: mostly its own count of parameters, some of them
    invalid, and sometimes another count."""
    name = draw(st.sampled_from(sorted(stats.PAIRS)))
    size = len(stats.PAIRS[name].params)
    params = draw(st.lists(st.integers(-1, 7), min_size=size, max_size=size)
                  | st.lists(st.integers(-1, 7), max_size=3))
    return name + (":" + ",".join(map(str, params)) if params else "")


@given(spec=_pair_specs())
@example(spec="goe-checker:1")
@settings(max_examples=150, deadline=None)
def test_parse_pair_is_the_one_judge(spec):
    # A spec parse_pair accepts is valid for every command: it has a moment,
    # and a pair with a blip regime builds a blip plan at a size its moduli
    # divide.  A spec it rejects fails every pair command with its message,
    # before any draw.
    try:
        pair = stats.parse_pair(spec)
    except ValueError as exc:
        message = f"error: {exc}\n"
    else:
        assert pair.moment(1) > 0
        if stats.PAIRS[pair.name].regime is not None:
            N = 3 * math.lcm(*pair.params)
            assert stats.ExperimentPlan(pair, (N,), trials=1, outputs=("blips",)).sizes == (N,)
        return

    def no_sampling(spec, rng):
        raise AssertionError("sampled a matrix before rejecting the pair")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stats, "sample_ensemble", no_sampling)
        for argv in _PAIR_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([argv[0], "--pair", spec, *argv[1:]])
            assert (code, out.getvalue(), err.getvalue()) == (2, "", message), argv


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the name of every public attribute read from it."""

    def __init__(self):
        super().__init__()
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            super().__getattribute__("_read").add(name)
        return super().__getattribute__(name)


# One cheap valid command per subcommand; each also gets --out.
_EVERY_COMMAND = (
    ("sample", "--ensemble", "checker:2", "--n", "4"),
    ("spectrum", "--pair", "goe-goe", "--n", "6", "--trials", "2", "--bins", "4"),
    ("moments", "--pair", "goe-goe", "--m", "2"),
    ("genus", "--pair", "goe-bce", "--m", "2", "--k", "2"),
    ("density", "--which", "goe-goe", "--grid=-1:1:3"),
    ("blip", "--pair", "goe-checker:2", "--n", "10", "--trials", "1"),
    ("regimes", "--pair", "goe-checker:2", "--n", "10", "--trials", "1"),
    ("convergence", "--pair", "goe-goe", "--n", "4,6,8", "--trials", "2"),
)


def test_every_option_is_read():
    parser = cli._build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    assert set(commands) == {argv[0] for argv in _EVERY_COMMAND}
    unread = {}
    for argv in _EVERY_COMMAND:
        args = parser.parse_args(argv, namespace=_ReadRecorder())
        args._read.clear()
        table, payload = args.func(args)
        assert table is not None or payload is not None
        # main, not the command, reads --out; test_output_rule covers it for
        # every command.
        declared = {action.dest for action in commands[argv[0]]._actions} - {"help", "out"}
        # perfbench passes --seed to every exact-tables command, so the exact
        # commands keep an option they ignore.
        if argv[0] in ("moments", "genus", "density"):
            declared.discard("seed")
        if declared - args._read:
            unread[argv[0]] = declared - args._read
    assert unread == {}


def test_one_parser_serves_every_call(capsys):
    assert cli._build_parser() is cli._build_parser()
    # A default is read afresh on each call, not left over from the last one.
    argv = ("moments", "--pair", "goe-goe", "--m", "2")
    code, out, _ = run_cli(capsys, *argv, "--method", "series")
    assert (code, json.loads(out)["method"]) == (0, "series")
    code, out, _ = run_cli(capsys, *argv)
    assert (code, json.loads(out)["method"]) == (0, "recurrence")


def test_bad_option_leaves_the_parser_as_built(capsys):
    cli._build_parser.cache_clear()
    alone = run_cli(capsys, "genus", "--pair", "goe-bce", "--m", "2", "--k", "2")
    cli._build_parser.cache_clear()
    code, _, err = run_cli(capsys, "genus", "--pair", "goe-bce", "--m", "2", "--k", "x")
    assert code == 2 and "--k" in err
    after = run_cli(capsys, "genus", "--pair", "goe-bce", "--m", "2", "--k", "2")
    assert after == alone and alone[0] == 0


@pytest.mark.parametrize("argv", _EVERY_COMMAND, ids=lambda argv: argv[0])
def test_output_rule(capsys, tmp_path, argv):
    # The primary artifact is the CSV table of sample, spectrum and density,
    # and the JSON payload of every other command.  Without --out stdout gets
    # it; with --out the file gets it and stdout the payload, if any.
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "artifact"
    code, shown, _ = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == plain
    if argv[0] in ("sample", "spectrum", "density"):
        with pytest.raises(json.JSONDecodeError):
            json.loads(plain)
        if argv[0] == "sample":
            assert shown == ""
        else:
            assert isinstance(json.loads(shown), dict)
    else:
        assert isinstance(json.loads(plain), dict)
        assert shown == plain


def test_out_write_failure_names_out(capsys, tmp_path):
    # --out names an existing directory: the rename onto it fails after the work.
    code, out, err = run_cli(capsys, "moments", "--pair", "goe-goe", "--m", "2",
                             "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert f"cannot write --out '{tmp_path}': Is a directory" in err
    assert list(tmp_path.iterdir()) == []


def test_numerical_failures_exit_three(capsys, monkeypatch):
    def explode(matrix):
        raise ArithmeticError("matrix has non-finite entries")

    monkeypatch.setattr(stats, "eigenvalues", explode)
    code, _, err = run_cli(capsys, "spectrum", "--pair", "goe-goe", "--n", "20",
                           "--trials", "1")
    assert code == 3
    assert "numerical failure" in err


def test_moment_beyond_the_float_range_names_its_input(capsys):
    code, out, _ = run_cli(capsys, "moments", "--pair", "pte-pte", "--m", "75")
    assert code == 0 and json.loads(out)["value"] > 1e306
    code, out, err = run_cli(capsys, "moments", "--pair", "pte-pte", "--m", "76")
    assert (code, out) == (3, "")
    assert err == "numerical failure: --pair pte-pte --m 76: moment too large for a float\n"


@pytest.mark.parametrize("pair,m,expected", [
    ("goe-goe", 3, 66.0),
    ("pte-pte", 2, 144.0),
    ("goe-pte", 2, 12.0),
    ("goe-bce:2", 2, 10.5),
    ("bce-bce:2", 1, 2.5),
    ("anti-l:3", 2, 96.0),
    ("goe-checker:5", 1, 1.6),
    ("checker-checker:3,5", 1, 2 * (2 / 3) * (4 / 5)),
    ("goe-checker:05", 1, 1.6),
])
def test_moment_values(capsys, pair, m, expected):
    code, out, _ = run_cli(capsys, "moments", "--pair", pair, "--m", str(m))
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["value"], expected, rtol=1e-12)
    # The payload names the pair by its canonical spec, as every command does.
    canonical = {"goe-checker:05": "goe-checker:5"}.get(pair, pair)
    assert payload["pair"] == canonical and payload["m"] == m


@pytest.mark.parametrize("pair,m,exact", [
    ("goe-goe", 30, "40571315482976830134555494010"),
    ("goe-checker:5", 3, "4224/125"),
])
def test_moments_payload_keeps_the_exact_value(capsys, pair, m, exact):
    # The float loses digits past 2^53 (4.057131548297683e+28 at goe-goe m = 30);
    # "exact" is the table's int or Fraction as text.
    code, out, _ = run_cli(capsys, "moments", "--pair", pair, "--m", str(m))
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == exact
    assert payload["value"] == float(Fraction(exact))


def test_moment_methods_agree(capsys):
    values = []
    for method in ("recurrence", "enumeration", "explicit", "series"):
        code, out, _ = run_cli(capsys, "moments", "--pair", "goe-goe", "--m", "2",
                               "--method", method)
        assert code == 0
        values.append(json.loads(out)["value"])
    assert values == [10.0, 10.0, 10.0, 10.0]


def test_genus_payload(capsys):
    code, out, _ = run_cli(capsys, "genus", "--pair", "goe-bce", "--m", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["symbolic"] == "10 + 2*k^-2"
    assert "value" not in payload
    code, out, _ = run_cli(capsys, "genus", "--pair", "goe-bce", "--m", "2",
                           "--k", "2")
    payload = json.loads(out)
    assert payload["value"] == 10.5


def test_genus_enumeration_limits(capsys):
    # bce-bce reaches m = 6 and one past it is refused; goe-bce has no limit.
    code, out, _ = run_cli(capsys, "genus", "--pair", "bce-bce", "--m", "5")
    assert code == 0
    assert json.loads(out)["symbolic"] == (
        "4066 + 521880*k^-2 + 19317738*k^-4 + 214110380*k^-6"
        " + 550074096*k^-8 + 130429440*k^-10")
    code, _, err = run_cli(capsys, "genus", "--pair", "bce-bce", "--m", "7")
    assert code == 2
    assert "budget exceeded" in err
    # goe-bce at m = 9 collapses to goe-pte at k = 1 and to goe-goe as k -> oo.
    code, out, _ = run_cli(capsys, "genus", "--pair", "goe-bce", "--m", "9", "--k", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == combinatorics.moment_goe_pte(9)
    assert payload["symbolic"].split(" + ")[0] == str(combinatorics.moment_goe_goe(9, "explicit"))


def test_sample_writes_loadable_matrix(capsys, tmp_path):
    out = tmp_path / "matrix.csv"
    code, _, _ = run_cli(capsys, "sample", "--ensemble", "checker:3:2.5",
                         "--n", "9", "--seed", "4", "--out", str(out))
    assert code == 0
    M = np.loadtxt(out, delimiter=",")
    assert M.shape == (9, 9)
    i = np.arange(9)
    mask = (i[:, None] - i[None, :]) % 3 == 0
    np.testing.assert_array_equal(M[mask], np.full(int(mask.sum()), 2.5))
    header = out.read_text().splitlines()[0]
    assert header == "# symmetric N=9 kind=checker:3:2.5"


def test_sample_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "sample", "--ensemble", "goe", "--n", "12",
                             "--seed", "9", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("spec,N,dist", [
    ("goe", 6, "standard-normal"),
    ("bce:3", 6, "rademacher"),
    ("checker:3:2.5", 9, "uniform-scaled"),
])
def test_sample_csv_bytes_are_each_entry_at_17_digits(capsys, spec, N, dist):
    code, out, err = run_cli(capsys, "sample", "--ensemble", spec, "--n", str(N),
                             "--dist", dist, "--seed", "5")
    matrix = ensembles.sample_ensemble(ensembles.parse_ensemble(spec, N, dist),
                                       ensembles.rng_stream(5, 0))
    rows = [",".join(format(value, ".17g") for value in row) for row in matrix.tolist()]
    assert (code, err) == (0, "")
    assert out == "\n".join([f"# symmetric N={N} kind={spec}", *rows]) + "\n"


def test_seed_takes_any_non_negative_integer(capsys):
    # The benchmark passes 64-bit unsigned op seeds.
    seed = 2**64 - 1
    code, out, _ = run_cli(capsys, "sample", "--ensemble", "goe", "--n", "4",
                           "--seed", str(seed))
    assert code == 0
    matrix = ensembles.sample_ensemble(ensembles.EnsembleSpec("goe", 4),
                                       ensembles.rng_stream(seed, 0))
    np.testing.assert_array_equal(np.loadtxt(out.splitlines()[1:], delimiter=","), matrix)


def test_spectrum_csv_and_summary(capsys, tmp_path):
    out = tmp_path / "hist.csv"
    code, stdout, _ = run_cli(capsys, "spectrum", "--pair", "goe-goe", "--n", "50",
                              "--trials", "4", "--bins", "10", "--seed", "1",
                              "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,density"
    assert len(lines) == 11
    summary = json.loads(stdout)
    assert summary["trials"] == 4 and summary["bins"] == 10
    assert {entry["m"] for entry in summary["moments"]} == {1, 2, 3, 4}


def test_density_grid_output(capsys):
    code, out, _ = run_cli(capsys, "density", "--which", "goe-goe",
                           "--grid=-2:2:11")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,density"
    assert len(lines) == 12
    xs = [float(line.split(",")[0]) for line in lines[1:]]
    np.testing.assert_allclose(xs, np.linspace(-2, 2, 11), atol=1e-12)


def test_blip_payload(capsys):
    code, out, _ = run_cli(capsys, "blip", "--pair", "goe-checker:5", "--n", "250",
                           "--trials", "2", "--m", "0,1", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "goe-checker-blip"
    assert payload["trials"] == 2
    assert set(payload) == {"regime", "N", "k", "j", "n", "moments", "moments_valid",
                            "counts", "trials"}
    assert {entry["m"] for entry in payload["moments"]} == {0, 1}
    assert set(payload["counts"]) == {"bulk", "pos_blip", "neg_blip", "outside_bump"}


def test_blip_payload_counts_eigenvalues_outside_the_bump(capsys):
    cases = (
        # At N = 10 eigenvalues sit past the weight's bump and their weights,
        # growing like x^(4n), swamp the moments; by N = 1500 none is left there.
        ("goe-checker:5", "10", "2", "3", True),
        ("goe-checker:5", "1500", "1", "3", False),
        # At N = 15 the most negative arguments reach below 1 - sqrt(2), where
        # the weight exceeds its peak: this trial has weighted m=0 = 881 and
        # none of its arguments above 2.  At N = 150 the minimum is -0.22.
        ("checker-checker:3,5", "15", "1", "1", True),
        ("checker-checker:3,5", "150", "5", "1", False),
    )
    for pair, n, trials, seed, outside in cases:
        code, out, _ = run_cli(capsys, "blip", "--pair", pair, "--n", n,
                               "--trials", trials, "--seed", seed)
        assert code == 0
        payload = json.loads(out)
        assert (payload["counts"]["outside_bump"] > 0) is outside
        assert payload["moments_valid"] is not outside


def test_regimes_payload(capsys):
    code, out, _ = run_cli(capsys, "regimes", "--pair", "goe-checker:5",
                           "--n", "250", "--trials", "3", "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["mean_counts"]) == {"bulk", "pos_blip", "neg_blip"}
    assert sum(payload["modal_counts"].values()) == 250
    assert 0 < payload["modal_fraction"] <= 1


@pytest.mark.parametrize("pair,n", [("goe-checker:5", "100"), ("checker-checker:3,5", "90")])
def test_blip_and_regimes_classify_the_same_spectra(capsys, pair, n):
    # One seed draws the same trials for both commands, and both count each
    # trial's eigenvalues by regime_classify: blip adds only outside_bump.
    argv = ("--pair", pair, "--n", n, "--trials", "3", "--seed", "4")
    code, out, _ = run_cli(capsys, "blip", *argv)
    assert code == 0
    counts = json.loads(out)["counts"]
    del counts["outside_bump"]
    code, out, _ = run_cli(capsys, "regimes", *argv)
    assert code == 0
    mean_counts = json.loads(out)["mean_counts"]
    assert list(counts.items()) == list(mean_counts.items())


def test_convergence_payload(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--pair", "goe-goe", "--m", "2",
                           "--n", "24,48,96", "--trials", "30", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["slope"] < 0
    assert [row["N"] for row in payload["rows"]] == [24, 48, 96]


def test_convergence_without_spread_is_a_numerical_failure(capsys):
    # Every N = 2 Rademacher PTE trial has the same spectrum, so that size's
    # variance is 0 and its log has no slope: no NaN may reach the JSON.
    code, out, err = run_cli(capsys, "convergence", "--pair", "pte-pte", "--n", "2,4,6",
                             "--trials", "2", "--dist", "rademacher")
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: ") and "at N=2 " in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv,message", [
    # The largest blip's locations to the 2000th power overflow.
    (("blip", "--pair", "checker-checker:3,5", "--n", "30", "--trials", "2", "--m", "2000"),
     "blip moment of order 2000 at N=30 is not a finite float"),
    # lambda^150 overflows in some trial at N = 30.
    (("convergence", "--pair", "goe-goe", "--m", "150", "--n", "10,20,30", "--trials", "3"),
     "moment of order 150 at N=30 is not a finite float"),
    # N^401 is past the float range at every N.
    (("convergence", "--pair", "goe-goe", "--m", "400", "--n", "10,20,30", "--trials", "3"),
     "moment of order 400 at N=10 is not a finite float"),
    # Every moment is finite, but N = 20's fourth central moment overflows.
    (("convergence", "--pair", "goe-goe", "--m", "150", "--n", "10,20,21", "--trials", "3"),
     "moment 150 at N=20 has variance 1.3714068481250047e+188 and fourth central moment "
     "inf: not finite floats"),
])
def test_non_finite_statistics_are_one_numerical_failure_line(capsys, argv, message):
    # No Infinity or NaN may reach the JSON, and no RuntimeWarning may print.
    assert run_cli(capsys, *argv) == (3, "", f"numerical failure: {message}\n")


def test_anti_l_spectrum_is_on_its_own_scale(capsys):
    # anti-l:l's eigenvalues grow like N^(l/2): the histogram divides by it,
    # and the moments are sum(lambda^m) / (N * N^(lm/2)).  The second one
    # tends to l!, 6 at l = 3, where sum(lambda^2) / N^3 grows like 6N.
    argv = ("spectrum", "--pair", "anti-l:3", "--n", "200", "--trials", "4", "--bins", "10")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    edges = np.loadtxt(out.splitlines()[1:], delimiter=",")[:, :2]
    assert np.max(np.abs(edges)) < 10  # about 88 on the N scale
    code, out, _ = run_cli(capsys, *argv, "--out", "/dev/null")
    summary = json.loads(out)
    assert summary["norm_exp"] == 1.5
    second = next(entry for entry in summary["moments"] if entry["m"] == 2)
    assert abs(second["mean"] - 6) < 0.5
    # anti-l:2 is goe-goe: the N scale, as for every other pair.
    code, out, _ = run_cli(capsys, "spectrum", "--pair", "anti-l:2", "--n", "20",
                           "--trials", "2", "--out", "/dev/null")
    assert json.loads(out)["norm_exp"] == 1.0


def test_convergence_rejects_single_trial(capsys):
    code, _, err = run_cli(capsys, "convergence", "--pair", "goe-goe", "--m", "2",
                           "--n", "16,32,64", "--trials", "1")
    assert code == 2
    assert "invalid trials: 1 must be >= 2" in err
    assert "math domain error" not in err


def test_json_out_matches_stdout(capsys, tmp_path):
    out = tmp_path / "moment.json"
    code, stdout, _ = run_cli(capsys, "moments", "--pair", "goe-goe", "--m", "2",
                              "--out", str(out))
    assert code == 0
    assert json.loads(stdout) == json.loads(out.read_text())


def _readme():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_commands_parse_and_name_registered_pairs():
    quick_start = _readme().split("## Quick start")[1].split("\n## ")[0]
    lines = [line for line in quick_start.splitlines() if line.startswith("antispectra ")]
    assert len(lines) == 8
    parser = cli._build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        if args.command == "genus":
            stats.genus_expansion(args.pair, 1)
        elif getattr(args, "pair", None) is not None:
            stats.parse_pair(args.pair)


def test_readme_pair_table_is_the_registry():
    section = _readme().split("## Pair specs")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`"):
            continue
        name, _, params = cells[0].strip("`").partition(":")
        methods = tuple(re.findall(r"`(\w+)`", cells[2]))
        regime = cells[3].strip("`") if cells[3] != "none" else None
        rows[name] = (tuple(params.split(",")) if params else (), methods, regime)
    assert rows == {
        name: (family.params, family.methods, family.regime)
        for name, family in stats.PAIRS.items()
    }


def test_sample_kinds_in_help_and_readme_are_the_registry():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    option = next(a for a in sub.choices["sample"]._actions if a.dest == "ensemble")
    in_help = [name.strip().partition(":")[0] for name in option.help.split(";")[0].split("|")]
    sentence = re.search(r"`sample --ensemble` takes (.*?),\s+read by", _readme(), re.S)
    in_readme = re.findall(r"`(\w+)", sentence.group(1))
    assert in_help == in_readme == [kind.name for kind in ensembles.KINDS.values()]
