"""Command-line interface: payloads, determinism, and exit codes."""

import json

import numpy as np
import pytest

from antispectra import cli, stats
from antispectra.ensembles import load_matrix


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
])
def test_usage_errors_exit_two(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err


def test_numerical_failures_exit_three(capsys, monkeypatch):
    def explode(matrix):
        raise ArithmeticError("matrix has non-finite entries")

    monkeypatch.setattr(stats, "eigenvalues", explode)
    code, _, err = run_cli(capsys, "spectrum", "--pair", "goe-goe", "--n", "20",
                           "--trials", "1")
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("pair,m,expected", [
    ("goe-goe", 3, 66.0),
    ("pte-pte", 2, 144.0),
    ("goe-pte", 2, 12.0),
    ("goe-bce:2", 2, 10.5),
    ("bce-bce:2", 1, 2.5),
    ("anti-l:3", 2, 96.0),
    ("goe-checker:5", 1, 1.6),
    ("checker-checker:3,5", 1, 2 * (2 / 3) * (4 / 5)),
])
def test_moment_values(capsys, pair, m, expected):
    code, out, _ = run_cli(capsys, "moments", "--pair", pair, "--m", str(m))
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["value"], expected, rtol=1e-12)
    assert payload["pair"] == pair and payload["m"] == m


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


def test_sample_writes_loadable_matrix(capsys, tmp_path):
    out = tmp_path / "matrix.csv"
    code, _, _ = run_cli(capsys, "sample", "--ensemble", "checker:3:2.5",
                         "--n", "9", "--seed", "4", "--out", str(out))
    assert code == 0
    M = load_matrix(str(out))
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


def test_spectrum_threads_do_not_change_output(capsys, tmp_path):
    files = []
    for threads in ("1", "3"):
        path = tmp_path / f"hist{threads}.csv"
        code, _, _ = run_cli(capsys, "spectrum", "--pair", "pte-pte", "--n", "40",
                             "--trials", "6", "--seed", "2", "--threads", threads,
                             "--out", str(path))
        assert code == 0
        files.append(path.read_bytes())
    assert files[0] == files[1]


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
        assert (json.loads(out)["counts"]["outside_bump"] > 0) is outside


def test_regimes_payload(capsys):
    code, out, _ = run_cli(capsys, "regimes", "--pair", "goe-checker:5",
                           "--n", "250", "--trials", "3", "--seed", "4")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["mean_counts"]) == {"bulk", "pos_blip", "neg_blip"}
    assert sum(payload["modal_counts"].values()) == 250
    assert 0 < payload["modal_fraction"] <= 1


def test_convergence_payload(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--pair", "goe-goe", "--m", "2",
                           "--n", "24,48,96", "--trials", "30", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["slope"] < 0
    assert [row["N"] for row in payload["rows"]] == [24, 48, 96]


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
