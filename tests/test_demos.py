"""Every demo script runs to completion at a small size."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("blip_tour.py", ("--size", "60", "--trials", "2")),
    ("averaged_measure.py", ("--size", "50", "--g", "2", "--reps", "3")),
    ("bulk_convergence.py", ("--sizes", "20,40", "--trials", "2")),
    ("moment_tables.py", ("--m-max", "3")),
])
def test_demo_runs(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
