"""The package's runtime dependencies."""

import os
import subprocess
import sys
from pathlib import Path

import antispectra


def test_package_runs_on_numpy_alone():
    # a fresh interpreter, so modules the tests import do not count
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(antispectra.__file__).parents[1]), env.get("PYTHONPATH")))
    )
    script = (
        "import importlib, sys\n"
        f"for name in {antispectra.__all__!r}:\n"
        "    importlib.import_module('antispectra.' + name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
