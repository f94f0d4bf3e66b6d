"""Each demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# 02_near_far_data.py is left out: it takes about 40 s against 1-5 s for
# each of the others, and the operators it shows have their own tests.
DEMOS = ["01_forward_scattering.py", "03_cgo_solutions.py",
         "04_vsc_diagnostics.py", "05_tikhonov_rates.py",
         "06_cli_artifacts.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
