"""Run the narrative demos end to end, so a renamed or deleted public name
cannot break one silently.  ``04_instanton_curvature.py`` is left out: its
charge quadrature alone takes about 16 s."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_deformed_relations.py", "02_twistor_checks.py",
         "03_solve_and_moduli.py", "05_smash_pipeline.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
