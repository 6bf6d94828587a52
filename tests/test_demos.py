"""Run the narrative demos end to end, so a renamed or deleted public name
cannot break one silently.  ``04_instanton_curvature.py`` is not run: its
charge quadrature alone takes about 16 s.  Its imports from ``ncadhm`` are
checked instead."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncadhm

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


def test_instanton_demo_imports_exist():
    tree = ast.parse((ROOT / "demos" / "04_instanton_curvature.py").read_text())
    names = [a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "ncadhm"
             for a in node.names]
    assert "curvature_samples" in names
    assert [n for n in names if not hasattr(ncadhm, n)] == []
