"""Smoke tests: the walkthrough scripts in demos/ run to the end.

The demos are the public API's only callers outside the package, so a
deleted or renamed export fails here. ``run_cora.py`` needs the raw Cora
files and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["verify_bounds", "train_sbm", "ood_demo"])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if name == "verify_bounds":
        overall = [ln for ln in proc.stdout.splitlines() if ln.startswith("overall:")]
        assert overall and all(ln == "overall: PASS" for ln in overall), overall
        last = proc.stdout.strip().splitlines()[-1]
        assert last.startswith("max abs deviation over 16 layers: ")
        assert float(last.rsplit(" ", 1)[1]) < 1e-12
