"""Smoke runs of the experiment scripts on coarse meshes and small domains."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, marker",
    [
        (
            "decay_study.py",
            ["--h", "0.4", "--wave-numbers", "2", "--domains", "16"],
            "  2      16 ",
        ),
        (
            "calibrate_critical_search.py",
            ["--h", "0.3", "--r-out", "6", "--tol", "0.05", "--search"],
            "bracket [",
        ),
        (
            "choking_ladder.py",
            ["--h", "0.3", "--r-out", "6", "--n-seq", "3"],
            "top speed climbs",
        ),
    ],
)
def test_script_runs(script, args, marker):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout
