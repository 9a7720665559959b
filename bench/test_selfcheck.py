"""Fast self-check of the benchmark: every workload once, on tiny meshes.

    python3 -m pytest -q bench/test_selfcheck.py

Asserts the result-line contract (keys, counts, units) for the untraced
and the traced run of each workload, and that a directory holding only
BENCHMARK.json and bench/ makes the benchmark fail without a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_has_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    provenance = json.loads(lines[-2])["provenance"]
    for key in ("python", "numpy", "scipy", "nproc", "blas_threads_env", "seed"):
        assert key in provenance


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
