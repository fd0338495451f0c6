"""The benchmark's contract in the suite: every workload of BENCHMARK.json
runs once, traced, through perfbench/child.py (one process, one BLAS
thread, seed 0), passes the benchmark's correctness gate and takes its
known number of iterations. A renamed wrap target, a span that no longer
fires or a broken gate fails here as it would fail the benchmark."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# converge-trig counts one direct solve per level, the others GMRES steps; a
# workload missing here fails its case with a KeyError
ITERATIONS = {"converge-trig": 4, "precond-ras-4x4": 69, "precond-mras-2x2": 48}
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
ONE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_the_gate(tmp_path, workload):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), workload,
                           "0", "1", str(tmp_path)], env={**os.environ, **ONE_THREAD},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["failure"] == ""
    assert result["iterations"] == ITERATIONS[workload]
