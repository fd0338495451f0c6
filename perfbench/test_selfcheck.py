"""Self-checks of the benchmark: python3 -m pytest perfbench

Slow (several minutes): each workload runs traced, twice with one seed.
The repository's own suite does not collect this file (testpaths = tests).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NO_CACHE = shutil.ignore_patterns("__pycache__", ".work-*")


def bench(root, workload, trace=1, seed=0):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def copy_checkout(dest, with_src=True):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=NO_CACHE)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=NO_CACHE)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly(workload):
    """Counts agree across invocations (run.py checks them across the runs of
    one invocation), every run passes the gate, and each metric is reported."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = []
    for _ in range(2):
        proc = bench(ROOT, workload)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        provenance = json.loads(lines[-2].removeprefix("# provenance "))
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0, proc.stderr
        assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
        counts.append(provenance["counts"])
    assert counts[0] == counts[1]


def test_bare_directory_fails(tmp_path):
    copy_checkout(tmp_path, with_src=False)
    proc = bench(tmp_path, "converge-trig", trace=0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_renamed_target_fails_loudly(tmp_path):
    copy_checkout(tmp_path)
    schwarz = tmp_path / "src" / "hdgstokes" / "schwarz.py"
    schwarz.write_text(schwarz.read_text().replace("mras_local_matrix", "mras_local_operator"))
    proc = bench(tmp_path, "precond-mras-2x2")
    assert proc.returncode != 0
    assert "trace target schwarz.mras_local_matrix not found" in proc.stderr


def test_span_that_never_fires_fails_loudly(tmp_path):
    copy_checkout(tmp_path)
    cli = tmp_path / "src" / "hdgstokes" / "cli.py"
    cli.write_text(cli.read_text().replace(
        "system.solve_direct(sysm)", "krylov.Factorization(sysm.A).solve(sysm.rhs)"))
    proc = bench(tmp_path, "converge-trig", trace=0)
    assert proc.returncode != 0
    assert "fired zero times: ['system.solve_direct']" in proc.stderr


def gate(tmp_path, workload):
    proc = bench(tmp_path, workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_gate_rejects_a_loosened_tolerance(tmp_path):
    copy_checkout(tmp_path)
    cli = tmp_path / "src" / "hdgstokes" / "cli.py"
    cli.write_text(cli.read_text().replace('tol=cfg["tol"]', 'tol=10 * cfg["tol"]'))
    result = gate(tmp_path, "precond-ras-4x4")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_gate_rejects_a_changed_error_norm(tmp_path):
    copy_checkout(tmp_path)
    ref = tmp_path / "perfbench" / "reference" / "converge-trig.csv"
    lines = ref.read_text().splitlines(keepends=True)
    row = lines[-1].split(",")
    row[1] = repr(float(row[1]) * (1 + 1e-7))
    ref.write_text("".join(lines[:-1]) + ",".join(row))
    result = gate(tmp_path, "converge-trig")
    assert not result["correct"] and result["failed"] == result["attempted"]
