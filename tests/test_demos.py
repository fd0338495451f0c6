"""Smoke test of the demos: each runs as a script on a small problem, exits 0
and prints its table."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = {
    "preconditioner_comparison": (
        ["--n", "8"],
        # header, then one row per partition and preconditioner kind
        [r"partition\s+preconditioner\s+iterations"]
        + [rf"uniform:{k}x{k}\s+{kind}\s+\d+$" for k in (2, 3)
           for kind in ("ras", "mras-tvnf", "mras-nvtf")]),
    "convergence_study": (
        ["--n0", "2", "--levels", "2"],
        [rf"{case} \(eps = {eps}\)" for case in ("poiseuille", "bubble", "curl_trig")
         for eps in ("-1", r"\+1")]
        + [r"h\s+err_h\s+order\s+err_l2_u\s+order"]),
    "mesh_and_partition": (
        [],
        [r"unit_square\(4\): 25 vertices, 32 triangles",
         r"2x2 decomposition: parts \[.*\] grow to",
         r"partition of unity: max \|sum of weights - 1\| = \S+"]),
}


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs_and_prints_table(name):
    args, patterns = DEMOS[name]
    src = str(ROOT / "src")
    env = {**os.environ, "MPLBACKEND": "Agg",
           "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    for pat in patterns:
        assert re.search(pat, proc.stdout, re.MULTILINE), (pat, proc.stdout)
