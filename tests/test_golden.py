"""The bitwise sweep: every digest of tests/golden/make_golden.py matches the
committed golden.json. The generator runs in a child process and pins one BLAS
thread itself; an output that moved fails the test, naming the versions the file
was made with, and a change that moves an output on purpose regenerates it
(make_golden.py --write)."""

import json
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_outputs_match_golden_digests():
    proc = subprocess.run([sys.executable, str(GOLDEN / "make_golden.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout)
    want = json.loads((GOLDEN / "golden.json").read_text())
    keys = want["digests"].keys() | got["digests"].keys()
    moved = sorted(k for k in keys if want["digests"].get(k) != got["digests"].get(k))
    assert not moved, (f"{len(moved)} of {len(keys)} digests moved: {', '.join(moved[:12])}; "
                       f"golden.json was made with {want['versions']}, "
                       f"this run has {got['versions']}")
