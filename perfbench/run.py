"""Benchmark runner for hdgstokes: one workload, one JSON result line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload again and again, one fresh Python process per run
(perfbench/child.py) and one run at a time, until S seconds have passed
and at least MIN_RUNS runs are done. Each run calls hdgstokes.cli.main
in-process and passes the correctness gate or counts as failed; failed
runs are left out of the timings. Every metric is the median over the
runs. With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it alternates untraced and traced runs and reports the
per-layer metrics, trace.overhead_s being the difference of the two
median wall times. Counts that must repeat exactly are compared across
runs. A provenance line (git sha, nproc, versions, thread pinning,
problem sizes, per-run values) precedes the result line.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = 1   # BLAS/OpenMP threads per run, at most nproc
PINNED = {k: str(THREADS) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
MIN_RUNS = 3
DEADLINE_S = 170.0   # one invocation must end within 180 s
# counts that must be identical in every run of one commit and seed
EXACT_LAYERS = ("mesh.triangles", "fem_space.dofs", "system.nnz", "krylov.lu_fill",
                "krylov.orth_bytes", "schwarz.local_lu_fill", "schwarz.overlap_ratio",
                "schwarz.apply_count")


class BenchError(Exception):
    pass


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=30, env={**os.environ, "GIT_DIR": str(ROOT / ".git")})
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_child(workload, seed, traced, workdir, timeout):
    outdir = Path(tempfile.mkdtemp(dir=workdir))
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed),
           "1" if traced else "0", str(outdir)]
    try:
        proc = subprocess.run(cmd, env={**os.environ, **PINNED}, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"run of {workload} exceeded the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"run of {workload} exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads((outdir / "result.json").read_text())


def exact_counts(runs):
    """The counts of every run; raises unless they repeat exactly."""
    seen = {}
    for traced, r in runs:
        counts = {"iterations": r["iterations"], **r["sizes"]}
        if traced:
            counts.update({k: r["layers"][k] for k in EXACT_LAYERS})
        for k, v in counts.items():
            if seen.setdefault(k, v) != v:
                raise BenchError(f"count {k} differs between runs: {seen[k]} != {v}")
    return seen


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "hdgstokes" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'hdgstokes'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    start = time.monotonic()
    modes = (False, True) if args.trace else (False,)
    runs = []
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        while (len(runs) < MIN_RUNS * len(modes)
               or time.monotonic() - start < args.seconds):
            for traced in modes:
                left = DEADLINE_S - (time.monotonic() - start)
                if left <= 0:
                    raise BenchError(f"{args.workload} exceeded {DEADLINE_S:.0f} s")
                runs.append((traced, run_child(args.workload, args.seed, traced,
                                               workdir, left)))
        counts = exact_counts(runs)
    except BenchError as err:
        sys.exit(f"perfbench: {err}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r["failure"] for _, r in runs if r["failure"]]
    for why in failures:
        print(f"perfbench: failed run of {args.workload}: {why}", file=sys.stderr)
    timed = [(t, r) for t, r in runs if not r["failure"]] or runs
    plain = [r for t, r in timed if not t]
    if args.trace:
        traced = [r["layers"] for t, r in timed if t]
        values = {m["name"]: statistics.median(r[m["name"]] for r in traced)
                  for m in wanted if m["name"] != "trace.overhead_s"}
        values["trace.overhead_s"] = (values["trace.wall_s"]
                                      - statistics.median(r["wall_s"] for r in plain))
    else:
        values = {m["name"]: statistics.median(r[m["name"]] for r in plain)
                  for m in wanted}

    provenance = {
        "workload": args.workload, "argv": WORKLOADS[args.workload], "seed": args.seed,
        "trace": args.trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "threads": PINNED, "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "runs": len(runs), "counts": counts,
        "wall_s": [r["wall_s"] for _, r in runs],
        "setup_s": [r["setup_s"] for _, r in runs],
    }
    print("# provenance " + json.dumps(provenance))
    print(json.dumps({
        "correct": not failures, "attempted": len(runs), "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))


if __name__ == "__main__":
    main()
