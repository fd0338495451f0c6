"""One run of the program, in a fresh Python process, for perfbench/run.py.

Usage: python3 perfbench/child.py WORKLOAD SEED TRACE OUTDIR

Imports hdgstokes from the checkout's src/, wraps the program's own entry
points with timing spans, calls hdgstokes.cli.main in-process, checks the
outputs and writes one JSON record to OUTDIR/result.json.

TRACE=0 wraps only the coarse stage entry points (each called at most once
per level), so the per-apply hot path runs uninstrumented; TRACE=1 also
wraps the per-apply and per-subdomain calls. A wrap target that no longer
exists, or a span the workload must fire that fired zero times, fails the
run loudly instead of silently zeroing a metric.
"""

import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference"

# The paper's two experiments at n = 32 (perfbench/METRICS.md says why not
# n = 64). Precond workloads take the benchmark seed as --seed, which draws
# the random initial guess; converge-trig has no random input.
WORKLOADS = {
    "converge-trig": ["converge", "--case", "curl_trig", "--bc", "tvnf", "--eps", "-1",
                      "--tau", "6", "--n0", "4", "--levels", "4"],
    "precond-ras-4x4": ["precond", "--case", "bubble", "--n", "32", "--parts", "uniform:4x4",
                        "--overlap", "1", "--precond", "ras", "--tol", "1e-6",
                        "--guess", "random"],
    "precond-mras-2x2": ["precond", "--case", "bubble", "--n", "32", "--parts", "uniform:2x2",
                         "--overlap", "1", "--precond", "mras-tvnf", "--tol", "1e-6",
                         "--guess", "random"],
}

SETUP_SPANS = ("mesh.generate", "mesh.refine_uniform", "fem_space.build_dof_map",
               "system.assemble", "schwarz.decompose", "schwarz.build_decomposition",
               "schwarz.build_ras", "schwarz.build_mras")
SOLVE_SPANS = ("system.solve_direct", "krylov.gmres")
SCHWARZ_BUILDS = ("schwarz.build_ras", "schwarz.build_mras")
APPLY = "schwarz.SchwarzPreconditioner.apply"

_COMMON = ("mesh.generate", "fem_space.build_dof_map", "system.assemble",
           "system.solve_direct")
_PRECOND = _COMMON + ("schwarz.decompose", "schwarz.build_decomposition", "krylov.gmres")
_FACTOR = ("krylov.Factorization.__init__", "krylov.Factorization.solve")
# (spans of the untraced run, extra spans of the traced run)
MUST_FIRE = {
    "converge-trig": (_COMMON + ("mesh.refine_uniform",), _FACTOR + ("verify.error_norms",)),
    "precond-ras-4x4": (_PRECOND + ("schwarz.build_ras",), _FACTOR + (APPLY,)),
    "precond-mras-2x2": (_PRECOND + ("schwarz.build_mras",),
                         _FACTOR + (APPLY, "schwarz.mras_local_matrix")),
}

RESIDUAL_TOL = 1e-10   # ||A x_ref - b|| / ||b|| of the direct reference solve
CSV_RTOL = 1e-8        # converge-trig CSV against the stored reference


class Tracer:
    """Spans [name, start, end, parent index, count] kept in memory.

    count is what the target's counter function derived from the call's
    arguments and result, computed after the span closed; the arguments
    themselves are not kept, so tracing holds no arrays alive.
    """

    def __init__(self):
        self.spans = []
        self.stack = []

    def install(self, owner, attr, name, count=None):
        """Replace owner.attr by a traced wrapper; a missing target raises."""
        if not hasattr(owner, attr):
            raise SystemExit(f"trace target {name} not found: the program was "
                             f"refactored and perfbench/child.py must follow")
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self.stack[-1] if self.stack else -1, None]
            self.spans.append(span)
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                span[4] = count(args, kwargs, out)
            return out

        setattr(owner, attr, traced)

    def select(self, *names):
        return [s for s in self.spans if s[0] in names]

    def total(self, *names):
        return sum(s[2] - s[1] for s in self.select(*names))

    def under(self, span, *names):
        """True if an ancestor of span has one of the given names."""
        p = span[3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False


def _gmres_count(args, kwargs, out):
    """Sizes for the computed MGS traffic, and the correctness gate's inputs:
    the error against the reference and the reference's own residual."""
    import numpy as np

    apply_A, b = args[0], args[1]
    x, x_ref = out[0], kwargs["x_ref"]
    res = np.linalg.norm(apply_A(x_ref) - b) / np.linalg.norm(b)
    return dict(n=len(b), iterations=out[1].iterations,
                err=float(np.linalg.norm(x - x_ref)), ref_residual=float(res))


def install_spans(tracer, traced):
    from hdgstokes import cli, krylov, mesh, schwarz, system, verify

    n_tris = lambda a, k, out: out.n_triangles
    targets = [
        (mesh, "generate", n_tris), (mesh, "refine_uniform", n_tris),
        (system, "assemble", lambda a, k, out: (a[0].n_triangles, out.A.nnz)),
        (system, "solve_direct", None), (schwarz, "decompose", None),
        (schwarz, "build_decomposition",
         lambda a, k, out: sum(len(d) for d in out.dofs) / a[1].n_total),
        (schwarz, "build_ras", None), (schwarz, "build_mras", None),
        (krylov, "gmres", _gmres_count)]
    if traced:
        targets += [
            (krylov.Factorization, "__init__", lambda a, k, out: a[0]._lu.nnz),
            (krylov.Factorization, "solve", None),
            (schwarz.SchwarzPreconditioner, "apply", None),
            (schwarz, "mras_local_matrix", None), (verify, "error_norms", None)]
    for owner, attr, count in targets:
        if isinstance(owner, type):
            prefix = f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}"
        else:
            prefix = owner.__name__.rsplit(".", 1)[-1]
        tracer.install(owner, attr, f"{prefix}.{attr}", count)
    # cli binds build_dof_map by name, so that is the name it looks up
    tracer.install(cli, "build_dof_map", "fem_space.build_dof_map",
                   lambda a, k, out: out.n_total)
    return cli


def layer_metrics(tr, wall):
    """Per-layer metrics of one traced run, computed from its spans."""
    factors = tr.select("krylov.Factorization.__init__")
    local = [s for s in factors if tr.under(s, *SCHWARZ_BUILDS)]
    glob = [s for s in factors if not tr.under(s, *SCHWARZ_BUILDS)]
    direct = [s for s in tr.select("krylov.Factorization.solve") if not tr.under(s, APPLY)]
    applies = tr.select(APPLY)
    gmres = tr.select("krylov.gmres")
    gmres_s = tr.total("krylov.gmres")
    gmres_self = gmres_s - sum(s[2] - s[1] for s in applies if tr.under(s, "krylov.gmres"))
    # modified Gram-Schmidt step j reads w and v_i for the dot and reads w and
    # v_i and writes w for the update, i = 0..j: bytes computed, not measured
    orth_bytes = sum(40 * s[4]["n"] * s[4]["iterations"] * (s[4]["iterations"] + 1) // 2
                     for s in gmres)
    assemble = tr.select("system.assemble")
    assemble_s = tr.total("system.assemble")
    build_s = tr.total(*SCHWARZ_BUILDS)
    local_factor_s = sum(s[2] - s[1] for s in local)
    apply_s = sum(s[2] - s[1] for s in applies)
    top = sum(s[2] - s[1] for s in tr.spans if s[3] == -1)
    return {
        "mesh.build_s": tr.total("mesh.generate", "mesh.refine_uniform"),
        "mesh.triangles": sum(s[4] for s in tr.select("mesh.generate", "mesh.refine_uniform")),
        "fem_space.dofs": sum(s[4] for s in tr.select("fem_space.build_dof_map")),
        "system.assemble_s": assemble_s,
        "system.assemble_us_per_tri": 1e6 * assemble_s / sum(s[4][0] for s in assemble),
        "system.nnz": sum(s[4][1] for s in assemble),
        "krylov.factor_s": sum(s[2] - s[1] for s in glob),
        "krylov.direct_solve_s": sum(s[2] - s[1] for s in direct),
        "krylov.lu_fill": sum(s[4] for s in glob),
        "krylov.gmres_s": gmres_s,
        "krylov.gmres_self_s": gmres_self,
        "krylov.orth_bytes": orth_bytes,
        "krylov.orth_gb_s": orth_bytes / gmres_self / 1e9 if gmres else 0.0,
        "schwarz.decomposition_s": tr.total("schwarz.decompose",
                                            "schwarz.build_decomposition"),
        "schwarz.build_s": build_s,
        "schwarz.local_matrix_s": build_s - local_factor_s,
        "schwarz.local_factor_s": local_factor_s,
        "schwarz.local_lu_fill": sum(s[4] for s in local),
        "schwarz.overlap_ratio": sum(s[4] for s in tr.select("schwarz.build_decomposition")),
        "schwarz.apply_count": len(applies),
        "schwarz.apply_s": apply_s,
        "schwarz.apply_ms": 1e3 * apply_s / len(applies) if applies else 0.0,
        "verify.error_norms_s": tr.total("verify.error_norms"),
        "cli.self_s": wall - top,
        "trace.wall_s": wall,
    }


def check_outputs(workload, csv_path, tracer):
    """Correctness gate of one run; returns '' when it passes, else the reason.

    The error is held to the tolerance the workload asks for, not to the one
    the program passed on to gmres."""
    if not csv_path.exists():
        return "no CSV written"
    lines = csv_path.read_text().splitlines()
    if workload == "converge-trig":
        ref = (REFERENCE / "converge-trig.csv").read_text().splitlines()
        if len(lines) != len(ref) or lines[:2] != ref[:2]:
            return "CSV layout or config differs from the reference"
        for row, ref_row in zip(lines[2:], ref[2:]):
            for got, want in zip(map(float, row.split(",")), map(float, ref_row.split(","))):
                same = abs(got - want) <= CSV_RTOL * abs(want)
                if not (same or math.isnan(got) and math.isnan(want)):
                    return f"CSV value {got!r} differs from reference {want!r}"
        return ""
    if lines[-1].rsplit(",", 1)[-1] != "1":
        return "CSV reports converged=0"
    argv = WORKLOADS[workload]
    tol = float(argv[argv.index("--tol") + 1])
    for span in tracer.select("krylov.gmres"):
        c = span[4]
        if not c["err"] <= tol:
            return f"||x - x_ref|| = {c['err']:.3e} > tol {tol:g}"
        if not c["ref_residual"] <= RESIDUAL_TOL:
            return f"reference residual {c['ref_residual']:.3e} > {RESIDUAL_TOL:g}"
    return ""


def main(workload, seed, traced, outdir):
    sys.path.insert(0, str(ROOT / "src"))
    import hdgstokes

    if not Path(hdgstokes.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"hdgstokes imported from {hdgstokes.__file__}, "
                         f"not from this checkout")
    tracer = Tracer()
    cli = install_spans(tracer, traced)
    csv_path = outdir / "out.csv"
    argv = WORKLOADS[workload] + ["--out", str(csv_path)]
    if argv[0] == "precond":
        argv += ["--seed", str(seed)]

    t0 = time.perf_counter()
    rc = cli.main(argv)
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if rc != 0:
        raise SystemExit(f"hdgstokes {' '.join(argv)} exited with {rc}")

    fired = {s[0] for s in tracer.spans}
    coarse, hot = MUST_FIRE[workload]
    missing = [n for n in coarse + (hot if traced else ()) if n not in fired]
    if missing:
        raise SystemExit(f"spans that {workload} must fire fired zero times: {missing}")

    gmres = tracer.select("krylov.gmres")
    result = {
        "failure": check_outputs(workload, csv_path, tracer),
        "wall_s": wall,
        "setup_s": tracer.total(*SETUP_SPANS),
        "solve_s": tracer.total(*SOLVE_SPANS),
        "peak_rss_mb": rss_mb,
        # converge-trig runs no GMRES: each direct solve (one per level) counts one
        "iterations": sum(s[4]["iterations"] for s in gmres) if gmres
        else len(tracer.select("system.solve_direct")),
        "sizes": {
            "triangles": [s[4][0] for s in tracer.select("system.assemble")],
            "dofs": [s[4] for s in tracer.select("fem_space.build_dof_map")],
            "nnz": [s[4][1] for s in tracer.select("system.assemble")],
        },
    }
    if traced:
        result["layers"] = layer_metrics(tracer, wall)
    (outdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", Path(sys.argv[4]))
