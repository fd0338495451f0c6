"""SHA-256 digests of the program's outputs, compared bit for bit by
tests/test_golden.py.

Usage:
    python tests/golden/make_golden.py            # print the digests as JSON
    python tests/golden/make_golden.py --write    # rewrite golden.json

The script pins one BLAS thread (OPENBLAS, OMP and MKL) before it imports
numpy, so the digests never come from a multi-threaded BLAS.

Digested: the CSV, history, stdout, stderr and exit code of a fixed list
of CLI commands (n <= 16, run in-process); and at n = 8 the assembled
matrix and load of each manufactured case with eps = -1 and +1, its
reference solution, interpolant, error norms and energy-norm parts, the
element kernel's arrays, and every MRAS local matrix of bubble and
curl_trig on uniform:2x2 and bisect:3 with overlap 1 and 2 and both
interface kinds. A jittered n = 8 mesh adds the kernel, interpolants and
error norms on triangles of every shape, and each case's matrix, load,
reference solution, error norms and energy-norm parts there at eps = +1
with tau = 6 and at eps = -1 with tau = 20. At n = 16: the matrix, load and
reference solution of each case with eps = -1 and +1, and every MRAS local
matrix of bubble and curl_trig on uniform:4x4 (overlap 1 and 2, both
interface kinds). The mixed-kind system at n = 8 (curl_trig data, TVNF on
x = 0 and y = 0, NVTF on x = 1 and y = 1), with eps = -1 and +1: matrix,
load, reference solution, error norms, energy-norm parts and its
uniform:2x2 overlap-1 MRAS local matrices of both interface kinds. An
array's digest covers its dtype, shape and bytes; a sparse matrix's covers
indptr, indices and data.

The header records the Python, numpy and scipy versions: floating-point
bits may differ under others. A change that moves an output regenerates
the file with --write and says which digests moved and why.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden.json"
sys.path.insert(0, str(ROOT / "src"))

from hdgstokes import NVTF, TVNF, cli, schwarz, system, verify  # noqa: E402
from hdgstokes.fem_space import build_dof_map  # noqa: E402
from hdgstokes.local_assembly import ElementStack  # noqa: E402
from hdgstokes.mesh import Triangulation, generate  # noqa: E402

PREC = ["precond", "--case", "bubble", "--tol", "1e-6"]
COMMANDS = {
    "converge-trig": ["converge", "--case", "curl_trig", "--bc", "tvnf", "--eps", "-1",
                      "--tau", "6", "--n0", "4", "--levels", "3"],
    "precond-ras-4x4": PREC + ["--n", "16", "--parts", "uniform:4x4", "--overlap", "1",
                               "--precond", "ras", "--guess", "random"],
    "precond-mras-2x2": PREC + ["--n", "16", "--parts", "uniform:2x2", "--overlap", "1",
                                "--precond", "mras-tvnf", "--guess", "random"],
    "converge-bubble-eps1": ["converge", "--case", "bubble", "--eps", "1", "--n0", "4",
                             "--levels", "3"],
    "converge-poiseuille": ["converge", "--case", "poiseuille", "--n0", "4", "--levels", "3"],
    "precond-trig-3x3-nvtf": ["precond", "--case", "curl_trig", "--n", "12", "--parts",
                              "uniform:3x3", "--precond", "mras-nvtf"],
    "precond-bisect7-l2": PREC + ["--n", "16", "--parts", "bisect:7", "--overlap", "2",
                                  "--precond", "mras-nvtf"],
    "precond-none": PREC + ["--n", "8", "--precond", "none"],
    "precond-zero-guess": PREC + ["--n", "8", "--guess", "zero", "--precond", "mras-tvnf"],
    "solve-poiseuille": ["solve", "--case", "poiseuille", "--n", "4"],
    "info": ["info", "--n", "16"],
    "usage-error": PREC + ["--n", "4", "--parts", "foo:1"],
    "numerical-failure": ["converge", "--case", "curl_trig", "--nu", "1e-300", "--n0", "2",
                          "--levels", "1"],
}
CASES = ("curl_trig", "bubble", "poiseuille")


def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def sha_csr(A):
    return sha(A.indptr, A.indices, A.data)


def sha_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digests(out):
    """Each command's exit code, stdout, stderr and --out files (the CSV
    comment leaves out the --out path, so a scratch directory serves)."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in COMMANDS.items():
            csv = Path(tmp) / f"{name}.csv"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv if argv[0] == "info" else argv + ["--out", str(csv)])
            out[f"cli/{name}/exit"] = str(rc)
            out[f"cli/{name}/stdout"] = sha_text(stdout.getvalue())
            out[f"cli/{name}/stderr"] = sha_text(stderr.getvalue())
            for suffix in ("", ".history.csv"):
                f = Path(f"{csv}{suffix}")
                if f.exists():
                    out[f"cli/{name}/out.csv{suffix}"] = sha_text(f.read_text())


def field_digests(out, tag, T, dm, x, exact, tau=6.0):
    out[f"{tag}/error_norms"] = sha(np.array(list(vars(verify.error_norms(T, dm, x, exact, tau))
                                                  .values())))
    out[f"{tag}/energy_parts"] = sha(np.array(verify.energy_norm(T, dm, x, tau=tau, parts=True)))


def system_digests(out, tag, T, kinds, exact, eps, tau=6.0):
    """Digests of the system's matrix, load and reference solution; returns
    the system and the solution."""
    dm = build_dof_map(T, kinds)
    sysm = system.assemble(T, dm, nu=1.0, tau=tau, eps=eps, f=exact.f, g=exact.g)
    x = system.solve_direct(sysm)
    out[f"{tag}/A"] = sha_csr(sysm.A)
    out[f"{tag}/rhs"] = sha(sysm.rhs)
    out[f"{tag}/x"] = sha(x)
    return sysm, x


def mras_digests(out, tag, sysm, specs, overlaps):
    """Every MRAS local matrix of sysm, both interface kinds."""
    T = sysm.mesh
    for spec in specs:
        parts = schwarz.decompose(T, spec)
        for l in overlaps:
            dec = schwarz.build_decomposition(T, sysm.dofmap, parts, l)
            for ic in ("tvnf", "nvtf"):
                for i in range(dec.n_parts):
                    out[f"{tag}/{spec}/l{l}/{ic}/{i}"] = \
                        sha_csr(schwarz.mras_local_matrix(sysm, dec, i, ic))


def array_digests(out):
    T = generate("unit_square", 8)
    rng = np.random.default_rng(0)
    inner = ~np.isclose(T.vertices, 0) & ~np.isclose(T.vertices, 1)
    jittered = Triangulation(T.vertices + inner * rng.uniform(-0.02, 0.02, T.vertices.shape),
                             T.triangles)
    for mesh_name, M in (("square8", T), ("jittered8", jittered)):
        ker = ElementStack(M)
        out[f"kernel/{mesh_name}"] = sha(ker.coeffs, ker.grads, ker.divs)
        for case in CASES:
            exact = verify.catalogue(case)
            dm = build_dof_map(M, exact.bc)
            xI = verify.interpolate(M, dm, exact)
            out[f"interpolant/{mesh_name}/{case}"] = sha(xI)
            field_digests(out, f"interpolant/{mesh_name}/{case}", M, dm, xI, exact)

    # the symmetric form needs tau above the mesh's largest element bound, 10.98 here
    for case in CASES:
        exact = verify.catalogue(case)
        for eps, tau in ((1, 6.0), (-1, 20.0)):
            tag = f"jittered8/system/{case}/eps{eps:+d}/tau{tau:g}"
            sysm, x = system_digests(out, tag, jittered, exact.bc, exact, eps, tau)
            field_digests(out, tag, jittered, sysm.dofmap, x, exact, tau)

    for case in CASES:
        exact = verify.catalogue(case)
        for eps in (-1, 1):
            tag = f"system/{case}/eps{eps:+d}"
            sysm, x = system_digests(out, tag, T, exact.bc, exact, eps)
            field_digests(out, tag, T, sysm.dofmap, x, exact)
            if case != "poiseuille" and eps == -1:
                mras_digests(out, f"mras/{case}", sysm, ("uniform:2x2", "bisect:3"), (1, 2))

    T16 = generate("unit_square", 16)
    for case in CASES:
        exact = verify.catalogue(case)
        for eps in (-1, 1):
            sysm, _ = system_digests(out, f"n16/system/{case}/eps{eps:+d}", T16, exact.bc,
                                     exact, eps)
            if case != "poiseuille" and eps == -1:
                mras_digests(out, f"n16/mras/{case}", sysm, ("uniform:4x4",), (1, 2))

    # TVNF on the sides x = 0 and y = 0, NVTF on x = 1 and y = 1
    exact = verify.catalogue("curl_trig")
    mid = T.vertices[T.edges[T.boundary_edge]].mean(axis=1)
    kinds = np.where(np.isclose(mid, 0).any(axis=1), TVNF, NVTF)
    for eps in (-1, 1):
        tag = f"mixed/eps{eps:+d}"
        sysm, x = system_digests(out, tag, T, kinds, exact, eps)
        field_digests(out, tag, T, sysm.dofmap, x, exact)
        mras_digests(out, f"{tag}/mras", sysm, ("uniform:2x2",), (1,))

    errs = [1.0, 0.5, 0.0, 0.1, 0.05, 0.05, 1e-300]
    out["eoc"] = sha(verify.eoc(errs, 0.5 ** np.arange(len(errs))))


def main():
    digests = {}
    cli_digests(digests)
    array_digests(digests)
    result = {"versions": {"python": platform.python_version(), "numpy": np.__version__,
                           "scipy": scipy.__version__},
              "digests": dict(sorted(digests.items()))}
    text = json.dumps(result, indent=1) + "\n"
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
