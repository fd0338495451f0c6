"""SHA-256 digests of the program's outputs, compared bit for bit by
tests/test_golden.py.

Usage:
    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python tests/golden/make_golden.py            # print the digests as JSON
    ... python tests/golden/make_golden.py --write    # rewrite golden.json

Digested: the CSV, history, stdout, stderr and exit code of a fixed list
of CLI commands (n <= 16, run in-process); and at n = 8 the assembled
matrix and load of each manufactured case with eps = -1 and +1, its
reference solution, interpolant, error norms and energy-norm parts, the
element kernel's arrays, and every MRAS local matrix of bubble and
curl_trig on uniform:2x2 and bisect:3 with overlap 1 and 2 and both
interface kinds. A jittered n = 8 mesh adds the kernel, interpolants and
error norms on triangles of every shape. An array's digest covers its
dtype, shape and bytes; a sparse matrix's covers indptr, indices and data.

The header records the Python, numpy and scipy versions: floating-point
bits may differ under others. A change that moves an output regenerates
the file with --write and says which digests moved and why.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).resolve().parent / "golden.json"
sys.path.insert(0, str(ROOT / "src"))

from hdgstokes import cli, schwarz, system, verify  # noqa: E402
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


def field_digests(out, tag, T, dm, x, exact):
    out[f"{tag}/error_norms"] = sha(np.array(list(vars(verify.error_norms(T, dm, x, exact))
                                                  .values())))
    out[f"{tag}/energy_parts"] = sha(np.array(verify.energy_norm(T, dm, x, parts=True)))


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

    for case in CASES:
        exact = verify.catalogue(case)
        dm = build_dof_map(T, exact.bc)
        for eps in (-1, 1):
            sysm = system.assemble(T, dm, nu=1.0, tau=6.0, eps=eps, f=exact.f, g=exact.g)
            x = system.solve_direct(sysm)
            tag = f"system/{case}/eps{eps:+d}"
            out[f"{tag}/A"] = sha_csr(sysm.A)
            out[f"{tag}/rhs"] = sha(sysm.rhs)
            out[f"{tag}/x"] = sha(x)
            field_digests(out, tag, T, dm, x, exact)
            if case == "poiseuille" or eps == 1:
                continue
            for spec in ("uniform:2x2", "bisect:3"):
                parts = schwarz.decompose(T, spec)
                for l in (1, 2):
                    dec = schwarz.build_decomposition(T, dm, parts, l)
                    for ic in ("tvnf", "nvtf"):
                        for i in range(dec.n_parts):
                            out[f"mras/{case}/{spec}/l{l}/{ic}/{i}"] = \
                                sha_csr(schwarz.mras_local_matrix(sysm, dec, i, ic))

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
