"""One-level Schwarz preconditioners for the hybrid dG Stokes system.

Assembles one manufactured problem, computes a direct reference solution,
and runs GMRES preconditioned by RAS and by the modified RAS variants
whose local problems carry tangential-velocity/normal-flux or
normal-velocity/tangential-flux interface conditions. The stopping rule
mirrors the experiments the solver is built around: euclidean norm of the
error against the reference below a tolerance, from a seeded random
initial guess.

Run:  python demos/preconditioner_comparison.py  [--n 32 --overlap 1]
"""

import argparse

import numpy as np

from hdgstokes import build_decomposition, build_dof_map, build_mras, build_ras
from hdgstokes import catalogue, decompose, generate, gmres, solve_direct, system


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--case", default="bubble",
                    choices=["bubble", "poiseuille", "curl_trig"])
    ap.add_argument("--n", type=int, default=32)
    ap.add_argument("--overlap", type=int, default=1)
    ap.add_argument("--tol", type=float, default=1e-6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    exact = catalogue(args.case)
    T = generate("unit_square", args.n)
    dm = build_dof_map(T, exact.bc)
    sysm = system.assemble(T, dm, f=exact.f, g=exact.g)
    x_ref = solve_direct(sysm)
    rng = np.random.default_rng(args.seed)
    x0 = rng.standard_normal(dm.n_total)
    print(f"{args.case}: {T.n_triangles} triangles, {dm.n_total} dofs, "
          f"overlap l={args.overlap}")
    print(f"{'partition':>12} {'preconditioner':>15} {'iterations':>11}")

    for spec in ("uniform:2x2", "uniform:3x3"):
        parts = decompose(T, spec)
        dec = build_decomposition(T, dm, parts, args.overlap)
        for kind in ("ras", "mras-tvnf", "mras-nvtf"):
            if kind == "ras":
                pre = build_ras(sysm, dec)
            else:
                pre = build_mras(sysm, dec, kind.split("-")[1])
            _, rep = gmres(lambda v: sysm.A @ v, sysm.rhs, x0=x0,
                           apply_M=pre.apply, tol=args.tol, x_ref=x_ref,
                           max_iter=400)
            flag = "" if rep.converged else " (not converged)"
            print(f"{spec:>12} {kind:>15} {rep.iterations:>11}{flag}")


if __name__ == "__main__":
    main()
