"""Convergence of the hybrid dG Stokes discretisation on manufactured solutions.

Solves the three catalogue cases on a sequence of uniformly refined meshes
and tabulates the mesh-dependent energy error (plus the scaled pressure
term), the L2 velocity error, and the estimated orders between levels.
The energy order tends to 1 (lowest-order elements), the observed L2
velocity order to 2.

Run:  python demos/convergence_study.py  [--n0 4 --levels 3]
"""

import argparse

from hdgstokes import build_dof_map, eoc, error_norms, generate, refine_uniform
from hdgstokes import catalogue, solve_direct, system


def study(case, eps, n0, levels):
    exact = catalogue(case)
    T = generate("unit_square", n0)
    reports = []
    for level in range(levels):
        if level:
            T = refine_uniform(T)
        dm = build_dof_map(T, exact.bc)
        sysm = system.assemble(T, dm, nu=exact.nu, tau=6.0, eps=eps,
                               f=exact.f, g=exact.g)
        x = solve_direct(sysm)
        reports.append(error_norms(T, dm, x, exact))
    return reports


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n0", type=int, default=4)
    ap.add_argument("--levels", type=int, default=3)
    args = ap.parse_args()

    for case in ("poiseuille", "bubble", "curl_trig"):
        for eps in (-1, 1):
            reports = study(case, eps, args.n0, args.levels)
            hs = [r.h for r in reports]
            e_h = eoc([r.err_h for r in reports], hs)
            e_u = eoc([r.err_l2_u for r in reports], hs)
            print(f"\n{case} (eps = {eps:+d})")
            print(f"{'h':>10} {'err_h':>12} {'order':>7} {'err_l2_u':>12} {'order':>7}")
            for r, a, b in zip(reports, e_h, e_u):
                sa = f"{a:7.3f}" if a == a else "      -"
                sb = f"{b:7.3f}" if b == b else "      -"
                print(f"{r.h:10.4f} {r.err_h:12.4e} {sa} {r.err_l2_u:12.4e} {sb}")


if __name__ == "__main__":
    main()
