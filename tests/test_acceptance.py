"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; the whole suite takes a few minutes (criteria 2/3 solve four
convergence sequences up to n = 64, criterion 8 runs six preconditioned
GMRES solves at n = 64).
"""

import time

import numpy as np
import pytest

from hdgstokes import (NVTF, TVNF, build_decomposition, build_dof_map, build_mras,
                       build_ras, catalogue, decompose, energy_norm, eoc,
                       error_norms, generate, gmres, interpolate, refine_uniform,
                       solve_direct)
from hdgstokes import system as system_mod
from hdgstokes.cli import main as cli_main


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def convergence_runs():
    """bubble/NVTF and curl_trig/TVNF, eps = +-1, tau = 6, n = 8,16,32,64."""
    out = {}
    for case in ("bubble", "curl_trig"):
        exact = catalogue(case)
        for eps in (-1, 1):
            T = generate("unit_square", 8)
            reports, vel = [], []
            for _ in range(4):
                dm = build_dof_map(T, exact.bc)
                sysm = system_mod.assemble(T, dm, nu=exact.nu, tau=6.0, eps=eps,
                                           f=exact.f, g=exact.g)
                x = solve_direct(sysm)
                reports.append(error_norms(T, dm, x, exact, tau=6.0))
                vel.append(float(np.linalg.norm(x[:2 * dm.n_edges])))
                T = refine_uniform(T)
            out[(case, eps)] = (reports, vel)
    return out


def test_criterion_1_dof_count_reproduction(capsys):
    t0 = time.perf_counter()
    rc = cli_main(["info", "--domain", "unit_square", "--n", "250"])
    dt = time.perf_counter() - t0
    line = capsys.readouterr().out.strip()
    ok = (rc == 0 and dt < 5.0
          and line == "triangles=125000 edges=188000 dofs=689000")
    with capsys.disabled():
        assert report(1, ok, f"info: '{line}' in {dt:.2f}s (< 5s)")


def test_criterion_2_energy_norm_convergence(convergence_runs):
    details, ok = [], True
    for (case, eps), (reports, _) in convergence_runs.items():
        hs = [r.h for r in reports]
        slope = eoc([r.err_h for r in reports], hs)[-1]
        good = 0.85 <= slope <= 1.15
        ok &= good
        details.append(f"{case}/eps={eps:+d}: {slope:.3f}{'' if good else ' (out)'}")
    assert report(2, ok, "final EOC of the h-norm in [0.85, 1.15]: " + ", ".join(details))


def test_criterion_3_l2_velocity_rate(convergence_runs):
    details, ok = [], True
    for (case, eps), (reports, _) in convergence_runs.items():
        hs = [r.h for r in reports]
        slope = eoc([r.err_l2_u for r in reports], hs)[-1]
        good = 1.7 <= slope <= 2.3
        ok &= good
        details.append(f"{case}/eps={eps:+d}: {slope:.3f}{'' if good else ' (out)'}")
    assert report(3, ok, "final EOC of ||u - u_h|| in [1.7, 2.3]: " + ", ".join(details))


def _linear_case(bc, pressure):
    from hdgstokes.verify import ExactSolution

    def u(x, y):
        return np.stack([np.asarray(y, float), np.asarray(x, float)], axis=-1)

    def grad_u(x, y):
        z = np.zeros_like(np.asarray(x, float))
        o = z + 1
        return np.stack([np.stack([z, o], axis=-1),
                         np.stack([o, z], axis=-1)], axis=-2)

    def zvec(x, y):
        z = np.zeros_like(np.asarray(x, float))
        return np.stack([z, z], axis=-1)

    return ExactSolution(name="linear", bc=bc, nu=1.0, u=u, grad_u=grad_u,
                         p=lambda x, y: np.full_like(np.asarray(x, float), pressure),
                         lap_u=zvec, grad_p=zvec)


def test_criterion_4_polynomial_exactness():
    details, ok = [], True
    for bc, pressure in ((TVNF, 1.0), (NVTF, 0.0)):
        ex = _linear_case(bc, pressure)
        T = generate("unit_square", 4)
        dm = build_dof_map(T, bc)
        vals = interpolate(T, dm, ex)[dm.constrained]
        sysm = system_mod.assemble(T, dm, nu=1.0, tau=6.0, eps=-1,
                                   f=ex.f, g=ex.g, constrained_values=vals)
        x = solve_direct(sysm)
        xI = interpolate(T, dm, ex)
        scale = np.linalg.norm(xI)
        rep = error_norms(T, dm, x, ex)
        rel = max(np.linalg.norm(x - xI) / scale, rep.err_energy / scale,
                  rep.err_l2_u / scale, rep.err_l2_p / scale)
        good = rel <= 1e-9
        ok &= good
        details.append(f"{bc}: rel err {rel:.2e}")
    assert report(4, ok, "linear divergence-free solution reproduced: " + ", ".join(details))


def test_criterion_5_divergence_free(convergence_runs):
    worst = 0.0
    for (case, eps), (reports, vel) in convergence_runs.items():
        for rep, vnorm in zip(reports, vel):
            worst = max(worst, rep.max_div / (1e-10 * vnorm))
    ok = worst <= 1.0
    assert report(5, ok, f"max_K |div u_h| <= 1e-10 ||u_h||: worst ratio {worst:.3f}")


def test_criterion_6_partition_of_unity_identity():
    T = generate("unit_square", 16)
    worst = 0.0
    for bc in (TVNF, NVTF):
        dm = build_dof_map(T, bc)
        for spec in ("uniform:2x2", "uniform:3x3", "bisect:5"):
            parts = decompose(T, spec)
            for l in (1, 2):
                dec = build_decomposition(T, dm, parts, l)
                acc = np.zeros(dm.n_total)
                for dofs, w in zip(dec.dofs, dec.weights):
                    acc[dofs] += w
                worst = max(worst, np.abs(acc - 1.0).max())
    ok = worst <= 1e-12
    assert report(6, ok, f"sum R^T D R = Id entrywise: worst deviation {worst:.2e}")


def test_criterion_7_preconditioner_sanity():
    # N = 1 is an exact inverse
    exact = catalogue("bubble")
    T = generate("unit_square", 8)
    dm = build_dof_map(T, exact.bc)
    sysm = system_mod.assemble(T, dm, f=exact.f, g=exact.g)
    x_ref = solve_direct(sysm)
    dec1 = build_decomposition(T, dm, np.zeros(dm.n_tris, dtype=int), 1)
    pre1 = build_ras(sysm, dec1)
    _, rep1 = gmres(lambda v: sysm.A @ v, sysm.rhs, apply_M=pre1.apply,
                    tol=1e-6, x_ref=x_ref, max_iter=10)

    # RAS beats unpreconditioned GMRES at n = 32, same seed
    T = generate("unit_square", 32)
    dm = build_dof_map(T, exact.bc)
    sysm = system_mod.assemble(T, dm, f=exact.f, g=exact.g)
    x_ref = solve_direct(sysm)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(dm.n_total)
    dec = build_decomposition(T, dm, decompose(T, "uniform:2x2"), 1)
    pre = build_ras(sysm, dec)
    _, rep_ras = gmres(lambda v: sysm.A @ v, sysm.rhs, x0=x0, apply_M=pre.apply,
                       tol=1e-6, x_ref=x_ref, max_iter=600)
    _, rep_raw = gmres(lambda v: sysm.A @ v, sysm.rhs, x0=x0,
                       tol=1e-6, x_ref=x_ref, max_iter=600)
    ok = (rep1.iterations <= 2 and rep_ras.converged
          and rep_ras.iterations < rep_raw.iterations)
    assert report(7, ok, f"N=1: {rep1.iterations} its (<= 2); n=32 RAS "
                  f"{rep_ras.iterations} < unpreconditioned {rep_raw.iterations}"
                  f"{'' if rep_raw.converged else ' (cap)'}")


def test_criterion_8_mras_superiority_trend():
    exact = catalogue("bubble")
    T = generate("unit_square", 64)
    dm = build_dof_map(T, exact.bc)
    sysm = system_mod.assemble(T, dm, f=exact.f, g=exact.g)
    x_ref = solve_direct(sysm)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(dm.n_total)
    counts = {}
    for spec in ("uniform:2x2", "uniform:3x3"):
        dec = build_decomposition(T, dm, decompose(T, spec), 1)
        for kind in ("ras", "mras-tvnf", "mras-nvtf"):
            if kind == "ras":
                pre = build_ras(sysm, dec)
            else:
                pre = build_mras(sysm, dec, kind.split("-")[1])
            _, rep = gmres(lambda v: sysm.A @ v, sysm.rhs, x0=x0,
                           apply_M=pre.apply, tol=1e-6, x_ref=x_ref, max_iter=400)
            counts[(spec, kind)] = rep.iterations
    ineq = all(counts[(s, f"mras-{ic}")] <= counts[(s, "ras")]
               for s in ("uniform:2x2", "uniform:3x3") for ic in ("tvnf", "nvtf"))
    trend = all(counts[("uniform:3x3", k)] >= counts[("uniform:2x2", k)] - 5
                for k in ("ras", "mras-tvnf", "mras-nvtf"))
    detail = "; ".join(f"{s.split(':')[1]}: ras={counts[(s, 'ras')]}, "
                       f"tvnf={counts[(s, 'mras-tvnf')]}, nvtf={counts[(s, 'mras-nvtf')]}"
                       for s in ("uniform:2x2", "uniform:3x3"))
    ok = ineq and trend
    assert report(8, ok, f"l=1, seed 0: {detail}; "
                  f"inequalities {'hold' if ineq else 'violated'}, "
                  f"N-trend {'holds' if trend else 'violated'}")


def test_criterion_9_property_suites():
    checks = []

    # eps = -1 global symmetry
    exact = catalogue("bubble")
    T = generate("unit_square", 8)
    dm = build_dof_map(T, exact.bc)
    sysm = system_mod.assemble(T, dm, eps=-1, f=exact.f, g=exact.g)
    D = (sysm.A - sysm.A.T).tocoo()
    sym = (np.abs(D.data).max() if D.nnz else 0.0) / np.abs(sysm.A.data).max()
    checks.append(("symmetry", sym <= 1e-12, f"{sym:.1e}"))

    # a(v,v) identity for eps = +1 on 100 random fields
    T = generate("unit_square", 4)
    dm = build_dof_map(T, TVNF)
    sysm = system_mod.assemble(T, dm, eps=1, tau=6.0)
    rng = np.random.default_rng(5)
    worst = 0.0
    nv = 3 * dm.n_edges
    for _ in range(100):
        v = np.zeros(dm.n_total)
        v[:nv] = rng.standard_normal(nv)
        v[dm.constrained] = 0.0
        q = v @ (sysm.A @ v)
        h1, _, stab = energy_norm(T, dm, v, nu=1.0, tau=6.0, parts=True)
        ref = h1 + stab
        worst = max(worst, abs(q - ref) / ref)
    checks.append(("a(v,v) identity", worst <= 1e-10, f"{worst:.1e}"))

    # |||.||| positivity on 100 random constrained nonzero fields
    pos = True
    for _ in range(100):
        v = np.zeros(dm.n_total)
        v[:nv] = rng.standard_normal(nv)
        v[dm.constrained] = 0.0
        pos &= energy_norm(T, dm, v) > 0
    checks.append(("norm positivity", pos, "100 fields"))

    # Arnoldi orthogonality
    n = 150
    M = rng.uniform(-1, 1, size=(n, n)) + np.diag(2.0 * np.ones(n))
    b = rng.standard_normal(n)
    _, rep = gmres(lambda v: M @ v, b, tol=1e-13, x_ref=np.linalg.solve(M, b), max_iter=140)
    G = rep.basis.T @ rep.basis
    orth = np.abs(G - np.eye(G.shape[0])).max()
    checks.append(("Arnoldi orthogonality", orth <= 1e-10, f"{orth:.1e}"))

    # Euler relation on all generated meshes
    euler = True
    meshes = [generate("unit_square", n) for n in (1, 2, 7, 16)]
    meshes += [generate("t_shape", n) for n in (2, 4)]
    meshes += [refine_uniform(m) for m in meshes[:3]]
    for m in meshes:
        euler &= 2 * m.n_edges == 3 * m.n_triangles + int(m.boundary_edge.sum())
    checks.append(("Euler relation", euler, f"{len(meshes)} meshes"))

    ok = all(c[1] for c in checks)
    assert report(9, ok, "; ".join(f"{name} {'ok' if good else 'FAIL'} ({d})"
                                   for name, good, d in checks))
