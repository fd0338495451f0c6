import numpy as np
import pytest

from hdgstokes import build_dof_map, generate, refine_uniform
from hdgstokes import system, verify
from hdgstokes.fem_space import element_dofs
from hdgstokes.local_assembly import ElementStack


CASES = ["curl_trig", "bubble", "poiseuille"]


def fd_grad(u, x, y, h=1e-5):
    g = np.empty((2, 2))
    g[:, 0] = (np.asarray(u(x + h, y)) - np.asarray(u(x - h, y))) / (2 * h)
    g[:, 1] = (np.asarray(u(x, y + h)) - np.asarray(u(x, y - h))) / (2 * h)
    return g


@pytest.mark.parametrize("name", CASES)
def test_gradient_matches_finite_differences(name):
    ex = verify.catalogue(name)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y = rng.uniform(0.05, 0.95, 2)
        assert np.abs(fd_grad(ex.u, x, y) - ex.grad_u(x, y)).max() < 1e-6


def test_curl_trig_gradient_at_center():
    ex = verify.catalogue("curl_trig")
    assert np.abs(fd_grad(ex.u, 0.5, 0.5) - ex.grad_u(0.5, 0.5)).max() < 1e-6


@pytest.mark.parametrize("name", CASES)
def test_laplacian_matches_finite_differences(name):
    ex = verify.catalogue(name)
    rng = np.random.default_rng(1)
    h = 1e-4
    for _ in range(10):
        x, y = rng.uniform(0.1, 0.9, 2)
        lap = ((np.asarray(ex.u(x + h, y)) + np.asarray(ex.u(x - h, y))
                + np.asarray(ex.u(x, y + h)) + np.asarray(ex.u(x, y - h))
                - 4 * np.asarray(ex.u(x, y))) / h ** 2)
        assert np.abs(lap - ex.lap_u(x, y)).max() < 1e-4 * max(1, np.abs(lap).max())


@pytest.mark.parametrize("name", CASES)
def test_divergence_free(name):
    ex = verify.catalogue(name)
    rng = np.random.default_rng(2)
    for _ in range(100):
        x, y = rng.uniform(0, 1, 2)
        g = np.asarray(ex.grad_u(x, y))
        assert abs(g[0, 0] + g[1, 1]) <= 1e-10


@pytest.mark.parametrize("name", CASES)
def test_momentum_balance(name):
    # f = -nu lap(u) + grad(p), cross-checked with finite differences of p
    ex = verify.catalogue(name)
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(10):
        x, y = rng.uniform(0.1, 0.9, 2)
        gp = np.array([(ex.p(x + h, y) - ex.p(x - h, y)) / (2 * h),
                       (ex.p(x, y + h) - ex.p(x, y - h)) / (2 * h)])
        f = -ex.nu * np.asarray(ex.lap_u(x, y)) + gp
        assert np.abs(f - ex.f(x, y)).max() < 1e-6 * max(1.0, np.abs(f).max())


def test_boundary_compatibility():
    rng = np.random.default_rng(4)
    s = rng.uniform(0, 1, 50)
    sides = [(s, np.zeros_like(s), [0, -1]), (s, np.ones_like(s), [0, 1]),
             (np.zeros_like(s), s, [-1, 0]), (np.ones_like(s), s, [1, 0])]
    bubble = verify.catalogue("bubble")
    poise = verify.catalogue("poiseuille")
    trig = verify.catalogue("curl_trig")
    for x, y, n in sides:
        n = np.asarray(n, dtype=float)
        t = np.array([-n[1], n[0]])
        assert np.abs(np.asarray(bubble.u(x, y)) @ n).max() < 1e-12   # u_n = 0
        assert np.abs(np.asarray(poise.u(x, y)) @ t).max() < 1e-12    # u_t = 0
        assert np.abs(np.asarray(trig.u(x, y))).max() < 1e-12         # u = 0


def test_g_matches_stress_finite_differences():
    for name in CASES:
        ex = verify.catalogue(name)
        rng = np.random.default_rng(5)
        h = 1e-6
        for _ in range(5):
            x, y = rng.uniform(0.1, 0.9, 2)
            th = rng.uniform(0, 2 * np.pi)
            n = np.array([np.cos(th), np.sin(th)])
            ref = (ex.nu * fd_grad(ex.u, x, y, h) - ex.p(x, y) * np.eye(2)) @ n
            assert np.abs(ex.g(x, y, n) - ref).max() < 1e-5 * max(1.0, np.abs(ref).max())


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        verify.catalogue("taylor_green")


# --- norms -------------------------------------------------------------------

def test_energy_norm_positivity_and_zero():
    T = generate("unit_square", 4)
    dm = build_dof_map(T, "tvnf")
    rng = np.random.default_rng(6)
    nv = 3 * dm.n_edges
    for _ in range(100):
        v = np.zeros(dm.n_total)
        v[:nv] = rng.standard_normal(nv)
        v[dm.constrained] = 0.0
        assert verify.energy_norm(T, dm, v) > 0
    assert verify.energy_norm(T, dm, np.zeros(dm.n_total)) == 0.0


def test_energy_norm_homogeneous():
    T = generate("unit_square", 4)
    dm = build_dof_map(T, "tvnf")
    rng = np.random.default_rng(7)
    v = np.zeros(dm.n_total)
    v[:3 * dm.n_edges] = rng.standard_normal(3 * dm.n_edges)
    n1 = verify.energy_norm(T, dm, v)
    for alpha in (-3.0, 0.5, 7.25):
        assert abs(verify.energy_norm(T, dm, alpha * v) - abs(alpha) * n1) <= 1e-12 * n1


MESHES = {"square2": lambda: generate("unit_square", 2),
          "square8": lambda: generate("unit_square", 8),
          "t_shape_refined": lambda: refine_uniform(generate("t_shape", 2))}


@pytest.mark.parametrize("mesh", sorted(MESHES))
@pytest.mark.parametrize("bc", ["tvnf", "nvtf"])
def test_energy_norm_parts_match_closed_form(mesh, bc):
    # the gradient is constant on K and the trace linear on E, so with no
    # quadrature: h1 = sum |K| |grad v_K|^2, edge = sum h_K |E| |grad v_K n_E|^2
    # and stab = sum (tau/h_K) |E| (vtilde_E - v_K(mid_E) . t_E)^2
    T = MESHES[mesh]()
    dm = build_dof_map(T, bc)
    x = np.random.default_rng(9).standard_normal(dm.n_total)
    gdofs, _ = element_dofs(dm, T.tri_edges)
    vd, mult = x[gdofs[:, :6]], x[gdofs[:, 6:]]
    ker = ElementStack(T)
    G = ker.field_grad(vd)                                           # (nt, 2, 2)
    e = T.tri_edges
    L = T.edge_len[e]
    v_mid = ker.eval_field(vd, T.vertices[T.edges[e]].mean(axis=2))  # (nt, 3, 2)
    h1 = (T.areas * (G ** 2).sum(axis=(1, 2))).sum()
    Gn = np.einsum("tij,tkj->tki", G, T.edge_n[e])
    edge = (T.h_K * (L * (Gn ** 2).sum(axis=2)).sum(axis=1)).sum()
    jump = mult - np.einsum("tkc,tkc->tk", v_mid, T.edge_t[e])
    stab = (6.0 / T.h_K * (L * jump ** 2).sum(axis=1)).sum()
    got = verify.energy_norm(T, dm, x, parts=True)
    for g, want in zip(got, (h1, edge, stab)):
        assert abs(g - want) <= 1e-13 * want


def test_continuity_constant_bounded_across_refinement():
    # |a(w, v)| <= C |||w||| |||v|||, C recorded on two meshes
    T = generate("unit_square", 4)
    consts = []
    for _ in range(2):
        dm = build_dof_map(T, "tvnf")
        sysm = system.assemble(T, dm, eps=-1)
        rng = np.random.default_rng(8)
        nv = 3 * dm.n_edges
        C = 0.0
        for _ in range(50):
            w, v = np.zeros(dm.n_total), np.zeros(dm.n_total)
            w[:nv] = rng.standard_normal(nv)
            v[:nv] = rng.standard_normal(nv)
            w[dm.constrained] = v[dm.constrained] = 0.0
            val = abs(w @ (sysm.A @ v))
            C = max(C, val / (verify.energy_norm(T, dm, w) * verify.energy_norm(T, dm, v)))
        consts.append(C)
        T = refine_uniform(T)
    assert consts[1] <= 1.2 * consts[0]


def test_error_norms_zero_solution_positive():
    ex = verify.catalogue("bubble")
    T = generate("unit_square", 4)
    dm = build_dof_map(T, ex.bc)
    rep = verify.error_norms(T, dm, np.zeros(dm.n_total), ex)
    assert rep.err_energy > 0
    assert rep.err_l2_u > 0
    assert rep.err_h > rep.err_energy  # pressure term adds on


def test_bubble_energy_error_halves_under_refinement():
    ex = verify.catalogue("bubble")
    errs = []
    T = generate("unit_square", 8)
    for _ in range(2):
        dm = build_dof_map(T, ex.bc)
        sysm = system.assemble(T, dm, f=ex.f, g=ex.g)
        x = system.solve_direct(sysm)
        errs.append(verify.error_norms(T, dm, x, ex).err_energy)
        T = refine_uniform(T)
    assert 1.7 <= errs[0] / errs[1] <= 2.3


# --- eoc ----------------------------------------------------------------------

def test_eoc_slopes():
    assert np.isclose(verify.eoc([0.1, 0.05], [1.0, 0.5])[1], 1.0)
    assert np.isclose(verify.eoc([0.04, 0.01], [1.0, 0.5])[1], 2.0)
    assert np.isclose(verify.eoc([0.3, 0.3], [1.0, 0.5])[1], 0.0)
    assert np.isnan(verify.eoc([0.1, 0.0], [1.0, 0.5])[1])
    assert np.isnan(verify.eoc([0.1, 0.05], [1.0, 0.5])[0])


def test_velocity_at_reproduces_linear_interpolant():
    # BDM1 contains the linear fields, so the interpolant of u = (1 + 2x - y, 3y - x)
    # evaluates back to u at any point of any triangle
    from types import SimpleNamespace

    u = lambda x, y: np.stack([1 + 2 * x - y, 3 * y - x], axis=-1)
    ex = SimpleNamespace(u=u, p=lambda x, y: np.zeros_like(x))
    T = generate("unit_square", 5)
    dm = build_dof_map(T, "tvnf")
    bary = np.random.default_rng(6).dirichlet(np.ones(3), size=4)
    pts = np.einsum("qb,tbc->tqc", bary, T.vertices[T.triangles])
    vals = verify.velocity_at(T, dm, verify.interpolate(T, dm, ex), pts)
    assert np.abs(vals - u(pts[..., 0], pts[..., 1])).max() < 1e-12
