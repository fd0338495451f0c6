import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hdgstokes import NVTF, TVNF, build_dof_map, generate, refine_uniform
from hdgstokes import system, verify
from hdgstokes.fem_space import dissection_order, edge_dofs
from hdgstokes.krylov import Factorization, FactorizationError
from hdgstokes.local_assembly import ElementStack, edge_load, local_a, local_b, local_load
from hdgstokes.verify import ExactSolution
from meshes import jittered_square


def linear_exact(bc, pressure):
    """u = (y, x), p = const: divergence-free, f = 0, in the discrete space."""

    def u(x, y):
        return np.stack([np.asarray(y, float), np.asarray(x, float)], axis=-1)

    def grad_u(x, y):
        z = np.zeros_like(np.asarray(x, float))
        o = z + 1
        return np.stack([np.stack([z, o], axis=-1),
                         np.stack([o, z], axis=-1)], axis=-2)

    def zero_vec(x, y):
        z = np.zeros_like(np.asarray(x, float))
        return np.stack([z, z], axis=-1)

    return ExactSolution(name="linear", bc=bc, nu=1.0, u=u, grad_u=grad_u,
                         p=lambda x, y: np.full_like(np.asarray(x, float), pressure),
                         lap_u=zero_vec, grad_p=zero_vec)


# TVNF on the sides x = 0 and y = 0, NVTF on x = 1 and y = 1: each velocity
# component is fixed on one side of each kind (TVNF on x = 0, 1 and NVTF on
# y = 0, 1 would fix u_y only and leave u = (1, 0) in the kernel)
MIXED = "mixed"


def boundary_kinds(T, bc):
    """bc, or for MIXED the kind of each boundary edge by the side it lies on."""
    if bc != MIXED:
        return bc
    mid = T.vertices[T.edges[T.boundary_edge]].mean(axis=1)
    return np.where(np.isclose(mid, 0).any(axis=1), TVNF, NVTF)


def solve_case(exact, n, eps=-1, lifted=False, amp=0.0):
    """The solve on the unit square at n, its interior vertices jittered by up
    to amp/n (seed 1) if amp is given."""
    T = jittered_square(n, 1, amp) if amp else generate("unit_square", n)
    dm = build_dof_map(T, boundary_kinds(T, exact.bc))
    vals = verify.interpolate(T, dm, exact)[dm.constrained] if lifted else None
    sysm = system.assemble(T, dm, nu=exact.nu, tau=6.0, eps=eps,
                           f=exact.f, g=exact.g, constrained_values=vals)
    return T, dm, sysm, system.solve_direct(sysm)


def test_zero_data_gives_zero_solution():
    T = generate("unit_square", 1)
    dm = build_dof_map(T, TVNF)
    sysm = system.assemble(T, dm)
    x = system.solve_direct(sysm)
    assert np.abs(x).max() < 1e-14


# the patch tests also run on 10% and 30% jittered meshes (seed 1); their
# bounds there are about 10x the worst value measured
JITTERED = [(n, amp) for n in (8, 16) for amp in (0.1, 0.3)]


def mesh_inputs(ns, rtol, rtol_jittered):
    """(n, amp, rtol) of the structured meshes at ns, with n alone as id, then
    of the JITTERED meshes."""
    return ([pytest.param(n, 0.0, rtol, id=str(n)) for n in ns]
            + [pytest.param(n, amp, rtol_jittered, id=f"{n}-jitter{round(100 * amp)}")
               for n, amp in JITTERED])


def check_polynomial_exactness(bc, pressure, eps, n, amp, rtol):
    ex = linear_exact(bc, pressure)
    T, dm, sysm, x = solve_case(ex, n, eps=eps, lifted=True, amp=amp)
    xI = verify.interpolate(T, dm, ex)
    scale = np.linalg.norm(xI)
    assert np.linalg.norm(x - xI) <= rtol * scale
    rep = verify.error_norms(T, dm, x, ex)
    assert rep.err_energy <= 1e-10 * max(scale, 1.0)
    assert rep.err_l2_u <= 1e-10
    assert rep.err_l2_p <= 1e-10


@pytest.mark.parametrize("bc,pressure", [(TVNF, 1.0), (NVTF, 0.0), (MIXED, 1.0)])
@pytest.mark.parametrize("eps", [-1, 1])
def test_polynomial_exactness(bc, pressure, eps):
    check_polynomial_exactness(bc, pressure, eps, 4, 0.0, 1e-10)


@pytest.mark.parametrize("bc,pressure", [(TVNF, 1.0), (NVTF, 0.0), (MIXED, 1.0)])
@pytest.mark.parametrize("n,amp,rtol", mesh_inputs((), None, 5e-12))
@pytest.mark.parametrize("eps", [-1, 1])
def test_polynomial_exactness_on_jittered_mesh(bc, pressure, n, amp, rtol, eps):
    check_polynomial_exactness(bc, pressure, eps, n, amp, rtol)


def p2_pressure_exact(bc, grad):
    """u = grad . (x, y) for a constant trace-free matrix grad (so div u = 0)
    and the zero-mean pressure p = x^2 - y^2 + xy - 1/4; f = grad p."""
    grad = np.asarray(grad, float)

    def u(x, y):
        return np.stack([np.asarray(x, float), np.asarray(y, float)], axis=-1) @ grad.T

    def grad_u(x, y):
        return np.broadcast_to(grad, np.shape(x) + (2, 2))

    def lap_u(x, y):
        return np.zeros(np.shape(x) + (2,))

    return ExactSolution(name="p2", bc=bc, nu=1.0, u=u, grad_u=grad_u,
                         p=lambda x, y: x ** 2 - y ** 2 + x * y - 0.25, lap_u=lap_u,
                         grad_p=lambda x, y: np.stack([2 * x + y, x - 2 * y], axis=-1))


# pressure robustness: BDM1 velocities are exactly divergence-free, so a
# gradient force moves only the pressure and u_h does not depend on p
@pytest.mark.parametrize("bc", [TVNF, NVTF, MIXED])
@pytest.mark.parametrize("n,amp,rtol", mesh_inputs((8, 16), 1e-14, 2e-13))
@pytest.mark.parametrize("eps", [-1, 1])
def test_hydrostatic_pressure_leaves_zero_velocity(bc, n, amp, rtol, eps):
    ex = p2_pressure_exact(bc, np.zeros((2, 2)))
    T, dm, _, x = solve_case(ex, n, eps=eps, amp=amp)
    p_max = np.abs(ex.p(T.vertices[:, 0], T.vertices[:, 1])).max()
    assert np.abs(x[:3 * dm.n_edges]).max() <= rtol * p_max


@pytest.mark.parametrize("bc", [TVNF, NVTF, MIXED])
@pytest.mark.parametrize("n,amp,rtol", mesh_inputs((8, 16), 1e-13, 6e-11))
@pytest.mark.parametrize("eps", [-1, 1])
def test_linear_velocity_with_p2_pressure_is_reproduced(bc, n, amp, rtol, eps):
    ex = p2_pressure_exact(bc, [[1.0, 2.0], [3.0, -1.0]])
    T, dm, _, x = solve_case(ex, n, eps=eps, lifted=True, amp=amp)
    xI = verify.interpolate(T, dm, ex)[:3 * dm.n_edges]
    assert np.abs(x[:3 * dm.n_edges] - xI).max() <= rtol * np.abs(xI).max()


# eps = -1 is coercive only for tau above a mesh-dependent bound: 5.86 on the
# structured mesh, above 6 on 10% jittered ones; below it the error does not converge
@pytest.mark.parametrize("case", ["curl_trig", "bubble"])
@pytest.mark.parametrize("eps,tau", [
    (1, 6.0), (-1, 20.0),
    pytest.param(-1, 6.0, marks=pytest.mark.xfail(
        strict=True, reason="tau = 6 is below the coercivity bound of the jittered meshes"))])
def test_convergence_on_jittered_meshes(case, eps, tau):
    ex = verify.catalogue(case)
    reps = []
    for n in (8, 16, 32):
        T = jittered_square(n, 2, 0.1)
        dm = build_dof_map(T, ex.bc)
        sysm = system.assemble(T, dm, tau=tau, eps=eps, f=ex.f, g=ex.g)
        reps.append(verify.error_norms(T, dm, system.solve_direct(sysm), ex, tau))
    hs = [r.h for r in reps]
    assert (verify.eoc([r.err_energy for r in reps], hs)[1:] >= 0.85).all()
    assert (verify.eoc([r.err_l2_u for r in reps], hs)[1:] >= 1.8).all()


def test_bubble_velocity_error_independent_of_viscosity():
    errs = [verify.error_norms(T, dm, x, ex).err_l2_u
            for ex in (verify.catalogue("bubble", nu=nu) for nu in (1e-4, 1.0, 1e4))
            for T, dm, _, x in [solve_case(ex, 8)]]
    assert np.allclose(errs, errs[1], rtol=1e-3, atol=0), errs


def tan_pressure_exact(bc, nu=1.0):
    """Hydrostatic: u = 0 and the non-polynomial pressure p = tan(xy); f = grad p."""

    def zero_vec(x, y):
        return np.zeros(np.shape(x) + (2,))

    def grad_p(x, y):
        return (1 + np.tan(x * y) ** 2)[..., None] * np.stack([y, x], axis=-1)

    return ExactSolution(name="tan", bc=bc, nu=nu, u=zero_vec,
                         grad_u=lambda x, y: np.zeros(np.shape(x) + (2, 2)),
                         p=lambda x, y: np.tan(x * y), lap_u=zero_vec, grad_p=grad_p)


# the quadrature rules do not integrate a non-polynomial grad p exactly, so
# u_h is not zero: it is small, falls with h and grows exactly as 1/nu
@pytest.mark.parametrize("bc", [TVNF, NVTF, MIXED])
@pytest.mark.parametrize("eps", [-1, 1])
def test_non_polynomial_hydrostatic_velocity_falls_with_h(bc, eps):
    peaks = []
    for n in (8, 16, 32):
        _, dm, _, x = solve_case(tan_pressure_exact(bc), n, eps)
        peaks.append(np.abs(x[:3 * dm.n_edges]).max())
    assert peaks[0] <= 1e-7, peaks
    assert peaks[0] >= 32 * peaks[1] and peaks[1] >= 32 * peaks[2], peaks


@pytest.mark.parametrize("bc", [TVNF, NVTF, MIXED])
@pytest.mark.parametrize("eps", [-1, 1])
def test_non_polynomial_hydrostatic_velocity_scales_as_one_over_nu(bc, eps):
    nu_u = []
    for nu in (1e-2, 1.0, 1e2):
        _, dm, _, x = solve_case(tan_pressure_exact(bc, nu), 8, eps)
        nu_u.append(nu * x[:3 * dm.n_edges])
    for v in nu_u:
        assert np.abs(v - nu_u[1]).max() <= 1e-5 * np.abs(nu_u[1]).max()


def test_sigma_nn_formula_matches_finite_differences():
    # g = sigma n for u=(y,x), p=1 should be (n2 - n1, n1 - n2) (hand derivation)
    ex = linear_exact(TVNF, 1.0)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x, y = rng.uniform(0, 1, 2)
        th = rng.uniform(0, 2 * np.pi)
        n = np.array([np.cos(th), np.sin(th)])
        h = 1e-6

        def sigma(xx, yy):
            gfd = np.zeros((2, 2))
            gfd[:, 0] = (ex.u(xx + h, yy) - ex.u(xx - h, yy)) / (2 * h)
            gfd[:, 1] = (ex.u(xx, yy + h) - ex.u(xx, yy - h)) / (2 * h)
            return gfd - ex.p(xx, yy) * np.eye(2)

        g_fd = sigma(x, y) @ n
        assert np.abs(ex.g(x, y, n) - g_fd).max() < 1e-8
        assert np.abs(ex.g(x, y, n) - np.array([n[1] - n[0], n[0] - n[1]])).max() < 1e-12


def dense_assembly(T, kinds, nu, tau, eps, f, g, values):
    """Oracle for system.assemble: a dense matrix and load vector filled one
    triangle and one boundary edge at a time from the dof layout of
    fem_space, with the constraints applied by hand (values lifted, fixed
    rows and columns zeroed, unit diagonal, the zero-mean border when every
    boundary edge is NVTF)."""
    E, nt = T.n_edges, T.n_triangles
    ker = ElementStack(T)
    a, b, load = local_a(ker, nu, tau, eps), local_b(ker), local_load(ker, f)
    edges = np.flatnonzero(T.boundary_edge)
    kinds = np.broadcast_to(kinds, edges.shape)
    border = bool(np.all(kinds == NVTF))
    n = 3 * E + nt + border
    A, rhs = np.zeros((n, n)), np.zeros(n)
    for t in range(nt):
        e0, e1, e2 = T.tri_edges[t]
        dofs = [2 * e0, 2 * e0 + 1, 2 * e1, 2 * e1 + 1, 2 * e2, 2 * e2 + 1,
                2 * E + e0, 2 * E + e1, 2 * E + e2]
        A[np.ix_(dofs, dofs)] += a[t]
        A[3 * E + t, dofs] += b[t]
        A[dofs, 3 * E + t] += b[t]
        rhs[dofs[:6]] += load[t]
    fixed = []
    for e, kind, L in zip(edges, kinds, edge_load(T, g)):
        if kind == TVNF:
            rhs[[2 * e, 2 * e + 1]] += L[:2]
            fixed.append(2 * E + e)
        else:
            rhs[2 * E + e] += L[2]
            fixed += [2 * e, 2 * e + 1]
    fixed = np.sort(fixed)
    rhs -= A[:, fixed] @ values
    rhs[fixed] = values
    A[fixed, :] = 0.0
    A[:, fixed] = 0.0
    A[fixed, fixed] = 1.0
    if border:
        A[-1, 3 * E:3 * E + nt] = A[3 * E:3 * E + nt, -1] = T.areas
    return A, rhs


@pytest.mark.parametrize("domain,n", [("unit_square", 2), ("unit_square", 4), ("t_shape", 2)])
@pytest.mark.parametrize("bc", [TVNF, NVTF, MIXED])
@pytest.mark.parametrize("eps", [-1, 1])
def test_assembly_matches_dense_oracle(domain, n, bc, eps):
    ex = verify.catalogue("curl_trig")
    T = generate(domain, n)
    kinds = boundary_kinds(T, bc)
    dm = build_dof_map(T, kinds)
    values = np.random.default_rng(n).standard_normal(len(dm.constrained))
    sysm = system.assemble(T, dm, nu=1.3, tau=5.0, eps=eps, f=ex.f, g=ex.g,
                           constrained_values=values)
    A, rhs = dense_assembly(T, kinds, 1.3, 5.0, eps, ex.f, ex.g, values)
    assert sysm.A.shape == A.shape and np.all(sysm.A.data != 0)
    assert np.abs(sysm.A.toarray() - A).max() <= 1e-13 * np.abs(A).max()
    assert np.abs(sysm.rhs - rhs).max() <= 1e-13 * np.abs(rhs).max()


def row_range_elimination(T, dm, nu, tau, eps, f, g, constrained_values):
    """Oracle for system.assemble: an elimination over
    system.element_triplets that lifts through a full-length copy of the
    triplet values, zeroes the fixed columns by a mask and the fixed rows
    through their stored ranges, rebuilt index by index from indptr."""
    n = dm.n_total
    rhs = np.zeros(n)
    rows, cols, vals = system.element_triplets(T, dm, nu, tau, eps, rhs=rhs, f=f)
    loaded = ~dm.fixed
    rhs[edge_dofs(dm.n_edges, dm.boundary_edges)[loaded]] += edge_load(T, g)[loaded]
    fixed = dm.constrained
    x_fixed = np.zeros(n)
    if constrained_values is not None:
        x_fixed[fixed] = constrained_values
        w = x_fixed[cols]
        w *= vals
        rhs -= np.bincount(rows, weights=w, minlength=n)
    rhs[fixed] = x_fixed[fixed]
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    is_fixed = np.zeros(n, dtype=bool)
    is_fixed[fixed] = True
    A.data[is_fixed[A.indices]] = 0.0
    start, count = A.indptr[fixed], np.diff(A.indptr)[fixed]
    at = np.repeat(start - np.cumsum(count) + count, count) + np.arange(count.sum())
    A.data[at] = 0.0
    A.data[at[A.indices[at] == np.repeat(fixed, count)]] = 1.0
    A.eliminate_zeros()
    return A, rhs


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("domain,n,bc", [("unit_square", n, bc) for n in (2, 4, 8)
                                         for bc in (TVNF, NVTF, MIXED)]
                         + [("t_shape", 2, NVTF), ("t_shape", 4, NVTF)])
@pytest.mark.parametrize("eps", [-1, 1])
def test_elimination_matches_row_range_oracle_bitwise(domain, n, bc, eps):
    # the dense oracle above checks values to round-off; this pins the stored
    # pattern, the dtypes and every bit of A and rhs
    ex = verify.catalogue("curl_trig")
    T = generate(domain, n)
    dm = build_dof_map(T, boundary_kinds(T, bc))
    k = len(dm.constrained)
    for values in (None, verify.interpolate(T, dm, ex)[dm.constrained],
                   np.random.default_rng(n).standard_normal(k)):
        sysm = system.assemble(T, dm, nu=1.3, tau=5.0, eps=eps, f=ex.f, g=ex.g,
                               constrained_values=values)
        A, rhs = row_range_elimination(T, dm, 1.3, 5.0, eps, ex.f, ex.g, values)
        for name in ("indptr", "indices", "data"):
            assert same_bits(getattr(sysm.A, name), getattr(A, name)), name
        assert same_bits(sysm.rhs, rhs)


@pytest.mark.parametrize("extra", [None, 1])
def test_constrained_values_of_wrong_length_rejected(extra):
    T = generate("unit_square", 2)
    dm = build_dof_map(T, TVNF)
    k = 1 if extra is None else len(dm.constrained) + extra
    with pytest.raises(ValueError, match=f"constrained_values has {k} entries, "
                                         f"dm fixes {len(dm.constrained)} dofs"):
        system.assemble(T, dm, constrained_values=np.ones(k))


def test_assembly_transient_memory_per_triangle():
    # triplet blocks and CSR matrix each allocated once read 3,327 B per
    # triangle at n = 32 (bound: 3,500, about 5% above); masked and
    # concatenated triplet copies read 5,885 B
    ex = verify.catalogue("bubble")
    warm = generate("unit_square", 2)
    system.assemble(warm, build_dof_map(warm, ex.bc), f=ex.f, g=ex.g)
    T = generate("unit_square", 32)
    dm = build_dof_map(T, ex.bc)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        system.assemble(T, dm, f=ex.f, g=ex.g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 3500 * T.n_triangles


def test_nvtf_pressure_zero_mean():
    ex = verify.catalogue("bubble")
    T, dm, sysm, x = solve_case(ex, 8)
    p = x[3 * dm.n_edges:3 * dm.n_edges + dm.n_tris]
    assert abs(np.dot(T.areas, p)) <= 1e-12 * max(np.linalg.norm(p), 1.0)


def test_global_symmetry_eps_minus_one():
    for bc, case in [(TVNF, "poiseuille"), (NVTF, "bubble")]:
        ex = verify.catalogue(case)
        T = generate("unit_square", 4)
        dm = build_dof_map(T, bc)
        sysm = system.assemble(T, dm, eps=-1, f=ex.f, g=ex.g)
        D = sysm.A - sysm.A.T
        assert (np.abs(D.data).max() if D.nnz else 0.0) <= 1e-12 * np.abs(sysm.A.data).max()


def test_constrained_rows_are_identity():
    T = generate("unit_square", 3)
    for bc in (TVNF, NVTF):
        dm = build_dof_map(T, bc)
        sysm = system.assemble(T, dm)
        A = sysm.A.tocsr()
        for c in dm.constrained:
            row = A.getrow(c)
            assert row.nnz == 1 and row.indices[0] == c and row.data[0] == 1.0
            col = A.getcol(c)
            assert col.nnz == 1
        assert np.all(sysm.rhs[dm.constrained] == 0.0)


def test_pressure_pressure_block_zero():
    T = generate("unit_square", 3)
    dm = build_dof_map(T, TVNF)
    sysm = system.assemble(T, dm)
    P = sysm.A[3 * dm.n_edges:, 3 * dm.n_edges:]
    assert P.nnz == 0 or np.abs(P.data).max() == 0.0


def test_divergence_free_invariant():
    for case in ("bubble", "poiseuille", "curl_trig"):
        ex = verify.catalogue(case)
        T, dm, sysm, x = solve_case(ex, 8)
        vel = np.linalg.norm(x[:2 * dm.n_edges])
        assert verify.error_norms(T, dm, x, ex).max_div <= 1e-10 * vel


def test_coercivity_sample():
    # eps=-1, tau=6: quadratic form positive on random constrained fields,
    # with a lower bound stable under one refinement
    alphas = []
    T = generate("unit_square", 4)
    for _ in range(2):
        dm = build_dof_map(T, TVNF)
        sysm = system.assemble(T, dm, eps=-1, tau=6.0)
        rng = np.random.default_rng(7)
        nv = 3 * dm.n_edges
        ratios = []
        for _ in range(1000):
            v = np.zeros(dm.n_total)
            v[:nv] = rng.standard_normal(nv)
            v[dm.constrained] = 0.0
            q = v @ (sysm.A @ v)
            assert q >= 0.0
            ratios.append(q / verify.energy_norm(T, dm, v, nu=1.0, tau=6.0) ** 2)
        alphas.append(min(ratios))
        T = refine_uniform(T)
    assert alphas[0] > 0 and alphas[1] > 0
    assert alphas[1] >= 0.5 * alphas[0]


def test_consistency_residual_rate():
    # A x_I - rhs -> 0 at rate >= h for the interpolant of a smooth solution
    ex = verify.catalogue("curl_trig")
    T = generate("unit_square", 4)
    norms, hs = [], []
    for _ in range(3):
        dm = build_dof_map(T, ex.bc)
        sysm = system.assemble(T, dm, f=ex.f, g=ex.g)
        xI = verify.interpolate(T, dm, ex)
        xI[dm.constrained] = 0.0  # u_t = 0 on the boundary for this case
        norms.append(np.linalg.norm(sysm.A @ xI - sysm.rhs))
        hs.append(T.h_K.max())
        T = refine_uniform(T)
    slopes = verify.eoc(norms, hs)
    assert slopes[-1] >= 0.9


# --- reference solve: regularised symmetric-order factor plus refinement ----

REFERENCE_CASES = [(TVNF, "curl_trig"), (NVTF, "bubble")]


def reference_system(bc, case, n, eps=-1):
    ex = verify.catalogue(case)
    T = generate("unit_square", n)
    return system.assemble(T, build_dof_map(T, bc), eps=eps, f=ex.f, g=ex.g)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("eps", [-1, 1])
@pytest.mark.parametrize("bc,case", REFERENCE_CASES)
def test_reference_solve_matches_partial_pivot_oracle(bc, case, eps, n):
    # oracle: SuperLU with column ordering and partial pivoting on A itself
    sysm = reference_system(bc, case, n, eps)
    x = system.solve_direct(sysm)
    x_pp = spla.splu(sysm.A.tocsc()).solve(sysm.rhs)
    residual = lambda y: np.linalg.norm(sysm.A @ y - sysm.rhs)
    assert residual(x) <= residual(x_pp)
    assert np.linalg.norm(x - x_pp) <= 1e-10 * np.linalg.norm(x_pp)


# solve_direct factors A unscaled, so its reference loses accuracy as nu
# grows: ROADMAP item 9 (a power-of-two nu-scaling of the factor) mends it
UNSCALED_REFERENCE = pytest.mark.xfail(
    strict=True, raises=(AssertionError, FactorizationError),
    reason="solve_direct is inaccurate at large nu (ROADMAP item 9)")


@pytest.mark.parametrize("nu", [1.0] + [pytest.param(nu, marks=UNSCALED_REFERENCE)
                                        for nu in (1e4, 1e6, 1e10)])
@pytest.mark.parametrize("case", ["bubble", "curl_trig"])
def test_reference_matches_dense_solve_across_viscosity(case, nu):
    _, _, sysm, x = solve_case(verify.catalogue(case, nu=nu), 8)
    x_dense = np.linalg.solve(sysm.A.toarray(), sysm.rhs)
    assert np.linalg.norm(x - x_dense) <= 1e-12 * np.linalg.norm(x_dense)


# on finer meshes the refinement of the unscaled factor stalls at moderate
# nu: one step at n = 32, nu = 1e4 (ROADMAP item 9)
STALLED_REFINEMENT = pytest.mark.xfail(
    strict=True, raises=FactorizationError,
    reason="solve_direct stalls at moderate nu on finer meshes (ROADMAP item 9)")


@pytest.mark.parametrize("case,n,nu,eps", [("bubble", 32, 1e3, -1)] + [
    pytest.param(*args, marks=STALLED_REFINEMENT) for args in [
        ("bubble", 32, 1e4, -1), ("curl_trig", 32, 1e4, -1), ("poiseuille", 32, 1e4, -1),
        ("curl_trig", 16, 1e4, 1), ("poiseuille", 8, 1e-4, 1)]])
def test_reference_solve_refines_to_small_residual(case, n, nu, eps):
    # the control (nu = 1e3) reads 3.1e-14; the stalled cases raise after
    # refining to 5.7e-8 ... 1.0e-10
    _, _, sysm, x = solve_case(verify.catalogue(case, nu=nu), n, eps)
    assert np.linalg.norm(sysm.A @ x - sysm.rhs) <= 1e-10 * np.linalg.norm(sysm.rhs)


@pytest.mark.parametrize("bc,case", REFERENCE_CASES)
def test_reference_factor_fill_below_partial_pivot(bc, case):
    # the reference factor as solve_direct builds it
    sysm = reference_system(bc, case, 16)
    F = Factorization(sysm.A, refine=True, order=sysm.order)
    assert F._lu.nnz < 0.6 * spla.splu(sysm.A.tocsc()).nnz


def minimum_degree_lu(A):
    """SuperLU's own minimum degree on A + A^T, with diagonal pivots, of the
    copy of A whose zero diagonal is shifted as Factorization(refine=True)
    shifts it."""
    z = np.flatnonzero(A.diagonal() == 0)
    shift = sp.csc_matrix((np.full(len(z), -1e-12 * abs(A).max()), (z, z)), shape=A.shape)
    return spla.splu(sp.csc_matrix(A) + shift, permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, options={"SymmetricMode": True})


@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("eps", [-1, 1])
@pytest.mark.parametrize("bc,case", REFERENCE_CASES)
def test_dissection_ordered_factor_matches_minimum_degree(bc, case, eps, n, refine):
    sysm = reference_system(bc, case, n, eps)
    order = dissection_order(sysm.mesh, sysm.dofmap)
    # perm_c[j] is the position of column j; the order lists rows by position
    md_order = np.argsort(minimum_degree_lu(sysm.A).perm_c)
    x = Factorization(sysm.A, refine=refine, order=order).solve(sysm.rhs)
    x_md = Factorization(sysm.A, refine=refine, order=md_order).solve(sysm.rhs)
    assert np.linalg.norm(x - x_md) <= 1e-12 * np.linalg.norm(x_md)


@pytest.mark.parametrize("bc,case", REFERENCE_CASES)
def test_reference_fill_with_dissection_below_minimum_degree(bc, case):
    # nested dissection of the mesh against minimum degree on A + A^T, both
    # with diagonal pivots on the shifted copy
    sysm = reference_system(bc, case, 32)
    nd = Factorization(sysm.A, refine=True, order=dissection_order(sysm.mesh, sysm.dofmap))
    assert nd._lu.nnz < 0.6 * minimum_degree_lu(sysm.A).nnz


def singular_saddle_point():
    # the NVTF border replaced by an identity row leaves the constant pressure
    # in the kernel; the shifted copy still factors
    sysm = reference_system(NVTF, "bubble", 8)
    A, r = sysm.A, sysm.dofmap.mean_constraint_dof
    n = A.shape[0]
    keep = np.ones(n)
    keep[r] = 0.0
    return sp.diags(keep) @ A @ sp.diags(keep) + sp.coo_matrix(([1.0], ([r], [r])), shape=(n, n))


def test_refinement_guard_rejects_singular_saddle_point():
    # refinement cannot converge
    A = singular_saddle_point()
    F = Factorization(A, refine=True)
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    with pytest.raises(FactorizationError, match="refinement"):
        F.solve(b)


def test_refinement_guard_holds_when_the_norm_of_b_overflows():
    # ||b||_2 of b ~ 1e200 overflows; a guard that compared inf <= inf would
    # accept this x, whose relative residual is 2e-2
    A = singular_saddle_point()
    b = 1e200 * np.random.default_rng(0).standard_normal(A.shape[0])
    with pytest.raises(FactorizationError, match=r"relative residual \d"):  # not nan
        Factorization(A, refine=True).solve(b)


def test_local_factor_rejects_singular_saddle_point_at_setup():
    # without refine the set-up check raises, before any solve
    with pytest.raises(FactorizationError, match="singular to working precision"):
        Factorization(singular_saddle_point())
