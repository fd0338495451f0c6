import math

import numpy as np
import pytest
import scipy.linalg

from hdgstokes import generate, refine_uniform
from hdgstokes.local_assembly import (ElementStack, GeometryError, edge_load, local_a, local_b,
                                      local_load)
from hdgstokes.mesh import MeshError, Triangulation
from hdgstokes.quadrature import BDM_NODES, TRI_RULE, edge_gauss


def reference_mesh():
    return Triangulation([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [[0, 1, 2]])


def random_vertices(rng):
    while True:
        v = rng.uniform(-1, 1, size=(3, 2))
        d1, d2 = v[1] - v[0], v[2] - v[0]
        area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
        if abs(area) > 0.05:
            return v[[0, 2, 1]] if area < 0 else v


def random_triangle(rng):
    return Triangulation(random_vertices(rng), [[0, 1, 2]])


def random_soup(rng, count):
    """Mesh of `count` disjoint random triangles, one per stack entry."""
    verts = np.vstack([random_vertices(rng) for _ in range(count)])
    return Triangulation(verts, np.arange(3 * count).reshape(count, 3))


def basis(ker, pts, t=0):
    """Values of the 6 basis fields of stack entry t at points (q, 2); (q, 6, 2)."""
    pts = np.broadcast_to(np.asarray(pts, float), (len(ker),) + np.shape(pts))
    return ker.eval_basis(pts)[t]


def dof_functionals(ker, field, t=0):
    """Evaluate the 6 dof functionals (v . n_E at edge Gauss nodes) on a field."""
    nodes = ker.edge_points(BDM_NODES)[t]          # (3 edges, 2 nodes, 2)
    out = np.empty(6)
    for loc in range(3):
        for m in range(2):
            out[2 * loc + m] = np.asarray(field(nodes[loc, m])) @ ker.n_E[t, loc]
    return out


def duality_matrices(ker):
    """Dof functionals applied to every basis field of every stack entry; (ne, 6, 6)."""
    nodes = ker.edge_points(BDM_NODES).reshape(len(ker), 6, 2)
    vals = ker.eval_basis(nodes)                   # (ne, 6 nodes, 6 fields, 2)
    return np.einsum("tijc,tic->tij", vals, np.repeat(ker.n_E, 2, axis=1))


# --- quadrature exactness ------------------------------------------------

def exact_tri_monomial(a, b):
    # int over reference triangle of x^a y^b = a! b! / (a+b+2)!
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree,maxdeg", [(5, 5)])
def test_tri_rule_exactness(degree, maxdeg):
    # exact to maxdeg, and of no higher degree than it claims
    pts, w = TRI_RULE
    verts = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    xy = pts @ verts
    err = lambda a, b: abs(0.5 * np.dot(w, xy[:, 0] ** a * xy[:, 1] ** b)
                           - exact_tri_monomial(a, b))
    for a in range(maxdeg + 1):
        for b in range(maxdeg + 1 - a):
            assert err(a, b) < 1e-14
    assert max(err(a, degree + 1 - a) for a in range(degree + 2)) > 1e-6


@pytest.mark.parametrize("npts,maxdeg", [(2, 3), (3, 5), (4, 7)])
def test_edge_rule_exactness(npts, maxdeg):
    x, w = edge_gauss(npts)
    for d in range(maxdeg + 1):
        assert abs(np.dot(w, x ** d) - 1 / (d + 1)) < 1e-14


@pytest.mark.parametrize("npts", [1, 5])
def test_edge_rule_unknown_size(npts):
    with pytest.raises(ValueError, match=f"no edge rule with {npts} points"):
        edge_gauss(npts)


# --- BDM1 basis ----------------------------------------------------------

def test_duality_reference_triangle():
    ker = ElementStack(reference_mesh())
    D = np.column_stack([dof_functionals(ker, lambda p, j=j: basis(ker, p[None])[0, j])
                         for j in range(6)])
    assert np.abs(D - np.eye(6)).max() < 1e-12


def test_duality_random_and_refined():
    rng = np.random.default_rng(42)
    D = duality_matrices(ElementStack(random_soup(rng, 20)))
    assert np.abs(D - np.eye(6)).max() < 1e-12
    # small elements keep the conditioning (scaled monomials)
    D = duality_matrices(ElementStack(generate("unit_square", 64)))
    assert np.abs(D - np.eye(6)).max() < 1e-12


def test_interpolation_reproduces_member_field():
    rng = np.random.default_rng(3)
    ker = ElementStack(random_triangle(rng))
    dofs = dof_functionals(ker, lambda p: np.array([p[0], p[1]]))
    pts = rng.uniform(-1, 1, size=(5, 2))
    vals = np.einsum("qjc,j->qc", basis(ker, pts), dofs)
    assert np.allclose(vals, pts, atol=1e-12)
    assert np.allclose(ker.eval_field(dofs[None], pts[None])[0], pts, atol=1e-12)


def test_divergence_constant_and_integral():
    ker = ElementStack(reference_mesh())
    dofs = dof_functionals(ker, lambda p: np.array([p[0], p[1]]))
    assert abs(np.dot(ker.divs[0], dofs) * ker.area[0] - 1.0) < 1e-12  # int div(x,y) = 2*area


def test_degenerate_triangle_raises():
    with pytest.raises(MeshError, match="non-positive area"):
        ElementStack(Triangulation([(0, 0), (1, 0), (2, 0.0)], [[0, 1, 2]]))


def test_singular_dof_functionals_raise():
    # positive area (5e-201), but the edge normals of the sliver coincide
    T = Triangulation([(0, 0), (1, 0), (0.5, 1e-200)], [[0, 1, 2]])
    assert T.areas[0] > 0
    with pytest.raises(GeometryError, match=r"degenerate triangles \[0\]"):
        ElementStack(T)


@pytest.mark.parametrize("height", [1e-8, 1e-17])
def test_ill_conditioned_dof_functionals_raise(height):
    # F invertible in floating point, but with an infinity-norm condition
    # number past 1/eps (3.6e16 at height 1e-8): its inverse is noise
    T = Triangulation([(0, 0), (1, 0), (0.5, height)], [[0, 1, 2]])
    with pytest.raises(GeometryError, match=r"degenerate triangles \[0\]"):
        ElementStack(T)


def test_thin_triangle_builds():
    # condition number 3.6e12: thin, but still resolved in double precision
    E = ElementStack(Triangulation([(0, 0), (1, 0), (0.5, 1e-6)], [[0, 1, 2]]))
    assert np.isfinite(E.coeffs).all()


# --- local bilinear forms -------------------------------------------------

def test_local_a_symmetric_for_eps_minus_one():
    rng = np.random.default_rng(11)
    for A in local_a(ElementStack(random_soup(rng, 10)), nu=1.7, tau=6.0, eps=-1):
        assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()


def test_local_a_rejects_bad_tau():
    ker = ElementStack(reference_mesh())
    with pytest.raises(ValueError):
        local_a(ker, nu=1.0, tau=0.0, eps=-1)


def test_local_a_rejects_bad_eps():
    ker = ElementStack(reference_mesh())
    with pytest.raises(ValueError, match="symmetry switch"):
        local_a(ker, nu=1.0, tau=6.0, eps=0)


def test_constant_field_annihilated():
    rng = np.random.default_rng(5)
    ker = ElementStack(random_triangle(rng))
    c = np.array([0.7, -1.3])
    dofs = np.empty(9)
    dofs[:6] = dof_functionals(ker, lambda p: c)
    dofs[6:] = ker.t_E[0] @ c  # matching multipliers
    for eps in (-1, 1):
        A = local_a(ker, nu=1.0, tau=6.0, eps=eps)[0]
        assert np.abs(A @ dofs).max() < 1e-12


def quadratic_form_oracle(ker, dofs, nu, tau):
    """nu |v|_H1^2 + nu (tau/h_K) sum_E |E| (avg (v)_t - vtilde)^2, by quadrature."""
    grad = np.einsum("jab,j->ab", ker.grads[0], dofs[:6])
    q = nu * ker.area[0] * (grad ** 2).sum()
    params, w = edge_gauss(3)
    for loc in range(3):
        pts = ker.edge_points(params)[0, loc]
        vt = np.einsum("qjc,j->qc", basis(ker, pts), dofs[:6])
        avg = np.dot(w, vt @ ker.t_E[0, loc]) - dofs[6 + loc]
        q += nu * (tau / ker.h_K[0]) * ker.edge_len[0, loc] * avg ** 2
    return q


def test_quadratic_form_identity_eps_plus_one():
    rng = np.random.default_rng(8)
    ker = ElementStack(reference_mesh())
    A = local_a(ker, nu=1.0, tau=6.0, eps=1)[0]
    for _ in range(50):
        dofs = rng.standard_normal(9)
        q = dofs @ A @ dofs
        q_ref = quadratic_form_oracle(ker, dofs, nu=1.0, tau=6.0)
        assert abs(q - q_ref) <= 1e-12 * max(1.0, abs(q_ref))


def bilinear_form_oracle(ker, u, v, nu, tau, eps):
    """a((u, utilde), (v, vtilde)) on stack entry 0, every edge term by quadrature:
    nu [(grad u, grad v) - <(grad u n)_t, (v)_t - vtilde> + eps <(grad v n)_t,
    (u)_t - utilde> + (tau/h_K) <Phi0((u)_t - utilde), Phi0((v)_t - vtilde)>]."""
    gu = np.einsum("jab,j->ab", ker.grads[0], u[:6])
    gv = np.einsum("jab,j->ab", ker.grads[0], v[:6])
    total = ker.area[0] * (gu * gv).sum()
    params, w = edge_gauss(3)
    for loc in range(3):
        t, n = ker.t_E[0, loc], ker.n_out[0, loc]
        vals = basis(ker, ker.edge_points(params)[0, loc])
        ju = np.einsum("qjc,j->qc", vals, u[:6]) @ t - u[6 + loc]
        jv = np.einsum("qjc,j->qc", vals, v[:6]) @ t - v[6 + loc]
        L = ker.edge_len[0, loc]
        total += L * np.dot(w, -((gu @ n) @ t) * jv + eps * ((gv @ n) @ t) * ju)
        total += tau / ker.h_K[0] * L * np.dot(w, ju) * np.dot(w, jv)
    return nu * total


def test_bilinear_form_oracle_both_eps():
    rng = np.random.default_rng(19)
    ker = ElementStack(random_triangle(rng))
    for eps in (-1, 1):
        A = local_a(ker, nu=1.3, tau=6.0, eps=eps)[0]
        for _ in range(20):
            u, v = rng.standard_normal((2, 9))
            ref = bilinear_form_oracle(ker, u, v, nu=1.3, tau=6.0, eps=eps)
            assert abs(v @ A @ u - ref) <= 1e-12 * max(1.0, abs(ref))


def test_multiplier_block_is_stabilisation_only():
    # mult-mult coupling comes from the stabilisation alone: a nonnegative
    # diagonal (tau/h_K) |E| per edge, hence trivially diagonally dominant
    rng = np.random.default_rng(17)
    ker = ElementStack(random_soup(rng, 5))
    for t, A in enumerate(local_a(ker, nu=1.0, tau=6.0, eps=-1)):
        M = A[6:, 6:]
        off = M - np.diag(np.diag(M))
        assert np.abs(off).max() < 1e-14
        expected = 6.0 / ker.h_K[t] * ker.edge_len[t]
        assert np.allclose(np.diag(M), expected, rtol=1e-12)


def test_local_b_on_member_field():
    ker = ElementStack(reference_mesh())
    row = local_b(ker)[0]
    assert np.abs(row[6:]).max() == 0.0
    dofs = np.zeros(9)
    dofs[:6] = dof_functionals(ker, lambda p: np.array([p[0], p[1]]))
    assert abs(row @ dofs + 1.0) < 1e-12  # -int div(x,y) over reference = -1
    dofs[:6] = dof_functionals(ker, lambda p: np.array([p[1], p[0]]))
    assert abs(row @ dofs) < 1e-12  # divergence-free


def test_local_b_matches_divergence_theorem():
    # -int_K div v = -sum_E int_E v . n_out, checked with edge quadrature
    rng = np.random.default_rng(13)
    for _ in range(10):
        ker = ElementStack(random_triangle(rng))
        row = local_b(ker)[0]
        dofs = np.zeros(9)
        dofs[:6] = rng.standard_normal(6)
        params, w = edge_gauss(3)
        flux = 0.0
        for loc in range(3):
            pts = ker.edge_points(params)[0, loc]
            vn = np.einsum("qjc,j->qc", basis(ker, pts), dofs[:6]) @ ker.n_out[0, loc]
            flux += ker.edge_len[0, loc] * np.dot(w, vn)
        assert abs(row @ dofs + flux) < 1e-12


def test_phi0_identity_on_normal_derivative_trace():
    # (grad v n)_t is constant per edge for BDM1, so the edge average is itself
    rng = np.random.default_rng(21)
    ker = ElementStack(random_triangle(rng))
    dofs = rng.standard_normal(6)
    grad = ker.field_grad(dofs[None])[0]
    for loc in range(3):
        dnt = (grad @ ker.n_out[0, loc]) @ ker.t_E[0, loc]
        params, w = edge_gauss(3)
        assert abs(np.dot(w, np.full(3, dnt)) - dnt) < 1e-14


# --- loads ----------------------------------------------------------------

def test_zero_loads():
    ker = ElementStack(reference_mesh())
    f = lambda x, y: np.zeros(np.broadcast(x, y).shape + (2,))
    assert np.abs(local_load(ker, f)).max() == 0.0


def test_body_load_constant_force():
    # int_K f . phi with f = (1, 0) equals the first-component integral of phi
    ker = ElementStack(reference_mesh())
    f = lambda x, y: np.stack([np.ones_like(np.asarray(x, float)),
                               np.zeros_like(np.asarray(x, float))], axis=-1)
    load = local_load(ker, f)[0]
    pts, w = TRI_RULE
    xy = pts @ ker.verts[0]
    ref = ker.area[0] * np.einsum("q,qj->j", w, basis(ker, xy)[:, :, 0])
    assert np.allclose(load, ref, atol=1e-14)


def tvnf_unit_load(T, bnd):
    """sign * L / 2 on both BDM dofs of each edge: the TVNF load of g . n_out = 1."""
    k = T.edge_tris[bnd, 0]
    loc = np.argmax(T.tri_edges[k] == bnd[:, None], axis=1)
    return np.repeat((T.tri_edge_sign[k, loc] * T.edge_len[bnd] / 2)[:, None], 2, axis=1)


def test_edge_load_tvnf_unit_datum():
    T = generate("unit_square", 1)
    bnd = np.flatnonzero(T.boundary_edge)
    vals = edge_load(T, lambda x, y, n: n)
    assert vals.shape == (len(bnd), 3)
    assert np.abs(vals[:, :2] - tvnf_unit_load(T, bnd)).max() < 1e-14


def test_edge_load_nvtf_unit_datum():
    T = generate("unit_square", 1)
    c = np.array([0.3, -1.7])
    bnd = np.flatnonzero(T.boundary_edge)
    vals = edge_load(T, lambda x, y, n: np.broadcast_to(c, n.shape))
    assert np.abs(vals[:, 2] - T.edge_len[bnd] * (T.edge_t[bnd] @ c)).max() < 1e-14


def test_edge_load_projects_traction_off_the_axes():
    # the unit square rotated by 30 degrees: no normal or tangent component is 0 or 1
    T = generate("unit_square", 2)
    a = np.pi / 6
    T = Triangulation(T.vertices @ np.array([[np.cos(a), np.sin(a)],
                                             [-np.sin(a), np.cos(a)]]), T.triangles)
    bnd = np.flatnonzero(T.boundary_edge)
    vals = edge_load(T, lambda x, y, n: 2.5 * n)
    assert np.abs(vals[:, :2] - 2.5 * tvnf_unit_load(T, bnd)).max() < 1e-14
    c = np.array([0.3, -1.7])
    vals = edge_load(T, lambda x, y, n: np.broadcast_to(c, n.shape))
    assert np.abs(vals[:, 2] - T.edge_len[bnd] * (T.edge_t[bnd] @ c)).max() < 1e-14


# --- discrete trace inequality --------------------------------------------

def element_trace_constants(ker):
    """Exact sup of h_K ||v||^2_dK / ||v||^2_K over BDM1 fields, per element."""
    pts, w = TRI_RULE
    vals = ker.eval_basis(np.einsum("qb,tbc->tqc", pts, ker.verts))
    M_vol = ker.area[:, None, None] * np.einsum("q,tqic,tqjc->tij", w, vals, vals)
    params, we = edge_gauss(3)
    ev = ker.eval_basis(ker.edge_points(params).reshape(len(ker), -1, 2))
    ev = ev.reshape(len(ker), 3, len(params), 6, 2)
    M_bnd = np.einsum("tl,q,tlqic,tlqjc->tij", ker.edge_len, we, ev, ev)
    return np.array([h * scipy.linalg.eigh(B, V, eigvals_only=True)[-1]
                     for h, B, V in zip(ker.h_K, M_bnd, M_vol)])


def test_trace_inequality_constant_stable_under_refinement():
    T = generate("unit_square", 2)
    cs = []
    for _ in range(3):
        cs.append(element_trace_constants(ElementStack(T)).max())
        T = refine_uniform(T)
    assert max(cs) - min(cs) < 1e-8  # structured elements are self-similar
    rng = np.random.default_rng(2)
    T = generate("unit_square", 4)
    ker = ElementStack(Triangulation(T.vertices[T.triangles[5]], [[0, 1, 2]]))
    C = element_trace_constants(ker)[0]
    pts, w = TRI_RULE
    xy = pts @ ker.verts[0]
    params, we = edge_gauss(3)
    for _ in range(100):
        dofs = rng.standard_normal(6)
        vals = np.einsum("qjc,j->qc", basis(ker, xy), dofs)
        vol = ker.area[0] * np.dot(w, (vals ** 2).sum(axis=1))
        bnd = 0.0
        for loc in range(3):
            ev = np.einsum("qjc,j->qc", basis(ker, ker.edge_points(params)[0, loc]), dofs)
            bnd += ker.edge_len[0, loc] * np.dot(we, (ev ** 2).sum(axis=1))
        assert ker.h_K[0] * bnd <= C * vol * (1 + 1e-10)
