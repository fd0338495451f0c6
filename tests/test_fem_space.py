import numpy as np
import pytest

from hdgstokes import NVTF, TVNF, build_dof_map, generate, refine_uniform, system
from hdgstokes.fem_space import FIXES, dissection_order, edge_dofs, vertex_field_at_dofs


def test_counts_unit_square_1():
    T = generate("unit_square", 1)
    dm = build_dof_map(T, TVNF)
    assert dm.n_total == 3 * 5 + 2
    bnd = np.flatnonzero(T.boundary_edge)
    assert set(dm.constrained) == {edge_dofs(dm.n_edges, e)[2] for e in bnd}

    dm2 = build_dof_map(T, NVTF)
    assert dm2.n_total == 18
    assert len(dm2.constrained) == 8
    assert set(dm2.constrained) == {2 * e + m for e in bnd for m in (0, 1)}


def test_counts_large_mesh():
    T = generate("unit_square", 250)
    dm = build_dof_map(T, TVNF)
    assert dm.n_total == 689_000


def test_block_layout():
    T = generate("unit_square", 2)
    dm = build_dof_map(T, TVNF)
    E, nT = dm.n_edges, dm.n_tris
    assert edge_dofs(E, E - 1)[1] == 2 * E - 1
    assert edge_dofs(E, 0)[2] == 2 * E
    assert dm.pres_dof(nT - 1) == 3 * E + nT - 1
    assert dm.mean_constraint_dof is None
    assert build_dof_map(T, NVTF).mean_constraint_dof == 3 * E + nT


def test_constrained_on_boundary_only():
    T = generate("unit_square", 3)
    for bc in (TVNF, NVTF):
        dm = build_dof_map(T, bc)
        assert np.all(dm.constrained >= 0)
        assert np.all(dm.constrained < dm.n_total)
        for d in dm.constrained:
            e = d // 2 if bc == NVTF else d - 2 * dm.n_edges
            assert T.boundary_edge[e]


def test_unknown_bc_rejected():
    T = generate("unit_square", 1)
    with pytest.raises(ValueError):
        build_dof_map(T, "dirichlet")


def test_mixed_kinds_constrain_each_edge_by_its_own_kind():
    # one kind per boundary edge: the constrained set is the union of each
    # edge's fixed trace dofs, and the mean-pressure dof exists iff every
    # boundary edge is NVTF
    T = generate("unit_square", 3)
    bnd = np.flatnonzero(T.boundary_edge)
    rng = np.random.default_rng(5)
    for kinds in [rng.choice([TVNF, NVTF], len(bnd)), np.full(len(bnd), NVTF),
                  np.where(np.arange(len(bnd)) == 4, TVNF, NVTF)]:
        dm = build_dof_map(T, kinds)
        want = set()
        for e, kind in zip(bnd, kinds):
            want |= set(edge_dofs(dm.n_edges, e)[list(FIXES[kind])].tolist())
        assert set(dm.constrained.tolist()) == want
        assert len(dm.constrained) == len(want)
        floats = bool(np.all(kinds == NVTF))
        assert (dm.mean_constraint_dof is not None) == floats
        assert dm.n_total == 3 * dm.n_edges + dm.n_tris + floats


def test_unknown_edge_kind_rejected():
    T = generate("unit_square", 2)
    kinds = np.full(int(T.boundary_edge.sum()), TVNF, dtype=object)
    kinds[3] = "dirichlet"
    with pytest.raises(ValueError, match="dirichlet"):
        build_dof_map(T, kinds)


def test_dof_locations():
    T = generate("unit_square", 1)
    dm = build_dof_map(T, TVNF)
    pts = vertex_field_at_dofs(T.edges, T.triangles, T.vertices)
    # edge (0,0)-(1,0) is edge (v0, v1); find it
    e = next(i for i, (a, b) in enumerate(T.edges)
             if np.allclose(T.vertices[a], [0, 0]) and np.allclose(T.vertices[b], [1, 0]))
    g = (1 - 1 / np.sqrt(3)) / 2
    assert np.allclose(pts[edge_dofs(dm.n_edges, e)[0]], [g, 0.0])
    assert np.allclose(pts[edge_dofs(dm.n_edges, e)[1]], [1 - g, 0.0])
    assert np.allclose(pts[edge_dofs(dm.n_edges, e)[2]], [0.5, 0.0])
    # pressure dof of triangle (0,0),(1,0),(1,1)
    k = next(k for k in range(T.n_triangles)
             if np.allclose(T.barycenters()[k], [2 / 3, 1 / 3]))
    assert np.allclose(pts[dm.pres_dof(k)], [2 / 3, 1 / 3])


@pytest.mark.parametrize("kind", [TVNF, NVTF])
def test_trace_dofs_split_each_edge(kind):
    # a kind fixes a non-empty proper subset of its edge's 3 dofs; fixed and
    # loaded dofs are disjoint and together are the edge's 3 dofs
    T = generate("unit_square", 3)
    E = T.n_edges
    fixes = np.array(FIXES[kind])
    assert 0 < fixes.sum() < 3
    assert fixes.sum() == (1 if kind == TVNF else 2)
    dm = build_dof_map(T, kind)
    assert dm.fixed.shape == (len(dm.boundary_edges), 3)
    assert (dm.fixed == fixes).all()
    for e, mask in zip(dm.boundary_edges, dm.fixed):
        dofs = edge_dofs(E, e)
        f, l = set(dofs[mask]), set(dofs[~mask])
        assert f and l and not f & l
        assert f | l == {2 * e, 2 * e + 1, 2 * E + e} == set(dofs)
    with pytest.raises(ValueError, match="dirichlet"):
        build_dof_map(T, "dirichlet")


def test_constrained_are_fixed_boundary_traces():
    for domain, n in (("unit_square", 3), ("t_shape", 2)):
        T = generate(domain, n)
        bnd = np.flatnonzero(T.boundary_edge)
        for bc in (TVNF, NVTF):
            fixed = edge_dofs(T.n_edges, bnd)[:, list(FIXES[bc])]
            assert np.array_equal(build_dof_map(T, bc).constrained, np.sort(fixed.ravel()))


def test_constant_velocity_kernel_rejected():
    # TVNF on x = 0, 1 fixes u . t = u_y and NVTF on y = 0, 1 fixes u . n = u_y,
    # so u = (1, 0) has zero energy; with the kinds swapped both fix u_x; NVTF
    # on x = 0 in place of TVNF fixes u_x there and leaves no constant free
    T = generate("unit_square", 4)
    mid = T.vertices[T.edges[T.boundary_edge]].mean(axis=1)
    vertical = np.isclose(mid[:, 0], 0) | np.isclose(mid[:, 0], 1)
    with pytest.raises(ValueError, match=r"constant velocity \(1, 0\) free"):
        build_dof_map(T, np.where(vertical, TVNF, NVTF))
    with pytest.raises(ValueError, match=r"constant velocity \(0, 1\) free"):
        build_dof_map(T, np.where(vertical, NVTF, TVNF))
    build_dof_map(T, np.where(np.isclose(mid[:, 0], 1), TVNF, NVTF))


ORDER_MESHES = [("unit_square", 1), ("unit_square", 2), ("unit_square", 3),
                ("unit_square", 8), ("t_shape", 2), ("refined", 3)]


def order_mesh(domain, n):
    if domain == "refined":
        return refine_uniform(generate("unit_square", n))
    return generate(domain, n)


@pytest.mark.parametrize("bc", [TVNF, NVTF])
@pytest.mark.parametrize("domain,n", ORDER_MESHES)
def test_dissection_order_is_a_permutation(domain, n, bc):
    T = order_mesh(domain, n)
    dm = build_dof_map(T, bc)
    order = dissection_order(T, dm)
    assert np.array_equal(np.sort(order), np.arange(dm.n_total))
    if bc == NVTF:
        assert order[-1] == dm.mean_constraint_dof


@pytest.mark.parametrize("bc", [TVNF, NVTF])
@pytest.mark.parametrize("domain,n", ORDER_MESHES)
def test_dissection_edges_follow_their_pressures(domain, n, bc):
    T = order_mesh(domain, n)
    dm = build_dof_map(T, bc)
    rank = np.argsort(dissection_order(T, dm))
    inner = np.flatnonzero(T.edge_tris[:, 1] >= 0)
    last_pressure = rank[dm.pres_dof(T.edge_tris[inner])].max(axis=1)
    assert np.all(rank[edge_dofs(dm.n_edges, inner)].min(axis=1) > last_pressure)


@pytest.mark.parametrize("bc", [TVNF, NVTF])
@pytest.mark.parametrize("domain,n", [("unit_square", 8), ("t_shape", 4)])
def test_dissection_root_separator_separates(domain, n, bc):
    # The first half holds the triangles whose pressures come first, and an
    # edge lies in a half when all of its triangles do. The order must list
    # the first half, the second half, then the rest (the root separator and
    # the NVTF border). Oracle: the assembled matrix couples no dof of one
    # half with one of the other, and each separator edge couples to both.
    T = generate(domain, n)
    dm = build_dof_map(T, bc)
    order = dissection_order(T, dm)
    rank = np.argsort(order)
    pressure_rank = rank[dm.pres_dof(np.arange(dm.n_tris))]
    first = pressure_rank < np.sort(pressure_rank)[dm.n_tris // 2]
    tris = np.where(T.edge_tris < 0, T.edge_tris[:, :1], T.edge_tris)

    def half(side):
        edges = np.flatnonzero(side[tris].all(axis=1))
        return np.concatenate([edge_dofs(dm.n_edges, edges).ravel(),
                               dm.pres_dof(np.flatnonzero(side))])

    h1, h2 = half(first), half(~first)
    k1, k2 = len(h1), len(h2)
    assert np.array_equal(np.sort(order[:k1]), np.sort(h1))
    assert np.array_equal(np.sort(order[k1:k1 + k2]), np.sort(h2))

    A = system.assemble(T, dm).A
    P = A[order][:, order]
    assert P[:k1, k1:k1 + k2].nnz == 0 and P[k1:k1 + k2, :k1].nnz == 0
    separator = np.flatnonzero(first[tris[:, 0]] != first[tris[:, 1]])
    assert len(separator) and k1 + k2 + 3 * len(separator) + (bc == NVTF) == dm.n_total
    for d in edge_dofs(dm.n_edges, separator)[:, :2].ravel():
        row = A[d]
        assert row[:, h1].nnz and row[:, h2].nnz
