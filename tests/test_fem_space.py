import numpy as np
import pytest

from hdgstokes import NVTF, TVNF, build_dof_map, dof_locations, generate
from hdgstokes.fem_space import edge_dofs, trace_dofs


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


def test_dof_locations():
    T = generate("unit_square", 1)
    dm = build_dof_map(T, TVNF)
    pts = dof_locations(T, dm)
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
    # fixed and loaded traces are disjoint and together are the edge's 3 dofs
    T = generate("unit_square", 3)
    E = T.n_edges
    fixed, loaded = trace_dofs(E, np.arange(E), kind)
    for e in range(E):
        f, l = set(np.atleast_1d(fixed[e])), set(np.atleast_1d(loaded[e]))
        assert not f & l
        assert f | l == {2 * e, 2 * e + 1, 2 * E + e} == set(edge_dofs(E, e))
    assert len(np.atleast_1d(fixed[0])) == (1 if kind == TVNF else 2)
    with pytest.raises(ValueError):
        trace_dofs(E, 0, "dirichlet")


def test_constrained_are_fixed_boundary_traces():
    for domain, n in (("unit_square", 3), ("t_shape", 2)):
        T = generate(domain, n)
        bnd = np.flatnonzero(T.boundary_edge)
        for bc in (TVNF, NVTF):
            fixed, _ = trace_dofs(T.n_edges, bnd, bc)
            assert np.array_equal(build_dof_map(T, bc).constrained, np.sort(fixed.ravel()))
