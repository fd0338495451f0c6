import math

import numpy as np
import pytest

from hdgstokes import mesh
from meshes import jittered_square


def euler_holds(T):
    nb = int(T.boundary_edge.sum())
    return 2 * T.n_edges == 3 * T.n_triangles + nb


def test_unit_square_1_counts():
    T = mesh.generate("unit_square", 1)
    assert T.n_vertices == 4
    assert T.n_triangles == 2
    assert T.n_edges == 5
    assert int(T.boundary_edge.sum()) == 4


def test_unit_square_250_triangle_count():
    T = mesh.generate("unit_square", 250)
    assert T.n_triangles == 125_000
    assert T.n_edges == 188_000


def test_t_shape_counts():
    # bar [0,1.5]x[0,1]: 3x2 cells at n=2; stem [0.5,1]x[-1,0]: 1x2 cells
    T = mesh.generate("t_shape", 2)
    assert T.n_triangles == 2 * (6 + 2)
    assert np.isclose(T.areas.sum(), 1.5 + 0.5)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_t_shape_oracle(n):
    # bar [0,1.5]x[0,1] and stem [0.5,1]x[-1,0] share the n/2 + 1 vertices
    # of the segment [0.5,1]x{0}
    T = mesh.generate("t_shape", n)
    assert T.n_triangles == 4 * n * n
    assert np.isclose(T.areas.sum(), 2.0, rtol=1e-14)
    x, y = T.barycenters().T
    in_bar = (0 < x) & (x < 1.5) & (0 < y) & (y < 1)
    in_stem = (0.5 < x) & (x < 1) & (-1 < y) & (y < 0)
    assert np.all(in_bar | in_stem)
    m = n // 2
    assert T.n_vertices == (3 * m + 1) * (n + 1) + (m + 1) * (n + 1) - (m + 1)
    assert np.abs(T.vertices * n - np.round(T.vertices * n)).max() < 1e-12


def test_t_shape_odd_n_rejected():
    with pytest.raises(ValueError):
        mesh.generate("t_shape", 3)


def test_generate_rejects_n0():
    with pytest.raises(ValueError):
        mesh.generate("unit_square", 0)


def test_generate_rejects_unknown_domain():
    with pytest.raises(ValueError, match="unknown domain 'disk'"):
        mesh.generate("disk", 4)


@pytest.mark.parametrize("domain,n,refine", [("unit_square", 1, False), ("unit_square", 5, False),
                                             ("t_shape", 2, False), ("t_shape", 4, False),
                                             ("t_shape", 2, True)],
                         ids=["unit_square-1", "unit_square-5", "t_shape-2", "t_shape-4",
                              "t_shape-2-refined"])
def test_invariants(domain, n, refine):
    T = mesh.generate(domain, n)
    if refine:
        T = mesh.refine_uniform(T)
    assert euler_holds(T)
    assert np.all(T.areas > 0)
    counts = np.bincount(T.tri_edges.ravel(), minlength=T.n_edges)
    assert set(np.unique(counts)) <= {1, 2}
    assert np.array_equal(counts == 1, T.boundary_edge)
    # each edge's triangles (those holding both of its vertices), ascending, -1 padded
    tris = [set(t) for t in T.triangles.tolist()]
    oracle = [[k for k, t in enumerate(tris) if {lo, hi} <= t] for lo, hi in T.edges.tolist()]
    oracle = np.array([ks + [-1] * (2 - len(ks)) for ks in oracle], dtype=np.int64)
    assert T.edge_tris.dtype == oracle.dtype and np.array_equal(T.edge_tris, oracle)


def test_refine_counts():
    T = mesh.generate("unit_square", 1)
    R = mesh.refine_uniform(T)
    assert R.n_triangles == 8
    assert R.n_edges == 2 * 5 + 3 * 2
    RR = mesh.refine_uniform(R)
    assert RR.n_triangles == 32


def test_refine_matches_direct_generation():
    R = mesh.refine_uniform(mesh.generate("unit_square", 2))
    D = mesh.generate("unit_square", 4)
    assert R.n_triangles == D.n_triangles
    assert R.n_edges == D.n_edges
    assert R.n_vertices == D.n_vertices


def test_refine_preserves_area():
    T = mesh.generate("t_shape", 2)
    R = mesh.refine_uniform(T)
    assert abs(R.areas.sum() - T.areas.sum()) <= 1e-12 * T.areas.sum()


def test_edge_normals_reproducible():
    T = mesh.generate("unit_square", 3)
    tang = T.vertices[T.edges[:, 1]] - T.vertices[T.edges[:, 0]]
    tang /= np.linalg.norm(tang, axis=1)[:, None]
    normals = np.column_stack([-tang[:, 1], tang[:, 0]])
    assert np.allclose(normals, T.edge_n)
    # the recorded sign reproduces the outward-normal comparison
    for k in range(T.n_triangles):
        v = T.vertices[T.triangles[k]]
        for loc in range(3):
            a, b = v[loc], v[(loc + 1) % 3]
            t = (b - a) / np.linalg.norm(b - a)
            n_out = np.array([t[1], -t[0]])
            e = T.tri_edges[k, loc]
            assert np.isclose(n_out @ normals[e], T.tri_edge_sign[k, loc])


@pytest.mark.parametrize("T", [jittered_square(6, 3, 0.3), mesh.generate("t_shape", 4)],
                         ids=["jittered", "t_shape"])
def test_edge_frame(T):
    for e, (lo, hi) in enumerate(T.edges):
        a, b = T.vertices[lo], T.vertices[hi]
        t, n = T.edge_t[e], T.edge_n[e]
        assert np.isclose(T.edge_len[e], math.dist(a, b), rtol=1e-15, atol=0)
        assert np.isclose(t @ t, 1.0, rtol=0, atol=1e-15)
        assert np.isclose(n @ n, 1.0, rtol=0, atol=1e-15)
        assert abs(t @ n) <= 1e-15
        # lower->higher tangent, normal rotated by +90 degrees
        assert np.isclose(t @ (b - a), T.edge_len[e], rtol=1e-14, atol=0)
        assert np.isclose(t[0] * n[1] - t[1] * n[0], 1.0, rtol=0, atol=1e-15)


def test_read_mesh_vertex_out_of_range():
    with pytest.raises(mesh.MeshError, match="out of range"):
        mesh.Triangulation([(0, 0), (1, 0), (0, 1)], [[0, 1, 7]])


def test_read_mesh_nonmanifold():
    # three triangles sharing the edge (0, 1)
    with pytest.raises(mesh.MeshError, match="non-manifold"):
        mesh.Triangulation([(0, 0), (1, 0), (0, 1), (0, -1), (1, 1)],
                           [[0, 1, 2], [0, 3, 1], [0, 1, 4]])


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_read_mesh_non_finite_vertex(x):
    # a NaN vertex gives NaN areas and an inf vertex an inf area, and neither
    # fails the area test, so the coordinates themselves are checked
    with pytest.raises(mesh.MeshError, match="finite"):
        mesh.Triangulation([(0, 0), (x, 0), (0, 1)], [[0, 1, 2]])


@pytest.mark.parametrize("vertices,triangles,msg", [
    ([(0, 0, 0), (1, 0, 0), (0, 1, 0)], [[0, 1, 2]], r"vertices must be an \(nv, 2\)"),
    ([(0, 0), (1, 0), (0, 1)], [0, 1, 2], r"triangles must be an \(nt, 3\)"),
])
def test_read_mesh_bad_shape(vertices, triangles, msg):
    with pytest.raises(mesh.MeshError, match=msg):
        mesh.Triangulation(vertices, triangles)


# --- recursive coordinate bisection ----------------------------------------

def recursive_bisect(T, n_parts):
    """Reference: one split per call, on the barycenters of the part."""
    b = T.barycenters()
    parts = np.zeros(T.n_triangles, dtype=np.int64)

    def split(idx, n, offset):
        if n == 1:
            parts[idx] = offset
            return
        n1 = n // 2
        ext = b[idx].max(axis=0) - b[idx].min(axis=0)
        axis = int(np.argmax(ext))
        order = idx[np.argsort(b[idx, axis], kind="stable")]
        cut = int(round(len(idx) * n1 / n))
        split(order[:cut], n1, offset)
        split(order[cut:], n - n1, offset + n1)

    split(np.arange(T.n_triangles), n_parts, 0)
    return parts


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("domain,n", [("unit_square", n) for n in (1, 2, 3, 5, 8)]
                         + [("t_shape", 2), ("t_shape", 4)])
def test_partition_bisect_matches_recursion(domain, n, refine):
    T = mesh.generate(domain, n)
    if refine:
        T = mesh.refine_uniform(T)
    nt = T.n_triangles
    for k in sorted(set(range(1, min(nt, 40) + 1)) | {nt}):
        assert np.array_equal(mesh.partition_bisect(T, k), recursive_bisect(T, k)), k
