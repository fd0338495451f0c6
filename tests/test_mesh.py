import math

import numpy as np
import pytest

from hdgstokes import mesh


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


@pytest.mark.parametrize("domain,n", [("unit_square", 1), ("unit_square", 5),
                                      ("t_shape", 2), ("t_shape", 4)])
def test_invariants(domain, n):
    T = mesh.generate(domain, n)
    assert euler_holds(T)
    assert np.all(T.areas > 0)
    counts = np.bincount(T.tri_edges.ravel(), minlength=T.n_edges)
    assert set(np.unique(counts)) <= {1, 2}
    assert np.array_equal(counts == 1, T.boundary_edge)


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


def jittered_square(n, seed):
    T = mesh.generate("unit_square", n)
    inner = (T.vertices > 0).all(axis=1) & (T.vertices < 1).all(axis=1)
    jitter = np.random.default_rng(seed).uniform(-0.3 / n, 0.3 / n, T.vertices.shape)
    return mesh.Triangulation(T.vertices + inner[:, None] * jitter, T.triangles)


@pytest.mark.parametrize("T", [jittered_square(6, 3), mesh.generate("t_shape", 4)],
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


def test_dual_graph_unit_square_1():
    T = mesh.generate("unit_square", 1)
    adj = mesh.dual_graph(T)
    assert adj == [[1], [0]]


def test_dual_graph_handshake():
    T = mesh.generate("unit_square", 4)
    adj = mesh.dual_graph(T)
    degs = [len(a) for a in adj]
    interior = T.n_edges - int(T.boundary_edge.sum())
    assert sum(degs) == 2 * interior
    assert max(degs) <= 3
    for i, nbrs in enumerate(adj):
        for j in nbrs:
            assert i in adj[j]


def test_dual_graph_corner_triangles():
    # 8-triangle mesh: a triangle with two boundary edges has degree <= 2
    T = mesh.generate("unit_square", 2)
    adj = mesh.dual_graph(T)
    n_bnd = (T.boundary_edge[T.tri_edges]).sum(axis=1)
    for k in range(T.n_triangles):
        if n_bnd[k] >= 1:
            assert len(adj[k]) <= 2


def test_mesh_file_roundtrip(tmp_path):
    T = mesh.generate("unit_square", 1)
    path = tmp_path / "m.txt"
    mesh.write_mesh(T, path)
    R = mesh.read_mesh(path)
    assert R.n_vertices == T.n_vertices
    assert R.n_triangles == T.n_triangles
    assert R.n_edges == T.n_edges
    assert np.array_equal(R.triangles, T.triangles)
    assert np.allclose(R.vertices, T.vertices)


def test_read_mesh_vertex_out_of_range(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n0 0\n1 0\n0 1\n0 1 7\n")
    with pytest.raises(mesh.MeshError):
        mesh.read_mesh(path)


def test_read_mesh_nonmanifold(tmp_path):
    # three triangles sharing the edge (0, 1)
    path = tmp_path / "bad.txt"
    path.write_text("5 3\n0 0\n1 0\n0 1\n0 -1\n1 1\n0 1 2\n0 3 1\n0 1 4\n")
    with pytest.raises(mesh.MeshError):
        mesh.read_mesh(path)


def test_read_mesh_parse_error_has_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1\n0 0\nnot-a-number 1\n0 1 2\n")
    with pytest.raises(mesh.MeshError, match=":3:"):
        mesh.read_mesh(path)


def test_read_mesh_negative_count_is_header_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("-1 1\n0 1 2\n")
    with pytest.raises(mesh.MeshError, match=":1:"):
        mesh.read_mesh(path)
