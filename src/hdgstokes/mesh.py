"""Conforming triangulations of the unit square and a T-shaped domain.

Edges are stored once, as (lower, higher) vertex pairs, with their frame:
length, unit lower->higher tangent and the global unit normal, which is
that tangent rotated by +90 degrees.
Every triangle records, for each of its three edges, the edge index and
an orientation sign that is +1 exactly when the triangle's outward normal
on that edge coincides with the global edge normal.
"""

import numpy as np


class MeshError(Exception):
    pass


class Triangulation:
    """Immutable 2D triangle mesh with full edge topology.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counter-clockwise vertex indices
    edges : (ne, 2) int array, each row (lo, hi) with lo < hi
    tri_edges : (nt, 3) int array, edge index of local edge k = (v_k, v_{k+1})
    tri_edge_sign : (nt, 3) int array, +1 iff outward normal == global edge normal
    edge_tris : (ne, 2) int array, adjacent triangle indices (-1 if boundary)
    edge_len : (ne,) float array, edge lengths
    edge_t : (ne, 2) float array, unit lower->higher tangents
    edge_n : (ne, 2) float array, global unit normals (edge_t rotated by +90 degrees)
    boundary_edge : (ne,) bool array
    h_K : (nt,) float array, triangle diameters
    areas : (nt,) float array
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise MeshError("triangle references a vertex index out of range")
        self._build_topology()
        self.validate()

    def _build_topology(self):
        t = self.triangles
        nt = t.shape[0]
        # local edge k runs from vertex k to vertex k+1 (mod 3)
        a = np.column_stack([t[:, 0], t[:, 1], t[:, 2]]).reshape(-1)
        b = np.column_stack([t[:, 1], t[:, 2], t[:, 0]]).reshape(-1)
        # one key per (lo, hi) pair; sorted keys keep the edges lexicographic
        nv = len(self.vertices)
        keys, inverse = np.unique(np.minimum(a, b) * nv + np.maximum(a, b),
                                  return_inverse=True)
        self.edges = np.column_stack([keys // nv, keys % nv])
        self.tri_edges = inverse.reshape(nt, 3).astype(np.int64)
        # traversal a->b against the (lo, hi) convention fixes the sign
        self.tri_edge_sign = np.where(a > b, 1, -1).reshape(nt, 3).astype(np.int64)

        ne = self.edges.shape[0]
        counts = np.bincount(self.tri_edges.ravel(), minlength=ne)
        if counts.max(initial=0) > 2:
            raise MeshError("non-manifold mesh: an edge belongs to more than 2 triangles")
        self.edge_tris = np.full((ne, 2), -1, dtype=np.int64)
        order = np.argsort(self.tri_edges.ravel(), kind="stable")
        tri_of_slot = np.repeat(np.arange(nt), 3)[order]
        edge_sorted = self.tri_edges.ravel()[order]
        first = np.searchsorted(edge_sorted, np.arange(ne), side="left")
        self.edge_tris[:, 0] = tri_of_slot[first]
        second = counts == 2
        self.edge_tris[second, 1] = tri_of_slot[first[second] + 1]
        self.boundary_edge = counts == 1

        v = self.vertices
        d = v[self.edges[:, 1]] - v[self.edges[:, 0]]
        self.edge_len = np.linalg.norm(d, axis=1)
        self.edge_t = d / self.edge_len[:, None]
        self.edge_n = np.column_stack([-self.edge_t[:, 1], self.edge_t[:, 0]])

        p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
        d1, d2 = p1 - p0, p2 - p0
        self.areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        l01 = np.linalg.norm(p1 - p0, axis=1)
        l12 = np.linalg.norm(p2 - p1, axis=1)
        l20 = np.linalg.norm(p0 - p2, axis=1)
        self.h_K = np.max(np.column_stack([l01, l12, l20]), axis=1)

    def validate(self):
        if np.any(self.areas <= 0):
            raise MeshError("found a triangle with non-positive area (not CCW?)")
        nb = int(self.boundary_edge.sum())
        if 2 * len(self.edges) != 3 * len(self.triangles) + nb:
            raise MeshError("Euler edge relation violated")

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def n_edges(self):
        return len(self.edges)

    def barycenters(self):
        return self.vertices[self.triangles].mean(axis=1)


def _grid_cells(x0, y0, nx, ny, n):
    """Vertex grid and CCW triangle pairs for a rectangle of nx-by-ny cells."""
    xs = x0 + np.arange(nx + 1) / n
    ys = y0 + np.arange(ny + 1) / n
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    vid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    sw = vid[:-1, :-1].ravel()
    se = vid[1:, :-1].ravel()
    ne_ = vid[1:, 1:].ravel()
    nw = vid[:-1, 1:].ravel()
    # each cell split by its SW-NE diagonal
    tris = np.vstack([np.column_stack([sw, se, ne_]),
                      np.column_stack([sw, ne_, nw])])
    return verts, tris


def generate(domain, n):
    """Structured mesh of 'unit_square' or 't_shape' with n subdivisions per unit length."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if domain == "unit_square":
        verts, tris = _grid_cells(0.0, 0.0, n, n, n)
        return Triangulation(verts, tris)
    if domain == "t_shape":
        # Int([0,1.5]x[0,1] u [0.5,1]x[-1,0]); cells of size 1/n must tile both parts
        if n % 2 != 0:
            raise ValueError("t_shape needs even n (bar is 1.5 long, stem 0.5 wide)")
        verts, tris = _grid_cells(0.0, -1.0, 3 * n // 2, 2 * n, n)
        # keep the triangles of the bar and the stem, then the vertices they use
        c = verts[tris].mean(axis=1)
        tris = tris[(c[:, 1] > 0) | ((c[:, 0] > 0.5) & (c[:, 0] < 1))]
        used, tris = np.unique(tris, return_inverse=True)
        return Triangulation(verts[used], tris.reshape(-1, 3))
    raise ValueError(f"unknown domain {domain!r}")


def refine_uniform(T):
    """Split each triangle into 4 congruent children via edge midpoints."""
    nv = T.n_vertices
    mid = 0.5 * (T.vertices[T.edges[:, 0]] + T.vertices[T.edges[:, 1]])
    verts = np.vstack([T.vertices, mid])
    m = nv + T.tri_edges  # midpoint vertex of local edge k, shape (nt, 3)
    t = T.triangles
    children = np.vstack([
        np.column_stack([t[:, 0], m[:, 0], m[:, 2]]),
        np.column_stack([m[:, 0], t[:, 1], m[:, 1]]),
        np.column_stack([m[:, 2], m[:, 1], t[:, 2]]),
        np.column_stack([m[:, 0], m[:, 1], m[:, 2]]),
    ])
    return Triangulation(verts, children)


def dual_graph(T):
    """Adjacency lists over triangles; triangles adjacent iff they share an edge."""
    adj = [[] for _ in range(T.n_triangles)]
    interior = ~T.boundary_edge
    for t0, t1 in T.edge_tris[interior]:
        adj[t0].append(t1)
        adj[t1].append(t0)
    return [sorted(a) for a in adj]


def write_mesh(T, path):
    """Plain-text mesh file: 'nv nt', nv lines 'x y', nt lines 'i j k'."""
    with open(path, "w") as f:
        f.write(f"{T.n_vertices} {T.n_triangles}\n")
        for x, y in T.vertices:
            f.write(f"{float(x)!r} {float(y)!r}\n")
        for i, j, k in T.triangles:
            f.write(f"{i} {j} {k}\n")


def read_mesh(path):
    """Parse a mesh file; topology is rebuilt, never stored."""
    with open(path) as f:
        lines = f.readlines()

    def record(k, convert, form):
        """The values of line k (1-based), one per field of form."""
        parts = lines[k - 1].split() if k <= len(lines) else []
        try:
            values = [convert(p) for p in parts]
        except ValueError:
            values = []
        if len(values) != len(form.split()):
            raise MeshError(f"{path}:{k}: expected '{form}'")
        return values

    nv, nt = record(1, int, "nv nt")
    if nv < 0 or nt < 0:
        raise MeshError(f"{path}:1: negative count in 'nv nt'")
    verts = [record(2 + i, float, "x y") for i in range(nv)]
    tris = [record(2 + nv + i, int, "i j k") for i in range(nt)]
    return Triangulation(np.reshape(verts, (nv, 2)), np.reshape(tris, (nt, 3)))
