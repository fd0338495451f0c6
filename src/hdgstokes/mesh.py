"""Conforming triangulations of the unit square and a T-shaped domain, and
partition_bisect, the one recursive coordinate bisection of the code (the
bisect:N Schwarz partitions and the nested-dissection order use it).

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
        if not np.isfinite(self.vertices).all():
            raise MeshError("vertex coordinates must be finite")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if self.triangles.size and (self.triangles.min() < 0
                                    or self.triangles.max() >= len(self.vertices)):
            raise MeshError("triangle references a vertex index out of range")
        self._build_topology()
        if np.any(self.areas <= 0):
            raise MeshError("found a triangle with non-positive area (not CCW?)")

    def _build_topology(self):
        t = self.triangles
        nt = t.shape[0]
        # local edge k runs from vertex k to vertex k+1 (mod 3)
        a = t.ravel()
        b = np.roll(t, -1, axis=1).ravel()
        # one key per (lo, hi) pair; sorted keys keep the edges lexicographic
        nv = len(self.vertices)
        keys, inverse, counts = np.unique(np.minimum(a, b) * nv + np.maximum(a, b),
                                          return_inverse=True, return_counts=True)
        self.edges = np.column_stack([keys // nv, keys % nv])
        self.tri_edges = inverse.reshape(nt, 3).astype(np.int64)
        # traversal a->b against the (lo, hi) convention fixes the sign
        self.tri_edge_sign = np.where(a > b, 1, -1).reshape(nt, 3).astype(np.int64)

        if counts.max(initial=0) > 2:
            raise MeshError("non-manifold mesh: an edge belongs to more than 2 triangles")
        # the triangle of each slot (3 per triangle), edge by edge, ascending in each
        tri_of_slot = np.argsort(inverse, kind="stable") // 3
        end = np.cumsum(counts)
        self.edge_tris = np.column_stack([tri_of_slot[end - counts],
                                          np.where(counts == 2, tri_of_slot[end - 1], -1)])
        self.boundary_edge = counts == 1

        v = self.vertices
        d = v[self.edges[:, 1]] - v[self.edges[:, 0]]
        self.edge_len = np.linalg.norm(d, axis=1)
        self.edge_t = d / self.edge_len[:, None]
        self.edge_n = np.column_stack([-self.edge_t[:, 1], self.edge_t[:, 0]])

        d1, d2 = v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]
        self.areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        self.h_K = self.edge_len[self.tri_edges].max(axis=1)

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


def partition_bisect(T, n_parts):
    """Recursive coordinate bisection of the barycenters into n_parts parts
    (Berger & Bokhari, IEEE Trans. Comput. C-36, 1987), for 1 <= n_parts <=
    T.n_triangles: one part id per triangle. Every part of a level is split
    at once. A part [lo, hi) of positions that must still make k parts is
    sorted stably along its longer extent (x on a tie) and cut at lo +
    round((hi - lo) * (k // 2) / k), half to even, with k // 2 parts below;
    no part is left empty. With n_parts = T.n_triangles every cut is at
    (lo + hi) // 2 and a triangle's id is its final position, which
    dissection_order relies on.
    """
    c = T.barycenters()
    nt = T.n_triangles
    pos = np.arange(nt)
    perm = pos.copy()                                       # position -> triangle
    lo, hi = np.zeros(nt, dtype=np.int64), np.full(nt, nt)  # part [lo, hi) of a position
    k, first = np.full(nt, n_parts), np.zeros(nt, dtype=np.int64)  # parts to make, first id
    while np.any(k > 1):
        start = lo == pos
        xy = c[perm]
        extent = np.maximum.reduceat(xy, pos[start]) - np.minimum.reduceat(xy, pos[start])
        axis = (extent[:, 1] > extent[:, 0]).astype(np.int64)[np.cumsum(start) - 1]
        perm = perm[np.lexsort((xy[pos, axis], lo))]
        half = k // 2
        cut = lo + np.round((hi - lo) * half / k).astype(np.int64)
        below = pos < cut
        lo, hi = np.where(below, lo, cut), np.where(below, cut, hi)
        k, first = np.where(below, half, k - half), np.where(below, first, first + half)
    parts = np.empty(nt, dtype=np.int64)
    parts[perm] = first
    return parts


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
