"""Global dof numbering for the lowest-order hybrid triple.

Velocity: BDM1, two dofs per edge = point values of v . n_E at the two
Gauss nodes of the edge (n_E the global edge normal). Multiplier: one
scalar per edge, the tangential trace along the global lower->higher
tangent. Pressure: one constant per triangle. Block layout:

    BDM dofs        [0, 2E)       edge_dofs(E, e)[m] = 2e + m   (m = 0, 1)
    multiplier dofs [2E, 3E)      edge_dofs(E, e)[2] = 2E + e
    pressure dofs   [3E, 3E + T)  pres_dof(t)        = 3E + t

Every boundary edge carries its own kind of condition, TVNF or NVTF. A
condition fixes one velocity trace of its edge and loads the conjugate one
(trace_dofs): TVNF fixes the multiplier (u_t) and the normal component of
the boundary traction loads both BDM dofs; NVTF fixes both BDM dofs (u_n)
and the tangential component loads the multiplier.
When every boundary edge is NVTF, no normal velocity is free and the
pressure is fixed only up to a constant: one extra row/column at index
3E + T then enforces its zero mean. The DofMap is the one place these
rules live; they serve the global boundary conditions on Gamma and the
MRAS interface conditions alike (an MRAS local problem is a mesh of its
own whose interface edges are boundary edges).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .quadrature import BDM_NODES

TVNF = "tvnf"
NVTF = "nvtf"
KINDS = (TVNF, NVTF)  # the order of the boundary groups


@dataclass(frozen=True)
class DofMap:
    n_edges: int
    n_tris: int
    boundary_edges: np.ndarray = field(repr=False)  # Gamma edge indices, ascending
    boundary_kinds: np.ndarray = field(repr=False)  # TVNF or NVTF per boundary edge

    @property
    def n_geometric(self):
        return 3 * self.n_edges + self.n_tris

    @property
    def n_total(self):
        return self.n_geometric + (self.mean_constraint_dof is not None)

    @property
    def mean_constraint_dof(self):
        """The zero-mean pressure row, present iff every boundary edge is NVTF
        (no boundary edge leaves a normal velocity free)."""
        return self.n_geometric if np.all(self.boundary_kinds == NVTF) else None

    @cached_property
    def constrained(self):
        """Sorted global indices fixed by the boundary conditions."""
        return np.sort(np.concatenate([trace_dofs(self.n_edges, edges, kind)[0].ravel()
                                       for kind, edges in self.boundary_groups()]))

    def boundary_groups(self):
        """(kind, edges) for each kind in KINDS order; a group may be empty."""
        return [(kind, self.boundary_edges[self.boundary_kinds == kind]) for kind in KINDS]

    def pres_dof(self, tri):
        return 3 * self.n_edges + tri


def edge_dofs(n_edges, edges):
    """Global dofs of edges (index or array), shape (..., 3): BDM dof 0,
    BDM dof 1, multiplier."""
    edges = np.asarray(edges, dtype=np.int64)
    return np.stack([2 * edges, 2 * edges + 1, 2 * n_edges + edges], axis=-1)


def trace_dofs(n_edges, edges, kind):
    """(fixed, loaded) dofs of edges carrying a TVNF or NVTF condition: TVNF
    fixes the multiplier and loads both BDM dofs, NVTF the reverse."""
    dofs = edge_dofs(n_edges, edges)
    if kind == TVNF:
        return dofs[..., 2], dofs[..., :2]
    if kind == NVTF:
        return dofs[..., :2], dofs[..., 2]
    raise ValueError(f"unknown boundary condition kind {kind!r}")


def element_dofs(dm, tri_edges):
    """Global indices of the 9 velocity/multiplier dofs (nt, 9) and the pressure
    dof (nt,) of every triangle, given its edges tri_edges (nt, 3), in local
    order: the BDM dofs of local edges 0, 1, 2, then their multipliers."""
    dofs = edge_dofs(dm.n_edges, tri_edges)
    gdofs = np.concatenate([dofs[..., :2].reshape(len(dofs), 6), dofs[..., 2]], axis=1)
    return gdofs, dm.pres_dof(np.arange(len(dofs)))


def build_dof_map(T, bc):
    """Number the dofs of the hybrid triple on T under the boundary conditions
    bc: one kind (TVNF or NVTF) for all of Gamma, or one kind per boundary
    edge in ascending edge order."""
    edges = np.flatnonzero(T.boundary_edge)
    kinds = np.broadcast_to(np.asarray(bc), edges.shape)
    unknown = kinds[~np.isin(kinds, KINDS)]
    if len(unknown):
        raise ValueError(f"unknown boundary condition kind {str(unknown[0])!r}")
    return DofMap(n_edges=T.n_edges, n_tris=T.n_triangles,
                  boundary_edges=edges, boundary_kinds=kinds)


def dissection_order(T, dm):
    """Fill-reducing symmetric order of all dofs by nested dissection of T
    (George, SIAM J. Numer. Anal. 10, 1973).

    The triangles are bisected recursively at the median barycenter along
    the longer extent of each part, every part of a level at once, down to
    single triangles. A pressure dof belongs to its triangle's leaf; the
    dofs of an edge belong to the deepest part that holds both of its
    triangles, so a part's separator is the set of edges shared by its two
    halves (a boundary edge belongs to its triangle's leaf). Returns the
    dofs in post-order, both halves before their separator, with the NVTF
    border row last: order[k] is the dof eliminated k-th.
    """
    c = T.barycenters()
    nt = T.n_triangles
    pos = np.arange(nt)
    perm, at = pos.copy(), pos.copy()                       # triangle <-> position
    lo, hi = np.zeros(nt, dtype=np.int64), np.full(nt, nt)  # part [lo, hi) of a position
    t0, t1 = T.edge_tris.T
    e_lo, e_hi = np.zeros(T.n_edges, dtype=np.int64), np.full(T.n_edges, nt)
    joined = np.flatnonzero(t1 >= 0)                        # edges inside one part
    while np.any(hi - lo > 1):
        first = lo == pos
        xy = c[perm]
        extent = np.maximum.reduceat(xy, pos[first]) - np.minimum.reduceat(xy, pos[first])
        axis = (extent[:, 1] > extent[:, 0]).astype(np.int64)[np.cumsum(first) - 1]
        perm = perm[np.lexsort((xy[pos, axis], lo))]
        at[perm] = pos
        mid = (lo + hi) // 2
        lo, hi = np.where(pos < mid, lo, mid), np.where(pos < mid, mid, hi)
        a, b = at[t0[joined]], at[t1[joined]]
        keep = lo[a] == lo[b]
        joined, a = joined[keep], a[keep]
        e_lo[joined], e_hi[joined] = lo[a], hi[a]
    bnd = T.boundary_edge
    e_lo[bnd] = at[t0[bnd]]
    e_hi[bnd] = e_lo[bnd] + 1
    # post-order of the parts [lo, hi): by right end, deeper (smaller) first
    dofs = np.concatenate([edge_dofs(dm.n_edges, np.arange(dm.n_edges)).ravel(),
                           dm.pres_dof(perm)])
    end = np.concatenate([np.repeat(e_hi, 3), pos + 1])
    size = np.concatenate([np.repeat(e_hi - e_lo, 3), np.ones(nt, dtype=np.int64)])
    order = dofs[np.lexsort((size, end))]
    if dm.mean_constraint_dof is not None:
        order = np.append(order, dm.mean_constraint_dof)
    return order


def vertex_field_at_dofs(T, dm, f):
    """Values of the piecewise-linear field with vertex values f (nv, ...) at
    every geometric dof location (BDM: edge Gauss nodes, multiplier: edge
    midpoints, pressure: barycenters). The NVTF constraint row has none."""
    lo, hi = f[T.edges[:, 0]], f[T.edges[:, 1]]
    out = np.empty((dm.n_geometric,) + f.shape[1:])
    for m, s in enumerate(BDM_NODES):
        out[m:2 * dm.n_edges:2] = (1 - s) * lo + s * hi
    out[2 * dm.n_edges:3 * dm.n_edges] = 0.5 * (lo + hi)
    out[3 * dm.n_edges:] = f[T.triangles].mean(axis=1)
    return out
