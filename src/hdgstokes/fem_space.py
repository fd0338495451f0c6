"""Global dof numbering for the lowest-order hybrid triple.

Velocity: BDM1, two dofs per edge = point values of v . n_E at the two
Gauss nodes of the edge (n_E the global edge normal). Multiplier: one
scalar per edge, the tangential trace along the global lower->higher
tangent. Pressure: one constant per triangle. Block layout:

    BDM dofs        [0, 2E)       edge_dofs(E, e)[m] = 2e + m   (m = 0, 1)
    multiplier dofs [2E, 3E)      edge_dofs(E, e)[2] = 2E + e
    pressure dofs   [3E, 3E + T)  pres_dof(t)        = 3E + t

Every boundary edge carries its own kind of condition, TVNF or NVTF. A
kind is one row of the table FIXES: which of its edge's three dofs it
fixes; the boundary traction loads the others. TVNF fixes the multiplier
(u_t) and the normal traction loads both BDM dofs; NVTF fixes both BDM
dofs (u_n) and the tangential traction loads the multiplier.
When no boundary edge leaves a normal dof free, the pressure is fixed
only up to a constant: one extra row/column at index 3E + T then enforces
its zero mean. A constant velocity has zero energy, so build_dof_map
rejects kinds that leave one free. The DofMap is the one place these
rules live; they serve the global boundary conditions on Gamma and the
MRAS interface conditions alike (an MRAS local problem is a mesh of its
own whose interface edges are boundary edges).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .mesh import partition_bisect
from .quadrature import BDM_NODES

TVNF = "tvnf"
NVTF = "nvtf"
# the dofs of an edge (BDM 0, BDM 1, multiplier; edge_dofs order) each kind fixes
FIXES = {TVNF: (False, False, True), NVTF: (True, True, False)}


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
        """The zero-mean pressure row, present iff no boundary edge leaves a
        normal dof free."""
        return self.n_geometric if self.fixed[:, :2].all() else None

    @cached_property
    def fixed(self):
        """(n_boundary_edges, 3) mask of the dofs of each boundary edge that
        its kind fixes (FIXES); the traction loads the others."""
        return np.array([FIXES[k] for k in self.boundary_kinds], dtype=bool).reshape(-1, 3)

    @cached_property
    def constrained(self):
        """Sorted global indices fixed by the boundary conditions."""
        return np.sort(edge_dofs(self.n_edges, self.boundary_edges)[self.fixed])

    def pres_dof(self, tri):
        return 3 * self.n_edges + tri


def edge_dofs(n_edges, edges):
    """Global dofs of edges (index or array), shape (..., 3): BDM dof 0,
    BDM dof 1, multiplier."""
    edges = np.asarray(edges, dtype=np.int64)
    return np.stack([2 * edges, 2 * edges + 1, 2 * n_edges + edges], axis=-1)


def element_dofs(dm, tri_edges):
    """Global indices of the 9 velocity/multiplier dofs (nt, 9) and the pressure
    dof (nt,) of every triangle, given its edges tri_edges (nt, 3), in local
    order: the BDM dofs of local edges 0, 1, 2, then their multipliers."""
    dofs = edge_dofs(dm.n_edges, tri_edges)
    gdofs = np.concatenate([dofs[..., :2].reshape(len(dofs), 6), dofs[..., 2]], axis=1)
    return gdofs, dm.pres_dof(np.arange(len(dofs)))


def build_dof_map(T, bc):
    """Number the dofs of the hybrid triple on T under the boundary conditions
    bc: one kind of FIXES for all of Gamma, or one kind per boundary edge in
    ascending edge order. Raises ValueError on an unknown kind and on kinds
    that leave a constant velocity free: the fixed directions (n_E where an
    edge fixes its BDM dofs, t_E where it fixes its multiplier) must span
    the plane."""
    edges = np.flatnonzero(T.boundary_edge)
    kinds = np.broadcast_to(np.asarray(bc), edges.shape)
    unknown = kinds[~np.isin(kinds, list(FIXES))]
    if len(unknown):
        raise ValueError(f"unknown boundary condition kind {str(unknown[0])!r}")
    dm = DofMap(n_edges=T.n_edges, n_tris=T.n_triangles,
                boundary_edges=edges, boundary_kinds=kinds)
    fixed = dm.fixed
    dirs = np.concatenate([T.edge_n[edges[fixed[:, :2].any(axis=1)]],
                           T.edge_t[edges[fixed[:, 2]]]])
    # the unit rows have rank < 2 iff all are parallel to the first, so that
    # the constant c normal to it is fixed by none (an SVD would load LAPACK)
    c = np.array([-dirs[0, 1], dirs[0, 0]])
    if np.abs(dirs @ c).max() <= 1e-12:
        c = c * np.sign(c[np.argmax(np.abs(c))]) + 0.0  # no -0
        raise ValueError(f"the boundary kinds leave the constant velocity "
                         f"({c[0]:g}, {c[1]:g}) free")
    return dm


def dissection_order(T, dm):
    """Fill-reducing symmetric order of all dofs by nested dissection of T
    (George, SIAM J. Numer. Anal. 10, 1973). Its parts are those of
    mesh.partition_bisect with one triangle each: a triangle's id is its
    position, and a part [lo, hi) has halves split at (lo + hi) // 2. A
    pressure dof belongs to its triangle's leaf, the dofs of an edge to the
    deepest part that holds both of its triangles (a boundary edge passes
    its triangle twice), so a part's separator is the set of edges shared by
    its halves. Returns the dofs in post-order, both halves before their
    separator, with the NVTF border row last: order[k] is the dof
    eliminated k-th.
    """
    nt = T.n_triangles
    at = partition_bisect(T, nt)                            # triangle -> position
    tris = np.where(T.edge_tris < 0, T.edge_tris[:, :1], T.edge_tris)
    a, b = np.sort(at[tris], axis=1).T                      # positions, a <= b
    e_lo, e_hi = np.zeros(T.n_edges, dtype=np.int64), np.full(T.n_edges, nt)
    for _ in range((nt - 1).bit_length()):  # descend while a and b lie in one half
        mid = (e_lo + e_hi) // 2
        e_lo, e_hi = np.where(a >= mid, mid, e_lo), np.where(b < mid, mid, e_hi)
    # post-order of the parts [lo, hi): by right end, deeper (smaller) first
    dofs = np.concatenate([edge_dofs(dm.n_edges, np.arange(dm.n_edges)).ravel(),
                           dm.pres_dof(np.arange(nt))])
    end = np.concatenate([np.repeat(e_hi, 3), at + 1])
    size = np.concatenate([np.repeat(e_hi - e_lo, 3), np.ones(nt, dtype=np.int64)])
    return np.append(dofs[np.lexsort((size, end))], np.arange(dm.n_geometric, dm.n_total))


def vertex_field_at_dofs(edges, triangles, f):
    """Values of the piecewise-linear field with vertex values f (nv, ...) at
    the dof locations of edges (vertex pairs) and triangles, in dof order:
    BDM pairs at the edge Gauss nodes, multipliers at edge midpoints,
    pressures at barycenters (T.edges, T.triangles: every geometric dof)."""
    lo, hi = f[edges[:, 0]], f[edges[:, 1]]
    bdm = np.stack([(1 - s) * lo + s * hi for s in BDM_NODES], axis=1)  # (ne, 2, ...)
    return np.concatenate([bdm.reshape((-1,) + f.shape[1:]), 0.5 * (lo + hi),
                           f[triangles].mean(axis=1)])
