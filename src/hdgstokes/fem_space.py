"""Global dof numbering for the lowest-order hybrid triple.

Velocity: BDM1, two dofs per edge = point values of v . n_E at the two
Gauss nodes of the edge (n_E the global edge normal). Multiplier: one
scalar per edge, the tangential trace along the global lower->higher
tangent. Pressure: one constant per triangle. Block layout:

    BDM dofs        [0, 2E)       edge_dofs(E, e)[m] = 2e + m   (m = 0, 1)
    multiplier dofs [2E, 3E)      edge_dofs(E, e)[2] = 2E + e
    pressure dofs   [3E, 3E + T)  pres_dof(t)        = 3E + t

With NVTF boundary conditions one extra row/column at index 3E + T
enforces the zero-mean pressure constraint.

A TVNF or NVTF condition on an edge fixes one velocity trace and loads the
conjugate one (trace_dofs): TVNF fixes the multiplier (u_t) and its datum
loads both BDM dofs; NVTF fixes both BDM dofs (u_n) and its datum loads
the multiplier. This one rule serves the global boundary conditions and
the MRAS interface conditions.
"""

from dataclasses import dataclass, field

import numpy as np

from .quadrature import BDM_NODES

TVNF = "tvnf"
NVTF = "nvtf"


@dataclass(frozen=True)
class DofMap:
    n_edges: int
    n_tris: int
    bc_kind: str
    constrained: np.ndarray = field(repr=False)  # sorted global indices fixed by the bc

    @property
    def n_geometric(self):
        return 3 * self.n_edges + self.n_tris

    @property
    def n_total(self):
        return self.n_geometric + (1 if self.bc_kind == NVTF else 0)

    @property
    def mean_constraint_dof(self):
        return self.n_geometric if self.bc_kind == NVTF else None

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


def element_dofs(dm, edge_ids, tris):
    """Global indices of the 9 velocity/multiplier dofs (ne, 9) and the pressure
    dof (ne,) of the triangles tris with edges edge_ids (ne, 3), in local order:
    the BDM dofs of local edges 0, 1, 2, then their multipliers."""
    dofs = edge_dofs(dm.n_edges, edge_ids)
    gdofs = np.concatenate([dofs[..., :2].reshape(len(dofs), 6), dofs[..., 2]], axis=1)
    return gdofs, dm.pres_dof(np.asarray(tris))


def build_dof_map(T, bc):
    """Number the dofs of the hybrid triple on T and classify the bc-constrained ones."""
    fixed, _ = trace_dofs(T.n_edges, np.flatnonzero(T.boundary_edge), bc)
    return DofMap(n_edges=T.n_edges, n_tris=T.n_triangles, bc_kind=bc,
                  constrained=np.sort(fixed.ravel()))


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


def dof_locations(T, dm):
    """Physical point of each geometric dof (see vertex_field_at_dofs)."""
    return vertex_field_at_dofs(T, dm, T.vertices)
