"""Global dof numbering for the lowest-order hybrid triple.

Velocity: BDM1, two dofs per edge = point values of v . n_E at the two
Gauss nodes of the edge (n_E the global edge normal). Multiplier: one
scalar per edge, the tangential trace along the global lower->higher
tangent. Pressure: one constant per triangle. Block layout:

    BDM dofs        [0, 2E)       bdm_dof(e, m) = 2e + m
    multiplier dofs [2E, 3E)      mult_dof(e)   = 2E + e
    pressure dofs   [3E, 3E + T)  pres_dof(t)   = 3E + t

With NVTF boundary conditions one extra row/column at index 3E + T
enforces the zero-mean pressure constraint.
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

    def bdm_dof(self, edge, m):
        return 2 * edge + m

    def mult_dof(self, edge):
        return 2 * self.n_edges + edge

    def pres_dof(self, tri):
        return 3 * self.n_edges + tri


def build_dof_map(T, bc):
    """Number the dofs of the hybrid triple on T and classify the bc-constrained ones."""
    if bc not in (TVNF, NVTF):
        raise ValueError(f"unknown boundary condition kind {bc!r}")
    E = T.n_edges
    bnd = np.flatnonzero(T.boundary_edge)
    if bc == TVNF:
        constrained = 2 * E + bnd  # boundary multipliers: u_t = 0
    else:
        constrained = np.sort(np.concatenate([2 * bnd, 2 * bnd + 1]))  # u_n = 0
    return DofMap(n_edges=E, n_tris=T.n_triangles, bc_kind=bc,
                  constrained=constrained.astype(np.int64))


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
