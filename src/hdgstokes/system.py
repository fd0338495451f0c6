"""Global saddle-point assembly and constraints.

The assembled matrix is [[A_a, B^T], [B, 0]] with B the (negative)
divergence coupling, so the full matrix is symmetric for eps = -1.
The boundary conditions are those of the DofMap, one kind per boundary
edge (fem_space), and the boundary datum is the traction sigma(u, p) n,
whose normal (TVNF) or tangential (NVTF) component each edge loads.
Essential conditions are applied by symmetric row/column elimination to
identity; prescribed nonzero values are lifted into the right hand side.
When every boundary edge is NVTF one bordered row/column enforces the
zero-mean pressure constraint (entries: triangle areas). The MRAS local
problems are this same assembly on a subdomain mesh
(schwarz.mras_local_matrix).

AssembledSystem is all the later stages take; its order (the mesh's nested
dissection) is computed once and orders the reference and Schwarz factors.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.io
import scipy.sparse as sp

from .fem_space import DofMap, dissection_order, element_dofs, trace_dofs
from .krylov import Factorization
from .local_assembly import ElementStack, edge_load, local_a, local_b, local_load
from .mesh import Triangulation


@dataclass(frozen=True)
class AssembledSystem:
    A: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    nu: float
    tau: float
    eps: int
    mesh: Triangulation  # the mesh assembled on

    @cached_property
    def order(self):
        """fem_space.dissection_order of the mesh, computed on first use."""
        return dissection_order(self.mesh, self.dofmap)


def element_triplets(T, dm, nu, tau, eps, rhs=None, f=None):
    """COO triplets (global indices) of the a- and b-form blocks of every
    triangle of T, in triangle order, each triangle's 9x9 a-block followed
    by its pressure row and column; with f given, body loads are added to rhs.
    """
    ker = ElementStack(T)
    gdofs, p = element_dofs(dm, T.tri_edges)
    ne = len(ker)
    A_loc = local_a(ker, nu, tau, eps)
    b_loc = local_b(ker)
    p9 = np.repeat(p[:, None], 9, axis=1)
    rows = np.concatenate([np.repeat(gdofs, 9, axis=1), p9, gdofs], axis=1)
    cols = np.concatenate([np.tile(gdofs, 9), gdofs, p9], axis=1)
    vals = np.concatenate([A_loc.reshape(ne, 81), b_loc, b_loc], axis=1)
    if f is not None:
        np.add.at(rhs, gdofs[:, :6], local_load(ker, f))
    return rows.ravel(), cols.ravel(), vals.ravel()


def assemble(T, dm, nu=1.0, tau=6.0, eps=-1, f=None, g=None, constrained_values=None):
    """Assemble the hdG Stokes system on T under the boundary conditions of dm.

    f is the body force f(x, y) and g the boundary traction g(x, y, n); each
    boundary edge loads the component of g that its kind in dm picks
    (local_assembly.edge_load), per kind group (TVNF, then NVTF).
    constrained_values (aligned with dm.constrained) prescribes nonzero
    essential values, which are lifted into the right hand side. The
    constrained dofs are eliminated to identity: triplets in their rows and
    columns are dropped and each gets a unit diagonal. Entries summing to
    exactly zero are not stored.
    """
    n = dm.n_total
    rhs = np.zeros(n)
    rows, cols, vals = element_triplets(T, dm, nu, tau, eps, rhs=rhs, f=f)

    if g is not None:
        for kind, edges in dm.boundary_groups():
            if len(edges):
                rhs[trace_dofs(dm.n_edges, edges, kind)[1]] += edge_load(T, edges, g, kind)

    fixed = dm.constrained
    x_fixed = np.zeros(n)
    if constrained_values is not None:
        x_fixed[fixed] = constrained_values
        rhs -= np.bincount(rows, weights=vals * x_fixed[cols], minlength=n)
    rhs[fixed] = x_fixed[fixed]

    free = np.ones(n, dtype=bool)
    free[fixed] = False
    keep = free[rows] & free[cols]
    rows, cols = [rows[keep], fixed], [cols[keep], fixed]
    vals = [vals[keep], np.ones(len(fixed))]
    r = dm.mean_constraint_dof
    if r is not None:  # the symmetric border row and column, weights: triangle areas
        p = dm.pres_dof(np.arange(dm.n_tris))
        rows += [np.full(dm.n_tris, r), p]
        cols += [p, np.full(dm.n_tris, r)]
        vals += [T.areas, T.areas]
    A = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    A.eliminate_zeros()
    return AssembledSystem(A=A, rhs=rhs, dofmap=dm, nu=nu, tau=tau, eps=eps, mesh=T)


def solve_direct(system):
    """Reference solve: sparse LU of a regularised copy of A in the nested
    dissection order of the mesh (system.order), refined against A
    (krylov.Factorization with refine=True)."""
    return Factorization(system.A, refine=True, order=system.order).solve(system.rhs)


def dump_matrix(system, path):
    """MatrixMarket coordinate dump for cross-checking in external tools."""
    scipy.io.mmwrite(path, system.A.tocoo(), symmetry="general")
