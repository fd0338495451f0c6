"""Global saddle-point assembly and constraints.

The assembled matrix is [[A_a, B^T], [B, 0]] with B the (negative)
divergence coupling, so the full matrix is symmetric for eps = -1.
The boundary conditions are those of the DofMap, one kind per boundary
edge (fem_space), and the boundary datum is the traction sigma(u, p) n;
each boundary edge loads the dofs that its kind does not fix (the normal
traction its BDM dofs, the tangential traction its multiplier).
Essential conditions are eliminated symmetrically on the one assembled
CSR matrix: one mask zeroes the fixed rows and columns, which get a unit
diagonal; prescribed values are lifted from the fixed columns' triplets.
When no boundary edge leaves a normal dof free one bordered row/column
enforces the zero-mean pressure constraint (entries: triangle areas). The
MRAS local problems are this same assembly on a subdomain mesh
(schwarz.mras_local_matrix).

AssembledSystem is all the later stages take; its order (the mesh's nested
dissection) is computed once and orders the reference and Schwarz factors.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fem_space import DofMap, dissection_order, edge_dofs, element_dofs
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
    """COO triplets (global indices) of the system before its constraints,
    as three flat arrays, each allocated once. Their first 99 nt entries are
    an (nt, 99) block whose row t holds triangle t's 9x9 a-block (row-major,
    written in place by local_a), its pressure row and its pressure column;
    the symmetric border row and column of the mean-pressure constraint
    (weights: triangle areas) follow when dm has one. Indices are int32
    unless dm.n_total does not fit. With f given, the body loads are added
    to rhs before the blocks are allocated.
    """
    ker = ElementStack(T)
    gdofs, p = element_dofs(dm, T.tri_edges)
    if f is not None:
        np.add.at(rhs, gdofs[:, :6], local_load(ker, f))
    nt, r = len(ker), dm.mean_constraint_dof
    m = 99 * nt
    size = m + (2 * nt if r is not None else 0)
    vals = np.empty(size)
    V = vals[:m].reshape(nt, 99)
    local_a(ker, nu, tau, eps, out=V[:, :81].reshape(nt, 9, 9))
    V[:, 81:90] = V[:, 90:] = local_b(ker)
    del ker  # the element stack is not held with the index blocks
    idx = np.int32 if dm.n_total <= np.iinfo(np.int32).max else np.int64
    rows, cols = np.empty(size, dtype=idx), np.empty(size, dtype=idx)
    R, C = rows[:m].reshape(nt, 99), cols[:m].reshape(nt, 99)
    R[:, :81].reshape(nt, 9, 9)[...] = gdofs[:, :, None]
    C[:, :81].reshape(nt, 9, 9)[...] = gdofs[:, None, :]
    R[:, 81:90], C[:, 81:90] = p[:, None], gdofs
    R[:, 90:], C[:, 90:] = gdofs, p[:, None]
    if r is not None:
        rows[m:m + nt], cols[m:m + nt] = r, p
        rows[m + nt:], cols[m + nt:] = p, r
        vals[m:m + nt] = vals[m + nt:] = T.areas
    return rows, cols, vals


def assemble(T, dm, nu=1.0, tau=6.0, eps=-1, f=None, g=None, constrained_values=None):
    """Assemble the hdG Stokes system on T under the boundary conditions of dm.

    f is the body force f(x, y) and g the boundary traction g(x, y, n); each
    boundary edge adds its loads of g (local_assembly.edge_load) to the dofs
    that its kind in dm does not fix (dm.fixed).
    constrained_values (one per dof of dm.constrained, else ValueError)
    prescribes nonzero essential values; only the triplets in fixed columns
    are lifted into the right hand side. All triplets (element_triplets) go
    into one CSR matrix; one mask on it zeroes the fixed rows and columns,
    their stored diagonal is set to 1, and every zero is dropped, which
    also drops the entries that sum to exactly zero.
    """
    n = dm.n_total
    rhs = np.zeros(n)
    rows, cols, vals = element_triplets(T, dm, nu, tau, eps, rhs=rhs, f=f)

    if g is not None:
        loaded = ~dm.fixed
        rhs[edge_dofs(dm.n_edges, dm.boundary_edges)[loaded]] += edge_load(T, g)[loaded]

    fixed = dm.constrained
    is_fixed = np.zeros(n, dtype=bool)
    is_fixed[fixed] = True
    if constrained_values is not None:
        if (k := np.size(constrained_values)) != len(fixed):
            raise ValueError(f"constrained_values has {k} entries, dm fixes {len(fixed)} dofs")
        lift = is_fixed[cols]
        w = vals[lift] * np.asarray(constrained_values)[np.searchsorted(fixed, cols[lift])]
        rhs -= np.bincount(rows[lift], weights=w, minlength=n)
    rhs[fixed] = 0.0 if constrained_values is None else constrained_values
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    del rows, cols, vals
    A.data[is_fixed[A.indices] | np.repeat(is_fixed, np.diff(A.indptr))] = 0.0
    A[fixed, fixed] = 1.0  # stored: each fixed dof's element block holds its diagonal
    A.eliminate_zeros()
    return AssembledSystem(A=A, rhs=rhs, dofmap=dm, nu=nu, tau=tau, eps=eps, mesh=T)


def solve_direct(system):
    """Reference solve: sparse LU of a regularised copy of A in the nested
    dissection order of the mesh (system.order), refined against A
    (krylov.Factorization with refine=True)."""
    return Factorization(system.A, refine=True, order=system.order).solve(system.rhs)
