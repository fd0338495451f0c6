"""Global saddle-point assembly, constraints, and manufactured data.

The assembled matrix is [[A_a, B^T], [B, 0]] with B the (negative)
divergence coupling, so the full matrix is symmetric for eps = -1.
Essential conditions are applied by symmetric row/column elimination to
identity; prescribed nonzero values are lifted into the right hand side.
With NVTF boundary conditions one bordered row/column enforces the
zero-mean pressure constraint (entries: triangle areas).

AssembledSystem is all the later stages take; its order (the mesh's nested
dissection) is computed once and orders the reference and Schwarz factors.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.io
import scipy.sparse as sp

from .fem_space import NVTF, TVNF, DofMap, dissection_order, element_dofs, trace_dofs
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


def element_triplets(T, dm, nu, tau, eps, elems=None, rhs=None, f=None):
    """COO triplets (global indices) of the a- and b-form blocks over a set
    of elements; used for the global system and for MRAS local matrices.

    Triplets come in element order, each element's 9x9 a-block followed by
    its pressure row and column; with f given, body loads are added to rhs.
    """
    ker = ElementStack(T, elems)
    gdofs, p = element_dofs(dm, ker.edge_ids, ker.elems)
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
    """Assemble the hdG Stokes system on T for the bc regime recorded in dm.

    constrained_values (aligned with dm.constrained) prescribes nonzero
    essential values, which are lifted into the right hand side.
    """
    n = dm.n_total
    rhs = np.zeros(n)
    rows, cols, vals = element_triplets(T, dm, nu, tau, eps, rhs=rhs, f=f)

    if g is not None:
        bnd = np.flatnonzero(T.boundary_edge)
        rhs[trace_dofs(dm.n_edges, bnd, dm.bc_kind)[1]] += edge_load(T, bnd, g, dm.bc_kind)

    fixed = dm.constrained
    x_fixed = np.zeros(n)
    if constrained_values is not None:
        x_fixed[fixed] = constrained_values
        rhs -= np.bincount(rows, weights=vals * x_fixed[cols], minlength=n)
    rhs[fixed] = x_fixed[fixed]
    border = None
    if dm.bc_kind == NVTF:
        border = (dm.mean_constraint_dof, dm.pres_dof(np.arange(dm.n_tris)), T.areas)
    A = constrained_matrix(n, rows, cols, vals, fixed, border)
    return AssembledSystem(A=A, rhs=rhs, dofmap=dm, nu=nu, tau=tau, eps=eps, mesh=T)


def constrained_matrix(n, rows, cols, vals, fixed, border=None):
    """CSR (n, n) matrix of COO triplets with the dofs in fixed eliminated to
    identity: triplets in a fixed row or column are dropped and each fixed dof
    gets a unit diagonal. border = (r, idx, w) adds the symmetric row and
    column r with weights w at idx (a mean-pressure constraint).

    Entries summing to exactly zero are not stored. Serves the global system
    and the MRAS local problems (schwarz.mras_local_matrix).
    """
    free = np.ones(n, dtype=bool)
    free[fixed] = False
    keep = free[rows] & free[cols]
    diag = np.flatnonzero(~free)
    extra_rows, extra_cols, extra_vals = [diag], [diag], [np.ones(len(diag))]
    if border is not None:
        r, idx, w = border
        extra_rows += [np.full(len(idx), r), idx]
        extra_cols += [idx, np.full(len(idx), r)]
        extra_vals += [w, w]
    # the unit diagonal and the border follow the triplets and are always kept
    keep = np.concatenate([keep, np.ones(sum(map(len, extra_rows)), dtype=bool)])
    rows = np.concatenate([rows, *extra_rows])[keep]
    cols = np.concatenate([cols, *extra_cols])[keep]
    vals = np.concatenate([vals, *extra_vals])[keep]
    A = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    A.eliminate_zeros()
    return A


def manufactured_data(exact, nu, bc):
    """Body force and boundary datum callbacks from a closed-form exact solution.

    f = -nu lap(u) + grad(p); TVNF g = nu (grad(u) n).n - p, NVTF g = nu (grad(u) n).t.
    """
    lap_u, grad_p, grad_u, p = exact.lap_u, exact.grad_p, exact.grad_u, exact.p

    def f(x, y):
        return -nu * np.asarray(lap_u(x, y)) + np.asarray(grad_p(x, y))

    if bc == TVNF:
        def g(x, y, n, t):
            gn = np.einsum("...ij,...j->...i", np.asarray(grad_u(x, y)), n)
            return nu * np.einsum("...i,...i->...", gn, n) - np.asarray(p(x, y))
    elif bc == NVTF:
        def g(x, y, n, t):
            gn = np.einsum("...ij,...j->...i", np.asarray(grad_u(x, y)), n)
            return nu * np.einsum("...i,...i->...", gn, t)
    else:
        raise ValueError(f"unknown bc {bc!r}")
    return f, g


def solve_direct(system):
    """Reference solve: sparse LU of a regularised copy of A in the nested
    dissection order of the mesh (system.order), refined against A
    (krylov.Factorization with refine=True)."""
    return Factorization(system.A, refine=True, order=system.order).solve(system.rhs)


def dump_matrix(system, path):
    """MatrixMarket coordinate dump for cross-checking in external tools."""
    scipy.io.mmwrite(path, system.A.tocoo(), symmetry="general")
