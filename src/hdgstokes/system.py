"""Global saddle-point assembly, constraints, and manufactured data.

The assembled matrix is [[A_a, B^T], [B, 0]] with B the (negative)
divergence coupling, so the full matrix is symmetric for eps = -1.
Essential conditions are applied by symmetric row/column elimination to
identity; prescribed nonzero values are lifted into the right hand side.
With NVTF boundary conditions one bordered row/column enforces the
zero-mean pressure constraint (entries: triangle areas).
"""

from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp

from .fem_space import NVTF, TVNF, DofMap
from .local_assembly import ElementStack, edge_load, local_a, local_b, local_load


@dataclass(frozen=True)
class AssembledSystem:
    A: sp.csr_matrix
    rhs: np.ndarray
    dofmap: DofMap
    nu: float
    tau: float
    eps: int

    @property
    def bc(self):
        return self.dofmap.bc_kind

    @property
    def n(self):
        return self.dofmap.n_total


def element_dofs(dm, edge_ids, tris):
    """Global indices of the 9 velocity/multiplier dofs (ne, 9) and the pressure
    dof (ne,) of the triangles tris with edges edge_ids (ne, 3)."""
    gdofs = np.empty((len(tris), 9), dtype=np.int64)
    gdofs[:, 0:6:2] = 2 * edge_ids
    gdofs[:, 1:6:2] = 2 * edge_ids + 1
    gdofs[:, 6:9] = 2 * dm.n_edges + edge_ids
    return gdofs, dm.pres_dof(np.asarray(tris))


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


def assemble(T, dm, nu=1.0, tau=6.0, eps=-1, f=None, g=None, essential_values=None):
    """Assemble the hdG Stokes system on T for the bc regime recorded in dm."""
    E, nT = dm.n_edges, dm.n_tris
    n = dm.n_total
    rhs = np.zeros(n)
    rows, cols, vals = element_triplets(T, dm, nu, tau, eps, rhs=rhs, f=f)
    rows, cols, vals = [rows], [cols], [vals]

    if dm.bc_kind == NVTF:
        r = dm.mean_constraint_dof
        pdofs = 3 * E + np.arange(nT)
        rows.append(np.full(nT, r))
        cols.append(pdofs)
        vals.append(T.areas)
        rows.append(pdofs)
        cols.append(np.full(nT, r))
        vals.append(T.areas)

    if g is not None:
        bnd = np.flatnonzero(T.boundary_edge)
        load = edge_load(T, bnd, g, dm.bc_kind)
        if dm.bc_kind == TVNF:
            rhs[2 * bnd] += load[:, 0]
            rhs[2 * bnd + 1] += load[:, 1]
        else:
            rhs[dm.mult_dof(bnd)] += load

    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    A, rhs = _apply_constraints(A, rhs, dm.constrained, essential_values)
    A.sort_indices()
    return AssembledSystem(A=A, rhs=rhs, dofmap=dm, nu=nu, tau=tau, eps=eps)


def _apply_constraints(A, rhs, constrained, values):
    n = A.shape[0]
    if len(constrained) == 0:
        return A, rhs
    if values is None:
        values = np.zeros(len(constrained))
    else:
        values = np.asarray(values, dtype=float)
        if np.any(values != 0):
            rhs = rhs - A.tocsc()[:, constrained] @ values
    free = np.ones(n)
    free[constrained] = 0.0
    Df = sp.diags(free)
    Dc = sp.diags(1.0 - free)
    A = (Df @ A @ Df + Dc).tocsr()
    rhs[constrained] = values
    return A, rhs


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


def essential_values(T, dm, u):
    """Prescribed values of the constrained dofs for a velocity field u.

    TVNF constrains boundary multipliers to the edge average of u . t_E;
    NVTF constrains boundary BDM dofs to u . n_E at the two Gauss nodes.
    Only needed for exact solutions with nonzero boundary traces.
    """
    from .quadrature import BDM_NODES, edge_gauss

    vals = np.zeros(len(dm.constrained))
    pos = {d: i for i, d in enumerate(dm.constrained)}
    lo = T.vertices[T.edges[:, 0]]
    hi = T.vertices[T.edges[:, 1]]
    params, w = edge_gauss(3)
    for e in np.flatnonzero(T.boundary_edge):
        d = hi[e] - lo[e]
        t_E = d / np.linalg.norm(d)
        n_E = np.array([-t_E[1], t_E[0]])
        if dm.bc_kind == TVNF:
            pts = lo[e] + np.outer(params, d)
            uvals = np.asarray(u(pts[:, 0], pts[:, 1]))
            vals[pos[dm.mult_dof(e)]] = w @ (uvals @ t_E)
        else:
            for m, s in enumerate(BDM_NODES):
                pt = lo[e] + s * d
                vals[pos[dm.bdm_dof(e, m)]] = np.asarray(u(pt[0], pt[1])) @ n_E
    return vals


def solve_direct(system):
    """Reference solve through a sparse LU factorisation."""
    from .krylov import Factorization

    return Factorization(system.A).solve(system.rhs)


def dump_matrix(system, path):
    """MatrixMarket coordinate dump for cross-checking in external tools."""
    scipy.io.mmwrite(path, system.A.tocoo(), symmetry="general")
