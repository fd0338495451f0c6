"""Batched element kernels for the hybrid dG Stokes discretisation (k = 1).

Every quantity is computed at once for a stack of triangles: geometry and
basis coefficients have a leading element axis, and the local forms return
stacked 9x9 blocks, pressure rows and loads, so assembly (of the global
system and of the MRAS local problems) and the error norms all run as
numpy array operations.

The BDM1 basis is built directly in physical coordinates by inverting the
6x6 matrix of dof functionals (point values of v . n_E at the two Gauss
nodes of each edge, n_E the global edge normal) against vector monomials.
Monomials are centred at the barycenter and scaled by the diameter so the
functional matrix stays well conditioned under refinement.

All edge quantities use the global edge tangent t_E (lower->higher) and
the element's outward normal; with the multiplier stored along t_E the
edge integrands are invariant under the tangent-orientation choice, so no
per-element sign bookkeeping is needed for the multiplier coupling.

Local dof order: the 6 BDM dofs (2 loc + m for local edge loc, Gauss node
m), then the 3 multipliers (6 + loc).
"""

import numpy as np

from .mesh import MeshError
from .quadrature import BDM_NODES, TRI_RULE, edge_gauss


_EDGE_QUAD = edge_gauss(3)  # degree-5 on edges, used for the boundary data


class ElementStack:
    """BDM1 basis and edge geometry of every triangle of T.

    Arrays carry the element axis first: verts (ne, 3, 2), edge data
    (ne, 3, ...) per local edge, coeffs (ne, 6, 6) maps BDM dof values to
    the scaled monomial coefficients [1, X, Y] of each velocity component,
    grads (ne, 6, 2, 2) and divs (ne, 6) are the constant basis gradients
    and divergences.
    """

    def __init__(self, T):
        self.verts = T.vertices[T.triangles]
        self.area = T.areas
        self.h_K = T.h_K
        self.center = self.verts.mean(axis=1)

        e = T.tri_edges
        self.edge_lo = T.vertices[T.edges[e, 0]]
        self.d = T.vertices[T.edges[e, 1]] - self.edge_lo
        self.edge_len = T.edge_len[e]
        self.t_E = T.edge_t[e]
        self.n_E = T.edge_n[e]
        self.n_out = T.tri_edge_sign[:, :, None] * self.n_E

        # dof functional matrix: rows (edge, node), columns (component, monomial)
        mono = self.monomials(self.edge_points(BDM_NODES))   # (ne, 3, 2, 3)
        F = (self.n_E[:, :, None, :, None] * mono[..., None, :]).reshape(-1, 6, 6)
        try:
            self.coeffs = np.linalg.inv(F)
            # infinity-norm condition numbers; from 1/eps on, the inverse is noise
            cond = np.abs(F).sum(axis=2).max(axis=1) * np.abs(self.coeffs).sum(axis=2).max(axis=1)
            bad = np.flatnonzero(cond >= 1 / np.finfo(float).eps)
        except np.linalg.LinAlgError:
            bad = np.flatnonzero(np.linalg.matrix_rank(F) < 6)
        if len(bad):
            raise MeshError(f"degenerate triangles {bad.tolist()}: "
                            f"singular dof functional matrix")

        s = self.h_K[:, None]
        self.grads = np.stack([np.stack([self.coeffs[:, 1], self.coeffs[:, 2]], axis=-1),
                               np.stack([self.coeffs[:, 4], self.coeffs[:, 5]], axis=-1)],
                              axis=-2) / s[..., None, None]
        self.divs = (self.coeffs[:, 1] + self.coeffs[:, 5]) / s

    def __len__(self):
        return len(self.area)

    def monomials(self, pts):
        """Monomials [1, X, Y] at points pts (ne, ..., 2) of each element, in
        coordinates centred at the barycenter and scaled by the diameter."""
        extra = (1,) * (pts.ndim - 2)
        X = (pts - self.center.reshape(-1, *extra, 2)) / self.h_K.reshape(-1, *extra, 1)
        return np.stack([np.ones_like(X[..., 0]), X[..., 0], X[..., 1]], axis=-1)

    def eval_basis(self, pts):
        """Values of the 6 basis fields at points (ne, q, 2); shape (ne, q, 6, 2)."""
        mono = self.monomials(pts)
        return np.stack([mono @ self.coeffs[:, 0:3], mono @ self.coeffs[:, 3:6]], axis=-1)

    def edge_points(self, params):
        """Points at parameters from the lower vertex on every local edge; (ne, 3, q, 2)."""
        return self.edge_lo[:, :, None, :] + params[:, None] * self.d[:, :, None, :]

    def eval_field(self, vd, pts):
        """Velocity with BDM dof values vd (ne, 6) at points (ne, q, 2); (ne, q, 2)."""
        mc = np.einsum("tij,tj->ti", self.coeffs, vd)
        mono = self.monomials(pts)
        return np.stack([np.einsum("tqm,tm->tq", mono, mc[:, 0:3]),
                         np.einsum("tqm,tm->tq", mono, mc[:, 3:6])], axis=-1)


def local_a(ker, nu, tau, eps, out=None):
    """Stacked 9x9 element matrices of the velocity bilinear form; (ne, 9, 9).
    With out given (any (ne, 9, 9) float view, such as the value block of
    system.element_triplets) they are written into it and out is returned."""
    if tau <= 0:
        raise ValueError("stabilisation parameter tau must be positive")
    if eps not in (-1, 1):
        raise ValueError("symmetry switch eps must be -1 or +1")
    ne = len(ker)
    A = np.empty((ne, 9, 9)) if out is None else out
    A[...] = 0.0
    # volume term: gradients are constant on K
    G = ker.grads.reshape(ne, 6, 4)
    A[:, :6, :6] = nu * ker.area[:, None, None] * (G @ G.transpose(0, 2, 1))

    # per local edge (rows l): the edge average of (v)_t - vtilde, which is
    # its midpoint value as the basis is linear, and the constant (grad v . n)_t
    avg = np.zeros((ne, 3, 9))
    avg[:, :, :6] = np.einsum("tljc,tlc->tlj", ker.eval_basis(ker.edge_lo + 0.5 * ker.d), ker.t_E)
    avg[:, np.arange(3), 6 + np.arange(3)] = -1.0
    dnt = np.zeros((ne, 3, 9))
    dnt[:, :, :6] = np.einsum("tjab,tlb,tla->tlj", ker.grads, ker.n_out, ker.t_E)
    L = nu * ker.edge_len[..., None]
    # test traces x (stabilisation - trial normal derivative), plus the eps-scaled
    # transpose coupling
    A += (avg * L).transpose(0, 2, 1) @ (tau / ker.h_K[:, None, None] * avg - dnt)
    A += eps * (dnt * L).transpose(0, 2, 1) @ avg
    return A


def local_b(ker):
    """Pressure rows: entry j = -int_K div(phi_j); multiplier entries are zero. (ne, 9)"""
    row = np.zeros((len(ker), 9))
    row[:, :6] = -ker.divs * ker.area[:, None]
    return row


def local_load(ker, f):
    """Body-force loads int_K f . phi_j for the 6 BDM dofs (degree-5 rule); (ne, 6)."""
    bary, w = TRI_RULE
    pts = np.einsum("qb,tbc->tqc", bary, ker.verts)
    fv = np.asarray(f(pts[..., 0], pts[..., 1]))
    return ker.area[:, None] * np.einsum("q,tqc,tqjc->tj", w, fv, ker.eval_basis(pts))


def edge_load(T, g):
    """Loads of every Gamma edge of T (ascending) from the traction g(x, y, n)
    (..., 2), n the outward unit normal; shape (nb, 3) in edge-dof order:
    g . n_out into the two BDM dofs through (v)_n, g . t_E into the
    multiplier through vtilde. A kind takes the loads of the dofs it leaves
    free (fem_space.FIXES)."""
    edges = np.flatnonzero(T.boundary_edge)
    k = T.edge_tris[edges, 0]
    loc = np.argmax(T.tri_edges[k] == edges[:, None], axis=1)
    sign = T.tri_edge_sign[k, loc].astype(float)
    lo = T.vertices[T.edges[edges, 0]]
    d = T.vertices[T.edges[edges, 1]] - lo
    L, t_E = T.edge_len[edges], T.edge_t[edges]
    n_out = sign[:, None] * T.edge_n[edges]

    params, w = _EDGE_QUAD
    pts = lo[:, None, :] + params[:, None] * d[:, None, :]
    n_q = np.broadcast_to(n_out[:, None, :], pts.shape)
    gv = np.asarray(g(pts[..., 0], pts[..., 1], n_q))
    # v . n_out at the dof nodes is sign * Lagrange basis on the 2 Gauss nodes
    x0, x1 = BDM_NODES
    ell = np.column_stack([(params - x1) / (x0 - x1), (params - x0) / (x1 - x0)])
    normal = (sign * L)[:, None] * ((w * np.einsum("eqc,ec->eq", gv, n_out)) @ ell)
    return np.column_stack([normal, L * (np.einsum("eqc,ec->eq", gv, t_E) @ w)])
