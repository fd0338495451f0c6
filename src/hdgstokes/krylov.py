"""Sparse direct factorisation and right-preconditioned GMRES.

Factorization wraps SuperLU and always pivots on the diagonal, in a
symmetric order it is given. The global reference solve (refine=True)
factors a copy whose zero diagonal (pressures, mean-pressure border) is
shifted by -1e-12 max|A|, ordered by a nested dissection of the mesh
(fem_space.dissection_order), and refines against the unshifted matrix
while the residual halves, keeping only steps that lower it. The Schwarz
local factors (refine=False) factor the matrix itself, in the
velocity-first order of velocity_first, which has no zero pivot; they are
solved many times each, with one triangular solve, after a set-up check
that bounds a backward error.

Full GMRES: one Arnoldi cycle of at most max_iter steps, modified
Gram-Schmidt with Givens updates of the Hessenberg factor. The Arnoldi
basis V and the preconditioned basis Z store one vector per contiguous
row, zero-allocated, so only the rows used become resident; the report
carries the Arnoldi basis. Every step rebuilds x_k = x + y Z from the
stored Z, which costs no preconditioner applications, and stops on the
euclidean norm of its error against a direct reference solution.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular


class FactorizationError(Exception):
    pass


def _base_rank(order, n):
    """(order, rank) with rank[i] the position of row i in order: None (natural)
    or a permutation of range(n); anything else raises ValueError."""
    base = np.arange(n) if order is None else np.asarray(order, dtype=np.int64)
    if base.shape != (n,) or not np.array_equal(np.sort(base), np.arange(n)):
        raise ValueError(f"order is not a permutation of range({n})")
    return base, np.argsort(base)


def velocity_first(A, order=None):
    """Symmetric elimination order of A in which no diagonal pivot is zero
    (Tuma, SIAM J. Matrix Anal. Appl. 23, 2002; de Niet and Wubs, IMA J.
    Numer. Anal. 29, 2009).

    order is a base order, a permutation of range(n) (order[k] the k-th row,
    default natural); anything else raises ValueError. Let pi be the base
    rank. Rows with a nonzero diagonal (velocities, multipliers, fixed dofs)
    keep their base order. Each column j of them selects its coupled
    zero-diagonal row of smallest pi, and each such row p (a pressure) goes
    right after the first column, by pi, that selects it. A column couples
    its two element pressures with opposite signs, so the coupling block
    restricted to these pairs is triangular in pi-order with a nonzero
    diagonal, and every leading block of the permuted matrix is nonsingular.
    Zero-diagonal rows coupled to no nonzero-diagonal column (the
    mean-pressure border) go next, and the pressures no column selects (one
    per floating component) go last.
    """
    n = A.shape[0]
    _, rank = _base_rank(order, n)
    zero = A.diagonal() == 0
    C = sp.coo_matrix(A)
    keep = zero[C.row] & ~zero[C.col] & (C.data != 0)
    r, c = C.row[keep], C.col[keep]
    # per column: its zero-diagonal row of smallest rank, one as ranks are unique
    low = np.full(n, n)
    np.minimum.at(low, c, rank[r])
    sel = rank[r] == low[c]
    key = 2 * rank
    key[zero] = 4 * n + rank[zero]
    border = zero.copy()
    border[r] = False
    key[border] = 2 * n + rank[border]
    # a selected row (key 4n + rank) goes right after its first column by rank
    np.minimum.at(key, r[sel], 2 * rank[c[sel]] + 1)
    return np.argsort(key)


class Factorization:
    """Sparse LU (SuperLU) with diagonal pivots in a given symmetric order.

    refine=True (a system solved once, the global reference solve): the
    zero diagonal of A (the pressure block and the mean-pressure border) is
    shifted by -1e-12 max|A|. That makes the saddle point quasi-definite,
    so diagonal pivots exist for any symmetric ordering, and SuperLU keeps
    the one it is given: order, a base order as in velocity_first, natural
    by default. The reference solve passes the mesh's nested dissection,
    whose fill at n = 32 is 0.54-0.58 of that of minimum degree on A + A^T
    (the SuperLU ordering). solve() refines against the unshifted A (CSR)
    while a step halves the residual, keeping a step only if it lowers it,
    and raises FactorizationError if it stays above 1e-10 ||b|| or is NaN.

    refine=False (the Schwarz local factors, solved many times each): A
    itself is factored, unshifted, in velocity_first(A, order), whose
    leading blocks are all nonsingular, so one triangular solve is exact to
    round-off and solve() is a fixed linear operator. The Schwarz builders
    derive the base order from the mesh's nested dissection. Set-up solves
    A x = 1 and raises FactorizationError when the backward error
    ||1 - A x||_inf / (||A||_inf ||x||_inf + 1), which unlike the residual
    does not grow with conditioning (Higham 2002, 7.1), exceeds 1e-12, or
    max|A| ||x||_inf (a condition bound) exceeds 1e14.

    solve() permutes the vectors, not the matrix: the factor keeps its order and
    its inverse (rank), and solves by two gathers, x = LU^{-1}(b[order])[rank].
    """

    def __init__(self, A, refine=False, order=None):
        A = sp.csr_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise FactorizationError("matrix must be square")
        self._refine, self.n = refine, A.shape[0]
        scale = np.abs(A.data).max() if A.nnz else 0.0
        M = A.tocsc()
        if refine:
            self._A = A
            z = np.flatnonzero(A.diagonal() == 0)
            M = M + sp.csc_matrix((np.full(len(z), -1e-12 * scale), (z, z)), shape=A.shape)
        else:
            order = velocity_first(A, order)
        self._order, self._rank = _base_rank(order, self.n)
        # the symmetric permutation in one copy: move the columns, renumber the rows
        M = M[:, self._order]
        M.indices = self._rank.astype(M.indices.dtype)[M.indices]
        M.has_sorted_indices = False
        M.sort_indices()
        try:
            self._lu = spla.splu(M, permc_spec="NATURAL",
                                 diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        except RuntimeError as err:
            raise FactorizationError(f"sparse LU failed: {err}") from err
        if not refine:
            x = self._lu_solve(np.ones(self.n))
            xmax = np.abs(x).max()
            with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail below
                backward = np.abs(1 - A @ x).max() / (abs(A).sum(axis=1).max() * xmax + 1)
                singular = not (backward <= 1e-12 and scale * xmax <= 1e14)
            if singular:
                raise FactorizationError("matrix is singular to working precision")

    def _lu_solve(self, b):
        return self._lu.solve(b[self._order])[self._rank]

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        x = self._lu_solve(b)
        if not self._refine:
            return x
        # x += LU^{-1} (b - A x) up to 9 times: a step is kept only if it
        # lowers the residual (never on the NaN residual of an overflow), and
        # the loop ends after a step that does not halve it
        with np.errstate(over="ignore", invalid="ignore"):
            r = b - self._A @ x
            res = np.linalg.norm(r)
            for _ in range(9):
                x1 = x + self._lu_solve(r)
                r1 = b - self._A @ x1
                res1 = np.linalg.norm(r1)
                if not res1 < res:  # also a NaN or an exactly zero residual
                    break
                x, r, res, prev = x1, r1, res1, res
                if res > 0.5 * prev:
                    break
            # the test on r and b scaled by max|b|, so that ||b|| cannot overflow
            bmax = np.abs(b).max(initial=0.0) or 1.0
            res, b_norm = np.linalg.norm(r / bmax), np.linalg.norm(b / bmax)
        if not res <= 1e-10 * b_norm:
            raise FactorizationError(
                f"iterative refinement stalled at relative residual {res / b_norm:.1e}")
        return x


@dataclass
class KrylovReport:
    iterations: int
    history: np.ndarray
    converged: bool
    basis: np.ndarray = field(repr=False)  # Arnoldi basis, (n, iterations) view


def gmres(apply_A, b, x0=None, apply_M=None, tol=1e-6, *, x_ref, max_iter=1000):
    """Full right-preconditioned GMRES.

    apply_A, apply_M: callables v -> A v and v -> M^{-1} v (M defaults to
    the identity); x_ref is the reference solution. The iteration stops
    when ||x_k - x_ref||_2 <= tol, or after max_iter (>= 1) steps, or on
    breakdown: H[j+1, j] <= 1e-14 ||H[:j+2, j]|| (= ||A M^{-1} v_j||),
    which no scaling of A, M or b moves. Returns (x, KrylovReport);
    report.history holds ||x_k - x_ref||_2 at every iteration. An exact x0
    counts as one iteration with an empty basis.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if apply_M is None:
        apply_M = lambda v: v

    r = b - apply_A(x)
    beta = np.linalg.norm(r)
    if beta == 0.0:
        val = np.linalg.norm(x - x_ref)
        return x, KrylovReport(iterations=1, history=np.array([val]),
                               converged=val <= tol, basis=np.zeros((n, 0)))
    m = max_iter
    V = np.zeros((m + 1, n))      # rows: Arnoldi basis
    Z = np.zeros((m, n))          # rows: preconditioned basis, x_k = x + y Z
    H = np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    V[0] = r / beta

    history = []
    for j in range(m):
        Z[j] = apply_M(V[j])
        # copy: apply_A may return its argument (identity operators)
        w = np.array(apply_A(Z[j]), dtype=float, copy=True)
        for i in range(j + 1):
            H[i, j] = h = w @ V[i]
            w -= h * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        breakdown = H[j + 1, j] <= 1e-14 * np.linalg.norm(H[:j + 2, j])
        if not breakdown:
            V[j + 1] = w / H[j + 1, j]

        for i in range(j):
            h0 = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = h0
        nu_ = np.hypot(H[j, j], H[j + 1, j])
        cs[j], sn[j] = H[j, j] / nu_, H[j + 1, j] / nu_
        H[j, j] = nu_
        H[j + 1, j] = 0.0
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        xk = x + solve_triangular(H[:j + 1, :j + 1], g[:j + 1]) @ Z[:j + 1]
        history.append(np.linalg.norm(xk - x_ref))
        converged = history[-1] <= tol
        if converged or breakdown:
            break
    return xk, KrylovReport(iterations=j + 1, history=np.array(history),
                            converged=converged, basis=V[:j + 1].T)
