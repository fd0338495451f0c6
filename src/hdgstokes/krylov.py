"""Sparse direct factorisation and right-preconditioned GMRES.

Factorization wraps SuperLU and factors every matrix one way: the zero
diagonal of the hybrid-dG saddle point (pressures, mean-pressure border) is
shifted by -1e-12 max|A|, and the shifted copy is factored with diagonal
pivots in a symmetric order. The global reference solve passes a nested
dissection of the mesh (fem_space.dissection_order); the Schwarz local
factors use minimum degree on A + A^T. solve() removes the shift by
refinement against the unshifted matrix: until the residual stops falling
for a system solved once (the global reference solve), one step for the
Schwarz local factors, which are solved many times each.

Full GMRES: one Arnoldi cycle of at most max_iter steps, modified
Gram-Schmidt with Givens updates of the Hessenberg factor. The Arnoldi
basis V and the preconditioned basis Z store one vector per contiguous
row, zero-allocated, so only the rows used become resident; the report
carries the Arnoldi basis. Two stopping rules are supported: the usual
relative residual, where the iterate is formed once at the end, and
'vs_reference', which measures the euclidean norm of the error against a
direct reference solution at every iteration (x_k = x + y Z is rebuilt
from the stored Z, so it costs no preconditioner applications).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular


class FactorizationError(Exception):
    pass


class Factorization:
    """Sparse LU (SuperLU) of a regularised copy, refined against the matrix.

    The zero diagonal of A (the pressure block and the mean-pressure border)
    is shifted by -1e-12 max|A|. That makes the saddle point quasi-definite,
    so diagonal pivots exist for any symmetric ordering, and SuperLU keeps
    the one it is given; a minimum-degree ordering of A + A^T with diagonal
    pivots stores about half the fill of column ordering with partial
    pivoting. The unshifted A is kept (CSR) for the residual of the
    refinement.

    order (a permutation of range(n), order[k] the k-th eliminated row):
    factor the shifted copy permuted symmetrically by order, in that order
    (SuperLU's NATURAL); solve() permutes the vectors, not the matrix.
    order=None orders by minimum degree on A + A^T. The reference solve
    passes the mesh's nested dissection, which halves its fill at n = 32 and
    cuts it 2.7x at n = 128. The Schwarz local factors keep minimum degree:
    the mesh order restricted to a subdomain stores less fill there too (RAS
    4x4 at n = 32: 755k against 786k summed), but one apply's local solves
    take about 9% longer at n = 32, and GMRES repeats the applies.

    refine=True (a system solved once, such as the global reference):
    solve() refines while the residual at least halves and raises
    FactorizationError if it stays above 1e-10 ||b||.
    refine=False (the Schwarz local factors): solve() takes exactly one
    refinement step, x = LU^{-1} b; x += LU^{-1} (b - A x), a fixed linear
    operator exact to round-off. Set-up solves A x = ones and raises
    FactorizationError when the relative residual exceeds 1e-8 or
    max|A| ||x||_inf (a lower bound on the condition number) exceeds 1e14.
    """

    def __init__(self, A, refine=False, order=None):
        A = sp.csr_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise FactorizationError("matrix must be square")
        self._A, self._refine, self.n = A, refine, A.shape[0]
        self._order = None if order is None else np.asarray(order, dtype=np.int64)
        scale = np.abs(A.data).max() if A.nnz else 0.0
        z = np.flatnonzero(A.diagonal() == 0)
        shifted = A.tocsc() + sp.csc_matrix(
            (np.full(len(z), -1e-12 * scale), (z, z)), shape=A.shape)
        spec = "MMD_AT_PLUS_A"
        if order is not None:
            # the symmetric permutation in one copy: move the columns, renumber the rows
            shifted, spec = shifted[:, self._order], "NATURAL"
            rank = np.empty(self.n, dtype=shifted.indices.dtype)
            rank[self._order] = np.arange(self.n)
            shifted.indices = rank[shifted.indices]
            shifted.has_sorted_indices = False
            shifted.sort_indices()
        try:
            self._lu = spla.splu(shifted, permc_spec=spec,
                                 diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        except RuntimeError as err:
            raise FactorizationError(f"sparse LU failed: {err}") from err
        if not refine:
            b = np.ones(self.n)
            x = self.solve(b)
            res = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
            if not (res <= 1e-8 and scale * np.abs(x).max() <= 1e14):
                raise FactorizationError("matrix is singular to working precision")

    def _lu_solve(self, b):
        if self._order is None:
            return self._lu.solve(b)
        x = np.empty_like(b)
        x[self._order] = self._lu.solve(b[self._order])
        return x

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        x = self._lu_solve(b)
        r = b - self._A @ x
        if not self._refine:
            return x + self._lu_solve(r)
        # x += LU^{-1} (b - A x) while the residual at least halves, up to
        # 10 solves; keep the iterate with the smallest residual
        res = np.linalg.norm(r)
        best, best_res = x, res
        for _ in range(9):
            if res == 0.0:
                break
            x = x + self._lu_solve(r)
            r = b - self._A @ x
            prev, res = res, np.linalg.norm(r)
            if res < best_res:
                best, best_res = x, res
            if res > 0.5 * prev:
                break
        if best_res > 1e-10 * np.linalg.norm(b):
            raise FactorizationError(
                f"iterative refinement stalled at relative residual "
                f"{best_res / np.linalg.norm(b):.1e}")
        return best


@dataclass
class KrylovReport:
    iterations: int
    history: np.ndarray
    converged: bool
    stop: tuple  # ("residual", tol) or ("vs_reference", tol)
    basis: np.ndarray = field(repr=False)  # Arnoldi basis, (n, iterations) view


def gmres(apply_A, b, x0=None, apply_M=None, tol=1e-6, x_ref=None, max_iter=1000):
    """Full right-preconditioned GMRES.

    apply_A, apply_M: callables v -> A v and v -> M^{-1} v (M defaults to
    the identity). If x_ref is given the iteration stops when
    ||x_k - x_ref||_2 <= tol, otherwise when ||b - A x_k|| <= tol ||b||,
    or after max_iter (>= 1) steps, or on breakdown (the Krylov space is
    invariant). Returns (x, KrylovReport); report.history holds the
    stop-criterion value at every iteration. An exact x0 counts as one
    iteration with an empty basis.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if apply_M is None:
        apply_M = lambda v: v
    stop = ("vs_reference", tol) if x_ref is not None else ("residual", tol)
    bnorm = np.linalg.norm(b)
    ref_scale = 1.0 if x_ref is not None else (bnorm if bnorm > 0 else 1.0)

    r = b - apply_A(x)
    beta = np.linalg.norm(r)
    if beta == 0.0:
        val = 0.0 if x_ref is None else np.linalg.norm(x - x_ref)
        return x, KrylovReport(iterations=1, history=np.array([val]),
                               converged=val <= tol * ref_scale, stop=stop,
                               basis=np.zeros((n, 0)))
    m = max_iter
    V = np.zeros((m + 1, n))      # rows: Arnoldi basis
    Z = np.zeros((m, n))          # rows: preconditioned basis, x_k = x + y Z
    H = np.zeros((m + 1, m))
    cs, sn = np.zeros(m), np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta
    V[0] = r / beta
    iterate = lambda k: x + solve_triangular(H[:k, :k], g[:k]) @ Z[:k]

    history = []
    for j in range(m):
        Z[j] = apply_M(V[j])
        # copy: apply_A may return its argument (identity operators)
        w = np.array(apply_A(Z[j]), dtype=float, copy=True)
        for i in range(j + 1):
            H[i, j] = h = w @ V[i]
            w -= h * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        breakdown = H[j + 1, j] <= 1e-14 * beta
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

        if x_ref is None:
            val = abs(g[j + 1])
        else:
            xk = iterate(j + 1)
            val = np.linalg.norm(xk - x_ref)
        history.append(val)
        converged = val <= tol * ref_scale
        if converged or breakdown:
            break
    k = j + 1
    x = iterate(k) if x_ref is None else xk
    return x, KrylovReport(iterations=k, history=np.array(history),
                           converged=converged, stop=stop, basis=V[:k].T)


def write_history_csv(report, path, seed=None):
    """History CSV: 'iter,value' rows, header comment with stop mode/tol/seed."""
    mode, tol = report.stop
    with open(path, "w") as f:
        f.write(f"# stop={mode} tol={tol!r} seed={seed}\n")
        f.write("iter,value\n")
        for i, v in enumerate(report.history, start=1):
            f.write(f"{i},{float(v)!r}\n")
