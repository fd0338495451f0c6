"""Sparse direct factorisation and right-preconditioned GMRES.

Factorization wraps SuperLU. By default it uses scipy's column ordering
with partial pivoting (the Schwarz local factors, solved many times each);
with refine=True (the global reference solve, done once) it factors a
regularised copy with a symmetric ordering and diagonal pivots and refines
against the original matrix. BorderedFactorization solves a matrix whose
last row and column are a border (the mean-pressure row of an NVTF RAS
subdomain) by factoring only the leading block and eliminating the border
through a scalar Schur complement: a dense border row is ordered inside
the factor by COLAMD on small matrices and fills it.

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
    """Sparse LU (SuperLU) with a guard against near-singular pivots.

    refine=True is for a saddle-point matrix that is solved once, such as
    the global reference system. Its zero diagonal (the pressure block,
    and the mean-pressure border) is shifted by -1e-12 max|A|. That makes
    the matrix quasi-definite, so diagonal pivots exist for any symmetric
    ordering; a minimum-degree ordering of A + A^T with diagonal pivots
    stores about half the fill of column ordering with partial pivoting.
    solve() removes the shift by iterative refinement against the
    unshifted A and raises FactorizationError if the residual stays above
    1e-10 ||b||.
    """

    def __init__(self, A, refine=False):
        A = sp.csc_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise FactorizationError("matrix must be square")
        scale = np.abs(A.data).max() if A.nnz else 0.0
        self._A = A if refine else None
        opts = {}
        if refine:
            z = np.flatnonzero(A.diagonal() == 0)
            shift = sp.csc_matrix((np.full(len(z), -1e-12 * scale), (z, z)), shape=A.shape)
            A = A + shift
            opts = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options={"SymmetricMode": True})
        try:
            self._lu = spla.splu(A, **opts)
        except RuntimeError as err:
            raise FactorizationError(f"sparse LU failed: {err}") from err
        piv = np.abs(self._lu.U.diagonal())
        if scale == 0.0 or piv.min() < 1e-14 * scale:
            raise FactorizationError("matrix is singular to working precision")
        self.n = A.shape[0]

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        x = self._lu.solve(b)
        if self._A is None:
            return x
        # x += LU^{-1} (b - A x) while the residual at least halves, up to
        # 10 solves; keep the iterate with the smallest residual
        r = b - self._A @ x
        res = np.linalg.norm(r)
        best, best_res = x, res
        for _ in range(9):
            if res == 0.0:
                break
            x = x + self._lu.solve(r)
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


class BorderedFactorization(Factorization):
    """Solver for K = [[K0, c], [d^T, g]] with a nonsingular leading block K0.

    Only K0 is factored (self._lu, partial pivoting as in Factorization).
    Set-up forms w = K0^{-1} c and the scalar Schur complement
    s = g - d^T w; solve(r) takes one K0 solve: y = K0^{-1} r0,
    lam = (r_last - d^T y) / s, x = [y - lam w; lam]. Raises
    FactorizationError when K0 is singular or |s| <= 1e-14 (|g| + ||d|| ||w||).
    """

    def __init__(self, K):
        K = sp.csc_matrix(K)
        m = K.shape[0] - 1
        if K.shape[1] != m + 1:
            raise FactorizationError("matrix must be square")
        super().__init__(K[:m, :m])
        c = K[:m, m].toarray().ravel()
        self._d = K[m, :m].toarray().ravel()
        g = K[m, m]
        self._w = self._lu.solve(c)
        self._s = g - self._d @ self._w
        if abs(self._s) <= 1e-14 * (abs(g) + np.linalg.norm(self._d) * np.linalg.norm(self._w)):
            raise FactorizationError("border Schur complement is singular to working precision")
        self.n = m + 1

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        x = np.empty(self.n)
        y = self._lu.solve(b[:-1])
        lam = (b[-1] - self._d @ y) / self._s
        np.subtract(y, lam * self._w, out=x[:-1])
        x[-1] = lam
        return x


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
