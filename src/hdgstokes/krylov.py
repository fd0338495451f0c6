"""Sparse direct factorisation and right-preconditioned GMRES.

GMRES uses modified Gram-Schmidt Arnoldi with Givens updates of the
Hessenberg factor. The Arnoldi basis V and the preconditioned basis Z
store one vector per contiguous row, zero-allocated, so only the rows a
cycle uses become resident. Two stopping rules are supported: the usual
relative residual, where the iterate is formed once when a cycle ends,
and 'vs_reference', which measures the euclidean norm of the error
against a direct reference solution at every iteration (x_k = x + y Z is
rebuilt from the stored Z, so it costs no preconditioner applications).
Full GMRES by default; an optional restart length is available.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular


class FactorizationError(Exception):
    pass


class Factorization:
    """Sparse LU (SuperLU) with a guard against near-singular pivots."""

    def __init__(self, A):
        A = sp.csc_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise FactorizationError("matrix must be square")
        scale = np.abs(A.data).max() if A.nnz else 0.0
        try:
            self._lu = spla.splu(A)
        except RuntimeError as err:
            raise FactorizationError(f"sparse LU failed: {err}") from err
        piv = np.abs(self._lu.U.diagonal())
        if scale == 0.0 or piv.min() < 1e-14 * scale:
            raise FactorizationError("matrix is singular to working precision")
        self.n = A.shape[0]

    def solve(self, b):
        return self._lu.solve(np.asarray(b, dtype=float))


@dataclass
class KrylovReport:
    iterations: int
    history: np.ndarray
    converged: bool
    stop: tuple  # ("residual", tol) or ("vs_reference", tol)
    basis: np.ndarray | None = field(default=None, repr=False)


def gmres(apply_A, b, x0=None, apply_M=None, tol=1e-6, x_ref=None,
          max_iter=1000, restart=None, keep_basis=False):
    """Right-preconditioned GMRES.

    apply_A, apply_M: callables v -> A v and v -> M^{-1} v (M defaults to
    the identity). If x_ref is given the iteration stops when
    ||x_k - x_ref||_2 <= tol, otherwise when ||b - A x_k|| <= tol ||b||.
    Returns (x, KrylovReport); report.history holds the stop-criterion
    value at every iteration.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if apply_M is None:
        apply_M = lambda v: v
    stop = ("vs_reference", tol) if x_ref is not None else ("residual", tol)
    bnorm = np.linalg.norm(b)
    ref_scale = 1.0 if x_ref is not None else (bnorm if bnorm > 0 else 1.0)

    history = []
    blocks = [] if keep_basis else None
    total = 0
    converged = False

    while total < max_iter and not converged:
        r = b - apply_A(x)
        beta = np.linalg.norm(r)
        if beta == 0.0:
            val = 0.0 if x_ref is None else np.linalg.norm(x - x_ref)
            history.append(val)
            total += 1
            converged = val <= tol * ref_scale
            break
        m = max_iter - total if restart is None else min(restart, max_iter - total)
        V = np.zeros((m + 1, n))      # rows: Arnoldi basis
        Z = np.zeros((m, n))          # rows: preconditioned basis, x_k = x + y Z
        H = np.zeros((m + 1, m))
        cs, sn = np.zeros(m), np.zeros(m)
        g = np.zeros(m + 1)
        g[0] = beta
        V[0] = r / beta
        iterate = lambda k: x + solve_triangular(H[:k, :k], g[:k]) @ Z[:k]

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
            total += 1
            converged = val <= tol * ref_scale
            if converged or breakdown or total >= max_iter:
                break
        x = iterate(j + 1) if x_ref is None else xk
        if keep_basis:
            blocks.append(V[:j + 1].T)

    basis = np.hstack(blocks) if blocks else None
    return x, KrylovReport(iterations=total, history=np.array(history),
                           converged=converged, stop=stop, basis=basis)


def write_history_csv(report, path, seed=None, extra=""):
    """History CSV: 'iter,value' rows, header comment with stop mode/tol/seed."""
    mode, tol = report.stop
    with open(path, "w") as f:
        f.write(f"# stop={mode} tol={tol!r} seed={seed}"
                + (f" {extra}" if extra else "") + "\n")
        f.write("iter,value\n")
        for i, v in enumerate(report.history, start=1):
            f.write(f"{i},{float(v)!r}\n")
