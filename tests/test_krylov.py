import numpy as np
import pytest
import scipy.sparse as sp

from hdgstokes.krylov import Factorization, FactorizationError, gmres, write_history_csv


def test_lu_identity():
    F = Factorization(sp.eye(5, format="csc"))
    b = np.arange(5.0)
    assert np.allclose(F.solve(b), b)


def test_lu_2x2_hand_solve():
    A = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = Factorization(A).solve(np.array([3.0, 4.0]))
    assert np.allclose(x, [1.0, 1.0], atol=1e-14)


def test_lu_random_diagonally_dominant():
    rng = np.random.default_rng(0)
    M = rng.uniform(-1, 1, size=(50, 50))
    M += np.diag(50 * np.ones(50))
    A = sp.csc_matrix(M)
    b = rng.standard_normal(50)
    x = Factorization(A).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_lu_singular_raises():
    A = sp.csc_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(FactorizationError):
        Factorization(A)


def test_lu_near_singular_pivot_raises():
    A = sp.csc_matrix(np.diag([1.0, 1e-16]))
    with pytest.raises(FactorizationError):
        Factorization(A)


def test_lu_near_singular_pivot_raises_in_given_order():
    A = sp.csc_matrix(np.diag([1.0, 1e-16]))
    with pytest.raises(FactorizationError):
        Factorization(A, order=[1, 0])


def test_lu_given_order_solves_nonsymmetric():
    rng = np.random.default_rng(1)
    M = rng.uniform(-1, 1, size=(30, 30)) + np.diag(30 * np.ones(30))
    order = rng.permutation(30)
    b = rng.standard_normal(30)
    for refine in (False, True):
        x = Factorization(sp.csr_matrix(M), refine=refine, order=order).solve(b)
        assert np.linalg.norm(M @ x - b) <= 1e-12 * np.linalg.norm(b)


def test_gmres_identity_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    x, rep = gmres(lambda v: v, b, tol=1e-10)
    assert rep.converged and rep.iterations == 1
    assert np.allclose(x, b)


def test_gmres_exact_preconditioner():
    rng = np.random.default_rng(1)
    M = rng.uniform(-1, 1, size=(30, 30)) + np.diag(10 * np.ones(30))
    Ainv = np.linalg.inv(M)
    b = rng.standard_normal(30)
    x, rep = gmres(lambda v: M @ v, b, apply_M=lambda v: Ainv @ v, tol=1e-10)
    assert rep.converged and rep.iterations <= 2


def test_gmres_shift_matrix_krylov_bound():
    # A = I + nilpotent shift; full GMRES needs at most n iterations
    N = np.eye(4, k=1)
    A = np.eye(4) + N
    b = np.zeros(4)
    b[0] = 1.0
    x, rep = gmres(lambda v: A @ v, b, tol=1e-12, max_iter=10)
    assert rep.converged and rep.iterations <= 4
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-10)


def test_gmres_vs_reference_mode():
    rng = np.random.default_rng(5)
    M = rng.uniform(-1, 1, size=(40, 40)) + np.diag(8 * np.ones(40))
    b = rng.standard_normal(40)
    x_ref = np.linalg.solve(M, b)
    x, rep = gmres(lambda v: M @ v, b, tol=1e-8, x_ref=x_ref, max_iter=100)
    assert rep.converged
    assert rep.stop == ("vs_reference", 1e-8)
    assert np.linalg.norm(x - x_ref) <= 1e-8
    assert rep.history[-1] <= 1e-8
    assert len(rep.history) == rep.iterations


def test_gmres_unpreconditioned_equals_identity_preconditioner():
    rng = np.random.default_rng(7)
    M = rng.uniform(-1, 1, size=(25, 25)) + np.diag(6 * np.ones(25))
    b = rng.standard_normal(25)
    _, r1 = gmres(lambda v: M @ v, b, tol=1e-10, max_iter=50)
    _, r2 = gmres(lambda v: M @ v, b, apply_M=lambda v: v.copy(), tol=1e-10, max_iter=50)
    assert r1.iterations == r2.iterations
    assert np.allclose(r1.history, r2.history, rtol=1e-12, atol=1e-300)


def test_gmres_residual_history_monotone():
    # the minimal-residual property makes the residual history non-increasing
    rng = np.random.default_rng(9)
    M = rng.uniform(-1, 1, size=(60, 60)) + np.diag(3 * np.ones(60))
    b = rng.standard_normal(60)
    _, rep = gmres(lambda v: M @ v, b, tol=1e-12, max_iter=60)
    h = rep.history
    assert np.all(np.diff(h) <= 1e-12 * h[0])


def test_arnoldi_orthonormal():
    rng = np.random.default_rng(11)
    n = 120
    M = rng.uniform(-1, 1, size=(n, n)) + np.diag(2.0 * np.ones(n))
    b = rng.standard_normal(n)
    _, rep = gmres(lambda v: M @ v, b, tol=1e-13, max_iter=100)
    V = rep.basis
    assert V.shape == (n, rep.iterations)
    G = V.T @ V
    assert np.abs(G - np.eye(G.shape[0])).max() <= 1e-10


def test_gmres_max_iter_not_converged():
    rng = np.random.default_rng(13)
    M = rng.uniform(-1, 1, size=(50, 50)) + np.diag(2.0 * np.ones(50))
    b = rng.standard_normal(50)
    _, rep = gmres(lambda v: M @ v, b, tol=1e-16, max_iter=5)
    assert not rep.converged
    assert rep.iterations == 5


def test_gmres_exact_initial_guess():
    rng = np.random.default_rng(17)
    n = 20
    M = rng.uniform(-1, 1, size=(n, n)) + np.diag(10 * np.ones(n))
    x0 = rng.standard_normal(n)
    x, rep = gmres(lambda v: M @ v, M @ x0, x0=x0, tol=1e-10)
    assert rep.converged and rep.iterations == 1
    assert rep.history.tolist() == [0.0]
    assert rep.basis.shape == (n, 0)
    assert np.array_equal(x, x0)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_gmres_rejects_max_iter_below_one(max_iter):
    with pytest.raises(ValueError, match="max_iter"):
        gmres(lambda v: 2 * v, np.ones(3), max_iter=max_iter)


def test_history_csv(tmp_path):
    rng = np.random.default_rng(19)
    M = np.diag(4.0 * np.ones(10)) + rng.uniform(-1, 1, (10, 10))
    b = rng.standard_normal(10)
    _, rep = gmres(lambda v: M @ v, b, tol=1e-10)
    path = tmp_path / "h.csv"
    write_history_csv(rep, path, seed=42)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# stop=residual")
    assert "seed=42" in lines[0]
    assert lines[1] == "iter,value"
    assert len(lines) == 2 + rep.iterations


def _dense_problem(seed=23, n=40):
    """Diagonally dominant M, a dense preconditioner near M's inverse diagonal,
    a right-hand side, a nonzero initial guess and the reference solution."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(-1, 1, size=(n, n)) + np.diag(rng.uniform(20, 40, n))
    P = np.diag(1 / np.diag(M)) + 2e-3 * rng.uniform(-1, 1, size=(n, n))
    b = rng.standard_normal(n)
    x0 = rng.standard_normal(n)
    return M, P, b, x0, np.linalg.solve(M, b)


@pytest.mark.parametrize("k", range(1, 9))
def test_gmres_matches_dense_minimal_residual_oracle(k):
    # x_k minimises ||b - M x|| over x0 + P K_k(M P, r0); the oracle builds
    # the explicit Krylov block, orthonormalises it by QR and solves lstsq
    M, P, b, x0, x_ref = _dense_problem()
    C, r0 = M @ P, b - M @ x0
    K = np.empty((len(b), k))
    K[:, 0] = r0
    for j in range(1, k):
        K[:, j] = C @ K[:, j - 1]
    Q, _ = np.linalg.qr(K)
    c = np.linalg.lstsq(C @ Q, r0, rcond=None)[0]
    x_oracle = x0 + P @ (Q @ c)
    for ref in (None, x_ref):
        x, rep = gmres(lambda v: M @ v, b, x0=x0, apply_M=lambda v: P @ v,
                       tol=0.0, x_ref=ref, max_iter=k)
        assert rep.iterations == k and not rep.converged
        assert np.linalg.norm(x - x_oracle) <= 1e-10 * np.linalg.norm(x_oracle)
    # vs_reference: the last history entry is the true error of the returned x
    assert rep.history[k - 1] == pytest.approx(np.linalg.norm(x - x_ref), rel=1e-12)


@pytest.mark.parametrize("kw", [dict(tol=1e-5, max_iter=100),
                                dict(tol=0.0, max_iter=4)],
                         ids=["converged", "max_iter"])
def test_gmres_residual_mode_iterate_matches_history(kw):
    # residual mode forms x once, at the end; its true residual must be the
    # Givens estimate recorded for the last iteration
    M, P, b, x0, _ = _dense_problem(seed=29)
    x, rep = gmres(lambda v: M @ v, b, x0=x0, apply_M=lambda v: P @ v, **kw)
    assert rep.converged == (kw["tol"] > 0)
    assert abs(np.linalg.norm(b - M @ x) / rep.history[-1] - 1) <= 1e-8

