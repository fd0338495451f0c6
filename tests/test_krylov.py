import numpy as np
import pytest
import scipy.sparse as sp

from hdgstokes import NVTF, TVNF, Triangulation, build_dof_map, generate
from hdgstokes import schwarz, system, verify
from hdgstokes.fem_space import dissection_order
from hdgstokes.krylov import Factorization, FactorizationError, gmres, velocity_first


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


def test_lu_rejects_non_square():
    with pytest.raises(FactorizationError, match="must be square"):
        Factorization(sp.csr_matrix((2, 3)))


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


# --- velocity-first order of the Schwarz local factors -----------------------

@pytest.mark.filterwarnings("error")
def test_refined_solve_rejects_nan_residual():
    # nu = 1e-300 scales the solution past the float range, so the residual
    # is NaN; it stops the refinement at once and fails the final check,
    # without a floating-point warning
    ex = verify.catalogue("curl_trig", nu=1e-300)
    T = generate("unit_square", 2)
    sysm = system.assemble(T, build_dof_map(T, TVNF), nu=1e-300, tau=6.0, eps=-1,
                           f=ex.f, g=ex.g)
    F = Factorization(sysm.A, refine=True, order=sysm.order)
    calls, lu_solve = [], F._lu_solve
    F._lu_solve = lambda b: calls.append(1) or lu_solve(b)
    with pytest.raises(FactorizationError, match="residual nan"):
        F.solve(sysm.rhs)
    assert len(calls) == 2


def test_refined_solve_keeps_the_last_step_that_lowers_the_residual():
    # the third LU solve is pushed off, so the second refinement step raises
    # the residual: solve() must reject it and return the first refined
    # iterate x0 + LU^{-1} (b - A x0), x0 = LU^{-1} b, bit for bit
    ex = verify.catalogue("curl_trig")
    T = generate("unit_square", 4)
    sysm = system.assemble(T, build_dof_map(T, TVNF), f=ex.f, g=ex.g)
    F = Factorization(sysm.A, refine=True, order=sysm.order)
    b, lu_solve = sysm.rhs, F._lu_solve
    x0 = lu_solve(b)
    want = x0 + lu_solve(b - sysm.A @ x0)
    calls = []

    def pushed_off(r):
        calls.append(1)
        d = lu_solve(r)
        return d + 1e-6 if len(calls) == 3 else d

    F._lu_solve = pushed_off
    x = F.solve(b)
    assert len(calls) == 3
    assert x.dtype == want.dtype and x.tobytes() == want.tobytes()


def _rank(order):
    """Rank of each row in a base order, a permutation."""
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank


def _rule_by_loops(A, rank):
    """velocity_first one column and one row at a time: (order, {pressure: column})."""
    D = A.toarray()
    zero = np.diag(D) == 0
    by_rank = lambda idx: sorted(idx, key=lambda i: rank[i])
    cols = by_rank(np.flatnonzero(~zero))
    after = {}
    for j in cols:
        rows = [i for i in np.flatnonzero(D[:, j]) if zero[i]]
        if rows:
            after.setdefault(by_rank(rows)[0], j)
    coupled = {i for i in np.flatnonzero(zero) if np.any(D[i, ~zero] != 0)}
    order = []
    for j in cols:
        order += [j] + [p for p, c in after.items() if c == j]
    order += by_rank(set(np.flatnonzero(zero)) - coupled)
    order += by_rank(coupled - set(after))
    return np.array(order), after


def _schwarz_local_matrices():
    """(local matrix, whole base order) of every RAS and MRAS subdomain, as
    schwarz orders them: bubble (NVTF) on 3x3 parts, whose MRAS-NVTF problems
    all float and whose MRAS-TVNF problems lack the global border row,
    curl_trig (TVNF) on 3x3 parts, whose centre MRAS-NVTF problem floats and
    carries a border row past the dofs, and bubble on bisect:3 parts with two
    overlap layers."""
    past = short = 0
    for case, spec, l in [("bubble", "uniform:3x3", 1), ("curl_trig", "uniform:3x3", 1),
                          ("bubble", "bisect:3", 2)]:
        ex = verify.catalogue(case)
        T = generate("unit_square", 8)
        dm = build_dof_map(T, ex.bc)
        sysm = system.assemble(T, dm, f=ex.f, g=ex.g)
        dec = schwarz.build_decomposition(T, dm, schwarz.decompose(T, spec), l)
        for i, dofs in enumerate(dec.dofs):
            # the mesh's dissection order restricted to the subdomain, local indices
            base = np.searchsorted(dofs, sysm.order[np.isin(sysm.order, dofs)])
            yield sysm.A[dofs, :][:, dofs], base
            for ic in (TVNF, NVTF):
                K = schwarz.mras_local_matrix(sysm, dec, i, ic)
                m = K.shape[0]
                past += m > len(dofs)
                short += m < len(dofs)
                yield K, np.append(base[base < m], np.arange(len(dofs), m))
    # the sweep holds a border row past the dofs and a global border a local problem lacks
    assert past > 0 and short > 0


def test_velocity_first_order_structure():
    for K, base in _schwarz_local_matrices():
        n = K.shape[0]
        rank = _rank(base)
        order = velocity_first(K, base)
        assert np.array_equal(np.sort(order), np.arange(n))
        ref, after = _rule_by_loops(K, rank)
        assert np.array_equal(order, ref)
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)
        P = np.array(sorted(after, key=lambda p: rank[p]))
        J = np.array([after[p] for p in P])
        assert len(P) and np.array_equal(pos[P], pos[J] + 1)
        # the coupling block on the matched pairs is lower triangular in
        # pi-order: a column couples no matched pressure ranked before its own
        B = K.toarray()[np.ix_(P, J)]
        assert np.all(np.diag(B) != 0) and not np.triu(B, 1).any()


def test_velocity_first_two_triangle_floating_border():
    # NVTF on the whole boundary of two triangles: the two BDM dofs of the
    # shared edge are the only velocities coupled to the pressures, with
    # proportional coupling, and the border row pins the floating pressure
    T = Triangulation(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                      np.array([[0, 1, 3], [0, 3, 2]]))
    dm = build_dof_map(T, NVTF)
    A = system.assemble(T, dm).A
    D = A.toarray()
    n = len(D)
    base = dissection_order(T, dm)
    rank = _rank(base)
    singular = lambda o: [k for k in range(1, n + 1)
                          if np.linalg.matrix_rank(D[np.ix_(o[:k], o[:k])]) < k]
    # each pressure right after its first coupled column, the border last
    zero = np.diag(D) == 0
    key = 2.0 * rank
    for p in np.flatnonzero(zero):
        cols = np.flatnonzero((D[p] != 0) & ~zero)
        key[p] = 2 * rank[cols].min() + 1 if len(cols) else 4 * n
    assert singular(np.argsort(key))
    assert not singular(velocity_first(A, base))
    b = np.ones(n)
    x = Factorization(A, order=base).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)


# the second column names the defect; every one is the same error
@pytest.mark.parametrize("order,defect", [([0, 1, 1], "repeats a row"),
                                          ([0, 3], "outside range"),
                                          ([-1, 0], "outside range"),
                                          ([0, 1], "short")])
def test_velocity_first_rejects_bad_base_order(order, defect):
    with pytest.raises(ValueError, match=r"not a permutation of range\(3\)") as err:
        velocity_first(sp.eye(3, format="csr"), order)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("order,defect", [([0, 0, 2], "repeats a row"),
                                          ([0, 1, 3], "outside range"),
                                          ([0, 1], "short")])
def test_factorization_rejects_bad_order(refine, order, defect):
    # both factor modes check the order as velocity_first checks its base order
    A = sp.csr_matrix(np.array([[4.0, 1, 0], [1, 3, 1], [0, 1, 2]]))
    with pytest.raises(ValueError, match=r"not a permutation of range\(3\)"):
        Factorization(A, refine=refine, order=order)


def test_local_factor_is_unshifted_and_solves_once():
    # L U reproduces the permuted matrix itself, zero diagonal included (a
    # -1e-12 max|A| shift would show), and solve() is one triangular solve
    class Counted:
        def __init__(self, lu):
            self.lu, self.calls = lu, 0

        def solve(self, b):
            self.calls += 1
            return self.lu.solve(b)

    for K, base in _schwarz_local_matrices():
        F = Factorization(K, order=base)
        lu, n = F._lu, F.n
        Pr = sp.csc_matrix((np.ones(n), (lu.perm_r, np.arange(n))))
        Pc = sp.csc_matrix((np.ones(n), (np.arange(n), lu.perm_c)))
        LU = (Pr.T @ (lu.L @ lu.U) @ Pc.T).toarray()
        Kp = K.toarray()[np.ix_(F._order, F._order)]
        assert np.abs(LU - Kp).max() <= 1e-14 * np.abs(Kp).max()
        F._lu = Counted(lu)
        F.solve(np.ones(n))
        assert F._lu.calls == 1


def test_gmres_identity_one_iteration():
    b = np.array([1.0, -2.0, 3.0])
    x, rep = gmres(lambda v: v, b, tol=1e-10, x_ref=b)
    assert rep.converged and rep.iterations == 1
    assert np.allclose(x, b)


def test_gmres_exact_preconditioner():
    rng = np.random.default_rng(1)
    M = rng.uniform(-1, 1, size=(30, 30)) + np.diag(10 * np.ones(30))
    Ainv = np.linalg.inv(M)
    b = rng.standard_normal(30)
    x, rep = gmres(lambda v: M @ v, b, apply_M=lambda v: Ainv @ v, tol=1e-10,
                   x_ref=np.linalg.solve(M, b))
    assert rep.converged and rep.iterations <= 2


def test_gmres_shift_matrix_krylov_bound():
    # A = I + nilpotent shift; full GMRES needs at most n iterations
    N = np.eye(4, k=1)
    A = np.eye(4) + N
    b = np.zeros(4)
    b[0] = 1.0
    x_ref = np.linalg.solve(A, b)
    x, rep = gmres(lambda v: A @ v, b, tol=1e-12, x_ref=x_ref, max_iter=10)
    assert rep.converged and rep.iterations <= 4
    assert np.allclose(x, x_ref, atol=1e-10)


def test_gmres_vs_reference_mode():
    rng = np.random.default_rng(5)
    M = rng.uniform(-1, 1, size=(40, 40)) + np.diag(8 * np.ones(40))
    b = rng.standard_normal(40)
    x_ref = np.linalg.solve(M, b)
    x, rep = gmres(lambda v: M @ v, b, tol=1e-8, x_ref=x_ref, max_iter=100)
    assert rep.converged
    assert np.linalg.norm(x - x_ref) <= 1e-8
    assert rep.history[-1] <= 1e-8
    assert len(rep.history) == rep.iterations


def test_gmres_unpreconditioned_equals_identity_preconditioner():
    rng = np.random.default_rng(7)
    M = rng.uniform(-1, 1, size=(25, 25)) + np.diag(6 * np.ones(25))
    b = rng.standard_normal(25)
    x_ref = np.linalg.solve(M, b)
    _, r1 = gmres(lambda v: M @ v, b, tol=1e-10, x_ref=x_ref, max_iter=50)
    _, r2 = gmres(lambda v: M @ v, b, apply_M=lambda v: v.copy(), tol=1e-10, x_ref=x_ref,
                  max_iter=50)
    assert r1.iterations == r2.iterations
    assert np.allclose(r1.history, r2.history, rtol=1e-12, atol=1e-300)


def test_arnoldi_orthonormal():
    rng = np.random.default_rng(11)
    n = 120
    M = rng.uniform(-1, 1, size=(n, n)) + np.diag(2.0 * np.ones(n))
    b = rng.standard_normal(n)
    _, rep = gmres(lambda v: M @ v, b, tol=1e-13, x_ref=np.linalg.solve(M, b), max_iter=100)
    V = rep.basis
    assert V.shape == (n, rep.iterations)
    G = V.T @ V
    assert np.abs(G - np.eye(G.shape[0])).max() <= 1e-10


@pytest.mark.parametrize("c", [1.0, 1e-20])
def test_gmres_breakdown_invariant_to_preconditioner_scale(c):
    # right preconditioning with c P only rescales the Hessenberg columns, so
    # the breakdown test must not compare them with ||r0|| (which c leaves alone)
    rng = np.random.default_rng(11)
    n = 50
    M = rng.uniform(-1, 1, size=(n, n)) + np.diag(2.0 * np.ones(n))
    b = rng.standard_normal(n)
    d = 1.0 / np.diag(M)
    _, rep = gmres(lambda v: M @ v, b, apply_M=lambda v: c * d * v, tol=1e-10,
                   x_ref=np.linalg.solve(M, b), max_iter=n)
    assert rep.converged and rep.iterations == n


def test_gmres_max_iter_not_converged():
    rng = np.random.default_rng(13)
    M = rng.uniform(-1, 1, size=(50, 50)) + np.diag(2.0 * np.ones(50))
    b = rng.standard_normal(50)
    _, rep = gmres(lambda v: M @ v, b, tol=1e-16, x_ref=np.linalg.solve(M, b), max_iter=5)
    assert not rep.converged
    assert rep.iterations == 5


def test_gmres_exact_initial_guess():
    rng = np.random.default_rng(17)
    n = 20
    M = rng.uniform(-1, 1, size=(n, n)) + np.diag(10 * np.ones(n))
    x0 = rng.standard_normal(n)
    x, rep = gmres(lambda v: M @ v, M @ x0, x0=x0, tol=1e-10, x_ref=x0)
    assert rep.converged and rep.iterations == 1
    assert rep.history.tolist() == [0.0]
    assert rep.basis.shape == (n, 0)
    assert np.array_equal(x, x0)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_gmres_rejects_max_iter_below_one(max_iter):
    with pytest.raises(ValueError, match="max_iter"):
        gmres(lambda v: 2 * v, np.ones(3), x_ref=np.full(3, 0.5), max_iter=max_iter)


def test_gmres_takes_the_reference_by_keyword_only():
    # every stop is measured against x_ref, so a call must name it
    with pytest.raises(TypeError, match="x_ref"):
        gmres(lambda v: 2 * v, np.ones(3), tol=1e-10)
    with pytest.raises(TypeError):
        gmres(lambda v: 2 * v, np.ones(3), None, None, 1e-10, np.full(3, 0.5))


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
    x, rep = gmres(lambda v: M @ v, b, x0=x0, apply_M=lambda v: P @ v,
                   tol=0.0, x_ref=x_ref, max_iter=k)
    assert rep.iterations == k and not rep.converged
    assert np.linalg.norm(x - x_oracle) <= 1e-10 * np.linalg.norm(x_oracle)
    # the last history entry is the true error of the returned x
    assert rep.history[k - 1] == pytest.approx(np.linalg.norm(x - x_ref), rel=1e-12)
