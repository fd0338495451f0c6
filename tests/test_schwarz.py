import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hdgstokes import NVTF, TVNF, Triangulation, build_dof_map, generate
from hdgstokes import krylov, schwarz, system, verify
from hdgstokes.fem_space import FIXES, edge_dofs
from hdgstokes.local_assembly import ElementStack
from hdgstokes.quadrature import BDM_NODES


def assembled(case, n, eps=-1):
    ex = verify.catalogue(case)
    T = generate("unit_square", n)
    dm = build_dof_map(T, ex.bc)
    sysm = system.assemble(T, dm, eps=eps, f=ex.f, g=ex.g)
    return ex, T, dm, sysm


def subdomain_boundary_edges(T, elems):
    """The edges that bound the triangle set elems: (interface, on Gamma)."""
    once = np.bincount(T.tri_edges[elems].ravel(), minlength=T.n_edges) == 1
    return np.flatnonzero(once & ~T.boundary_edge), np.flatnonzero(once & T.boundary_edge)


# --- partitioning ----------------------------------------------------------

def test_uniform_2x1_counts():
    T = generate("unit_square", 2)
    parts = schwarz.decompose(T, "uniform:2x1")
    counts = np.bincount(parts)
    assert list(counts) == [4, 4]


def test_uniform_2x2_counts():
    T = generate("unit_square", 4)
    parts = schwarz.decompose(T, "uniform:2x2")
    assert list(np.bincount(parts)) == [8, 8, 8, 8]


def test_uniform_2x2_counts_on_t_shape():
    # the cells cut the bounding box [0, 1.5] x [-1, 1]: the stem is its lower half
    parts = schwarz.decompose(generate("t_shape", 4), "uniform:2x2")
    assert list(np.bincount(parts)) == [8, 8, 24, 24]


def test_bisect_balance_large_mesh():
    T = generate("unit_square", 250)
    parts = schwarz.partition_bisect(T, 3)
    counts = np.bincount(parts, minlength=3)
    target = T.n_triangles / 3
    assert np.all(counts >= 0.8 * target)
    assert np.all(counts <= 1.2 * target)


def test_bisect_covers_all_parts():
    T = generate("unit_square", 8)
    parts = schwarz.partition_bisect(T, 5)
    assert set(parts) == set(range(5))
    # up to one triangle per part: no split may leave a part empty
    T = generate("unit_square", 2)
    for k in range(1, T.n_triangles + 1):
        assert set(schwarz.partition_bisect(T, k)) == set(range(k))


def test_partition_file_roundtrip(tmp_path):
    T = generate("unit_square", 4)
    parts = schwarz.partition_uniform(T, 2, 2)
    path = tmp_path / "p.epart"
    path.write_text("\n".join(str(p) for p in parts) + "\n")
    read = schwarz.decompose(T, f"file:{path}")
    assert np.array_equal(read, parts)


def test_partition_file_wrong_length(tmp_path):
    T = generate("unit_square", 4)
    path = tmp_path / "p.epart"
    path.write_text("0\n1\n")
    with pytest.raises(ValueError):
        schwarz.partition_from_file(T, path)


def test_partition_file_empty_part(tmp_path):
    T = generate("unit_square", 2)
    path = tmp_path / "p.epart"
    path.write_text("\n".join(["0"] * 4 + ["2"] * 4) + "\n")  # part 1 missing
    with pytest.raises(ValueError):
        schwarz.partition_from_file(T, path)


@pytest.mark.parametrize("domain,n,spec,msg", [
    ("unit_square", 2, "uniform:8x8", "56 of 64"),
    ("unit_square", 4, "bisect:40", "8 of 40"),
    ("t_shape", 4, "uniform:3x3", "2 of 9"),  # the cells left and right of the stem
], ids=["2-uniform:8x8-56 of 64", "4-bisect:40-8 of 40", "tshape4-uniform:3x3-2 of 9"])
def test_decompose_rejects_empty_parts(domain, n, spec, msg):
    with pytest.raises(ValueError, match=f"partition leaves {msg} parts empty"):
        schwarz.decompose(generate(domain, n), spec)


# --- overlap ---------------------------------------------------------------

def test_overlap_requires_l_geq_1():
    T = generate("unit_square", 2)
    parts = schwarz.partition_uniform(T, 2, 1)
    with pytest.raises(ValueError):
        schwarz.add_overlap(T, parts, 0)


def test_overlap_single_subdomain_unchanged():
    T = generate("unit_square", 4)
    _, elems = schwarz.add_overlap(T, np.zeros(T.n_triangles, dtype=int), 1)
    assert len(elems[0]) == T.n_triangles


def test_overlap_grows_and_covers():
    T = generate("unit_square", 4)
    parts = schwarz.partition_uniform(T, 2, 2)
    elems0, elems = schwarz.add_overlap(T, parts, 1)
    union = set()
    for i in range(4):
        assert len(elems[i]) > len(elems0[i])
        union.update(elems[i])
    assert union == set(range(T.n_triangles))


def test_overlap_stops_when_a_layer_adds_no_triangle():
    # the growth ends once the cover stops growing, so a huge l returns the
    # whole-mesh cover of l = 100 at once instead of running 10**9 products
    T = generate("unit_square", 32)
    parts = schwarz.decompose(T, "uniform:4x4")
    want0, want = schwarz.add_overlap(T, parts, 100)
    start = time.perf_counter()
    got0, got = schwarz.add_overlap(T, parts, 10**9)
    assert time.perf_counter() - start < 1.0
    for a, b in zip(want0 + want, got0 + got):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert all(len(e) == T.n_triangles for e in got)


def test_overlap_matches_vertex_bfs_oracle():
    # membership in the overlapped part <=> within l vertex-layers of the part;
    # every part, sorted
    T = generate("unit_square", 4)
    for spec_ in ("uniform:2x1", "bisect:5"):
        parts = schwarz.decompose(T, spec_)
        for l in (1, 2, 3):
            elems0, elems = schwarz.add_overlap(T, parts, l)
            assert len(elems0) == len(elems) == parts.max() + 1
            for i, (own, grown) in enumerate(zip(elems0, elems)):
                assert own.tolist() == np.flatnonzero(parts == i).tolist()
                layer = set(own)
                for _ in range(l):
                    verts = set(T.triangles[sorted(layer)].ravel())
                    layer = {k for k in range(T.n_triangles)
                             if set(T.triangles[k]) & verts} | layer
                assert grown.tolist() == sorted(layer)


# --- partition of unity ------------------------------------------------------

@pytest.mark.parametrize("bc", [TVNF, NVTF])
@pytest.mark.parametrize("spec_,l", [("uniform:2x2", 1), ("uniform:3x3", 1),
                                     ("bisect:5", 2)])
def test_partition_identity(bc, spec_, l):
    T = generate("unit_square", 8)
    dm = build_dof_map(T, bc)
    parts = schwarz.decompose(T, spec_)
    dec = schwarz.build_decomposition(T, dm, parts, l)
    acc = np.zeros(dm.n_total)
    for dofs, w in zip(dec.dofs, dec.weights):
        acc[dofs] += w
    assert np.abs(acc - 1.0).max() <= 1e-12


def test_single_subdomain_weights_are_identity():
    T = generate("unit_square", 4)
    dm = build_dof_map(T, TVNF)
    dec = schwarz.build_decomposition(T, dm, np.zeros(T.n_triangles, dtype=int), 1)
    assert np.allclose(dec.weights[0], 1.0)
    assert np.array_equal(dec.dofs[0], np.arange(dm.n_total))


def test_interface_midpoint_weight_is_half():
    # symmetric 2-part split: multiplier dofs of edges on the midline x = 0.5
    T = generate("unit_square", 4)
    dm = build_dof_map(T, TVNF)
    parts = schwarz.partition_uniform(T, 2, 1)
    dec = schwarz.build_decomposition(T, dm, parts, 1)
    mid = 0.5 * (T.vertices[T.edges[:, 0]] + T.vertices[T.edges[:, 1]])
    on_line = np.flatnonzero(np.abs(mid[:, 0] - 0.5) < 1e-12)
    assert len(on_line) > 0
    w = {i: dict(zip(dec.dofs[i], dec.weights[i])) for i in range(2)}
    for e in on_line:
        d = edge_dofs(dm.n_edges, e)[2]
        assert abs(w[0][d] - 0.5) < 1e-12
        assert abs(w[1][d] - 0.5) < 1e-12


def test_every_dof_in_some_subdomain_and_extension_transpose():
    T = generate("unit_square", 8)
    dm = build_dof_map(T, NVTF)
    parts = schwarz.decompose(T, "uniform:3x3")
    dec = schwarz.build_decomposition(T, dm, parts, 1)
    covered = np.zeros(dm.n_total, dtype=bool)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(dm.n_total)
    for dofs in dec.dofs:
        covered[dofs] = True
        ext = np.zeros(dm.n_total)
        ext[dofs] = x[dofs]          # R_i^T R_i x
        assert np.array_equal(ext[dofs], x[dofs])
    assert covered.all()


def reference_decomposition(T, dm, parts, l):
    """(elems0, elems, dofs, weights) built part by part over the whole mesh:
    each part grown by its own vertex-incidence products, its dofs collected
    and sorted, its vertex indicator interpolated at every dof of the mesh."""
    nt, ne = T.n_triangles, T.n_edges
    Inc = sp.csr_matrix((np.ones(3 * nt), (T.triangles.ravel(), np.repeat(np.arange(nt), 3))),
                        shape=(T.n_vertices, nt))
    all_edges = edge_dofs(ne, np.arange(ne))
    elems0, elems, dofs, raw = [], [], [], []
    denom = np.zeros(dm.n_total)
    for i in range(int(parts.max()) + 1):
        cur = parts == i
        elems0.append(np.flatnonzero(cur))
        for _ in range(l):
            cur = Inc.T @ (Inc @ cur) > 0
        elems.append(np.flatnonzero(cur))
        d = [edge_dofs(ne, np.unique(T.tri_edges[elems[-1]])).ravel(), dm.pres_dof(elems[-1])]
        if dm.mean_constraint_dof is not None:
            d.append(np.array([dm.mean_constraint_dof]))
        dofs.append(np.sort(np.concatenate(d)))
        flag = np.zeros(T.n_vertices)
        flag[T.triangles[elems0[-1]].ravel()] = 1.0
        lo, hi = flag[T.edges[:, 0]], flag[T.edges[:, 1]]
        vals = np.ones(dm.n_total)  # the NVTF border keeps indicator 1
        for m, s in enumerate(BDM_NODES):
            vals[all_edges[:, m]] = (1 - s) * lo + s * hi
        vals[all_edges[:, 2]] = 0.5 * (lo + hi)
        vals[dm.pres_dof(np.arange(nt))] = flag[T.triangles].mean(axis=1)
        raw.append(vals[dofs[-1]])
        np.add.at(denom, dofs[-1], raw[-1])
    return elems0, elems, dofs, [w / denom[d] for w, d in zip(raw, dofs)]


ORACLE_SPECS = ("uniform:2x2", "uniform:3x3", "uniform:1x4", "bisect:1", "bisect:3", "bisect:7")


@pytest.mark.parametrize("bc", [TVNF, NVTF])
@pytest.mark.parametrize("domain,n,specs", [
    ("unit_square", 2, [s for s in ORACLE_SPECS if s != "uniform:3x3"]),  # 9 parts, 8 triangles
    ("unit_square", 8, ORACLE_SPECS),
    ("unit_square", 16, ORACLE_SPECS),
    ("t_shape", 4, [s for s in ORACLE_SPECS if s != "uniform:3x3"]),  # 2 of 9 cells empty
], ids=["square2", "square8", "square16", "tshape4"])
def test_decomposition_matches_whole_mesh_oracle(bc, domain, n, specs):
    # every array, values and dtypes, bitwise
    T = generate(domain, n)
    dm = build_dof_map(T, bc)
    for spec_ in specs:
        parts = schwarz.decompose(T, spec_)
        for l in (1, 2, 3):
            dec = schwarz.build_decomposition(T, dm, parts, l)
            ref = reference_decomposition(T, dm, parts, l)
            got = (dec.elems0, dec.elems, dec.dofs, dec.weights)
            for name, a_list, b_list in zip(("elems0", "elems", "dofs", "weights"), got, ref):
                assert len(a_list) == len(b_list) == parts.max() + 1, (spec_, l, name)
                for a, b in zip(a_list, b_list):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (spec_, l, name)


# --- preconditioners ---------------------------------------------------------

def test_ras_single_subdomain_is_exact_inverse():
    ex, T, dm, sysm = assembled("bubble", 4)
    dec = schwarz.build_decomposition(T, dm, np.zeros(dm.n_tris, dtype=int), 1)
    pre = schwarz.build_ras(sysm, dec)
    x, rep = krylov.gmres(lambda v: sysm.A @ v, sysm.rhs, apply_M=pre.apply,
                          tol=1e-10, x_ref=system.solve_direct(sysm), max_iter=10)
    assert rep.converged and rep.iterations <= 2


def local_problems(sysm, dec, kind):
    """(preconditioner, local matrices) for kind 'ras', TVNF or NVTF."""
    if kind == "ras":
        return (schwarz.build_ras(sysm, dec), [sysm.A[d, :][:, d] for d in dec.dofs])
    return (schwarz.build_mras(sysm, dec, kind),
            [schwarz.mras_local_matrix(sysm, dec, i, kind) for i in range(dec.n_parts)])


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("spec_", ["uniform:2x2", "uniform:3x3", "uniform:4x4"])
@pytest.mark.parametrize("eps", [-1, 1])
def test_ras_bordered_local_solves_match_full_lu(n, spec_, eps):
    # NVTF: every RAS local matrix keeps the mean-pressure border. Each RAS
    # and MRAS local factor (unshifted, one triangular solve, no refinement)
    # must solve like partial-pivot LU of its matrix, for both global bc
    # (curl_trig is TVNF: its floating MRAS-NVTF problems get a border row
    # past the subdomain's dofs) and overlaps 1 and 2
    rng = np.random.default_rng(3)
    for case, l in [("bubble", 1), ("bubble", 2), ("curl_trig", 1), ("curl_trig", 2)]:
        ex, T, dm, sysm = assembled(case, n, eps)
        dec = schwarz.build_decomposition(T, dm, schwarz.decompose(T, spec_), l)
        if dm.mean_constraint_dof is not None:
            assert all(d[-1] == dm.mean_constraint_dof for d in dec.dofs)
        for kind in ("ras", TVNF, NVTF):
            pre, mats = local_problems(sysm, dec, kind)
            for K, F in zip(mats, pre.factors):
                assert F.n == K.shape[0]
                r = rng.standard_normal(F.n)
                ref = spla.splu(K.tocsc()).solve(r)
                assert np.linalg.norm(F.solve(r) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_ras_bordered_local_fill_below_full_lu():
    # the velocity-first nested-dissection order with diagonal pivots against
    # COLAMD with partial pivoting, which orders the border row inside small
    # factors
    ex, T, dm, sysm = assembled("bubble", 32)
    for spec_, kind in [("uniform:4x4", "ras"), ("uniform:2x2", TVNF)]:
        dec = schwarz.build_decomposition(T, dm, schwarz.decompose(T, spec_), 1)
        pre, mats = local_problems(sysm, dec, kind)
        plain = sum(spla.splu(K.tocsc()).nnz for K in mats)
        assert sum(F._lu.nnz for F in pre.factors) < 0.7 * plain, kind


def test_ras_whole_mesh_subdomains_keep_full_factor():
    # n = 2 with overlap 3: every subdomain is the whole mesh, whose block
    # without the border is singular (constant pressure), so the border stays
    ex, T, dm, sysm = assembled("bubble", 2)
    dec = schwarz.build_decomposition(T, dm, schwarz.decompose(T, "uniform:2x2"), 3)
    pre = schwarz.build_ras(sysm, dec)
    assert all(type(F) is krylov.Factorization and F.n == dm.n_total
               for F in pre.factors)
    _, rep = krylov.gmres(lambda v: sysm.A @ v, sysm.rhs, apply_M=pre.apply,
                          tol=1e-10, x_ref=system.solve_direct(sysm), max_iter=10)
    assert rep.converged and rep.iterations == 1


def test_ras_and_mras_coincide_for_single_subdomain():
    ex, T, dm, sysm = assembled("bubble", 4)
    dec = schwarz.build_decomposition(T, dm, np.zeros(dm.n_tris, dtype=int), 1)
    ras = schwarz.build_ras(sysm, dec)
    rng = np.random.default_rng(1)
    for ic in (TVNF, NVTF):
        mras = schwarz.build_mras(sysm, dec, ic)
        assert [F.n for F in mras.factors] == [len(d) for d in mras.dofs]
        for _ in range(5):
            v = rng.standard_normal(dm.n_total)
            a, b = ras.apply(v), mras.apply(v)
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a)


def test_mras_rejects_unknown_interface_condition():
    ex, T, dm, sysm = assembled("bubble", 4)
    dec = schwarz.build_decomposition(T, dm, np.zeros(dm.n_tris, dtype=int), 1)
    with pytest.raises(ValueError, match="unknown interface condition 'robin'"):
        schwarz.build_mras(sysm, dec, "robin")


def test_preconditioner_apply_is_linear():
    # RAS, and both MRAS variants on 3x3 parts of a bubble (NVTF) mesh, where
    # every MRAS-NVTF local problem floats, the interior one on all sides
    rng = np.random.default_rng(2)
    for case, spec_, kind in [("poiseuille", "uniform:2x2", "ras"),
                              ("bubble", "uniform:3x3", TVNF),
                              ("bubble", "uniform:3x3", NVTF)]:
        ex, T, dm, sysm = assembled(case, 8)
        dec = schwarz.build_decomposition(T, dm, schwarz.decompose(T, spec_), 1)
        pre, _ = local_problems(sysm, dec, kind)
        u, v = rng.standard_normal((2, dm.n_total))
        lhs = pre.apply(2.5 * u + v)
        rhs = 2.5 * pre.apply(u) + pre.apply(v)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(rhs)), kind


def test_mras_local_matrix_differs_only_on_interface_rows():
    # both global bc (bubble: NVTF, curl_trig: TVNF) and both interface conditions
    for case in ("bubble", "curl_trig"):
        ex, T, dm, sysm = assembled(case, 8)
        parts = schwarz.decompose(T, "uniform:2x2")
        dec = schwarz.build_decomposition(T, dm, parts, 1)
        for ic in (TVNF, NVTF):
            i = 0
            B = schwarz.mras_local_matrix(sysm, dec, i, ic)
            dofs = dec.dofs[i]
            # a non-floating local TVNF problem of an NVTF system has no row
            # for the global border, the last of the subdomain's dofs
            m = len(dofs) - (ic == TVNF and dm.mean_constraint_dof is not None)
            assert B.shape == (m, m)
            S = sysm.A[dofs[:m], :][:, dofs[:m]].tocsc()
            iface, _ = subdomain_boundary_edges(T, dec.elems[i])
            iface_dofs = np.concatenate([2 * iface, 2 * iface + 1,
                                         2 * dm.n_edges + iface])
            marked = set(np.searchsorted(dofs, iface_dofs))
            D = (B - S).tocoo()
            assert len(iface) > 0
            touched = set()
            for r, c, v in zip(D.row, D.col, D.data):
                if abs(v) > 1e-13:
                    assert r in marked or c in marked
                    touched.add(r if r in marked else c)
            assert touched  # the surgery really changed the interface rows
            # the interface traces that ic fixes have identity rows and columns
            fixed = np.searchsorted(dofs, edge_dofs(dm.n_edges, iface)[:, list(FIXES[ic])].ravel())
            Bd, eye = B.toarray(), np.eye(m)
            assert np.array_equal(Bd[fixed], eye[fixed])
            assert np.array_equal(Bd[:, fixed], eye[:, fixed])


def test_mras_floating_subdomain_augmented():
    # TVNF-global system, NVTF interface conditions, 3x3: only the interior
    # subdomain has no Gamma edge and needs the local mean-pressure row
    ex, T, dm, sysm = assembled("poiseuille", 12)
    parts = schwarz.decompose(T, "uniform:3x3")
    dec = schwarz.build_decomposition(T, dm, parts, 1)
    pre = schwarz.build_mras(sysm, dec, NVTF)
    augmented = [F.n > len(d) for F, d in zip(pre.factors, pre.dofs)]
    assert sum(augmented) == 1
    gamma_counts = [len(subdomain_boundary_edges(T, dec.elems[i])[1])
                    for i in range(9)]
    assert augmented[int(np.argmin(gamma_counts))]
    v = np.ones(dm.n_total)
    out = pre.apply(v)
    assert out.shape == (dm.n_total,) and np.isfinite(out).all()


@pytest.mark.parametrize("case,n,spec_", [
    (case, n, spec_) for case in ("bubble", "curl_trig", "poiseuille")
    for n, spec_ in ((8, "uniform:2x2"), (12, "uniform:3x3"), (8, "bisect:3"))])
@pytest.mark.parametrize("l", [1, 2])
def test_mras_local_matrix_matches_standalone_assembly(case, n, spec_, l):
    # B_i is the global assembly on a renumbered mesh made of the subdomain's
    # triangles, whose boundary edges carry the global bc on Gamma and ic
    # elsewhere, for both ic; np.unique keeps the vertex order, hence the edge
    # and dof order. A floating local problem has its own border row and a
    # non-floating one of an NVTF system none, so the sizes follow the sub-mesh
    ex, T, dm, sysm = assembled(case, n)
    dec = schwarz.build_decomposition(T, dm, schwarz.decompose(T, spec_), l)
    stack = vars(ElementStack(T))
    for i in range(dec.n_parts):
        tris = T.triangles[dec.elems[i]]
        verts, local = np.unique(tris, return_inverse=True)
        Ti = Triangulation(T.vertices[verts], local.reshape(tris.shape))
        # the sub-mesh's edges and element data are the global ones, in the global order
        glob = np.unique(T.tri_edges[dec.elems[i]])
        assert np.array_equal(verts[Ti.edges], T.edges[glob])
        assert np.array_equal(Triangulation(T.vertices, tris).edges, T.edges[glob])
        for name, value in vars(ElementStack(Ti)).items():
            want = stack[name][dec.elems[i]]
            assert value.dtype == want.dtype and value.tobytes() == want.tobytes(), name
        on_gamma = T.boundary_edge[glob[Ti.boundary_edge]]
        for ic in (TVNF, NVTF):
            kinds = np.where(on_gamma, ex.bc, ic)
            ref = system.assemble(Ti, build_dof_map(Ti, kinds), nu=sysm.nu,
                                  tau=sysm.tau, eps=sysm.eps).A
            B = schwarz.mras_local_matrix(sysm, dec, i, ic).tocsr()
            B.sort_indices()
            size = len(dec.dofs[i]) + all(kinds == NVTF) - (dm.mean_constraint_dof is not None)
            assert B.shape == ref.shape == (size,) * 2, ic
            assert np.array_equal(B.indptr, ref.indptr), ic
            assert np.array_equal(B.indices, ref.indices), ic
            assert np.array_equal(B.data, ref.data), ic


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("spec_", ["uniform:2x2", "uniform:3x3"])
@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("ic", [TVNF, NVTF])
def test_mras_local_matrix_keeps_mixed_gamma_kinds(n, spec_, l, ic):
    # the global kind changes along Gamma: TVNF on x = 0 and y = 0, NVTF on
    # x = 1 and y = 1. The expected kinds come from the edge midpoints: a
    # Gamma edge keeps its side's kind, an interface edge gets ic. The system
    # has no global border, so a local problem whose kinds are all NVTF
    # floats and carries its own mean-pressure row one past its dofs
    ex = verify.catalogue("curl_trig")
    T = generate("unit_square", n)
    mid = T.vertices[T.edges[T.boundary_edge]].mean(axis=1)
    dm = build_dof_map(T, np.where(np.isclose(mid, 0).any(axis=1), TVNF, NVTF))
    assert dm.mean_constraint_dof is None
    sysm = system.assemble(T, dm, f=ex.f, g=ex.g)
    dec = schwarz.build_decomposition(T, dm, schwarz.decompose(T, spec_), l)
    for i in range(dec.n_parts):
        tris = T.triangles[dec.elems[i]]
        verts, local = np.unique(tris, return_inverse=True)
        Ti = Triangulation(T.vertices[verts], local.reshape(tris.shape))
        mid = Ti.vertices[Ti.edges[Ti.boundary_edge]].mean(axis=1)
        on_gamma = (np.isclose(mid, 0) | np.isclose(mid, 1)).any(axis=1)
        kinds = np.where(on_gamma, np.where(np.isclose(mid, 0).any(axis=1), TVNF, NVTF), ic)
        ref = system.assemble(Ti, build_dof_map(Ti, kinds), nu=sysm.nu,
                              tau=sysm.tau, eps=sysm.eps).A
        B = schwarz.mras_local_matrix(sysm, dec, i, ic).tocsr()
        B.sort_indices()
        assert B.shape == ref.shape == (len(dec.dofs[i]) + all(kinds == NVTF),) * 2
        assert np.array_equal(B.indptr, ref.indptr)
        assert np.array_equal(B.indices, ref.indices)
        assert np.array_equal(B.data, ref.data)


@pytest.mark.parametrize("case,short", [("bubble", 2), ("curl_trig", 1)])
def test_short_local_matrix_raises(monkeypatch, case, short):
    # only the global border of an NVTF system (bubble) may go uncovered, so
    # two rows short there and one row short in a TVNF system are rejected
    ex, T, dm, sysm = assembled(case, 8)
    dec = schwarz.build_decomposition(T, dm, schwarz.decompose(T, "uniform:2x2"), 1)
    monkeypatch.setattr(schwarz, "mras_local_matrix", lambda sysm, dec, i, ic:
                        sysm.A[dec.dofs[i][:-short], :][:, dec.dofs[i][:-short]])
    m = len(dec.dofs[0]) - short
    with pytest.raises(ValueError, match=f"^MRAS-tvnf subdomain 0: local matrix of size {m} "):
        schwarz.build_mras(sysm, dec, TVNF)


@pytest.mark.parametrize("kind", ["ras", TVNF, NVTF])
def test_setup_makes_no_factor_solve(monkeypatch, kind):
    # the set-up check of a local factor is a bare triangular solve, so every
    # Factorization.solve is a preconditioner apply or a reference solve
    ex, T, dm, sysm = assembled("bubble", 8)
    dec = schwarz.build_decomposition(T, dm, schwarz.decompose(T, "uniform:2x2"), 1)
    calls, solve = [], krylov.Factorization.solve
    monkeypatch.setattr(krylov.Factorization, "solve",
                        lambda self, b: calls.append(self) or solve(self, b))
    pre = schwarz.build_ras(sysm, dec) if kind == "ras" else schwarz.build_mras(sysm, dec, kind)
    assert calls == []
    pre.apply(np.ones(dm.n_total))
    assert calls == pre.factors


def test_ras_beats_unpreconditioned():
    ex, T, dm, sysm = assembled("bubble", 16)
    x_ref = system.solve_direct(sysm)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(dm.n_total)
    parts = schwarz.decompose(T, "uniform:2x2")
    dec = schwarz.build_decomposition(T, dm, parts, 1)
    pre = schwarz.build_ras(sysm, dec)
    _, rep_pre = krylov.gmres(lambda v: sysm.A @ v, sysm.rhs, x0=x0,
                              apply_M=pre.apply, tol=1e-6, x_ref=x_ref, max_iter=200)
    _, rep_raw = krylov.gmres(lambda v: sysm.A @ v, sysm.rhs, x0=x0,
                              tol=1e-6, x_ref=x_ref, max_iter=200)
    assert rep_pre.converged
    assert rep_pre.iterations < rep_raw.iterations


def test_iterations_grow_with_subdomain_count():
    # qualitative trend across {4, 9, 16} subdomains, with the +5 slack
    ex, T, dm, sysm = assembled("bubble", 16)
    x_ref = system.solve_direct(sysm)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(dm.n_total)
    counts = []
    for spec_ in ("uniform:2x2", "uniform:3x3", "uniform:4x4"):
        parts = schwarz.decompose(T, spec_)
        dec = schwarz.build_decomposition(T, dm, parts, 1)
        pre = schwarz.build_ras(sysm, dec)
        _, rep = krylov.gmres(lambda v: sysm.A @ v, sysm.rhs, x0=x0,
                              apply_M=pre.apply, tol=1e-6, x_ref=x_ref, max_iter=300)
        counts.append(rep.iterations)
    assert counts[1] >= counts[0] - 5
    assert counts[2] >= counts[1] - 5


def test_vs_reference_history_nonincreasing():
    # GMRES minimises the residual, not the error, so error-vs-reference
    # monotonicity is not a theorem; it does hold on these solves (MRAS-TVNF
    # shows transient error growth on the same system and is exempt)
    ex, T, dm, sysm = assembled("bubble", 16)
    x_ref = system.solve_direct(sysm)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(dm.n_total)
    dec = schwarz.build_decomposition(T, dm, schwarz.decompose(T, "uniform:2x2"), 1)
    for kind in ("ras", "mras-nvtf"):
        if kind == "ras":
            pre = schwarz.build_ras(sysm, dec)
        else:
            pre = schwarz.build_mras(sysm, dec, kind.split("-")[1])
        _, rep = krylov.gmres(lambda v: sysm.A @ v, sysm.rhs, x0=x0,
                              apply_M=pre.apply, tol=1e-6, x_ref=x_ref, max_iter=300)
        assert rep.converged
        assert np.all(np.diff(rep.history) <= 1e-12 * rep.history[0])


# --- oracles ---------------------------------------------------------------

@pytest.mark.parametrize("spec_", ["uniform:2x1", "uniform:1x2"])
@pytest.mark.parametrize("l", [1, 2])
def test_exact_transmission_converges_in_two_steps(spec_, l):
    # optimal Schwarz: with the Schur complement of its exterior as each local
    # matrix, two subdomains solve the system in two sweeps; this checks the
    # shipped restriction, weights and apply against that limit, independently
    # of mras_local_matrix (TVNF only: an NVTF exterior floats in its pressure)
    ex, T, dm, sysm = assembled("curl_trig", 8)
    dec = schwarz.build_decomposition(T, dm, schwarz.decompose(T, spec_), l)
    A = sysm.A.toarray()
    factors = []
    for d in dec.dofs:
        c = np.setdiff1d(np.arange(dm.n_total), d)
        S = A[np.ix_(d, d)] - A[np.ix_(d, c)] @ np.linalg.solve(A[np.ix_(c, c)], A[np.ix_(c, d)])
        factors.append(krylov.Factorization(sp.csr_matrix(S)))
    pre = schwarz.SchwarzPreconditioner(dofs=dec.dofs, weights=dec.weights, factors=factors)
    x0 = np.random.default_rng(0).standard_normal(dm.n_total)
    _, rep = krylov.gmres(lambda v: sysm.A @ v, sysm.rhs, x0=x0, apply_M=pre.apply,
                          tol=1e-6, x_ref=system.solve_direct(sysm))
    assert rep.converged and rep.iterations == 2


# MRAS with the interface kind opposite to the global one (bubble is NVTF,
# curl_trig TVNF) is singular on exactly two subdomains (2x1, 1x2; bisect:2
# is 2x1 at n = 8), at l = 1 and 2 and eps = -1 and +1, though each local
# matrix is sound; three strips are not (controls). The cause is not isolated
OPPOSITE = {"bubble": "mras-tvnf", "curl_trig": "mras-nvtf"}
SINGULAR_STRIP = pytest.mark.xfail(strict=True, reason="MRAS on two strips, opposite kind")


def preconditioner_case(case, kind, spec_, l=1, eps=-1):
    strips = spec_ in ("uniform:2x1", "uniform:1x2")
    tail = "" if (l, eps) == (1, -1) else f"-l{l}-eps{eps:+d}"
    return pytest.param(case, kind, spec_, l, eps, id=f"{case}-{kind}-{spec_}{tail}",
                        marks=SINGULAR_STRIP if strips and kind == OPPOSITE[case] else ())


@pytest.mark.parametrize("case,kind,spec_,l,eps", [
    *(preconditioner_case(case, kind, spec_) for case in ("bubble", "curl_trig")
      for kind in ("ras", "mras-tvnf", "mras-nvtf")
      for spec_ in ("uniform:2x1", "uniform:1x2", "uniform:2x2")),
    *(preconditioner_case(case, kind, spec_, l, eps) for case, kind in OPPOSITE.items()
      for spec_ in ("uniform:2x1", "uniform:1x2") for l, eps in ((2, -1), (1, 1))),
    *(preconditioner_case(case, kind, spec_) for case, kind in OPPOSITE.items()
      for spec_ in ("uniform:3x1", "uniform:1x3"))])
def test_preconditioner_is_nonsingular(case, kind, spec_, l, eps):
    ex, T, dm, sysm = assembled(case, 8, eps)
    dec = schwarz.build_decomposition(T, dm, schwarz.decompose(T, spec_), l)
    pre = schwarz.build_ras(sysm, dec) if kind == "ras" else \
        schwarz.build_mras(sysm, dec, kind.split("-")[1])
    M = np.column_stack([pre.apply(e) for e in np.eye(dm.n_total)])
    s = np.linalg.svd(M, compute_uv=False)
    assert s[-1] >= 1e-8 * s[0]
