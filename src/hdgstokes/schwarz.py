"""Overlapping decompositions, partition of unity, RAS and MRAS preconditioners.

Partitions are uniform cell grids, mesh.partition_bisect (the recursive
coordinate bisection that also orders the reference factor) or a file.
build_ras(sysm, dec) and build_mras(sysm, dec, ic) differ only in the local
matrix; both order its factor by krylov.velocity_first from sysm.order
restricted to the subdomain, then a floating MRAS problem's border row.

Overlap growth follows vertex adjacency: one layer adds every triangle
sharing at least one vertex with the current set, all parts at once. The
partition of unity interpolates normalised piecewise-linear subdomain
indicators at the dof locations (BDM: the two edge Gauss nodes,
multiplier: edge midpoints, pressure: barycenters); with at least one
overlap layer the indicator of a subdomain vanishes at every dof it does
not own, which makes sum_i R_i^T D_i R_i = Id exact. No per-part step
touches more of the mesh than the part's subdomain.

RAS local matrices are R_i A R_i^T. For an NVTF system they keep the
global mean-pressure border as their last dof.

MRAS local matrices are the global assembly (system.assemble) on the mesh
of the overlapped subdomain's triangles. Its interface edges (the
subdomain boundary away from Gamma) are boundary edges of that mesh and
get homogeneous TVNF or NVTF conditions, which with hybrid dG fix ordinary
edge dofs; its edges on Gamma keep their global kind. The one rule of
fem_space.DofMap decides what each edge fixes and whether the local
problem floats and so gets a mean-pressure border row (for a TVNF global
system, one extra row past the subdomain's dofs).
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fem_space import FIXES, build_dof_map, edge_dofs, vertex_field_at_dofs
from .krylov import Factorization, FactorizationError
from .mesh import Triangulation, partition_bisect
from .system import assemble


@dataclass(frozen=True)
class Decomposition:
    elems0: list   # non-overlapping triangle sets
    elems: list    # overlapped triangle sets
    dofs: list     # sorted global dof indices per subdomain
    weights: list  # partition-of-unity diagonal per subdomain

    @property
    def n_parts(self):
        return len(self.elems)


def parse_strategy(spec):
    """Validated partition strategy tuple ('uniform', px, py), ('bisect', n)
    or ('file', path) from a spec 'uniform:PXxPY', 'bisect:N' or 'file:PATH';
    part counts must be at least 1. Raises ValueError on a malformed spec.
    """
    kind, _, arg = spec.partition(":")
    if kind not in ("uniform", "bisect", "file"):
        raise ValueError(f"unknown partition strategy {spec!r}")
    if kind == "file":
        if not arg:
            raise ValueError(f"malformed partition strategy {spec!r}")
        return ("file", arg)
    try:
        if kind == "uniform":
            px, _, py = arg.partition("x")
            strategy = ("uniform", int(px), int(py))
        else:
            strategy = ("bisect", int(arg))
    except ValueError:
        raise ValueError(f"malformed partition strategy {spec!r}") from None
    if min(strategy[1:]) < 1:
        raise ValueError(f"partition strategy {spec!r} needs at least one part per direction")
    return strategy


def decompose(T, spec):
    """Non-overlapping partition from a strategy spec (see parse_strategy).
    Returns one part id per triangle."""
    kind, *args = parse_strategy(spec)
    if kind == "file":
        return partition_from_file(T, *args)
    n_parts = math.prod(args)
    # checked before partitioning, which needs int64 part ids and a counter per part
    if n_parts > T.n_triangles:
        raise ValueError(f"{spec!r} asks for {n_parts} parts of {T.n_triangles} triangles, "
                         f"so the partition leaves {n_parts - T.n_triangles} of {n_parts} "
                         f"parts empty or more")
    parts = partition_uniform(T, *args) if kind == "uniform" else partition_bisect(T, n_parts)
    return _require_nonempty(parts, n_parts)


def _require_nonempty(parts, n_parts):
    """parts, after checking that each of the ids 0..n_parts-1 occurs."""
    empty = np.count_nonzero(np.bincount(parts, minlength=n_parts) == 0)
    if empty:
        raise ValueError(f"partition leaves {empty} of {n_parts} parts empty")
    return parts


def partition_uniform(T, px, py):
    """Assign triangles by barycenter to a px-by-py cell grid over the mesh's
    bounding box (on the unit square, (b - 0) / (1 - 0) leaves b unchanged)."""
    lo, hi = T.vertices.min(axis=0), T.vertices.max(axis=0)
    b = (T.barycenters() - lo) / (hi - lo)
    ix = np.minimum((b[:, 0] * px).astype(int), px - 1)
    iy = np.minimum((b[:, 1] * py).astype(int), py - 1)
    return iy * px + ix


def partition_from_file(T, path):
    """Read the part ids, whitespace-separated integers in 0..n_triangles-1,
    one per triangle."""
    with open(path) as fh:
        ids = [int(word) for word in fh.read().split()]
    if len(ids) != T.n_triangles:
        raise ValueError(f"partition file has {len(ids)} entries, "
                         f"mesh has {T.n_triangles} triangles")
    if not 0 <= min(ids) <= max(ids) < T.n_triangles:
        raise ValueError(f"partition file has part ids outside 0..{T.n_triangles - 1}")
    return _require_nonempty(np.array(ids, dtype=np.int64), max(ids) + 1)


def add_overlap(T, parts, l):
    """Grow each part by l rounds of vertex-adjacent triangles; returns the
    non-overlapping and the overlapped triangle sets (elems0, elems), sorted
    int64 arrays. All parts grow at once: M (n_tris x n_parts) marks them,
    and with the vertex-triangle incidence Inc a layer is Inc^T Inc M > 0."""
    if l < 1:
        raise ValueError("overlap l must be at least 1 (partition-of-unity support)")
    nt = T.n_triangles
    own = np.argsort(parts, kind="stable")  # triangles part by part, ascending in each
    start = np.concatenate([[0], np.cumsum(np.bincount(parts))])
    M = sp.csc_matrix((np.ones(nt), own, start))
    Inc = sp.csc_matrix((np.ones(3 * nt), T.triangles.ravel(), np.arange(0, 3 * nt + 1, 3)))
    IncT = Inc.T.tocsc()
    for _ in range(l):
        M = IncT @ (Inc @ M) > 0
    M.sort_indices()  # a no-op unless the products left a column unsorted
    return np.split(own, start[1:-1]), np.split(M.indices.astype(np.int64), M.indptr[1:-1])


def build_decomposition(T, dm, parts, l):
    """The parts grown by l overlap layers, with their dofs and their
    partition-of-unity weights, which sum to 1 at every dof. A subdomain's
    dofs and indicator come from its own edges and triangles, the dofs
    already ascending: BDM pairs, multipliers, pressures, NVTF border."""
    elems0, elems = add_overlap(T, parts, l)
    border = np.arange(dm.n_geometric, dm.n_total)  # the NVTF constraint dof, if any
    flag = np.zeros(T.n_vertices)  # vertex indicator of the current part
    denom = np.zeros(dm.n_total)
    dofs, raw = [], []
    for e0, e in zip(elems0, elems):
        edges = np.unique(T.tri_edges[e])
        d = edge_dofs(dm.n_edges, edges)
        dofs.append(np.concatenate([d[:, :2].ravel(), d[:, 2], dm.pres_dof(e), border]))
        flag[T.triangles[e0]] = 1.0
        raw.append(np.concatenate([vertex_field_at_dofs(T.edges[edges], T.triangles[e], flag),
                                   np.ones(len(border))]))
        flag[T.triangles[e0]] = 0.0
        denom[dofs[-1]] += raw[-1]
    weights = [w / denom[d] for w, d in zip(raw, dofs)]
    return Decomposition(elems0=elems0, elems=elems, dofs=dofs, weights=weights)


@dataclass
class SchwarzPreconditioner:
    dofs: list
    weights: list
    factors: list = field(repr=False)

    def apply(self, v):
        out = np.zeros(len(v))
        for dofs, D, F in zip(self.dofs, self.weights, self.factors):
            r = v[dofs]
            if F.n > len(dofs):  # local mean-pressure border row
                r = np.append(r, 0.0)
            out[dofs] += D * F.solve(r)[:len(dofs)]
        return out


def _factor_locals(sysm, dec, local_matrix, label):
    """Factors of local_matrix(i), based on sysm.order restricted to subdomain
    i, then the rows past its dofs (the border row of a floating MRAS
    problem in a TVNF system) by index; errors name label and i."""
    rank = np.argsort(sysm.order)
    factors = []
    for i, dofs in enumerate(dec.dofs):
        try:
            B = local_matrix(i)
            order = np.append(np.argsort(rank[dofs]), np.arange(len(dofs), B.shape[0]))
            factors.append(Factorization(B, order=order))
        except (FactorizationError, ValueError) as err:  # ValueError: a free constant velocity
            raise type(err)(f"{label} subdomain {i}: {err}") from err
    return SchwarzPreconditioner(dofs=dec.dofs, weights=dec.weights, factors=factors)


def build_ras(sysm, dec):
    """Restricted additive Schwarz: factorise R_i A R_i^T per subdomain. With
    NVTF each ends with the mean-pressure border dof, which the velocity-first
    order eliminates just before the last pressure, so it does not fill."""
    return _factor_locals(sysm, dec, lambda i: sysm.A[dec.dofs[i], :][:, dec.dofs[i]], "RAS")


def mras_local_matrix(sysm, dec, i, ic):
    """Local matrix B_i of the MRAS preconditioner (CSR): system.assemble on
    the mesh of subdomain i's triangles, whose Gamma edges keep their global
    kind and whose interface edges (its other boundary edges) get the kind
    ic. The natural flux condition there (sigma_nn = 0 for TVNF, sigma_nt = 0
    for NVTF) costs nothing and the conjugate velocity trace is fixed to zero.

    The local mesh keeps the global vertex ids, so it numbers its triangles
    and its edges (sorted vertex pairs) in the global order, and its dofs
    come in the order of dec.dofs[i]. A local problem whose boundary edges
    are all NVTF floats and carries its own mean-pressure row at index
    n_geometric: the global border dof for an NVTF system, one row past the
    subdomain's dofs for a TVNF one. Otherwise a global border dof passes
    through as identity.
    """
    T, dm, dofs = sysm.mesh, sysm.dofmap, dec.dofs[i]
    Ti = Triangulation(T.vertices, T.triangles[dec.elems[i]])
    bnd = np.unique(T.tri_edges[dec.elems[i]])[Ti.boundary_edge]  # global edge ids
    at = np.searchsorted(dm.boundary_edges, bnd).clip(max=len(dm.boundary_edges) - 1)
    kind = np.where(dm.boundary_edges[at] == bnd, dm.boundary_kinds[at], ic)
    B = assemble(Ti, build_dof_map(Ti, kind), sysm.nu, sysm.tau, sysm.eps).A
    m = B.shape[0]
    if m < len(dofs):  # the global border dof of a non-floating problem: an identity row
        B = sp.csr_matrix((np.append(B.data, 1.0), np.append(B.indices, m),
                           np.append(B.indptr, B.nnz + 1)), shape=(m + 1, m + 1))
    return B


def build_mras(sysm, dec, ic):
    """Modified RAS: the local matrices re-discretise the problem on each
    subdomain with TVNF or NVTF conditions on the interface (the subdomain
    boundary away from Gamma); see mras_local_matrix. A subdomain whose
    kinds leave a constant velocity free raises ValueError naming it."""
    if ic not in FIXES:
        raise ValueError(f"unknown interface condition {ic!r}")
    # through the module global, so a replaced mras_local_matrix is the one called
    return _factor_locals(sysm, dec, lambda i: mras_local_matrix(sysm, dec, i, ic),
                          f"MRAS-{ic}")
