"""Overlapping decompositions, partition of unity, RAS and MRAS preconditioners.

build_ras(sysm, dec) and build_mras(sysm, dec, ic) differ only in the local
matrix; both order its factor by krylov.velocity_first from sysm.order
restricted to the subdomain.

Overlap growth follows vertex adjacency: one layer adds every triangle
sharing at least one vertex with the current set. The partition of unity
interpolates normalised piecewise-linear subdomain indicators at the dof
locations (BDM: the two edge Gauss nodes, multiplier: edge midpoints,
pressure: barycenters); with at least one overlap layer the indicator of
a subdomain vanishes at every dof it does not own, which makes
sum_i R_i^T D_i R_i = Id exact.

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

from .fem_space import NVTF, TVNF, build_dof_map, edge_dofs, vertex_field_at_dofs
from .krylov import Factorization, FactorizationError
from .mesh import Triangulation
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
    """Assign triangles of the unit square to a px-by-py cell grid by barycenter."""
    b = T.barycenters()
    ix = np.minimum((b[:, 0] * px).astype(int), px - 1)
    iy = np.minimum((b[:, 1] * py).astype(int), py - 1)
    return iy * px + ix


def partition_bisect(T, n_parts):
    """Recursive coordinate bisection of the barycenters into n_parts parts."""
    if n_parts < 1:
        raise ValueError("need at least one part")
    b = T.barycenters()
    parts = np.zeros(T.n_triangles, dtype=np.int64)

    def split(idx, n, offset):
        if n == 1 or len(idx) == 0:  # no triangles left: parts stay empty
            parts[idx] = offset
            return
        n1 = n // 2
        ext = b[idx].max(axis=0) - b[idx].min(axis=0)
        axis = int(np.argmax(ext))
        order = idx[np.argsort(b[idx, axis], kind="stable")]
        cut = int(round(len(idx) * n1 / n))
        split(order[:cut], n1, offset)
        split(order[cut:], n - n1, offset + n1)

    split(np.arange(T.n_triangles), n_parts, 0)
    return parts


def partition_from_file(T, path):
    """Read one part id in 0..n_triangles-1 per triangle (METIS .epart compatible)."""
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
    non-overlapping and the overlapped triangle sets (elems0, elems)."""
    if l < 1:
        raise ValueError("overlap l must be at least 1 (partition-of-unity support)")
    nt = T.n_triangles
    # vertex-triangle incidence: (Inc @ cur) > 0 marks the vertices of a triangle set
    Inc = sp.csr_matrix((np.ones(3 * nt), (T.triangles.ravel(), np.repeat(np.arange(nt), 3))),
                        shape=(T.n_vertices, nt))
    elems0, elems = [], []
    for i in range(int(parts.max()) + 1):
        cur = parts == i
        elems0.append(np.flatnonzero(cur))
        for _ in range(l):
            cur = Inc.T @ (Inc @ cur) > 0
        elems.append(np.flatnonzero(cur))
    return elems0, elems


def subdomain_dofs(T, dm, elems):
    """All global dofs attached to a triangle set (plus the NVTF constraint row)."""
    edges = np.unique(T.tri_edges[elems])
    parts = [edge_dofs(dm.n_edges, edges).ravel(), dm.pres_dof(np.asarray(elems))]
    if dm.mean_constraint_dof is not None:
        parts.append(np.array([dm.mean_constraint_dof]))
    return np.sort(np.concatenate(parts))


def build_decomposition(T, dm, parts, l):
    """The parts grown by l overlap layers, with their dofs and their
    partition-of-unity weights, which sum to 1 at every dof."""
    elems0, elems = add_overlap(T, parts, l)
    dofs = [subdomain_dofs(T, dm, e) for e in elems]
    raw = []
    denom = np.zeros(dm.n_total)
    for e0, d in zip(elems0, dofs):
        flag = np.zeros(T.n_vertices)
        flag[T.triangles[e0].ravel()] = 1.0
        vals = np.ones(dm.n_total)  # the NVTF constraint dof keeps indicator 1
        vals[:dm.n_geometric] = vertex_field_at_dofs(T, dm, flag)
        raw.append(vals[d])
        np.add.at(denom, d, raw[-1])
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
    i (a border row past its dofs ranks last); errors name label and i."""
    rank = np.argsort(sysm.order)
    factors = []
    for i, dofs in enumerate(dec.dofs):
        try:
            factors.append(Factorization(local_matrix(i), order=np.argsort(rank[dofs])))
        except FactorizationError as err:
            raise FactorizationError(f"{label} subdomain {i}: {err}") from err
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

    B_i needs no index map because the vertex renumbering by np.unique is
    monotone: the local mesh then numbers its triangles, and its edges (by
    sorted vertex pair), in the global order, so its dofs come in the order
    of dec.dofs[i]. A local problem whose boundary edges are all NVTF
    floats and carries its own mean-pressure row at index n_geometric: the
    global border dof for an NVTF system, one row past the subdomain's dofs
    for a TVNF one. Otherwise a global border dof passes through as identity.
    """
    T, dm, dofs = sysm.mesh, sysm.dofmap, dec.dofs[i]
    tris = T.triangles[dec.elems[i]]
    verts, local = np.unique(tris, return_inverse=True)
    Ti = Triangulation(T.vertices[verts], local.reshape(tris.shape))
    kind = np.full(T.n_edges, ic)
    kind[dm.boundary_edges] = dm.boundary_kinds
    edges = np.unique(T.tri_edges[dec.elems[i]])  # global index of each local edge
    B = assemble(Ti, build_dof_map(Ti, kind[edges[Ti.boundary_edge]]),
                 sysm.nu, sysm.tau, sysm.eps).A
    if B.shape[0] < len(dofs):  # the global border dof of a non-floating problem
        B = sp.block_diag([B, sp.identity(1)], format="csr")
    return B


def build_mras(sysm, dec, ic):
    """Modified RAS: the local matrices re-discretise the problem on each
    subdomain with TVNF or NVTF conditions on the interface (the subdomain
    boundary away from Gamma); see mras_local_matrix."""
    if ic not in (TVNF, NVTF):
        raise ValueError(f"unknown interface condition {ic!r}")
    # through the module global, so a replaced mras_local_matrix is the one called
    return _factor_locals(sysm, dec, lambda i: mras_local_matrix(sysm, dec, i, ic),
                          f"MRAS-{ic}")
