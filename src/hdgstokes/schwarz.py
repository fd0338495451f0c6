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

MRAS local matrices are the global assembly run on fewer elements:
system.element_triplets over the overlapped subdomain, then
system.constrained_matrix with more dofs fixed. Interface edges (the
subdomain boundary away from Gamma) get homogeneous TVNF or NVTF
conditions, which with hybrid dG fix ordinary edge dofs; edges on Gamma
keep the global constraints. A local problem whose entire boundary carries
normal-velocity constraints is pinned by the mean-pressure border row
restricted to its elements (for a TVNF global system, one extra row past
the subdomain's dofs).
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fem_space import NVTF, TVNF, edge_dofs, trace_dofs, vertex_field_at_dofs
from .krylov import Factorization, FactorizationError
from .system import constrained_matrix, element_triplets


@dataclass(frozen=True)
class Decomposition:
    elems0: list   # non-overlapping triangle sets
    elems: list    # overlapped triangle sets
    dofs: list     # sorted global dof indices per subdomain
    weights: list  # partition-of-unity diagonal per subdomain

    @property
    def n_parts(self):
        return len(self.elems)


def parse_strategy(strategy):
    """Validated partition strategy tuple from a spec.

    Accepts 'uniform:PXxPY', 'bisect:N', 'file:PATH', or a tuple
    ('uniform', px, py) / ('bisect', n) / ('file', path); part counts must
    be at least 1. Raises ValueError on a malformed spec.
    """
    spec = strategy
    if isinstance(strategy, str):
        kind, _, arg = strategy.partition(":")
        try:
            if kind == "uniform":
                px, _, py = arg.partition("x")
                strategy = ("uniform", int(px), int(py))
            elif kind == "bisect":
                strategy = ("bisect", int(arg))
            elif kind == "file":
                strategy = ("file", arg)
        except ValueError:
            raise ValueError(f"malformed partition strategy {spec!r}") from None
    if strategy[0] not in ("uniform", "bisect", "file"):
        raise ValueError(f"unknown partition strategy {spec!r}")
    if strategy[0] != "file" and min(strategy[1:]) < 1:
        raise ValueError(f"partition strategy {spec!r} needs at least one part per direction")
    return strategy


def decompose(T, strategy):
    """Non-overlapping partition from a strategy spec (see parse_strategy).
    Returns one part id per triangle."""
    strategy = parse_strategy(strategy)
    kind = strategy[0]
    if kind == "uniform":
        px, py = strategy[1:]
        return _require_nonempty(partition_uniform(T, px, py), px * py)
    if kind == "bisect":
        return _require_nonempty(partition_bisect(T, strategy[1]), strategy[1])
    return partition_from_file(T, strategy[1])


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
    """Read one part id per triangle (METIS .epart compatible)."""
    parts = np.loadtxt(path, dtype=np.int64, ndmin=1)
    if len(parts) != T.n_triangles:
        raise ValueError(f"partition file has {len(parts)} entries, "
                         f"mesh has {T.n_triangles} triangles")
    return _require_nonempty(parts, parts.max() + 1)


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
    if dm.bc_kind == NVTF:
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


def interface_edges(T, elems):
    """Edges of the subdomain boundary that are not on Gamma."""
    in_part = np.zeros(T.n_triangles + 1, dtype=bool)
    in_part[elems] = True
    in_part[-1] = False  # slot for the -1 of boundary edges
    cnt = in_part[T.edge_tris[:, 0]].astype(int) + in_part[T.edge_tris[:, 1]]
    local_bnd = cnt == 1
    return np.flatnonzero(local_bnd & ~T.boundary_edge), \
        np.flatnonzero(local_bnd & T.boundary_edge)


def mras_local_matrix(sysm, dec, i, ic):
    """Local matrix B_i of the MRAS preconditioner (CSR).

    B_i is the global assembly restricted to the elements of subdomain i, so
    interface edges get the single-element rows of a genuine local boundary:
    the natural flux condition (sigma_nn = 0 for TVNF, sigma_nt = 0 for NVTF)
    costs nothing and the conjugate velocity trace is fixed to zero (TVNF:
    multiplier, NVTF: both BDM dofs; fem_space.trace_dofs), exactly as the
    global bc does on Gamma.
    Edges on Gamma keep the global constraints; away from the interface the
    rows coincide with R_i A R_i^T. A floating local problem (every boundary
    edge normal-constrained) is pinned by a mean-pressure border row at local
    index searchsorted(dofs, n_geometric): the global constraint dof for NVTF,
    one row past the subdomain's dofs for TVNF. Otherwise an NVTF constraint
    dof passes through as identity.
    """
    T, dm = sysm.mesh, sysm.dofmap
    dofs = dec.dofs[i]
    m = len(dofs)
    elems = dec.elems[i]
    iface, gamma = interface_edges(T, elems)
    # the local pressure is pinned iff some boundary edge keeps free BDM dofs
    # (a sigma_nn-type natural condition); otherwise the problem floats
    floating = ((len(gamma) == 0 or dm.bc_kind == NVTF)
                and (len(iface) == 0 or ic == NVTF))

    fixed = [trace_dofs(dm.n_edges, iface, ic)[0].ravel(),
             np.intersect1d(dm.constrained, dofs)]
    pin = np.searchsorted(dofs, dm.n_geometric)
    border = None
    if floating:
        border = (pin, np.searchsorted(dofs, dm.pres_dof(elems)), T.areas[elems])
    elif dm.bc_kind == NVTF:
        fixed.append([dm.mean_constraint_dof])
    fixed = np.searchsorted(dofs, np.concatenate(fixed))

    rows, cols, vals = element_triplets(T, dm, sysm.nu, sysm.tau, sysm.eps,
                                        elems=elems)
    return constrained_matrix(max(m, pin + 1) if floating else m,
                              np.searchsorted(dofs, rows), np.searchsorted(dofs, cols),
                              vals, fixed, border)


def build_mras(sysm, dec, ic):
    """Modified RAS: the local matrices re-discretise the problem on each
    subdomain with TVNF or NVTF conditions on the interface (the subdomain
    boundary away from Gamma); see mras_local_matrix."""
    if ic not in (TVNF, NVTF):
        raise ValueError(f"unknown interface condition {ic!r}")
    # through the module global, so a replaced mras_local_matrix is the one called
    return _factor_locals(sysm, dec, lambda i: mras_local_matrix(sysm, dec, i, ic),
                          f"MRAS-{ic}")
