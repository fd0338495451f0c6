"""Exact solutions, discrete error norms, and convergence orders.

The energy norm of a (velocity, multiplier) pair is

    nu * sum_K ( |w|_{H1(K)}^2 + h_K ||grad(w) n||_{dK}^2
                 + (tau/h_K) ||Phi0((w)_t - wtilde)||_{dK}^2 )

with Phi0 the per-edge average; the h-norm adds nu^{-1/2} ||p - p_h||.
The exact multiplier is the tangential trace of u along the global edge
tangent, so in the stabilisation term of the error the exact traces
cancel and only utilde_h - Phi0(u_h . t_E) remains.

All catalogue callbacks broadcast over numpy arrays; components sit on
the last axis. A case's body force f and boundary traction g follow from
its fields alone; each boundary edge's kind picks the component of g it loads.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fem_space import NVTF, TVNF, edge_dofs, element_dofs
from .local_assembly import ElementStack
from .quadrature import BDM_NODES, TRI_RULE, edge_gauss


@dataclass
class ExactSolution:
    name: str
    bc: str
    nu: float
    u: Callable
    grad_u: Callable
    p: Callable
    lap_u: Callable
    grad_p: Callable

    def f(self, x, y):
        """Body force -nu lap(u) + grad(p)."""
        return -self.nu * np.asarray(self.lap_u(x, y)) + np.asarray(self.grad_p(x, y))

    def g(self, x, y, n):
        """Traction nu grad(u) n - p n at points with unit normals n; (..., 2)."""
        gn = np.einsum("...ij,...j->...i", np.asarray(self.grad_u(x, y)), n)
        return self.nu * gn - np.asarray(self.p(x, y))[..., None] * n


def _curl_trig_family(t):
    """G(t) = (1 - cos((1-t)^2)) sin(t^2) and its first three derivatives;
    the stream function is 100 G(x) G(y)."""
    z, zp, zpp = (1 - t) ** 2, -2 * (1 - t), 2.0
    w = t ** 2
    cos_z, sin_z, cos_w, sin_w = np.cos(z), np.sin(z), np.cos(w), np.sin(w)
    c = 1 - cos_z
    cp = sin_z * zp
    cpp = cos_z * zp ** 2 + sin_z * zpp
    cppp = -sin_z * zp ** 3 + 3 * cos_z * zp * zpp
    s, sp = sin_w, 2 * t * cos_w
    spp = 2 * cos_w - 4 * t ** 2 * sin_w
    sppp = -12 * t * sin_w - 8 * t ** 3 * cos_w
    return (c * s, cp * s + c * sp, cpp * s + 2 * cp * sp + c * spp,
            cppp * s + 3 * cpp * sp + 3 * cp * spp + c * sppp)


def _stream_case(name, bc, nu, A, x_family, y_family, p, grad_p):
    """Divergence-free u = curl(A X(x) Y(y)) plus a given pressure; a family
    maps a coordinate array to its factor and the factor's first three
    derivatives, so each callback evaluates it once per coordinate array."""

    def u(x, y):
        X, dX, _, _ = x_family(x)
        Y, dY, _, _ = y_family(y)
        return np.stack([A * X * dY, -A * dX * Y], axis=-1)

    def grad_u(x, y):
        X, dX, d2X, _ = x_family(x)
        Y, dY, d2Y, _ = y_family(y)
        gxx = A * dX * dY
        gxy = A * X * d2Y
        gyx = -A * d2X * Y
        return np.stack([np.stack([gxx, gxy], axis=-1),
                         np.stack([gyx, -gxx], axis=-1)], axis=-2)

    def lap_u(x, y):
        X, dX, d2X, d3X = x_family(x)
        Y, dY, d2Y, d3Y = y_family(y)
        return np.stack([A * (d2X * dY + X * d3Y),
                         -A * (d3X * Y + dX * d2Y)], axis=-1)

    return ExactSolution(name=name, bc=bc, nu=nu, u=u, grad_u=grad_u,
                         p=p, lap_u=lap_u, grad_p=grad_p)


# the boundary conditions each manufactured case is posed with
CASE_BC = {"curl_trig": TVNF, "bubble": NVTF, "poiseuille": TVNF}


def catalogue(name, nu=1.0):
    """Manufactured cases, each with its boundary conditions (CASE_BC)."""
    bc = CASE_BC.get(name)
    if name == "curl_trig":
        def p(x, y):
            return np.tan(x * y)

        def grad_p(x, y):
            s = 1 + np.tan(x * y) ** 2
            return np.stack([s * y, s * x], axis=-1)

        return _stream_case("curl_trig", bc, nu, 100.0, _curl_trig_family, _curl_trig_family,
                            p, grad_p)

    if name == "bubble":
        def bump(t):
            return (t * t * (1 - t) ** 2, 2 * t - 6 * t ** 2 + 4 * t ** 3,
                    2 - 12 * t + 12 * t ** 2, -12 + 24 * t)

        def p(x, y):
            return x - y

        def grad_p(x, y):
            one = np.ones_like(np.asarray(x, dtype=float))
            return np.stack([one, -one], axis=-1)

        return _stream_case("bubble", bc, nu, 1.0, bump, bump, p, grad_p)

    if name == "poiseuille":
        # stream function 2y^2 - 4y^3/3 (times X = 1): u = (4y(1 - y), 0)
        def flat(t):
            return np.ones_like(t), np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)

        def profile(t):
            return 2 * t ** 2 - 4 * t ** 3 / 3, 4 * t * (1 - t), 4 - 8 * t, np.zeros_like(t) - 8.0

        def p(x, y):
            return 4 - 8 * x

        def grad_p(x, y):
            z = np.zeros_like(np.asarray(x, dtype=float))
            return np.stack([z - 8, z], axis=-1)

        return _stream_case("poiseuille", bc, nu, 1.0, flat, profile, p, grad_p)

    raise ValueError(f"unknown exact solution {name!r}")


# ---------------------------------------------------------------------------
# field evaluation on the batched element kernel

def _element_fields(T, dm, x):
    """Element stack of T and the solution's per-triangle BDM dof values (nt, 6),
    multipliers (nt, 3) and pressures (nt,)."""
    ker = ElementStack(T)
    gdofs, pdofs = element_dofs(dm, T.tri_edges)
    return ker, x[gdofs[:, :6]], x[gdofs[:, 6:]], x[pdofs]


def velocity_at(T, dm, x, pts):
    """Discrete velocity of the solution vector x at points pts (nt, q, 2),
    q points in each triangle of T; shape (nt, q, 2)."""
    ker, vd, _, _ = _element_fields(T, dm, x)
    return ker.eval_field(vd, pts)


@dataclass
class ErrorReport:
    h: float
    err_energy: float
    err_h: float
    err_l2_u: float
    err_l2_p: float
    max_div: float


def _energy_terms(T, ker, vd, mult, grad_u):
    """Per-triangle squared energy-norm terms (h1, edge, stab) of the error of
    the discrete pair (vd, mult) against an exact velocity with gradient grad_u,
    before the nu, h_K and tau/h_K factors."""
    gh = ker.field_grad(vd)          # (nt, 2, 2)
    bary, wv = TRI_RULE
    vol_pts = np.einsum("qb,tbc->tqc", bary, ker.verts)
    gdiff = np.asarray(grad_u(vol_pts[..., 0], vol_pts[..., 1])) - gh[:, None, :, :]
    h1_sq = T.areas * np.einsum("q,tqij->t", wv, gdiff ** 2)

    params, we = edge_gauss(4)
    pts = ker.edge_points(params)    # (nt, 3, 4, 2)
    gd = np.asarray(grad_u(pts[..., 0], pts[..., 1])) - gh[:, None, None]
    dn = np.einsum("tkqij,tkj->tkqi", gd, ker.n_out)
    edge_sq = (ker.edge_len * np.einsum("q,tkqi->tk", we, dn ** 2)).sum(axis=1)
    uh_e = ker.eval_field(vd, pts.reshape(len(ker), -1, 2)).reshape(pts.shape)
    avg_t = np.einsum("q,tkq->tk", we, np.einsum("tkqc,tkc->tkq", uh_e, ker.t_E))
    stab_sq = (ker.edge_len * (mult - avg_t) ** 2).sum(axis=1)
    return h1_sq, edge_sq, stab_sq


def error_norms(T, dm, x, exact, tau=6.0):
    """Energy / h / L2 errors of a solution vector against an exact solution.
    p is compared as given: under NVTF, where p_h has zero mean, a pressure
    with nonzero mean reads err_l2_p of about |mean|."""
    nu = exact.nu
    ker, vd, mult, pres = _element_fields(T, dm, x)
    h1_sq, edge_sq, stab_sq = _energy_terms(T, ker, vd, mult, exact.grad_u)

    bary, wv = TRI_RULE
    vol_pts = np.einsum("qb,tbc->tqc", bary, ker.verts)
    xq, yq = vol_pts[..., 0], vol_pts[..., 1]
    uh = ker.eval_field(vd, vol_pts)
    udiff = np.asarray(exact.u(xq, yq)) - uh
    l2u_sq = (T.areas * np.einsum("q,tqc->t", wv, udiff ** 2)).sum()
    pdiff = np.asarray(exact.p(xq, yq)) - pres[:, None]
    l2p_sq = (T.areas * np.einsum("q,tq->t", wv, pdiff ** 2)).sum()

    energy_sq = nu * (h1_sq + T.h_K * edge_sq + tau / T.h_K * stab_sq).sum()
    err_energy = np.sqrt(energy_sq)
    err_l2_p = np.sqrt(l2p_sq)
    return ErrorReport(h=float(T.h_K.max()),
                       err_energy=float(err_energy),
                       err_h=float(err_energy + err_l2_p / np.sqrt(nu)),
                       err_l2_u=float(np.sqrt(l2u_sq)),
                       err_l2_p=float(err_l2_p),
                       max_div=float(np.abs(ker.field_div(vd)).max()))


def energy_norm(T, dm, x, nu=1.0, tau=6.0, parts=False):
    """Discrete |||(v, vtilde)||| of a coefficient vector (pressure part ignored):
    the error norm's terms against a zero exact solution.

    With parts=True returns (h1, edge, stab) sums without the nu factor:
    |||.|||^2 = nu * (h1 + edge + stab).
    """
    ker, vd, mult, _ = _element_fields(T, dm, x)
    h1_sq, edge_sq, stab_sq = _energy_terms(T, ker, vd, mult,
                                            lambda xq, yq: np.zeros(np.shape(xq) + (2, 2)))
    h1, edge, stab = h1_sq.sum(), (T.h_K * edge_sq).sum(), (tau / T.h_K * stab_sq).sum()
    if parts:
        return h1, edge, stab
    return float(np.sqrt(nu * (h1 + edge + stab)))


def interpolate(T, dm, exact):
    """Dof vector of (Pi u, Phi0 u_t, Psi0 p); the NVTF constraint entry is 0."""
    x = np.zeros(dm.n_total)
    dofs = edge_dofs(dm.n_edges, np.arange(dm.n_edges))
    lo = T.vertices[T.edges[:, 0]]
    d = T.vertices[T.edges[:, 1]] - lo
    params, w = edge_gauss(3)
    # the two BDM nodes, then the three Gauss points, on every edge; (5, E, 2)
    pts = lo + np.concatenate([BDM_NODES, params])[:, None, None] * d
    uv = np.asarray(exact.u(pts[..., 0], pts[..., 1]))
    x[dofs[:, :2]] = np.einsum("qec,ec->eq", uv[:2], T.edge_n)
    x[dofs[:, 2]] = (w[:, None] * np.einsum("qec,ec->qe", uv[2:], T.edge_t)).sum(axis=0)
    bary, wv = TRI_RULE
    pts = np.einsum("qb,tbc->tqc", bary, T.vertices[T.triangles])
    x[dm.pres_dof(np.arange(dm.n_tris))] = \
        np.einsum("q,tq->t", wv, np.asarray(exact.p(pts[..., 0], pts[..., 1])))
    return x


def eoc(errors, hs):
    """Estimated orders between successive levels; nan where an error vanishes."""
    e, hs = np.asarray(errors, dtype=float), np.asarray(hs, dtype=float)
    out = np.full(len(e), np.nan)
    j = np.flatnonzero((e[:-1] > 0) & (e[1:] > 0)) + 1
    out[j] = np.log(e[j - 1] / e[j]) / np.log(hs[j - 1] / hs[j])
    return out
