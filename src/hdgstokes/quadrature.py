"""Quadrature rules: one triangle rule of degree 5, Gauss rules on edges.

TRI_RULE is the 7-point rule exact for polynomials of degree 5 (Radon),
as barycentric coordinates and weights summing to 1 (multiply by the
triangle area). Edge rules return parameters in (0, 1) measured from the
first endpoint and weights summing to 1 (multiply by the edge length).
"""

import numpy as np


def _radon_rule():
    s15 = np.sqrt(15.0)
    b, c = (6 + s15) / 21, (6 - s15) / 21
    wb, wc = (155 + s15) / 1200, (155 - s15) / 1200
    pts = [(1 / 3, 1 / 3, 1 / 3),
           (1 - 2 * b, b, b), (b, 1 - 2 * b, b), (b, b, 1 - 2 * b),
           (1 - 2 * c, c, c), (c, 1 - 2 * c, c), (c, c, 1 - 2 * c)]
    w = [9 / 40, wb, wb, wb, wc, wc, wc]
    return np.array(pts), np.array(w)


# barycentric points (7, 3) and weights (7,)
TRI_RULE = _radon_rule()


def edge_gauss(npts):
    """Gauss-Legendre nodes/weights mapped to (0, 1)."""
    if npts == 2:
        x = np.array([-1, 1]) / np.sqrt(3.0)
        w = np.array([1.0, 1.0])
    elif npts == 3:
        x = np.array([-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)])
        w = np.array([5 / 9, 8 / 9, 5 / 9])
    elif npts == 4:
        r1 = np.sqrt(3 / 7 - 2 / 7 * np.sqrt(6 / 5))
        r2 = np.sqrt(3 / 7 + 2 / 7 * np.sqrt(6 / 5))
        x = np.array([-r2, -r1, r1, r2])
        w30 = np.sqrt(30.0)
        w = np.array([18 - w30, 18 + w30, 18 + w30, 18 - w30]) / 36
    else:
        raise ValueError(f"no edge rule with {npts} points")
    return (1 + x) / 2, w / 2


# BDM dof nodes: the 2-point Gauss parameters, measured from the lower vertex
BDM_NODES = edge_gauss(2)[0]
