"""Meshes, dof maps, and overlapping decompositions at a glance.

Builds the unit square and T-shaped meshes, prints their topology
statistics, and shows how an overlapping decomposition with its partition
of unity covers every dof.

Run:  python demos/mesh_and_partition.py
"""

import numpy as np

from hdgstokes import (NVTF, TVNF, build_decomposition, build_dof_map, decompose,
                       generate, refine_uniform)


def describe(name, T):
    nb = int(T.boundary_edge.sum())
    print(f"{name}: {T.n_vertices} vertices, {T.n_triangles} triangles, "
          f"{T.n_edges} edges ({nb} on the boundary), h = {T.h_K.max():.4f}")


def main():
    sq = generate("unit_square", 4)
    describe("unit_square(4)", sq)
    describe("refined once  ", refine_uniform(sq))
    ts = generate("t_shape", 2)
    describe("t_shape(2)    ", ts)

    for bc in (TVNF, NVTF):
        dm = build_dof_map(sq, bc)
        print(f"{bc}: {dm.n_total} dofs, {len(dm.constrained)} constrained")

    dm = build_dof_map(sq, TVNF)
    parts = decompose(sq, "uniform:2x2")
    dec = build_decomposition(sq, dm, parts, 1)
    sizes0 = [len(e) for e in dec.elems0]
    sizes = [len(e) for e in dec.elems]
    print(f"2x2 decomposition: parts {sizes0} grow to {sizes} with one layer")
    acc = np.zeros(dm.n_total)
    for dofs, w in zip(dec.dofs, dec.weights):
        acc[dofs] += w
    print(f"partition of unity: max |sum of weights - 1| = {np.abs(acc - 1).max():.2e}")


if __name__ == "__main__":
    main()
