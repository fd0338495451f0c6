"""Meshes shared by the tests."""

import numpy as np

from hdgstokes import Triangulation, generate


def jittered_square(n, seed, amp):
    """The unit square at n with every interior vertex moved by up to amp/n in
    each coordinate (uniform, seeded): triangles of every shape, the same
    topology."""
    T = generate("unit_square", n)
    inner = (T.vertices > 0).all(axis=1) & (T.vertices < 1).all(axis=1)
    jitter = np.random.default_rng(seed).uniform(-amp / n, amp / n, T.vertices.shape)
    return Triangulation(T.vertices + inner[:, None] * jitter, T.triangles)
