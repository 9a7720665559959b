"""The seeded renumbering that tests of numbering invariance share."""

import numpy as np

from spiralflow.meshing import TriangleMesh


def renumbered(mesh, seed):
    """The same mesh with nodes and triangles in a seeded random order.

    Seed 0 keeps the mesh as built.
    """
    if seed == 0:
        return mesh
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_points)  # perm[old] = new
    inv = np.empty_like(perm)
    inv[perm] = np.arange(mesh.n_points)
    order = rng.permutation(mesh.n_triangles)
    return TriangleMesh(
        mesh.points[inv], perm[mesh.triangles][order], perm[mesh.body_nodes], perm[mesh.outer_nodes]
    )
