"""Structured crossed-triangle meshes of the unit square.

Each of the ``n x n`` grid squares is split into four triangles by its
center point, giving ``(n+1)^2 + n^2`` nodes and ``4 n^2`` elements.  The
mesh also carries the incidence sets the nodal sensitivity formulas need:
for node ``k``, the indices of all elements containing it and its one-ring
(the node together with every vertex of those elements).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Mesh",
    "BoundaryData",
    "ReducedIndex",
    "generate_crossed_mesh",
    "build_incidence",
    "tag_boundary",
]


@dataclass(frozen=True)
class BoundaryData:
    """Boundary conditions: Dirichlet value function on the selected part of
    the boundary, constant Neumann flux elsewhere."""

    g_d: Callable[[np.ndarray, np.ndarray], np.ndarray]
    is_dirichlet: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g_n: float = 0.0


@dataclass(frozen=True)
class ReducedIndex:
    """Free (non-Dirichlet) and fixed node ids, and for the free x free
    (``ff``) and free x fixed (``fd``) entries of the flattened ``(N, 3, 3)``
    element matrices their ``(pos, rows, cols)`` in the reduced numbering."""

    free: np.ndarray
    fixed: np.ndarray
    ff: tuple
    fd: tuple


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation with incidence sets and boundary tags.

    ``elements`` rows are CCW vertex triples.  ``node_to_elements[k]`` holds
    the indices of the elements containing node ``k``; ``one_ring[k]``
    contains ``k`` itself plus all vertices of those elements.
    """

    nodes: np.ndarray           # (M, 2) float
    elements: np.ndarray        # (N, 3) int, CCW
    node_to_elements: tuple     # per node: int array of element ids
    one_ring: tuple             # per node: int array of node ids (incl. k)
    dirichlet_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    neumann_edges: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=int))

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    @cached_property
    def reduced_index(self) -> ReducedIndex:
        """Element-matrix index split at the Dirichlet nodes, built once."""
        n, m = len(self.elements), self.num_nodes
        rows = np.broadcast_to(self.elements[:, :, None], (n, 3, 3)).ravel()
        cols = np.broadcast_to(self.elements[:, None, :], (n, 3, 3)).ravel()
        # Order in which scipy's COO-to-CSR conversion of the full matrix
        # sums duplicates: rows bucketed in input order, then each row's
        # (unstable) index sort.  Restricted entries fed in this order are
        # already sorted, so the conversion sums every entry of the reduced
        # matrix exactly as it sums the full one.
        by_row = np.argsort(rows, kind="stable")
        indptr = np.searchsorted(rows[by_row], np.arange(m + 1))
        full = sp.csr_matrix((by_row.astype(float), cols[by_row], indptr),
                             shape=(m, m))
        full.sort_indices()
        order = full.data.astype(int)

        fixed = self.dirichlet_nodes
        is_free = np.ones(m, dtype=bool)
        is_free[fixed] = False
        free = np.flatnonzero(is_free)
        number = np.empty(m, dtype=int)
        number[free] = np.arange(len(free))
        number[fixed] = np.arange(len(fixed))
        row_free = is_free[rows[order]]
        ff = order[row_free & is_free[cols[order]]]
        fd = order[row_free & ~is_free[cols[order]]]
        return ReducedIndex(free=free, fixed=fixed,
                            ff=(ff, number[rows[ff]], number[cols[ff]]),
                            fd=(fd, number[rows[fd]], number[cols[fd]]))


def build_incidence(elements: np.ndarray, num_nodes: int):
    """Element and one-ring incidence from the element list."""
    node_elems = [[] for _ in range(num_nodes)]
    for l, tri in enumerate(elements):
        for k in tri:
            node_elems[k].append(l)
    node_to_elements = tuple(np.array(e, dtype=int) for e in node_elems)
    one_ring = []
    for k in range(num_nodes):
        ring = {k}
        for l in node_to_elements[k]:
            ring.update(int(v) for v in elements[l])
        one_ring.append(np.array(sorted(ring), dtype=int))
    return node_to_elements, tuple(one_ring)


def generate_crossed_mesh(n: int, boundary: BoundaryData | None = None) -> Mesh:
    """Crossed mesh of ``[0,1]^2`` with ``n`` squares per side.

    Nodes are numbered lattice points first (row-major, bottom to top),
    then cell centers (row-major), so output is deterministic.
    """
    if n < 1:
        raise ValueError("need at least one subdivision per side")
    h = 1.0 / n
    xi = np.arange(n + 1) * h
    gx, gy = np.meshgrid(xi, xi, indexing="xy")
    lattice = np.column_stack([gx.ravel(), gy.ravel()])
    ci = (np.arange(n) + 0.5) * h
    cx, cy = np.meshgrid(ci, ci, indexing="xy")
    centers = np.column_stack([cx.ravel(), cy.ravel()])
    nodes = np.vstack([lattice, centers])

    def lat(i, j):
        return j * (n + 1) + i

    def ctr(i, j):
        return (n + 1) * (n + 1) + j * n + i

    elements = np.empty((4 * n * n, 3), dtype=int)
    e = 0
    for j in range(n):
        for i in range(n):
            c00, c10 = lat(i, j), lat(i + 1, j)
            c01, c11 = lat(i, j + 1), lat(i + 1, j + 1)
            c = ctr(i, j)
            elements[e] = (c00, c10, c)      # bottom
            elements[e + 1] = (c10, c11, c)  # right
            elements[e + 2] = (c11, c01, c)  # top
            elements[e + 3] = (c01, c00, c)  # left
            e += 4

    node_to_elements, one_ring = build_incidence(elements, len(nodes))
    mesh = Mesh(nodes=nodes, elements=elements,
                node_to_elements=node_to_elements, one_ring=one_ring)
    if boundary is not None:
        mesh = tag_boundary(mesh, boundary)
    return mesh


def _boundary_edges(mesh: Mesh) -> np.ndarray:
    """Edges belonging to exactly one element, as (E, 2) node pairs."""
    tris = mesh.elements
    edges = np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    key = np.sort(edges, axis=1)
    _, idx, counts = np.unique(key, axis=0, return_index=True, return_counts=True)
    return edges[idx[counts == 1]]


def tag_boundary(mesh: Mesh, boundary: BoundaryData) -> Mesh:
    """Tag Dirichlet nodes and Neumann edges; Dirichlet wins at corners."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    dirichlet = np.flatnonzero(boundary.is_dirichlet(x, y))
    bedges = _boundary_edges(mesh)
    on_dirichlet = np.isin(bedges, dirichlet).all(axis=1)
    neumann_edges = bedges[~on_dirichlet]
    return replace(mesh, dirichlet_nodes=dirichlet, neumann_edges=neumann_edges)


def mesh_from_arrays(nodes: Sequence, elements: Sequence) -> Mesh:
    """Build a mesh (with incidence sets) from raw node/element arrays."""
    nodes = np.asarray(nodes, dtype=float)
    elements = np.asarray(elements, dtype=int)
    node_to_elements, one_ring = build_incidence(elements, len(nodes))
    return Mesh(nodes=nodes, elements=elements,
                node_to_elements=node_to_elements, one_ring=one_ring)
