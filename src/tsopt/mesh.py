"""Structured crossed-triangle meshes of the unit square.

Each of the ``n x n`` grid squares is split into four triangles by its
center point, giving ``(n+1)^2 + n^2`` nodes and ``4 n^2`` elements.

A mesh is nodes, elements, Dirichlet nodes and the values there, made and
checked by :class:`Mesh` alone; :func:`tag_boundary` picks the Dirichlet
nodes and values by two functions of the coordinates.  Everything derived
from them (element geometry, the reduced index, the local matrices of
uncut elements per material, the one-ring adjacency the classification and
the smoothing share) is computed on first use and cached on the mesh
instance, so a new mesh never sees another mesh's data.  The reduced index
splits the element matrix entries, in the summation order of scipy's
COO-to-CSR conversion, at the Dirichlet nodes: the free x free ones into
the band layout of :func:`tsopt.ldlt.band_layout`, the free x fixed ones
into the Dirichlet coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .ldlt import BandLayout, band_layout

__all__ = [
    "Mesh",
    "ElementGeometry",
    "ReducedIndex",
    "generate_crossed_mesh",
    "build_incidence",
    "tag_boundary",
]


@dataclass(frozen=True)
class ElementGeometry:
    det_j: np.ndarray   # (N,)
    k0: np.ndarray      # (N, 3, 3) physical gradient products
    grads: np.ndarray   # (N, 3, 2) physical basis gradients


@dataclass(frozen=True)
class ReducedIndex:
    """Free (non-Dirichlet) node ids, the band layout of the free x free
    block (:func:`tsopt.ldlt.band_layout`) and the Dirichlet coupling of
    the free x fixed block: ``fd_source`` lists the flat positions of its
    entries in the element-last ``(3, 3, N)`` local array, in summation
    order, and ``fd_pair`` the (row, column) pair each is added to;
    ``fd_row`` is each pair's row in ``free`` and ``fd_value`` the
    Dirichlet value of its column.  The ``fd_`` arrays are read-only."""

    free: np.ndarray
    band: BandLayout
    fd_source: np.ndarray
    fd_pair: np.ndarray
    fd_row: np.ndarray
    fd_value: np.ndarray


def _entry_nodes(elements):
    """Row and column node of every entry of the flattened ``(N, 3, 3)``
    element matrices."""
    n = len(elements)
    return (np.broadcast_to(elements[:, :, None], (n, 3, 3)).ravel(),
            np.broadcast_to(elements[:, None, :], (n, 3, 3)).ravel())


def _edges(nodes, elements):
    """The edge vectors ``e1 = x1 - x0`` and ``e2 = x2 - x0`` of every
    element and its Jacobian determinant, positive for a counter-clockwise
    vertex triple."""
    pts = np.take(nodes, elements.T, axis=0)    # (3, N, 2)
    e1, e2 = pts[1:] - pts[0]
    return e1, e2, e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]


def _node_ids(ids, num_nodes: int, name: str) -> np.ndarray:
    """``ids`` as an int array, checked to hold node ids in
    ``[0, num_nodes)``."""
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integer node ids, not {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= num_nodes):
        raise ValueError(f"{name} must be node ids in [0, {num_nodes})")
    return ids.astype(int, copy=False)


@dataclass(frozen=True, eq=False)
class Mesh:
    """Immutable triangulation: node coordinates, CCW vertex triples, the
    Dirichlet node ids and the prescribed values at them.  The rest of the
    boundary carries homogeneous Neumann data, the natural condition of the
    weak form, which needs no assembly.

    This is the one mesh constructor and the one place its arrays are
    checked.  It takes any sequences and stores ``nodes`` as a float
    ``(M, 2)`` array, ``elements`` as an int ``(N, 3)`` array of the node
    ids of counter-clockwise triangles of positive area that use every
    node, ``dirichlet_nodes`` as an int ``(k,)`` array of distinct node
    ids and ``dirichlet_values`` as a read-only float ``(k,)`` copy; any
    other input, or a non-finite coordinate or value, raises
    ``ValueError``.  A mesh owns caches, so it compares and hashes by
    identity."""

    nodes: np.ndarray
    elements: np.ndarray
    dirichlet_nodes: np.ndarray = ()
    dirichlet_values: np.ndarray = ()

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError(f"nodes must have shape (M, 2), not {nodes.shape}")
        if not np.isfinite(nodes).all():
            raise ValueError("node coordinates must be finite")
        elements = _node_ids(self.elements, len(nodes), "elements")
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise ValueError(
                f"elements must have shape (N, 3), not {elements.shape}")
        if (_edges(nodes, elements)[2] <= 0.0).any():
            raise ValueError("elements must be counter-clockwise vertex "
                             "triples of positive area")
        if not np.bincount(elements.ravel(), minlength=len(nodes)).all():
            raise ValueError("every node must be a vertex of an element")
        fixed = _node_ids(self.dirichlet_nodes, len(nodes), "dirichlet_nodes")
        if fixed.ndim != 1 or len(np.unique(fixed)) != len(fixed):
            raise ValueError("dirichlet_nodes must be a 1-D array of "
                             "distinct node ids")
        values = np.array(self.dirichlet_values, dtype=float)
        if values.shape != fixed.shape:
            raise ValueError(f"need one value per Dirichlet node: "
                             f"{len(fixed)} nodes, values of shape "
                             f"{values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("Dirichlet values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "dirichlet_nodes", fixed)
        object.__setattr__(self, "dirichlet_values", values)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    @cached_property
    def geometry(self) -> ElementGeometry:
        """Jacobian determinants, basis gradients and their pair products
        (read-only arrays)."""
        e1, e2, det = _edges(self.nodes, self.elements)
        grads = np.empty((len(det), 3, 2))
        grads[:, 1, 0] = e2[:, 1]
        grads[:, 1, 1] = -e2[:, 0]
        grads[:, 2, 0] = -e1[:, 1]
        grads[:, 2, 1] = e1[:, 0]
        grads[:, 1:] /= det[:, None, None]
        grads[:, 0] = -grads[:, 1] - grads[:, 2]
        k0 = grads[:, :, None, 0] * grads[:, None, :, 0] \
            + grads[:, :, None, 1] * grads[:, None, :, 1]
        for array in (det, k0, grads):
            array.flags.writeable = False
        return ElementGeometry(det_j=det, k0=k0, grads=grads)

    @cached_property
    def reduced_index(self) -> ReducedIndex:
        """The element matrix entries split at the Dirichlet nodes, built
        once, in the order in which scipy's COO-to-CSR conversion of the
        flattened ``(N, 3, 3)`` element matrices sums duplicates (rows
        bucketed in input order, then each row's unstable index sort, here
        applied to the entry ids), so each slot gets the conversion's bits."""
        m, n = self.num_nodes, self.num_elements
        rows, cols = _entry_nodes(self.elements)
        by_row = np.argsort(rows, kind="stable")
        indptr = np.searchsorted(rows[by_row], np.arange(m + 1))
        ids = sp.csr_matrix((by_row.astype(float), cols[by_row], indptr),
                            shape=(m, m))
        ids.sort_indices()
        order = ids.data.astype(int)
        pos = (order % 9) * n + order // 9     # in the element-last array
        rows, cols = rows[order], cols[order]
        fixed = self.dirichlet_nodes
        is_free = np.ones(m, dtype=bool)
        is_free[fixed] = False
        free = np.flatnonzero(is_free)
        number = np.empty(m, dtype=int)
        number[free] = np.arange(len(free))
        number[fixed] = np.arange(len(fixed))

        ff = is_free[rows] & is_free[cols]
        band = band_layout(number[rows[ff]], number[cols[ff]], pos[ff],
                           len(free))
        fd = is_free[rows] & ~is_free[cols]
        rows, cols = number[rows[fd]], number[cols[fd]]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        fd_arrays = (pos[fd], np.cumsum(new) - 1, rows[new],
                     self.dirichlet_values[cols[new]])
        for array in fd_arrays:
            array.flags.writeable = False
        return ReducedIndex(free, band, *fd_arrays)

    @cached_property
    def uncut_locals(self) -> dict:
        """Store of the local matrices of uncut elements, one entry per set
        of material constants, filled by :func:`tsopt.fem.assemble`."""
        return {}

    @cached_property
    def ring_matrix(self) -> sp.csr_matrix:
        """One-ring adjacency, built once: the ``M x M`` CSR matrix of ones
        whose row ``k`` holds the sorted one-ring of node ``k`` (see
        :func:`build_incidence`)."""
        m = self.num_nodes
        indptr, indices = build_incidence(self.elements, m)
        return sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                             shape=(m, m))


def build_incidence(elements: np.ndarray, num_nodes: int):
    """One-rings in CSR form ``(indptr, indices)``: row ``k`` is the sorted
    set of ``k`` and the vertices of every element containing it, so a node
    in no element has itself as its ring."""
    rows, cols = _entry_nodes(np.asarray(elements, dtype=int).reshape(-1, 3))
    diagonal = np.arange(num_nodes)
    pairs = np.sort(np.concatenate([rows, diagonal]) * num_nodes
                    + np.concatenate([cols, diagonal]))
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]     # keys are >= 0
    ring_rows, indices = np.divmod(pairs, num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=int)
    np.cumsum(np.bincount(ring_rows, minlength=num_nodes), out=indptr[1:])
    return indptr, indices


def generate_crossed_mesh(n: int) -> Mesh:
    """Crossed mesh of ``[0,1]^2`` with ``n`` squares per side, without
    Dirichlet nodes (see :func:`tag_boundary`).

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

    # cells row-major (j outer, i inner), four triangles per cell
    j, i = np.divmod(np.arange(n * n), n)
    c00, c10 = j * (n + 1) + i, j * (n + 1) + i + 1
    c01, c11 = c00 + n + 1, c10 + n + 1
    c = (n + 1) * (n + 1) + j * n + i
    elements = np.stack([
        np.column_stack([c00, c10, c]),   # bottom
        np.column_stack([c10, c11, c]),   # right
        np.column_stack([c11, c01, c]),   # top
        np.column_stack([c01, c00, c]),   # left
    ], axis=1).reshape(-1, 3)
    return Mesh(nodes, elements)


def tag_boundary(mesh: Mesh,
                 is_dirichlet: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 g_d: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Mesh:
    """``mesh`` with the Dirichlet nodes where ``is_dirichlet(x, y)`` holds
    and the values ``g_d(x, y)`` there, in place of any it had.

    Each function is called once, on coordinate arrays: ``is_dirichlet``
    must give one ``bool`` per node and ``g_d`` one value per tagged node,
    or ``ValueError`` is raised."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    tagged = np.asarray(is_dirichlet(x, y))
    if tagged.dtype != bool or tagged.shape != x.shape:
        raise ValueError(f"is_dirichlet must give one bool per node, not "
                         f"{tagged.dtype} of shape {tagged.shape}")
    tagged = np.flatnonzero(tagged)
    return Mesh(mesh.nodes, mesh.elements, tagged, g_d(x[tagged], y[tagged]))
