"""Structured crossed-triangle meshes of the unit square.

Each of the ``n x n`` grid squares is split into four triangles by its
center point, giving ``(n+1)^2 + n^2`` nodes and ``4 n^2`` elements.

A mesh is nodes, elements, Dirichlet nodes and the values there (see
:func:`tag_boundary`).  Everything derived from them (element geometry, the
scatter map of every P1 matrix and its reduced blocks with their band
ordering, the local matrices of uncut elements per material, the one-rings
the classification and the smoothing need) is computed on first use and
cached on the mesh instance, so a new mesh never sees another mesh's data.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

__all__ = [
    "Mesh",
    "BandLayout",
    "BoundaryData",
    "ElementGeometry",
    "ReducedIndex",
    "ScatterBlock",
    "SingularElement",
    "band_layout",
    "generate_crossed_mesh",
    "build_incidence",
    "tag_boundary",
]


class SingularElement(ArithmeticError):
    """Element with non-positive Jacobian determinant."""


@dataclass(frozen=True)
class BoundaryData:
    """Dirichlet value function on the selected part of the boundary.  The
    rest of the boundary carries homogeneous Neumann data, the natural
    condition of the weak form, which needs no assembly."""

    g_d: Callable[[np.ndarray, np.ndarray], np.ndarray]
    is_dirichlet: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ElementGeometry:
    det_j: np.ndarray   # (N,)
    k0: np.ndarray      # (N, 3, 3) physical gradient products
    grads: np.ndarray   # (N, 3, 2) physical basis gradients


@dataclass(frozen=True)
class ScatterBlock:
    """One block of the reduced matrix as a CSR ``pattern`` (a matrix of
    zeros with read-only arrays) and, for every entry of the element
    matrices that lands in it, its position ``pos`` in the flattened
    element-last ``(3, 3, N)`` local array and the CSR data ``slot`` it is
    added to.  Entries are listed in summation order."""

    pos: np.ndarray
    slot: np.ndarray
    pattern: sp.csr_matrix

    @property
    def indptr(self) -> np.ndarray:
        return self.pattern.indptr

    @property
    def indices(self) -> np.ndarray:
        return self.pattern.indices

    @property
    def nnz(self) -> int:
        return len(self.pattern.indices)


@dataclass(frozen=True)
class BandLayout:
    """Band form of a structurally symmetric ``n x n`` CSR pattern.

    ``perm`` is a reverse Cuthill-McKee ordering: ``B = A[perm][:, perm]``
    has half-bandwidth ``width`` (LAPACK's ``kl = ku = kd``).  Two slot
    maps place CSR data in the Fortran-ordered arrays LAPACK's banded
    factorizations take:

    * ``slot[s]`` is the flat position of CSR data slot ``s`` in the
      :attr:`shape` array of banded LU (``zgbtrf``, for complex-symmetric
      systems), where ``B[i, j]`` sits in row ``2 width + i - j`` of column
      ``j``; the top ``width`` rows are room for the fill-in of row
      pivoting.
    * ``lower`` lists the CSR data slots with ``i >= j`` and
      ``lower_slot`` their flat positions in the :attr:`lower_shape` array
      of banded Cholesky in lower storage (``dpbtrf``, for real symmetric
      positive definite systems), where ``B[i, j]`` sits in row ``i - j``
      of column ``j``."""

    perm: np.ndarray
    width: int
    slot: np.ndarray
    lower: np.ndarray
    lower_slot: np.ndarray

    @property
    def shape(self) -> tuple:
        return (3 * self.width + 1, len(self.perm))

    @property
    def lower_shape(self) -> tuple:
        return (self.width + 1, len(self.perm))


@dataclass(frozen=True)
class ReducedIndex:
    """Free (non-Dirichlet) and fixed node ids, the free x free (``ff``)
    and free x fixed (``fd``) blocks of the element-matrix scatter in the
    reduced numbering, and the band layout of the ``ff`` pattern."""

    free: np.ndarray
    fixed: np.ndarray
    ff: ScatterBlock
    fd: ScatterBlock
    band: BandLayout


def _entry_nodes(elements):
    """Row and column node of every entry of the flattened ``(N, 3, 3)``
    element matrices."""
    n = len(elements)
    return (np.broadcast_to(elements[:, :, None], (n, 3, 3)).ravel(),
            np.broadcast_to(elements[:, None, :], (n, 3, 3)).ravel())


def _scatter_block(pos, rows, cols, shape) -> ScatterBlock:
    """CSR pattern and output slots of entries sorted by (row, column)."""
    new = np.ones(len(pos), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    slot = np.cumsum(new) - 1
    indptr = np.zeros(shape[0] + 1, dtype=int)
    np.cumsum(np.bincount(rows[new], minlength=shape[0]), out=indptr[1:])
    # let scipy pick its index dtype once, so no scatter has to convert
    pattern = sp.csr_matrix((np.zeros(int(new.sum())), cols[new], indptr),
                            shape=shape)
    for array in (pos, slot, pattern.data, pattern.indptr, pattern.indices):
        array.flags.writeable = False
    return ScatterBlock(pos=pos, slot=slot, pattern=pattern)


def band_layout(indptr, indices) -> BandLayout:
    """Reverse Cuthill-McKee band layout of a structurally symmetric CSR
    pattern (read-only arrays)."""
    n = len(indptr) - 1
    pattern = sp.csr_matrix((np.ones(len(indices)), indices, indptr),
                            shape=(n, n))
    perm = reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(int)
    inverse = np.empty(n, dtype=int)
    inverse[perm] = np.arange(n)
    rows = inverse[np.repeat(np.arange(n), np.diff(indptr))]
    cols = inverse[indices]
    width = int(np.abs(rows - cols).max(initial=0))
    slot = 2 * width + rows - cols + cols * (3 * width + 1)
    lower = np.flatnonzero(rows >= cols)
    lower_slot = rows[lower] - cols[lower] + cols[lower] * (width + 1)
    for array in (perm, slot, lower, lower_slot):
        array.flags.writeable = False
    return BandLayout(perm=perm, width=width, slot=slot, lower=lower,
                      lower_slot=lower_slot)


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation: node coordinates, CCW vertex triples, the
    Dirichlet node ids and the prescribed values at them."""

    nodes: np.ndarray           # (M, 2) float
    elements: np.ndarray        # (N, 3) int, CCW
    dirichlet_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    dirichlet_values: np.ndarray = field(default_factory=lambda: np.empty(0))

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
        pts = self.nodes[self.elements]
        e1 = pts[:, 1] - pts[:, 0]
        e2 = pts[:, 2] - pts[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(det <= 0.0):
            raise SingularElement("non-positive Jacobian determinant")
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
    def scatter(self) -> ScatterBlock:
        """Scatter map of the element matrices, element axis last, into the
        full ``M x M`` CSR matrix, built once.

        Entries are listed in the order in which scipy's COO-to-CSR
        conversion of the flattened ``(N, 3, 3)`` element matrices sums
        duplicates: rows bucketed in input order, then each row's (unstable)
        index sort.  Summing the entries one after another in this order, or
        any subset of them, gives every entry the bits the conversion gives
        it."""
        m, n = self.num_nodes, self.num_elements
        rows, cols = _entry_nodes(self.elements)
        by_row = np.argsort(rows, kind="stable")
        indptr = np.searchsorted(rows[by_row], np.arange(m + 1))
        full = sp.csr_matrix((by_row.astype(float), cols[by_row], indptr),
                             shape=(m, m))
        full.sort_indices()
        order = full.data.astype(int)
        return _scatter_block((order % 9) * n + order // 9, rows[order],
                              cols[order], (m, m))

    @cached_property
    def reduced_index(self) -> ReducedIndex:
        """The :attr:`scatter` split at the Dirichlet nodes, with the band
        layout of the free x free block, built once."""
        m, scatter = self.num_nodes, self.scatter
        rows = np.repeat(np.arange(m), np.diff(scatter.indptr))[scatter.slot]
        cols = scatter.indices[scatter.slot]
        fixed = self.dirichlet_nodes
        is_free = np.ones(m, dtype=bool)
        is_free[fixed] = False
        free = np.flatnonzero(is_free)
        number = np.empty(m, dtype=int)
        number[free] = np.arange(len(free))
        number[fixed] = np.arange(len(fixed))

        def block(keep, num_cols):
            return _scatter_block(scatter.pos[keep], number[rows[keep]],
                                  number[cols[keep]], (len(free), num_cols))

        ff = block(is_free[rows] & is_free[cols], len(free))
        return ReducedIndex(free=free, fixed=fixed, ff=ff,
                            fd=block(is_free[rows] & ~is_free[cols],
                                     len(fixed)),
                            band=band_layout(ff.indptr, ff.indices))

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

    @cached_property
    def ring_groups(self) -> tuple:
        """One-rings grouped by size: ``(nodes, rings)`` pairs where row
        ``i`` of the ``(n, L)`` array ``rings`` is the sorted one-ring of
        node ``nodes[i]`` (see :attr:`ring_matrix`)."""
        indptr = self.ring_matrix.indptr
        indices = self.ring_matrix.indices.astype(int)  # native fancy index
        sizes = np.diff(indptr)
        groups = []
        for size in np.unique(sizes):
            nodes = np.flatnonzero(sizes == size)
            groups.append((nodes, indices[indptr[nodes, None]
                                          + np.arange(size)]))
        return tuple(groups)


def build_incidence(elements: np.ndarray, num_nodes: int):
    """One-rings in CSR form ``(indptr, indices)``: row ``k`` is the sorted
    set of ``k`` and the vertices of every element containing it, so a node
    in no element has itself as its ring."""
    rows, cols = _entry_nodes(np.asarray(elements, dtype=int).reshape(-1, 3))
    diagonal = np.arange(num_nodes)
    pairs = np.unique(np.concatenate([rows, diagonal]) * num_nodes
                      + np.concatenate([cols, diagonal]))
    ring_rows, indices = np.divmod(pairs, num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=int)
    np.cumsum(np.bincount(ring_rows, minlength=num_nodes), out=indptr[1:])
    return indptr, indices


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

    mesh = Mesh(nodes=nodes, elements=elements)
    if boundary is not None:
        mesh = tag_boundary(mesh, boundary)
    return mesh


def tag_boundary(mesh: Mesh, boundary: BoundaryData) -> Mesh:
    """Tag the nodes where ``boundary`` prescribes Dirichlet data and store
    its values there, evaluated once (a read-only float array)."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    tagged = np.flatnonzero(boundary.is_dirichlet(x, y))
    values = np.array(boundary.g_d(x[tagged], y[tagged]), dtype=float)
    values.flags.writeable = False
    return replace(mesh, dirichlet_nodes=tagged, dirichlet_values=values)


def mesh_from_arrays(nodes: Sequence, elements: Sequence) -> Mesh:
    """Build a mesh from raw node/element arrays."""
    return Mesh(nodes=np.asarray(nodes, dtype=float),
                elements=np.asarray(elements, dtype=int))
