"""Level-set geometry on a fixed triangle mesh.

A design domain is the region where a piecewise-linear nodal function is
negative.  This module classifies nodes by the signs on their one-ring,
applies the single-node perturbation operators, marks the sign of every
element vertex, and integrates polynomials exactly over the negative part of
each element.  All cut quantities are rational in the nodal values, so every
function here accepts real, complex or hyper-dual input.

Sign conventions: a value of exactly zero counts as non-negative ('+') in
cut classification, matching the limit of an infinitesimally positive
perturbation; a node whose entire one-ring is zero is classified interior
negative (checked first).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .hdarray import (GenericScalar, HyperDualArray, generic_zeros,
                      promote_like, real_part, scalar_sign, sign_array)
from .mesh import Mesh

__all__ = [
    "DegenerateCut",
    "NodeClassification",
    "Perturbation",
    "CutTag",
    "classify_nodes",
    "perturb",
    "element_plus_mask",
    "element_negative_integrals",
    "negative_region_integrals",
    "subdomain_area",
    "symmetric_difference_area",
    "interface_segments",
]

T_MINUS, SHAPE, T_PLUS = -1, 0, 1

# Exact integrals of P1 products over the reference triangle.
_FULL_MASS_REF = (np.ones((3, 3)) + np.eye(3)) / 24.0
_FULL_LOAD_REF = np.full(3, 1.0 / 6.0)


class DegenerateCut(ArithmeticError):
    """A cut ratio degenerated to 0/0 (coincident level-set values across a
    sign change)."""


@dataclass(frozen=True)
class NodeClassification:
    """Partition of the mesh nodes by the signs on their one-rings.

    Label -1: the whole ring is <= 0 (interior of the design domain),
    +1: the whole ring is >= 0, 0: mixed signs (interface node).
    """

    labels: np.ndarray  # (M,) int8 in {-1, 0, +1}

    @property
    def t_minus(self) -> np.ndarray:
        return np.flatnonzero(self.labels == T_MINUS)

    @property
    def t_plus(self) -> np.ndarray:
        return np.flatnonzero(self.labels == T_PLUS)

    @property
    def shape_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.labels == SHAPE)

    def counts(self) -> tuple[int, int, int]:
        """(n_tminus, n_tplus, n_shape)."""
        return (int((self.labels == T_MINUS).sum()),
                int((self.labels == T_PLUS).sum()),
                int((self.labels == SHAPE).sum()))


class Perturbation(Enum):
    """Single-node level-set perturbation operators."""

    TOPO_PLUS = "topo_plus"    # value at the node becomes +eps
    TOPO_MINUS = "topo_minus"  # value at the node becomes -eps
    SHAPE = "shape"            # value at the node is incremented by eps

    @classmethod
    def for_label(cls, label: int) -> "Perturbation":
        if label == T_MINUS:
            return cls.TOPO_PLUS
        if label == T_PLUS:
            return cls.TOPO_MINUS
        return cls.SHAPE

    @property
    def order(self) -> int:
        """Leading order of the induced area change (1 shape, 2 topological)."""
        return 1 if self is Perturbation.SHAPE else 2


class CutTag(Enum):
    """Sign pattern of an element's nodal values, pivot vertex first."""

    ALL_NEG = "all_neg"
    ALL_POS = "all_pos"
    A_PLUS = "A+"    # (+, -, -)
    A_MINUS = "A-"   # (-, +, +)
    B_PLUS = "B+"    # (-, +, -)
    B_MINUS = "B-"   # (+, -, +)
    C_PLUS = "C+"    # (-, -, +)
    C_MINUS = "C-"   # (+, +, -)


_TAG_BY_BITS = {
    0b000: CutTag.ALL_NEG,
    0b111: CutTag.ALL_POS,
    0b100: CutTag.A_PLUS,
    0b011: CutTag.A_MINUS,
    0b010: CutTag.B_PLUS,
    0b101: CutTag.B_MINUS,
    0b001: CutTag.C_PLUS,
    0b110: CutTag.C_MINUS,
}


def classify_nodes(mesh: Mesh, phi) -> NodeClassification:
    """Classify every node by the signs of its one-ring values."""
    s = sign_array(phi).astype(np.int8)
    if len(s) != mesh.num_nodes:
        raise ValueError("level-set length does not match node count")
    ring_min = np.empty_like(s)
    ring_max = np.empty_like(s)
    for nodes, rings in mesh.ring_groups:
        ring_signs = s[rings]
        ring_min[nodes] = ring_signs.min(axis=1)
        ring_max[nodes] = ring_signs.max(axis=1)
    labels = np.zeros(mesh.num_nodes, dtype=np.int8)
    t_minus = ring_max <= 0
    t_plus = ~t_minus & (ring_min >= 0)
    labels[t_minus] = T_MINUS
    labels[t_plus] = T_PLUS
    return NodeClassification(labels)


def perturb(phi, k: int, eps: GenericScalar, kind: Perturbation):
    """New nodal vector with the value at node ``k`` perturbed by ``eps``.

    Real input is promoted to the scalar type of ``eps``.
    """
    out = phi.copy() if isinstance(phi, HyperDualArray) else promote_like(phi, eps)
    if kind is Perturbation.SHAPE:
        out[k] = out[k] + eps
    elif kind is Perturbation.TOPO_PLUS:
        out[k] = eps
    else:
        out[k] = -eps
    return out


def element_plus_mask(mesh: Mesh, phi) -> np.ndarray:
    """(N, 3) bool: per element vertex, whether the value counts as '+'."""
    s = sign_array(phi)
    return s[mesh.elements] >= 0


def _checked_ratio(num, den):
    """num / den, raising DegenerateCut on an exactly-zero denominator."""
    if isinstance(den, HyperDualArray):
        bad = np.any(den.re == 0.0)
    else:
        bad = np.any(den == 0)
    if bad:
        raise DegenerateCut("cut ratio with vanishing level-set difference")
    return num / den


def negative_region_integrals(mesh: Mesh, phi):
    """Exact reference-element integrals over the negative region.

    Returns ``(neg_frac, neg_mass, neg_load)`` of shapes (N,), (N,3,3),
    (N,3): the area fraction, the P1 mass integrals and the P1 load
    integrals of each element's negative part, all in reference coordinates
    (multiply by ``|det J|`` for physical values).  Generic in the scalar
    type of ``phi``.
    """
    tris = mesh.elements
    n_elems = len(tris)
    phin = phi[tris]
    plus = element_plus_mask(mesh, phi)
    n_plus = plus.sum(axis=1)

    neg_frac = generic_zeros(n_elems, like=phi)
    neg_mass = generic_zeros((n_elems, 3, 3), like=phi)
    neg_load = generic_zeros((n_elems, 3), like=phi)

    fully_neg = np.flatnonzero(n_plus == 0)
    if len(fully_neg):
        neg_frac[fully_neg] = 0.5
        neg_mass[fully_neg] = np.broadcast_to(_FULL_MASS_REF, (len(fully_neg), 3, 3))
        neg_load[fully_neg] = np.broadcast_to(_FULL_LOAD_REF, (len(fully_neg), 3))

    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        lone_here = ((n_plus == 1) & plus[:, a]) | ((n_plus == 2) & ~plus[:, a])
        idx = np.flatnonzero(lone_here)
        if not len(idx):
            continue
        lone_is_plus = plus[idx, a]
        pa, pb, pc = phin[idx, a], phin[idx, b], phin[idx, c]
        tb = _checked_ratio(pa, pa - pb)
        tc = _checked_ratio(pa, pa - pc)
        cap_area = tb * tc * 0.5

        # P1 basis values at the cap corners (vertex a and the two edge cuts)
        vals = generic_zeros((len(idx), 3, 3), like=phi)
        vals[:, a, 0] = 1.0
        vals[:, a, 1] = 1.0 - tb
        vals[:, a, 2] = 1.0 - tc
        vals[:, b, 1] = tb
        vals[:, c, 2] = tc
        pair = (vals[:, :, None, :] * vals[:, None, :, :]).sum(axis=-1)
        rows = vals.sum(axis=-1)
        cap_mass = (pair + rows[:, :, None] * rows[:, None, :]) \
            * (cap_area * (1.0 / 12.0))[:, None, None]
        cap_load = rows * (cap_area * (1.0 / 3.0))[:, None]

        pos_idx = idx[lone_is_plus]
        if len(pos_idx):
            sel = np.flatnonzero(lone_is_plus)
            neg_frac[pos_idx] = 0.5 - cap_area[sel]
            neg_mass[pos_idx] = _FULL_MASS_REF - cap_mass[sel]
            neg_load[pos_idx] = _FULL_LOAD_REF - cap_load[sel]
        neg_idx = idx[~lone_is_plus]
        if len(neg_idx):
            sel = np.flatnonzero(~lone_is_plus)
            neg_frac[neg_idx] = cap_area[sel]
            neg_mass[neg_idx] = cap_mass[sel]
            neg_load[neg_idx] = cap_load[sel]

    return neg_frac, neg_mass, neg_load


def element_negative_integrals(phi_triple):
    """Scalar (single-element) version of the exact negative-region
    integrals, in reference coordinates.

    Returns ``(area, mass, load)`` where mass is a 3x3 nested list and load
    a length-3 list of generic scalars.  Serves as the differentiation
    target for derivative oracles.
    """
    signs = [scalar_sign(p) for p in phi_triple]
    plus = [s >= 0 for s in signs]
    n_plus = sum(plus)
    if n_plus == 3:
        return 0.0, [[0.0] * 3 for _ in range(3)], [0.0] * 3
    if n_plus == 0:
        return 0.5, [list(r) for r in _FULL_MASS_REF], list(_FULL_LOAD_REF)

    lone = plus.index(True) if n_plus == 1 else plus.index(False)
    a, b, c = lone, (lone + 1) % 3, (lone + 2) % 3
    pa, pb, pc = phi_triple[a], phi_triple[b], phi_triple[c]
    tb = pa / (pa - pb)
    tc = pa / (pa - pc)
    cap_area = tb * tc * 0.5

    vals = [[0.0] * 3 for _ in range(3)]
    vals[a][0], vals[a][1], vals[a][2] = 1.0, 1.0 - tb, 1.0 - tc
    vals[b][1] = tb
    vals[c][2] = tc
    rows = [vals[i][0] + vals[i][1] + vals[i][2] for i in range(3)]
    cap_mass = [[(sum(vals[i][v] * vals[j][v] for v in range(3))
                  + rows[i] * rows[j]) * cap_area * (1.0 / 12.0)
                 for j in range(3)] for i in range(3)]
    cap_load = [rows[i] * cap_area * (1.0 / 3.0) for i in range(3)]

    if n_plus == 1:  # cap is the positive part
        area = 0.5 - cap_area
        mass = [[_FULL_MASS_REF[i][j] - cap_mass[i][j] for j in range(3)]
                for i in range(3)]
        load = [_FULL_LOAD_REF[i] - cap_load[i] for i in range(3)]
        return area, mass, load
    return cap_area, cap_mass, cap_load


def subdomain_area(mesh: Mesh, phi, det_j: np.ndarray | None = None):
    """Exact area of the negative region, generic in the scalar type."""
    if det_j is None:
        det_j = mesh.geometry.det_j
    neg_frac, _, _ = negative_region_integrals(mesh, phi)
    return (neg_frac * det_j).sum()


# ---------------------------------------------------------------------------
# Real-valued polygon clipping, used for symmetric differences and as an
# independent oracle for the rational cut formulas.
# ---------------------------------------------------------------------------

def _clip_negative(points, value_lists):
    """Sutherland-Hodgman clip of a convex polygon to the region where the
    first tracked linear function is <= 0; every tracked function is
    interpolated onto the new vertices."""
    fvals = value_lists[0]
    out_pts = []
    out_vals = [[] for _ in value_lists]
    n = len(points)
    for i in range(n):
        j = (i + 1) % n
        fi, fj = fvals[i], fvals[j]
        if fi <= 0.0:
            out_pts.append(points[i])
            for vals, tracked in zip(out_vals, value_lists):
                vals.append(tracked[i])
        if (fi <= 0.0 < fj) or (fj <= 0.0 < fi):
            t = fi / (fi - fj)
            out_pts.append(points[i] + t * (points[j] - points[i]))
            for vals, tracked in zip(out_vals, value_lists):
                vals.append(tracked[i] + t * (tracked[j] - tracked[i]))
    return out_pts, out_vals


def _polygon_area(points) -> float:
    if len(points) < 3:
        return 0.0
    pts = np.asarray(points)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def symmetric_difference_area(mesh: Mesh, phi_a, phi_b) -> float:
    """Exact area of the region where two nodal level-set functions have
    opposite sign."""
    phi_a = np.asarray(phi_a, dtype=float)
    phi_b = np.asarray(phi_b, dtype=float)
    tris = mesh.elements
    va, vb = phi_a[tris], phi_b[tris]
    neg_a, neg_b = va < 0.0, vb < 0.0
    mixed_a = neg_a.any(axis=1) & ~neg_a.all(axis=1)
    mixed_b = neg_b.any(axis=1) & ~neg_b.all(axis=1)
    candidates = np.flatnonzero((neg_a != neg_b).any(axis=1) | mixed_a | mixed_b)

    total = 0.0
    for l in candidates:
        if (va[l] == vb[l]).all():
            continue
        pts = [mesh.nodes[v] for v in tris[l]]
        a_vals = list(va[l])
        b_vals = list(vb[l])
        pts_a, track_a = _clip_negative(pts, [a_vals, b_vals])
        area_a = _polygon_area(pts_a)
        pts_b, _ = _clip_negative(pts, [b_vals])
        area_b = _polygon_area(pts_b)
        pts_ab, _ = _clip_negative(pts_a, [track_a[1]])
        area_ab = _polygon_area(pts_ab)
        total += area_a + area_b - 2.0 * area_ab
    return max(total, 0.0)


def interface_segments(mesh: Mesh, phi):
    """Zero-level segments of the interpolant, one per cut element.

    Returns a list of ``(element_index, (p0, p1))`` with endpoints on the
    element edges.  Degenerate (pointlike) intersections are skipped.
    """
    phi = np.asarray(real_part(phi), dtype=float)
    tris = mesh.elements
    plus = element_plus_mask(mesh, phi)
    n_plus = plus.sum(axis=1)
    segments = []
    for l in np.flatnonzero((n_plus == 1) | (n_plus == 2)):
        row = plus[l]
        lone = int(np.argmax(row)) if n_plus[l] == 1 else int(np.argmin(row))
        a, b, c = lone, (lone + 1) % 3, (lone + 2) % 3
        pa, pb, pc = phi[tris[l, a]], phi[tris[l, b]], phi[tris[l, c]]
        xa, xb, xc = mesh.nodes[tris[l, a]], mesh.nodes[tris[l, b]], mesh.nodes[tris[l, c]]
        tb = pa / (pa - pb)
        tc = pa / (pa - pc)
        p0 = xa + tb * (xb - xa)
        p1 = xa + tc * (xc - xa)
        if np.hypot(*(p1 - p0)) > 1e-15:
            segments.append((int(l), (p0, p1)))
    return segments
