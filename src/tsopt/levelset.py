"""Level-set geometry on a fixed triangle mesh.

A design domain is the region where a piecewise-linear nodal function is
negative.  This module labels nodes by the signs on their one-ring, applies
the single-node perturbation operators, and cuts the elements along the
zero level.  All cut quantities are rational in the nodal values, so every
function here accepts real, complex or hyper-dual input.

A cut element has one vertex whose sign differs from the other two, the
lone vertex.  One pass, :func:`_lone_cuts`, picks it, rotates it first (as
:attr:`Mesh.pivot_first` does) and finds where the zero level crosses the
two edges from it; the exact integrals over the negative part, the
interface segments and the symmetric differences are all views of it.  A
symmetric difference needs nested level sets: ``phi_b - phi_a`` has one
sign at every node, as after every single-node perturbation.

Sign conventions: a value of exactly zero counts as '+' in the cuts, the
limit of an infinitesimally positive perturbation; a node whose whole
one-ring is zero is classified interior negative (checked first).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .hdarray import (GenericScalar, HyperDualArray, generic_zeros,
                      promote_like, real_part, scalar_sign, sign_array)
from .mesh import _ROTATIONS, Mesh

__all__ = [
    "DegenerateCut",
    "Perturbation",
    "classify_nodes",
    "perturb",
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

# slot of the lone vertex for each plus-bit pattern 4 p0 + 2 p1 + p2 of an
# element; -1 where all three signs agree and the element is not cut
_LONE = np.array([-1, 2, 1, 0, 0, 1, 2, -1])


class DegenerateCut(ArithmeticError):
    """A cut ratio degenerated to 0/0 (coincident level-set values across a
    sign change)."""


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


def classify_nodes(mesh: Mesh, phi) -> np.ndarray:
    """Label every node by the signs of its one-ring values: (M,) int8,
    -1 where the whole ring is <= 0 (interior of the design domain), +1
    where it is >= 0, 0 where it holds both signs (interface node)."""
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
    return labels


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


def _checked_ratio(num, den):
    """num / den, raising DegenerateCut on an exactly-zero denominator."""
    if np.any((den.re if isinstance(den, HyperDualArray) else den) == 0):
        raise DegenerateCut("cut ratio with vanishing level-set difference")
    return num / den


def _lone_cuts(p):
    """The lone-vertex pass over ``(n, 3)`` element values.

    Returns ``(plus, cut, abc, tb, tc)``: the plus-mask of every vertex, the
    rows of the cut elements, their vertex slots with the lone vertex first
    ((m, 3), counter-clockwise), and the fractions of the edges ``ab`` and
    ``ac`` at which the zero level crosses them.
    """
    plus = sign_array(p) >= 0
    lone = _LONE[4 * plus[:, 0] + 2 * plus[:, 1] + plus[:, 2]]
    cut = np.flatnonzero(lone >= 0)
    abc = _ROTATIONS[lone[cut]]
    pa, pb, pc = (p[cut, abc[:, i]] for i in range(3))
    return (plus, cut, abc, _checked_ratio(pa, pa - pb),
            _checked_ratio(pa, pa - pc))


def _cut_integrals(p):
    """:func:`negative_region_integrals` of ``(n, 3)`` element values."""
    plus, cut, abc, tb, tc = _lone_cuts(p)
    cap_area = tb * tc * 0.5

    # P1 basis values at the cap corners (vertex a and the two edge cuts)
    rows = np.arange(len(cut))
    a, b, c = abc.T
    vals = generic_zeros((len(cut), 3, 3), like=p)
    vals[rows, a, 0] = 1.0
    vals[rows, a, 1] = 1.0 - tb
    vals[rows, a, 2] = 1.0 - tc
    vals[rows, b, 1] = tb
    vals[rows, c, 2] = tc
    pair = (vals[:, :, None, :] * vals[:, None, :, :]).sum(axis=-1)
    sums = vals.sum(axis=-1)
    cap_mass = (pair + sums[:, :, None] * sums[:, None, :]) \
        * (cap_area * (1.0 / 12.0))[:, None, None]
    cap_load = sums * (cap_area * (1.0 / 3.0))[:, None]

    n = len(plus)
    neg_frac = generic_zeros(n, like=p)
    neg_mass = generic_zeros((n, 3, 3), like=p)
    neg_load = generic_zeros((n, 3), like=p)
    full = np.flatnonzero(~plus.any(axis=1))
    neg_frac[full] = 0.5
    neg_mass[full] = _FULL_MASS_REF
    neg_load[full] = _FULL_LOAD_REF
    # a '+' lone vertex cuts off a positive cap, a '-' one a negative cap
    pos = plus[cut, a]
    neg_frac[cut[pos]] = 0.5 - cap_area[pos]
    neg_mass[cut[pos]] = _FULL_MASS_REF - cap_mass[pos]
    neg_load[cut[pos]] = _FULL_LOAD_REF - cap_load[pos]
    neg_frac[cut[~pos]] = cap_area[~pos]
    neg_mass[cut[~pos]] = cap_mass[~pos]
    neg_load[cut[~pos]] = cap_load[~pos]
    return neg_frac, neg_mass, neg_load


def negative_region_integrals(mesh: Mesh, phi):
    """Exact reference-element integrals over the negative region.

    Returns ``(neg_frac, neg_mass, neg_load)`` of shapes (N,), (N,3,3),
    (N,3): the area fraction, the P1 mass integrals and the P1 load
    integrals of each element's negative part, all in reference coordinates
    (multiply by ``|det J|`` for physical values).  Generic in the scalar
    type of ``phi``.
    """
    return _cut_integrals(phi[mesh.elements])


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


def symmetric_difference_area(mesh: Mesh, phi_a, phi_b) -> float:
    """Exact area of the region where two nested level sets have opposite
    signs.

    The pair must be nested: ``phi_b - phi_a`` has one sign at every node,
    as for every single-node perturbation.  One negative region then holds
    the other, and the area is the difference of the two, summed over the
    elements whose values changed.  Raises ``ValueError`` on a pair that is
    not nested.
    """
    phi_a = np.asarray(phi_a, dtype=float)
    phi_b = np.asarray(phi_b, dtype=float)
    step = phi_b - phi_a
    if (step > 0.0).any() and (step < 0.0).any():
        raise ValueError("the two level sets are not nested")
    tris = mesh.elements
    changed = np.flatnonzero((step[tris] != 0.0).any(axis=1))
    frac_a = _cut_integrals(phi_a[tris[changed]])[0]
    frac_b = _cut_integrals(phi_b[tris[changed]])[0]
    return float(abs(((frac_a - frac_b)
                      * mesh.geometry.det_j[changed]).sum()))


def interface_segments(mesh: Mesh, phi):
    """Zero-level segments of the interpolant, one per cut element.

    Returns a list of ``(element_index, (p0, p1))`` with endpoints on the
    element edges.  Degenerate (pointlike) intersections are skipped.
    """
    phi = np.asarray(real_part(phi), dtype=float)
    tris = mesh.elements
    _, cut, abc, tb, tc = _lone_cuts(phi[tris])
    xa, xb, xc = (mesh.nodes[tris[cut, abc[:, i]]] for i in range(3))
    p0 = xa + tb[:, None] * (xb - xa)
    p1 = xa + tc[:, None] * (xc - xa)
    keep = np.flatnonzero(np.hypot(*(p1 - p0).T) > 1e-15)
    return [(int(cut[i]), (p0[i], p1[i])) for i in keep]
