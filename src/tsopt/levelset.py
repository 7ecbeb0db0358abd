"""Level-set geometry on a fixed triangle mesh.

A design domain is the region where a piecewise-linear nodal function is
negative.  This module labels nodes by the signs on their one-ring, applies
the single-node perturbation operators, and cuts the elements along the
zero level.  All cut quantities are rational in the nodal values, so every
function here accepts real, complex or hyper-dual input.

A cut element has one vertex whose sign differs from the other two, the
lone vertex.  One pass, :func:`_lone_cuts`, takes the signs of the nodes
once, picks each cut element's lone vertex from its plus-bit pattern,
rotates it first, keeping the CCW order, and finds where the zero level
crosses the two edges from it; the exact integrals over the negative part,
the interface segments and the symmetric differences are all views of it,
and the closed-form sensitivity rates of :mod:`tsopt.sensitivity` read
each cut element's configuration from it.  The integrals
(:func:`negative_region_integrals`) are a closed form over the cut
elements only; every other element is whole on one side.
A symmetric difference needs nested level sets: ``phi_b - phi_a`` has one
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
from .mesh import Mesh

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

# row s: the vertex slots rotated so slot s comes first, in CCW order
_ROTATIONS = (np.arange(3)[:, None] + np.arange(3)) % 3

# the reference integrals of a full element (mass flattened, load, area),
# and for each row of them the row it comes from once lone vertex slot s
# (the column) is rotated first
_FULL_REF = np.concatenate([_FULL_MASS_REF.reshape(-1), _FULL_LOAD_REF, [0.5]])
_ROTATED = _ROTATIONS[-np.arange(3) % 3]
_FROM_LONE_FIRST = np.vstack([
    (3 * _ROTATED[:, :, None] + _ROTATED[:, None, :]).reshape(3, 9).T,
    9 + _ROTATED.T, np.full((1, 3), 12)])

# the factor pairs (of 1-tb, 1-tc, tb, tc) of the lone-first corner
# products, and where the last six land in the flattened (3, 3) block
_LEFT = np.array([0, 1, 0, 1, 2, 2, 3, 3])
_RIGHT = np.array([0, 1, 2, 3, 0, 2, 1, 3])
_PAIR_ENTRIES = np.array([1, 2, 3, 4, 6, 8])

# slot of the lone vertex for each plus-bit pattern 4 p0 + 2 p1 + p2 of an
# element; -1 where all three signs agree and the element is not cut
_LONE = np.array([-1, 2, 1, 0, 0, 1, 2, -1])
_BIT_WEIGHTS = np.array([4, 2, 1], dtype=np.uint8)


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
    where it is >= 0, 0 where it holds both signs (interface node).

    The ring counts of positive and negative values are two products of
    the mesh's one-ring adjacency matrix."""
    s = sign_array(phi)
    if len(s) != mesh.num_nodes:
        raise ValueError("level-set length does not match node count")
    has_plus = mesh.ring_matrix @ (s > 0).astype(float) > 0.0
    has_minus = mesh.ring_matrix @ (s < 0).astype(float) > 0.0
    labels = np.zeros(mesh.num_nodes, dtype=np.int8)
    labels[~has_plus] = T_MINUS
    labels[has_plus & ~has_minus] = T_PLUS
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


def _lone_cuts(phi, tris):
    """The lone-vertex pass over the elements ``tris`` ((n, 3) node ids) of
    the nodal values ``phi``.

    Returns ``(plus, bits, cut, lone, abc, t)``: the plus-mask of every
    node, the plus-bit pattern ``4 p0 + 2 p1 + p2`` of every element, the
    rows of the cut elements, the slot of their lone vertex, their node ids
    with the lone vertex first ((3, m), counter-clockwise), and the
    fractions ``t = [tb, tc]`` (2, m) of the edges ``ab`` and ``ac`` at
    which the zero level crosses them.
    """
    plus = sign_array(phi) >= 0
    bits = plus[tris].view(np.uint8) @ _BIT_WEIGHTS
    lone = _LONE[bits]
    cut = np.flatnonzero(lone >= 0)
    lone = lone[cut]
    abc = tris[cut[:, None], _ROTATIONS[lone]].T
    pa = phi[abc[0]]
    return plus, bits, cut, lone, abc, _checked_ratio(pa, pa - phi[abc[1:]])


def _cap_integrals(t, lone, pos):
    """Integrals over the negative part of cut elements from their edge
    fractions ``t`` and lone vertex slots (see :func:`_lone_cuts`) and
    whether the lone vertex is '+': the area fraction (m,), the P1 mass
    (3, 3, m) and the P1 load (3, m), in reference coordinates and slot
    order, with the element axis last."""
    tb, tc = t[0], t[1]
    cap_area = tb * tc * 0.5

    # With the lone vertex a first, the P1 basis values at the cap corners
    # (a and the cuts of ab and ac) are the rows [1, 1-tb, 1-tc], [0, tb, 0]
    # and [0, 0, tc].  Their pair products and row sums are written out as
    # the sums over the three corners, left to right from +0, give them in
    # every scalar type: a product or sum with an exact 0 or 1 changes no
    # bit, except that a sum from +0 turns a -0 part into +0, as adding 0.0
    # does.
    m = len(lone)
    factors = generic_zeros((4, m), like=t)          # 1-tb, 1-tc, tb, tc
    factors[:2] = 1.0 - t
    factors[2:] = t
    prod = factors[_LEFT] * factors[_RIGHT]
    pair = generic_zeros((9, m), like=t)
    pair[0] = (1.0 + prod[0]) + prod[1]
    pair[_PAIR_ENTRIES] = prod[2:]
    sums = generic_zeros((3, m), like=t)
    sums[0] = (1.0 + factors[0]) + factors[1]
    sums[1:] = t
    sums = sums + 0.0

    # rows: the cap's mass (9, flattened), load (3) and area (1); a '+'
    # lone vertex cuts off a positive cap, whose complement is the negative
    # part, a '-' one a negative cap
    caps = generic_zeros((13, m), like=t)
    caps[:9] = ((pair + 0.0) + (sums[:, None] * sums[None, :]).reshape(9, m)) \
        * (cap_area * (1.0 / 12.0))
    caps[9:12] = sums * (cap_area * (1.0 / 3.0))
    caps[12] = cap_area
    caps[:, pos] = _FULL_REF[:, None] - caps[:, pos]
    # back to slot order; the full-element integrals read the same in
    # every vertex order
    caps = caps.reshape(-1)[_FROM_LONE_FIRST[:, lone] * m + np.arange(m)]
    return caps[12], caps[:9].reshape(3, 3, m), caps[9:12]


def negative_region_integrals(mesh: Mesh, phi):
    """Exact reference-element integrals over the negative region, from one
    sign pass over the nodes; only the cut elements are integrated.

    Returns ``(full, cut, frac, mass, load)``: the (N,) mask of the fully
    negative elements, the ids of the cut elements, and for those the area
    fraction (m,), the P1 mass integrals (3, 3, m) and the P1 load
    integrals (3, m) of their negative parts, element axis last, all in
    reference coordinates (multiply by ``|det J|`` for physical values) and
    generic in the scalar type of ``phi``.  Every other element is fully
    positive.
    """
    plus, bits, cut, lone, abc, t = _lone_cuts(phi, mesh.elements)
    return (bits == 0, cut) + _cap_integrals(t, lone, plus[abc[0]])


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


def subdomain_area(mesh: Mesh, phi):
    """Exact area of the negative region, generic in the scalar type."""
    full, cut, frac, _, _ = negative_region_integrals(mesh, phi)
    neg_frac = generic_zeros(mesh.num_elements, like=phi)
    neg_frac[full] = 0.5
    neg_frac[cut] = frac
    return (neg_frac * mesh.geometry.det_j).sum()


def _split_fractions(phi, tris):
    """Negative area fractions of the elements ``tris`` of real nodal
    values as ``base + cap``: ``base`` is 0.5 where the element is fully
    negative or cut with a '+' lone vertex, 0 elsewhere, and ``cap`` is the
    signed cap area (-cap for a '+' lone vertex, +cap for a '-' one, 0 if
    uncut)."""
    plus, bits, cut, _, abc, t = _lone_cuts(phi, tris)
    cap_area = t[0] * t[1] * 0.5
    pos = plus[abc[0]]
    base = np.where(bits == 0, 0.5, 0.0)
    base[cut[pos]] = 0.5
    cap = np.zeros(len(tris))
    cap[cut] = np.where(pos, -cap_area, cap_area)
    return base, cap


def symmetric_difference_area(mesh: Mesh, phi_a, phi_b) -> float:
    """Exact area of the region where two nested level sets have opposite
    signs.

    The pair must be nested: ``phi_b - phi_a`` has one sign at every node,
    as for every single-node perturbation.  One negative region then holds
    the other, and the area is the difference of the two, summed over the
    elements whose values changed.  Each element's difference is taken
    between its halves and its caps separately, so a small cap change is
    not lost to the rounding of ``0.5 - cap``.  Raises ``ValueError`` on a
    pair that is not nested.
    """
    phi_a = np.asarray(phi_a, dtype=float)
    phi_b = np.asarray(phi_b, dtype=float)
    step = phi_b - phi_a
    if (step > 0.0).any() and (step < 0.0).any():
        raise ValueError("the two level sets are not nested")
    changed = np.flatnonzero((step[mesh.elements] != 0.0).any(axis=1))
    base_a, cap_a = _split_fractions(phi_a, mesh.elements[changed])
    base_b, cap_b = _split_fractions(phi_b, mesh.elements[changed])
    return float(abs((((base_a - base_b) + (cap_a - cap_b))
                      * mesh.geometry.det_j[changed]).sum()))


def interface_segments(mesh: Mesh, phi):
    """Zero-level segments of the interpolant, one per cut element.

    Returns a list of ``(element_index, (p0, p1))`` with endpoints on the
    element edges.  Degenerate (pointlike) intersections are skipped.
    """
    phi = np.asarray(real_part(phi), dtype=float)
    _, _, cut, _, abc, t = _lone_cuts(phi, mesh.elements)
    xa, xb, xc = mesh.nodes[abc]
    p0 = xa + t[0][:, None] * (xb - xa)
    p1 = xa + t[1][:, None] * (xc - xa)
    keep = np.flatnonzero(np.hypot(*(p1 - p0).T) > 1e-15)
    return [(int(cut[i]), (p0[i], p1[i])) for i in keep]
