"""Level-set geometry on a fixed triangle mesh.

A design domain is the region where a piecewise-linear nodal function is
negative.  This module labels nodes by the signs on their one-ring
(``T_MINUS``, ``SHAPE`` or ``T_PLUS``), applies the single-node
perturbation that a node's label picks, and cuts the elements along the
zero level.  All cut quantities are rational in the nodal values, so the
classification and the integrals accept real, complex or hyper-dual input.
:func:`perturb` takes a real design and returns it in the scalar type of
its step; the symmetric differences and the interface segments take real
values.  Each of the three raises ``ValueError`` on a complex design.

A cut element has one vertex whose sign differs from the other two, the
lone vertex.  One pass, :func:`_lone_cuts`, takes the signs of the nodes
once, picks each cut element's lone vertex from its plus-bit pattern,
rotates it first, keeping the CCW order, and finds where the zero level
crosses the two edges from it.  Every cut quantity is a view of that one
pass: the exact integrals over the negative part and the area, the
interface segments, the symmetric differences, and the configuration each
closed-form sensitivity rate of :mod:`tsopt.sensitivity` reads.  The
integrals (:func:`negative_region_integrals`, the one implementation of
the cut integrals) are a closed form over the cut elements only; every
other element is whole on one side.
A symmetric difference needs nested level sets: ``phi_b - phi_a`` has one
sign at every node, as after every single-node perturbation.

Sign conventions: a value of exactly zero counts as '+' in the cuts, the
limit of an infinitesimally positive perturbation; a node whose whole
one-ring is zero is classified interior negative (checked first).
"""

from __future__ import annotations

import numpy as np

from .hdarray import GenericScalar, HyperDualArray, promote_like, sign_array
from .mesh import Mesh

__all__ = [
    "DegenerateCut",
    "T_MINUS",
    "SHAPE",
    "T_PLUS",
    "classify_nodes",
    "perturb",
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


def _real_design(phi) -> np.ndarray:
    """``phi`` as a float array; a design is real, so a complex one raises
    ``ValueError`` rather than losing its imaginary part."""
    if np.iscomplexobj(phi):
        raise ValueError("a design must be real, got complex values")
    return np.asarray(phi, dtype=float)


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


def perturb(phi, k: int, eps: GenericScalar, label: int):
    """New nodal vector with the value at node ``k`` of the real design
    ``phi`` perturbed by ``eps``, in the scalar type of ``eps``.

    The node's class ``label`` (see :func:`classify_nodes`) picks the
    perturbation: an interface node (``SHAPE``) is shifted by ``eps``, a
    negative interior node (``T_MINUS``) is set to ``eps`` and a positive
    one (``T_PLUS``) to ``-eps``.  Raises ``ValueError`` if ``k`` is not a
    node of ``phi`` or ``label`` is not a class."""
    phi = _real_design(phi)
    if not 0 <= k < len(phi):
        raise ValueError(f"node {k} is not in [0, {len(phi)})")
    if label not in (T_MINUS, SHAPE, T_PLUS):
        raise ValueError(f"unknown node class {label!r}")
    out = promote_like(phi.copy(), eps)
    if label == SHAPE:
        out[k] = out[k] + eps
    else:
        out[k] = eps if label == T_MINUS else -eps
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
    factors = promote_like(np.zeros((4, m)), t)      # 1-tb, 1-tc, tb, tc
    factors[:2] = 1.0 - t
    factors[2:] = t
    prod = factors[_LEFT] * factors[_RIGHT]
    pair = promote_like(np.zeros((9, m)), t)
    pair[0] = (1.0 + prod[0]) + prod[1]
    pair[_PAIR_ENTRIES] = prod[2:]
    sums = promote_like(np.zeros((3, m)), t)
    sums[0] = (1.0 + factors[0]) + factors[1]
    sums[1:] = t
    sums = sums + 0.0

    # rows: the cap's mass (9, flattened), load (3) and area (1); a '+'
    # lone vertex cuts off a positive cap, whose complement is the negative
    # part, a '-' one a negative cap
    caps = promote_like(np.zeros((13, m)), t)
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


def _split_fractions(phi, tris):
    """Negative area fractions of the elements ``tris`` of the nodal
    values ``phi`` as ``base + cap``, generic in the scalar type: ``base``
    (real) is 0.5 where the element is fully negative or cut with a '+'
    lone vertex, 0 elsewhere, and ``cap`` is the signed cap area (-cap for
    a '+' lone vertex, +cap for a '-' one, 0 if uncut)."""
    plus, bits, cut, _, abc, t = _lone_cuts(phi, tris)
    pos = plus[abc[0]]
    base = np.where(bits == 0, 0.5, 0.0)
    base[cut[pos]] = 0.5
    cap = promote_like(np.zeros(len(tris)), t)
    cap[cut] = t[0] * t[1] * (0.5 * np.where(pos, -1, 1))
    return base, cap


def subdomain_area(mesh: Mesh, phi):
    """Exact area of the negative region, generic in the scalar type."""
    base, cap = _split_fractions(phi, mesh.elements)
    return ((base + cap) * mesh.geometry.det_j).sum()


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
    phi_a = _real_design(phi_a)
    phi_b = _real_design(phi_b)
    step = phi_b - phi_a
    if (step > 0.0).any() and (step < 0.0).any():
        raise ValueError("the two level sets are not nested")
    changed = np.flatnonzero((step[mesh.elements] != 0.0).any(axis=1))
    base_a, cap_a = _split_fractions(phi_a, mesh.elements[changed])
    base_b, cap_b = _split_fractions(phi_b, mesh.elements[changed])
    return float(abs((((base_a - base_b) + (cap_a - cap_b))
                      * mesh.geometry.det_j[changed]).sum()))


def interface_segments(mesh: Mesh, phi):
    """Zero-level segments of the interpolant of the real nodal values
    ``phi``, one per cut element.

    Returns a list of ``(element_index, (p0, p1))`` with endpoints on the
    element edges.  Degenerate (pointlike) intersections are skipped.
    """
    phi = _real_design(phi)
    _, _, cut, _, abc, t = _lone_cuts(phi, mesh.elements)
    xa, xb, xc = mesh.nodes[abc]
    p0 = xa + t[0][:, None] * (xb - xa)
    p1 = xa + t[1][:, None] * (xc - xa)
    keep = np.flatnonzero(np.hypot(*(p1 - p0).T) > 1e-15)
    return [(int(cut[i]), (p0[i], p1[i])) for i in keep]
