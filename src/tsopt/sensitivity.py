"""Closed-form nodal sensitivities of the discretized tracking problem.

For every mesh node the cost's derivative with respect to a single-node
level-set perturbation is assembled from exact rational expressions.
Interior nodes of either material use the second-order (topological)
limit, with one area rate per element of the ring.  Interface nodes use
the first-order (shape) limit, with the rates of change of the cut P1 mass
integrals (6 independent entries per cut configuration).  The P1 basis
sums to one on every element, so the cut area is the total of the cut mass
integrals and each cut load integral a row sum of them; the area and load
rates are therefore the total and the row sums of the mass rates.  Both
limits are normalized by the rate of change of the symmetric difference
area, which makes the two cases directly comparable.

One kernel, :func:`_pair_rates`, evaluates these rates on (element, slot)
pairs, whose vertex (the pivot) is the perturbed node.  It reads each cut
element's lone vertex ``a`` and the CCW order ``(a, b, c)`` from the
lone-vertex pass of :mod:`tsopt.levelset`.  The closed forms are stated for
the 'plus' configurations, a '+' lone vertex, of families A and B: a pivot
at ``a`` is family A on ``(a, b, c)``, at ``c`` family B on ``(c, a, b)``,
and at ``b`` family C, which is B on ``(b, a, c)``.  A 'minus'
configuration differs by an overall sign.  :func:`ts_derivative` (every
pair of the mesh), :func:`area_derivative` (the pairs of one node),
:func:`cut_matrices` (one element) and :func:`continuous_sd_discretized`
are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import ProblemParams, _tracking_residual
from .levelset import (SHAPE, T_MINUS, T_PLUS, _ROTATIONS, _lone_cuts,
                       classify_nodes)
from .mesh import Mesh

__all__ = [
    "DegenerateDenominator",
    "AreaDerivative",
    "CutElementMatrices",
    "SensitivityField",
    "area_derivative",
    "cut_matrices",
    "ts_derivative",
    "generalized_derivative",
    "continuous_sd_discretized",
]


class DegenerateDenominator(ArithmeticError):
    """A sensitivity formula denominator vanished (zero neighbor value at an
    interior node, or zero symmetric-difference rate)."""


# ---------------------------------------------------------------------------
# Mass-rate closed forms, 'plus' sign convention, pivot first.  p1, p2, p3
# may be scalars or arrays.
# ---------------------------------------------------------------------------

def _mass_rate_a(p1, p2, p3):
    d12, d13 = p1 - p2, p1 - p3
    m = np.empty(np.broadcast(p1, p2, p3).shape + (3, 3))
    m[..., 0, 0] = (p1 ** 4 * (p2 ** 3 + p2 ** 2 * p3 + p2 * p3 ** 2 + p3 ** 3)
                    - 4.0 * p1 * p2 ** 3 * p3 ** 3
                    + 6.0 * p1 ** 2 * p2 ** 2 * p3 ** 2 * (p2 + p3)
                    - 4.0 * p1 ** 3 * p2 * p3 * (p2 ** 2 + p2 * p3 + p3 ** 2)) \
        / (4.0 * d12 ** 4 * d13 ** 4)
    m[..., 0, 1] = -(p1 ** 2 * (3.0 * p1 ** 2 * p2 ** 2 + 2.0 * p1 ** 2 * p2 * p3
                                + p1 ** 2 * p3 ** 2 - 8.0 * p1 * p2 ** 2 * p3
                                - 4.0 * p1 * p2 * p3 ** 2
                                + 6.0 * p2 ** 2 * p3 ** 2)) \
        / (12.0 * d12 ** 4 * d13 ** 3)
    m[..., 0, 2] = -(p1 ** 2 * (p1 ** 2 * p2 ** 2 + 2.0 * p1 ** 2 * p2 * p3
                                + 3.0 * p1 ** 2 * p3 ** 2
                                - 4.0 * p1 * p2 ** 2 * p3
                                - 8.0 * p1 * p2 * p3 ** 2
                                + 6.0 * p2 ** 2 * p3 ** 2)) \
        / (12.0 * d12 ** 3 * d13 ** 4)
    m[..., 1, 1] = (p1 ** 3 * (3.0 * p1 * p2 + p1 * p3 - 4.0 * p2 * p3)) \
        / (12.0 * d12 ** 4 * d13 ** 2)
    m[..., 1, 2] = (p1 ** 3 * (p1 * p2 + p1 * p3 - 2.0 * p2 * p3)) \
        / (12.0 * d12 ** 3 * d13 ** 3)
    m[..., 2, 2] = (p1 ** 3 * (p1 * p2 + 3.0 * p1 * p3 - 4.0 * p2 * p3)) \
        / (12.0 * d12 ** 2 * d13 ** 4)
    _mirror(m)
    return m


def _mass_rate_b(p1, p2, p3):
    d12, d23 = p1 - p2, p2 - p3
    m = np.empty(np.broadcast(p1, p2, p3).shape + (3, 3))
    m[..., 0, 0] = -p2 ** 4 / (4.0 * d12 ** 4 * d23)
    m[..., 0, 1] = (p2 ** 3 * (3.0 * p1 * p2 - 4.0 * p1 * p3 + p2 * p3)) \
        / (12.0 * d12 ** 4 * d23 ** 2)
    m[..., 0, 2] = p2 ** 4 / (12.0 * d12 ** 3 * d23 ** 2)
    m[..., 1, 1] = -(p2 ** 2 * (3.0 * p1 ** 2 * p2 ** 2 - 8.0 * p1 ** 2 * p2 * p3
                                + 6.0 * p1 ** 2 * p3 ** 2
                                + 2.0 * p1 * p2 ** 2 * p3
                                - 4.0 * p1 * p2 * p3 ** 2
                                + p2 ** 2 * p3 ** 2)) \
        / (12.0 * d12 ** 4 * d23 ** 3)
    m[..., 1, 2] = -(p2 ** 3 * (p1 * p2 - 2.0 * p1 * p3 + p2 * p3)) \
        / (12.0 * d12 ** 3 * d23 ** 3)
    m[..., 2, 2] = -p2 ** 4 / (12.0 * d12 ** 2 * d23 ** 3)
    _mirror(m)
    return m


def _mirror(m):
    m[..., 1, 0] = m[..., 0, 1]
    m[..., 2, 0] = m[..., 0, 2]
    m[..., 2, 1] = m[..., 1, 2]


# rows of the lone-first (a, b, c) in the closed-form vertex order of each
# role: A on (a, b, c), C = B on (b, a, c), B on (c, a, b)
_ROLE_ORDER = np.array([[0, 1, 2], [1, 0, 2], [2, 0, 1]])


def _pair_rates(phi, tris, det_j, labels, node=None):
    """Rates of change of the cut area and mass integrals on the (element,
    slot) pairs ``3 l + s`` of the elements ``tris`` ((n, 3) node ids),
    whose slot-``s`` vertex (the pivot) is the perturbed node; with
    ``node`` given, on the pairs whose pivot is that node only.

    ``det_j`` (n,) holds the element determinants, ``labels`` the node
    classes.  Returns ``(dka, cut, q, dm)``: the signed area rate of every
    pair (3n,) (``label det_j / (2 p2 p3)`` at interior pivots, with
    ``p2 p3`` the product of the other two values; the total of the mass
    rates on cut elements of interface pivots; 0 on their uncut elements
    and on pairs not evaluated), the ascending ids of the cut pairs, their
    node ids in closed-form vertex order (m, 3) and their mass rates
    (m, 3, 3) in that order.  Raises :class:`DegenerateDenominator` if a
    rate is not finite: a denominator vanished or underflowed.
    """
    pivot = tris.reshape(-1)
    label = labels[pivot]
    own = np.ones(len(pivot), dtype=bool) if node is None else pivot == node
    inner = np.flatnonzero(own & (label != SHAPE))
    values = phi[tris]
    prod = (values[:, _ROTATIONS[:, 1]]
            * values[:, _ROTATIONS[:, 2]]).reshape(-1)[inner]
    # the interface pivots of cut elements, in pair order; slot s of an
    # element with lone slot ``lone`` holds its vertex a, b or c for role
    # (s - lone) % 3 = 0, 1 or 2
    plus, _, cut, lone, abc, _ = _lone_cuts(phi, tris)
    rows, slots = np.nonzero(((label == SHAPE) & own).reshape(-1, 3)[cut])
    role = (slots - lone[rows]) % 3
    q = abc[_ROLE_ORDER[role], rows[:, None]]
    p1, p2, p3 = phi[q].T
    scale = np.where(plus[abc[0, rows]], 1.0, -1.0) * det_j[cut[rows]]
    pairs = 3 * cut[rows] + slots

    dka = np.zeros(len(pivot))
    dm = np.empty((len(q), 3, 3))
    # a vanishing or underflowing denominator shows as inf or nan
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dka[inner] = label[inner] * det_j[inner // 3] / (2.0 * prod)
        for fam, mass_rate in ((role == 0, _mass_rate_a),
                               (role != 0, _mass_rate_b)):
            r = np.flatnonzero(fam)
            dm[r] = scale[r, None, None] * mass_rate(p1[r], p2[r], p3[r])
        dka[pairs] = dm.sum(axis=(1, 2))
    if not np.isfinite(dka).all():
        raise DegenerateDenominator(
            "zero neighbor value at an interior node or a vanishing "
            "denominator in a cut element")
    return dka, pairs, q, dm


def _node_rates(mesh: Mesh, phi, labels, k: int):
    """:func:`_pair_rates` of node ``k``'s pairs, on the elements around
    it; returns those elements first."""
    ring = np.flatnonzero((mesh.elements == k).any(axis=1))
    return (ring,) + _pair_rates(phi, mesh.elements[ring],
                                 mesh.geometry.det_j[ring], labels, k)


def _interface_terms(params: ProblemParams, q, pku, dka, dm, u, p, w):
    """Per cut pair, the numerator term of the interface-node sensitivity
    from the pair's node ids ``q`` and mass rates ``dm`` (see
    :func:`_pair_rates`); the load rate is the row sum ``dm 1``."""
    w_q = w[q]
    return (params.d_lambda * pku * dka
            + np.einsum("ei,eij,ej->e", p[q], dm,
                        params.d_alpha * u[q] - params.d_f)
            + params.c2 * params.d_atilde
            * np.einsum("ei,eij,ej->e", w_q, dm, w_q))


def _element_pku(mesh: Mesh, u, p, elements=slice(None)):
    """Stiffness pairing ``p^T K0 u`` of the given elements."""
    tris = mesh.elements[elements]
    return np.einsum("ei,eij,ej->e", p[tris], mesh.geometry.k0[elements],
                     u[tris])


@dataclass(frozen=True)
class AreaDerivative:
    """Per-element and summed rates of change of the cut area at one node."""

    node: int
    order: int                 # 1 for interface nodes, 2 for interior nodes
    elements: np.ndarray       # cut elements adjacent to the node
    values: np.ndarray         # signed rate per element
    total: float               # signed sum
    total_abs: float           # symmetric-difference rate (sum of magnitudes)


@dataclass(frozen=True)
class CutElementMatrices:
    """Rates of change of the cut mass/load integrals of one element."""

    dm: np.ndarray   # (3, 3), symmetric, includes |det J|
    df: np.ndarray   # (3,), includes |det J|


@dataclass(frozen=True)
class SensitivityField:
    """Nodal sensitivity, node classes, descent field and the
    symmetric-difference area rate that normalizes it."""

    dj: np.ndarray
    labels: np.ndarray     # node classes, see classify_nodes
    g: np.ndarray
    dkatilde: np.ndarray


def cut_matrices(phi_rotated, det_j: float) -> CutElementMatrices:
    """Mass/load rate matrices for one cut element.

    ``phi_rotated`` are the element's level-set values with the perturbed
    node first; their signs give the configuration.  Raises ``ValueError``
    if the values do not cut the element and
    :class:`DegenerateDenominator` if a rate is not finite.
    """
    _, cut, q, dm = _pair_rates(np.array(phi_rotated, dtype=float),
                                np.arange(3)[None], np.array([float(det_j)]),
                                np.full(3, SHAPE), 0)
    if not len(cut):
        raise ValueError(f"values {tuple(phi_rotated)} do not cut the "
                         "element")
    order = np.argsort(q[0])
    dm = dm[0][np.ix_(order, order)]
    return CutElementMatrices(dm=dm, df=dm.sum(axis=1))


def area_derivative(mesh: Mesh, phi, k: int,
                    labels: np.ndarray | None = None) -> AreaDerivative:
    """Per-element rates of change of the cut area for node ``k``;
    ``labels`` are the node classes of ``phi``."""
    if labels is None:
        labels = classify_nodes(mesh, phi)
    label = int(labels[k])
    ring, dka, cut, _, _ = _node_rates(mesh, np.asarray(phi, dtype=float),
                                       labels, k)
    keep = cut if label == SHAPE else np.flatnonzero(mesh.elements[ring] == k)
    values = dka[keep]
    # summed one element after another, as ts_derivative sums, so that
    # total_abs equals the field's dkatilde bit for bit
    return AreaDerivative(node=k, order=1 if label == SHAPE else 2,
                          elements=ring[keep // 3], values=values,
                          total=float(sum(values, 0.0)),
                          total_abs=float(sum(np.abs(values), 0.0)))


def ts_derivative(mesh: Mesh, phi, u, p, params: ProblemParams,
                  labels: np.ndarray | None = None) -> SensitivityField:
    """Nodal sensitivity field of the tracking cost at the solved state.

    ``u`` and ``p`` must be the state and adjoint for the same ``phi``.
    """
    phi = np.asarray(phi, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    w = _tracking_residual(u, params)
    if labels is None:
        labels = classify_nodes(mesh, phi)
    num_nodes = mesh.num_nodes
    node = mesh.elements.reshape(-1)
    dka, cut, q, dm = _pair_rates(phi, mesh.elements, mesh.geometry.det_j,
                                  labels)
    magnitude = np.abs(dka)
    dkatilde = np.bincount(node, magnitude, minlength=num_nodes)
    if np.any(dkatilde == 0.0):
        raise DegenerateDenominator("zero symmetric-difference rate at a node")
    pku = np.repeat(_element_pku(mesh, u, p), 3)

    # interior nodes: the |dka|-weighted mean of p^T K0 u over the ring
    ratio = np.bincount(node, magnitude * pku, minlength=num_nodes) / dkatilde
    topological = labels * (params.c1 + params.d_lambda * ratio
                            + params.d_alpha * p * u
                            - params.d_f * p
                            + params.c2 * params.d_atilde * w ** 2)
    # interface nodes: the cut-element terms over the symmetric-difference rate
    terms = _interface_terms(params, q, pku[cut], dka[cut], dm, u, p, w)
    shape = -params.c1 + np.bincount(node[cut], terms,
                                     minlength=num_nodes) / dkatilde
    dj = np.where(labels == SHAPE, shape, topological)
    g = generalized_derivative(dj, labels)
    return SensitivityField(dj=dj, labels=labels, g=g,
                            dkatilde=dkatilde)


def generalized_derivative(dj: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Descent field: zero wherever local optimality already holds.

    Interior negative nodes: ``-min(dj, 0)``; interior positive nodes:
    ``min(dj, 0)``; interface nodes: ``-dj``.
    """
    g = np.where(labels == SHAPE, -dj, 0.0)
    neg = np.minimum(dj, 0.0)
    g = np.where(labels == T_MINUS, -neg, g)
    g = np.where(labels == T_PLUS, neg, g)
    return g


def continuous_sd_discretized(mesh: Mesh, phi, u, p, params: ProblemParams,
                              k: int,
                              labels: np.ndarray | None = None) -> float:
    """Interface-node sensitivity obtained by discretizing the classical
    boundary-form shape derivative.

    Differs from the direct discrete sensitivity by a normal-flux term that
    the non-interface-fitted discretization cannot see.
    """
    if labels is None:
        labels = classify_nodes(mesh, phi)
    if labels[k] != SHAPE:
        raise ValueError("defined for interface nodes only")
    phi = np.asarray(phi, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    ring, dka, cut, q, dm = _node_rates(mesh, phi, labels, k)
    dka, elements = dka[cut], ring[cut // 3]
    terms = _interface_terms(params, q, _element_pku(mesh, u, p, elements),
                             dka, dm, u, p, _tracking_residual(u, params))
    # normal flux: the unit normal of the zero-level segment that points out
    # of the negative region is grad phi / |grad phi| on the element
    tris = mesh.elements[elements]
    grads = mesh.geometry.grads[elements]
    normal = np.einsum("ei,eid->ed", phi[tris], grads)
    normal /= np.hypot(normal[:, 0], normal[:, 1])[:, None]
    flux_u = np.einsum("ei,eid,ed->e", u[tris], grads, normal)
    flux_p = np.einsum("ei,eid,ed->e", p[tris], grads, normal)
    terms -= 2.0 * params.d_lambda * flux_u * flux_p * dka
    dkatilde = np.abs(dka).sum()
    if dkatilde == 0.0:
        raise DegenerateDenominator(
            "zero symmetric-difference rate at an interface node")
    return -params.c1 + terms.sum() / dkatilde
