"""Closed-form nodal sensitivities of the discretized tracking problem.

For every mesh node the cost's derivative with respect to a single-node
level-set perturbation is assembled from exact rational expressions: the
rate of change of the cut area per element, and the rates of change of the
cut mass/load integrals (6 independent matrix entries and 3 vector entries
per cut configuration).  Interior nodes of either material use the
second-order (topological) limit, interface nodes the first-order (shape)
limit; both are normalized by the rate of change of the symmetric
difference area, which makes the two cases directly comparable.

One kernel, :func:`_pair_rates`, evaluates these rates on (node, element)
pairs, with the element's values rotated so the perturbed node (the pivot)
comes first.  :func:`ts_derivative` (every pair of the mesh),
:func:`area_derivative` (the pairs of one node), :func:`cut_matrices` (one
element) and :func:`continuous_sd_discretized` are views of it.  The closed
forms are stated for the 'plus' configurations of families A and B.  A
'minus' configuration differs by an overall sign, and family C is family B
mirrored: B evaluated with the two non-pivot vertices swapped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import ProblemParams
from .levelset import Perturbation, classify_nodes
from .mesh import Mesh

__all__ = [
    "DegenerateDenominator",
    "AreaDerivative",
    "CutElementMatrices",
    "SensitivityField",
    "area_derivative",
    "volume_derivative",
    "cut_matrices",
    "ts_derivative",
    "generalized_derivative",
    "continuous_sd_discretized",
]


class DegenerateDenominator(ArithmeticError):
    """A sensitivity formula denominator vanished (zero neighbor value at an
    interior node, or zero symmetric-difference rate)."""


# ---------------------------------------------------------------------------
# Closed forms, 'plus' sign convention, pivot-first ordering.  p1, p2, p3 may
# be scalars or arrays.
# ---------------------------------------------------------------------------

def _area_rate_a(p1, p2, p3):
    return (p1 * (p1 * (p2 + p3) - 2.0 * p2 * p3)
            / (2.0 * (p1 - p2) ** 2 * (p1 - p3) ** 2))


def _area_rate_b(p1, p2, p3):
    return -p2 ** 2 / (2.0 * (p2 - p3) * (p2 - p1) ** 2)


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


def _load_rate_a(p1, p2, p3):
    d12, d13 = p1 - p2, p1 - p3
    f = np.empty(np.broadcast(p1, p2, p3).shape + (3,))
    f[..., 0] = -(p1 * (p1 ** 2 * p2 ** 2 + p1 ** 2 * p2 * p3 + p1 ** 2 * p3 ** 2
                        - 3.0 * p1 * p2 ** 2 * p3 - 3.0 * p1 * p2 * p3 ** 2
                        + 3.0 * p2 ** 2 * p3 ** 2)) \
        / (3.0 * d12 ** 3 * d13 ** 3)
    f[..., 1] = (p1 ** 2 * (2.0 * p1 * p2 + p1 * p3 - 3.0 * p2 * p3)) \
        / (6.0 * d12 ** 3 * d13 ** 2)
    f[..., 2] = (p1 ** 2 * (p1 * p2 + 2.0 * p1 * p3 - 3.0 * p2 * p3)) \
        / (6.0 * d12 ** 2 * d13 ** 3)
    return f


def _load_rate_b(p1, p2, p3):
    d12, d23 = p1 - p2, p2 - p3
    f = np.empty(np.broadcast(p1, p2, p3).shape + (3,))
    f[..., 0] = p2 ** 3 / (3.0 * d12 ** 3 * d23)
    f[..., 1] = -(p2 ** 2 * (2.0 * p1 * p2 - 3.0 * p1 * p3 + p2 * p3)) \
        / (6.0 * d12 ** 3 * d23 ** 2)
    f[..., 2] = -p2 ** 3 / (6.0 * d12 ** 2 * d23 ** 2)
    return f


def _mirror(m):
    m[..., 1, 0] = m[..., 0, 1]
    m[..., 2, 0] = m[..., 0, 2]
    m[..., 2, 1] = m[..., 1, 2]


# vertex order of family C in terms of family B's: non-pivot vertices swapped
_MIRROR = np.array([0, 2, 1])


def _pair_rates(p, det_j, label, bits):
    """Rates of change of the cut integrals on (node, element) pairs.

    ``p`` (n, 3) holds each element's level-set values with the pivot first,
    ``det_j`` (n,) the element determinants, ``label`` (n,) the pivot's node
    class and ``bits`` (n,) the pivot-first plus-bits of the element (the
    pivot is the highest bit).  Returns ``(dka, cut, dm, df)``: the signed
    area rate of every pair (``label det_j / (2 p2 p3)`` at interior
    pivots, the cut rate on cut elements of interface pivots, 0 on their
    uncut elements), the indices of the cut pairs, and the pivot-first mass
    (m, 3, 3) and load (m, 3) rates of the cut pairs.  Raises
    :class:`DegenerateDenominator` if a rate is not finite: a denominator
    vanished or underflowed.
    """
    inner = np.flatnonzero(label != 0)
    prod = p[inner, 1] * p[inner, 2]
    n_plus = (bits >> 2) + ((bits >> 1) & 1) + (bits & 1)
    cut = np.flatnonzero((label == 0) & (n_plus % 3 != 0))
    sign = np.where(n_plus[cut] == 1, 1.0, -1.0)
    # a 'minus' configuration has the complement of its 'plus' form's bits;
    # the lone bit of the 'plus' form is the family: 4 for A, 2 for B, 1 for C
    lone = np.where(sign > 0.0, bits[cut], 7 - bits[cut])
    fam_a, mirrored = lone == 4, lone == 1
    q1 = p[cut, 0]
    q2 = np.where(mirrored, p[cut, 2], p[cut, 1])
    q3 = np.where(mirrored, p[cut, 1], p[cut, 2])

    dka = np.zeros(len(p))
    scale = sign * det_j[cut]
    dm = np.empty((len(cut), 3, 3))
    df = np.empty((len(cut), 3))
    # a vanishing or underflowing denominator shows as inf or nan
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dka[inner] = label[inner] * det_j[inner] / (2.0 * prod)
        for rows, area_rate, mass_rate, load_rate in (
                (np.flatnonzero(fam_a),
                 _area_rate_a, _mass_rate_a, _load_rate_a),
                (np.flatnonzero(~fam_a),
                 _area_rate_b, _mass_rate_b, _load_rate_b)):
            args = q1[rows], q2[rows], q3[rows]
            dka[cut[rows]] = scale[rows] * area_rate(*args)
            dm[rows] = scale[rows, None, None] * mass_rate(*args)
            df[rows] = scale[rows, None] * load_rate(*args)
    if not (np.isfinite(dka).all() and np.isfinite(dm).all()
            and np.isfinite(df).all()):
        raise DegenerateDenominator(
            "zero neighbor value at an interior node or a vanishing "
            "denominator in a cut element")
    back = np.flatnonzero(mirrored)
    dm[back] = dm[np.ix_(back, _MIRROR, _MIRROR)]
    df[back] = df[np.ix_(back, _MIRROR)]
    return dka, cut, dm, df


def _mesh_pair_rates(mesh: Mesh, phi, labels, pairs):
    """:func:`_pair_rates` on (element, slot) pairs ``3 l + s`` of a mesh."""
    triples = mesh.pivot_first[pairs]
    p = phi[triples]
    return _pair_rates(p, mesh.geometry.det_j[pairs // 3],
                       labels[triples[:, 0]], _plus_bits(p))


def _plus_bits(p):
    """Pivot-first plus-bits of (n, 3) element values; zero counts as '+'."""
    plus = p >= 0.0
    return 4 * plus[:, 0] + 2 * plus[:, 1] + plus[:, 2]


def _node_pairs(mesh: Mesh, k: int) -> np.ndarray:
    """The (element, slot) pairs whose pivot is node ``k``, by element."""
    return np.flatnonzero(mesh.pivot_first[:, 0] == k)


def _interface_terms(params: ProblemParams, triples, pku, dka, dm, df,
                     u, p, w):
    """Per cut pair, the numerator term of the interface-node sensitivity."""
    u_r, p_r, w_r = u[triples], p[triples], w[triples]
    return (params.d_lambda * pku * dka
            + params.d_alpha * np.einsum("ei,eij,ej->e", p_r, dm, u_r)
            - params.d_f * np.einsum("ei,ei->e", p_r, df)
            + params.c2 * params.d_atilde
            * np.einsum("ei,eij,ej->e", w_r, dm, w_r))


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
    p = np.array([phi_rotated], dtype=float)
    _, cut, dm, df = _pair_rates(p, np.array([det_j], dtype=float),
                                 np.zeros(1, dtype=int), _plus_bits(p))
    if not len(cut):
        raise ValueError(f"values {tuple(phi_rotated)} do not cut the "
                         "element")
    return CutElementMatrices(dm=dm[0], df=df[0])


def volume_derivative(mesh: Mesh, phi) -> np.ndarray:
    """Sensitivity of the design area: exactly -1 on interface and interior
    negative nodes, +1 on interior positive nodes."""
    labels = classify_nodes(mesh, phi)
    return np.where(labels == 1, 1.0, -1.0)


def area_derivative(mesh: Mesh, phi, k: int,
                    labels: np.ndarray | None = None) -> AreaDerivative:
    """Per-element rates of change of the cut area for node ``k``;
    ``labels`` are the node classes of ``phi``."""
    if labels is None:
        labels = classify_nodes(mesh, phi)
    label = int(labels[k])
    pairs = _node_pairs(mesh, k)
    dka, cut, _, _ = _mesh_pair_rates(mesh, np.asarray(phi, dtype=float),
                                      labels, pairs)
    keep = cut if label == 0 else slice(None)
    values = dka[keep]
    # summed one element after another, as ts_derivative sums, so that
    # total_abs equals the field's dkatilde bit for bit
    return AreaDerivative(node=k, order=Perturbation.for_label(label).order,
                          elements=pairs[keep] // 3, values=values,
                          total=float(sum(values, 0.0)),
                          total_abs=float(sum(np.abs(values), 0.0)))


def ts_derivative(mesh: Mesh, phi, u, p, params: ProblemParams,
                  labels: np.ndarray | None = None) -> SensitivityField:
    """Nodal sensitivity field of the tracking cost at the solved state.

    ``u`` and ``p`` must be the state and adjoint for the same ``phi``.
    """
    if params.uhat is None:
        raise ValueError("params.uhat is not set")
    phi = np.asarray(phi, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    if labels is None:
        labels = classify_nodes(mesh, phi)
    num_nodes = mesh.num_nodes
    node = mesh.pivot_first[:, 0]
    dka, cut, dm, df = _mesh_pair_rates(mesh, phi, labels,
                                        np.arange(len(node)))
    magnitude = np.abs(dka)
    dkatilde = np.bincount(node, magnitude, minlength=num_nodes)
    if np.any(dkatilde == 0.0):
        raise DegenerateDenominator("zero symmetric-difference rate at a node")
    pku = np.repeat(_element_pku(mesh, u, p), 3)
    w = u - params.uhat

    # interior nodes: the |dka|-weighted mean of p^T K0 u over the ring
    ratio = np.bincount(node, magnitude * pku, minlength=num_nodes) / dkatilde
    topological = labels * (params.c1 + params.d_lambda * ratio
                            + params.d_alpha * p * u
                            - params.d_f * p
                            + params.c2 * params.d_atilde * w ** 2)
    # interface nodes: the cut-element terms over the symmetric-difference rate
    terms = _interface_terms(params, mesh.pivot_first[cut], pku[cut],
                             dka[cut], dm, df, u, p, w)
    shape = -params.c1 + np.bincount(node[cut], terms,
                                     minlength=num_nodes) / dkatilde
    dj = np.where(labels == 0, shape, topological)
    g = generalized_derivative(dj, labels)
    return SensitivityField(dj=dj, labels=labels, g=g,
                            dkatilde=dkatilde)


def generalized_derivative(dj: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Descent field: zero wherever local optimality already holds.

    Interior negative nodes: ``-min(dj, 0)``; interior positive nodes:
    ``min(dj, 0)``; interface nodes: ``-dj``.
    """
    g = np.where(labels == 0, -dj, 0.0)
    neg = np.minimum(dj, 0.0)
    g = np.where(labels == -1, -neg, g)
    g = np.where(labels == 1, neg, g)
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
    if labels[k] != 0:
        raise ValueError("defined for interface nodes only")
    phi = np.asarray(phi, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    pairs = _node_pairs(mesh, k)
    dka, cut, dm, df = _mesh_pair_rates(mesh, phi, labels, pairs)
    dka, pairs = dka[cut], pairs[cut]
    elements = pairs // 3
    terms = _interface_terms(params, mesh.pivot_first[pairs],
                             _element_pku(mesh, u, p, elements), dka, dm, df,
                             u, p, u - params.uhat)
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
