"""Closed-form nodal sensitivities of the discretized tracking problem.

For every mesh node the cost's derivative with respect to a single-node
level-set perturbation is assembled from exact rational expressions: the
rate of change of the cut area per element, and the rates of change of the
cut mass/load integrals (6 independent matrix entries and 3 vector entries
per cut configuration).  Interior nodes of either material use the
second-order (topological) limit, interface nodes the first-order (shape)
limit; both are normalized by the rate of change of the symmetric
difference area, which makes the two cases directly comparable.

All closed forms below are stated for the 'plus' configurations; the
'minus' variants differ by an overall sign.  Expressions are written for
element values rotated so the perturbed node comes first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fem import ProblemParams
from .levelset import (CutTag, ElementCut, NodeClassification, Perturbation,
                       classify_nodes, element_plus_mask, interface_segments)
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


def _area_rate_c(p1, p2, p3):
    return -p3 ** 2 / (2.0 * (p3 - p2) * (p3 - p1) ** 2)


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


def _mass_rate_c(p1, p2, p3):
    d13, d23 = p1 - p3, p2 - p3
    m = np.empty(np.broadcast(p1, p2, p3).shape + (3, 3))
    m[..., 0, 0] = p3 ** 4 / (4.0 * d13 ** 4 * d23)
    m[..., 0, 1] = p3 ** 4 / (12.0 * d13 ** 3 * d23 ** 2)
    m[..., 0, 2] = (p3 ** 3 * (3.0 * p1 * p3 - 4.0 * p1 * p2 + p2 * p3)) \
        / (12.0 * d13 ** 4 * d23 ** 2)
    m[..., 1, 1] = p3 ** 4 / (12.0 * d13 ** 2 * d23 ** 3)
    m[..., 1, 2] = (p3 ** 3 * (p1 * p3 - 2.0 * p1 * p2 + p2 * p3)) \
        / (12.0 * d13 ** 3 * d23 ** 3)
    m[..., 2, 2] = (p3 ** 2 * (6.0 * p1 ** 2 * p2 ** 2 - 8.0 * p1 ** 2 * p2 * p3
                               + 3.0 * p1 ** 2 * p3 ** 2
                               - 4.0 * p1 * p2 ** 2 * p3
                               + 2.0 * p1 * p2 * p3 ** 2
                               + p2 ** 2 * p3 ** 2)) \
        / (12.0 * d13 ** 4 * d23 ** 3)
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


def _load_rate_c(p1, p2, p3):
    d13, d23 = p1 - p3, p2 - p3
    f = np.empty(np.broadcast(p1, p2, p3).shape + (3,))
    f[..., 0] = -p3 ** 3 / (3.0 * d13 ** 3 * d23)
    f[..., 1] = -p3 ** 3 / (6.0 * d13 ** 2 * d23 ** 2)
    f[..., 2] = -(p3 ** 2 * (2.0 * p1 * p3 - 3.0 * p1 * p2 + p2 * p3)) \
        / (6.0 * d13 ** 3 * d23 ** 2)
    return f


def _mirror(m):
    m[..., 1, 0] = m[..., 0, 1]
    m[..., 2, 0] = m[..., 0, 2]
    m[..., 2, 1] = m[..., 1, 2]


_FAMILY = {
    CutTag.A_PLUS: (_area_rate_a, _mass_rate_a, _load_rate_a, 1.0),
    CutTag.A_MINUS: (_area_rate_a, _mass_rate_a, _load_rate_a, -1.0),
    CutTag.B_PLUS: (_area_rate_b, _mass_rate_b, _load_rate_b, 1.0),
    CutTag.B_MINUS: (_area_rate_b, _mass_rate_b, _load_rate_b, -1.0),
    CutTag.C_PLUS: (_area_rate_c, _mass_rate_c, _load_rate_c, 1.0),
    CutTag.C_MINUS: (_area_rate_c, _mass_rate_c, _load_rate_c, -1.0),
}

# rotated plus-pattern bits -> (tag, sign); pivot bit is the highest
_CUT_BY_BITS = {
    0b100: (CutTag.A_PLUS, 1.0),
    0b011: (CutTag.A_MINUS, -1.0),
    0b010: (CutTag.B_PLUS, 1.0),
    0b101: (CutTag.B_MINUS, -1.0),
    0b001: (CutTag.C_PLUS, 1.0),
    0b110: (CutTag.C_MINUS, -1.0),
}

_RATE_BY_FAMILY = (
    (_area_rate_a, _mass_rate_a, _load_rate_a),
    (_area_rate_b, _mass_rate_b, _load_rate_b),
    (_area_rate_c, _mass_rate_c, _load_rate_c),
)


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
    """Nodal sensitivity, node classes, descent field and area rates."""

    dj: np.ndarray
    classification: NodeClassification
    g: np.ndarray
    dka: np.ndarray
    dkatilde: np.ndarray
    empty_cut: np.ndarray      # diagnostic: interface nodes with no cut element

    @property
    def labels(self) -> np.ndarray:
        return self.classification.labels


def cut_matrices(cut: ElementCut | CutTag, phi_rotated, det_j: float) -> CutElementMatrices:
    """Mass/load rate matrices for one cut element.

    ``phi_rotated`` are the element's level-set values with the perturbed
    node first.  Raises :class:`DegenerateDenominator` if a required
    difference vanishes.
    """
    tag = cut.tag if isinstance(cut, ElementCut) else cut
    if tag not in _FAMILY:
        raise ValueError(f"element is not cut: {tag}")
    _, mass_rate, load_rate, sign = _FAMILY[tag]
    p1, p2, p3 = (float(v) for v in phi_rotated)
    _check_denominators(tag, p1, p2, p3)
    dm = sign * det_j * mass_rate(p1, p2, p3)
    df = sign * det_j * load_rate(p1, p2, p3)
    return CutElementMatrices(dm=dm, df=df)


def _check_denominators(tag: CutTag, p1, p2, p3) -> None:
    if tag in (CutTag.A_PLUS, CutTag.A_MINUS):
        bad = (p1 - p2) == 0.0 or (p1 - p3) == 0.0
    elif tag in (CutTag.B_PLUS, CutTag.B_MINUS):
        bad = (p1 - p2) == 0.0 or (p2 - p3) == 0.0
    else:
        bad = (p1 - p3) == 0.0 or (p2 - p3) == 0.0
    if bad:
        raise DegenerateDenominator(f"coincident level-set values in {tag}")


def _rotated(phi, tris, det_j, pairs_elem, pairs_loc):
    """Pivot-first value triples and detJ for (node, element) pairs."""
    idx2 = (pairs_loc + 1) % 3
    idx3 = (pairs_loc + 2) % 3
    rows = np.arange(len(pairs_elem))
    tsel = tris[pairs_elem]
    p1 = phi[tsel[rows, pairs_loc]]
    p2 = phi[tsel[rows, idx2]]
    p3 = phi[tsel[rows, idx3]]
    return p1, p2, p3, det_j[pairs_elem]


def volume_derivative(mesh: Mesh, phi) -> np.ndarray:
    """Sensitivity of the design area: exactly -1 on interface and interior
    negative nodes, +1 on interior positive nodes."""
    labels = classify_nodes(mesh, phi).labels
    return np.where(labels == 1, 1.0, -1.0)


def area_derivative(mesh: Mesh, phi, k: int,
                    classification: NodeClassification | None = None) -> AreaDerivative:
    """Per-element rates of change of the cut area for node ``k``."""
    if classification is None:
        classification = classify_nodes(mesh, phi)
    label = int(classification.labels[k])
    phi = np.asarray(phi, dtype=float)
    tris = mesh.elements
    det_j = mesh.geometry.det_j
    elems = mesh.node_to_elements[k]
    order = Perturbation.for_label(label).order

    if label != 0:
        values = np.empty(len(elems))
        for i, l in enumerate(elems):
            loc = int(np.flatnonzero(tris[l] == k)[0])
            p2 = phi[tris[l][(loc + 1) % 3]]
            p3 = phi[tris[l][(loc + 2) % 3]]
            if p2 == 0.0 or p3 == 0.0:
                raise DegenerateDenominator(
                    "zero neighbor value at an interior node")
            values[i] = det_j[l] / (2.0 * p2 * p3)
        if label == -1:
            values = -values
        return AreaDerivative(node=k, order=order, elements=np.asarray(elems),
                              values=values, total=float(values.sum()),
                              total_abs=float(np.abs(values).sum()))

    plus = element_plus_mask(mesh, phi)
    cut_elems, values = [], []
    for l in elems:
        row = plus[l]
        if row.all() or not row.any():
            continue
        loc = int(np.flatnonzero(tris[l] == k)[0])
        bits = (int(row[loc]) << 2) | (int(row[(loc + 1) % 3]) << 1) \
            | int(row[(loc + 2) % 3])
        tag, sign = _CUT_BY_BITS[bits]
        p1 = phi[k]
        p2 = phi[tris[l][(loc + 1) % 3]]
        p3 = phi[tris[l][(loc + 2) % 3]]
        _check_denominators(tag, p1, p2, p3)
        area_rate = _FAMILY[tag][0]
        cut_elems.append(l)
        values.append(sign * det_j[l] * area_rate(p1, p2, p3))
    values = np.asarray(values)
    return AreaDerivative(node=k, order=order,
                          elements=np.asarray(cut_elems, dtype=int),
                          values=values, total=float(values.sum()),
                          total_abs=float(np.abs(values).sum()))


def ts_derivative(mesh: Mesh, phi, u, p, params: ProblemParams,
                  classification: NodeClassification | None = None) -> SensitivityField:
    """Nodal sensitivity field of the tracking cost at the solved state.

    ``u`` and ``p`` must be the state and adjoint for the same ``phi``.
    """
    if params.uhat is None:
        raise ValueError("params.uhat is not set")
    phi = np.asarray(phi, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    if classification is None:
        classification = classify_nodes(mesh, phi)
    labels = classification.labels
    num_nodes = mesh.num_nodes
    tris = mesh.elements
    geo = mesh.geometry
    det_j = geo.det_j

    # all (node, element, local-slot) incidence triples
    n_elems = len(tris)
    pairs_elem = np.repeat(np.arange(n_elems), 3)
    pairs_loc = np.tile(np.arange(3), n_elems)
    pairs_node = tris.reshape(-1)

    pku = np.einsum("ei,eij,ej->e", p[tris], geo.k0, u[tris])
    w = u - params.uhat

    dj = np.zeros(num_nodes)
    dka = np.zeros(num_nodes)
    dkatilde = np.zeros(num_nodes)
    empty_cut = np.zeros(num_nodes, dtype=bool)

    # ---- interior (topological) nodes --------------------------------------
    t_mask = labels[pairs_node] != 0
    if t_mask.any():
        pe, pl, pn = pairs_elem[t_mask], pairs_loc[t_mask], pairs_node[t_mask]
        p1, p2, p3, djp = _rotated(phi, tris, det_j, pe, pl)
        prod = p2 * p3
        if np.any(prod == 0.0):
            raise DegenerateDenominator("zero neighbor value at an interior node")
        weight = djp / prod
        num = np.zeros(num_nodes)
        den = np.zeros(num_nodes)
        np.add.at(num, pn, weight * pku[pe])
        np.add.at(den, pn, weight)
        t_nodes = np.flatnonzero(labels != 0)
        if np.any(den[t_nodes] == 0.0):
            raise DegenerateDenominator("vanishing weight sum at an interior node")
        ratio = num[t_nodes] / den[t_nodes]
        sgn = labels[t_nodes].astype(float)  # -1 for negative side, +1 for positive
        uk, pk, wk = u[t_nodes], p[t_nodes], w[t_nodes]
        dj[t_nodes] = sgn * (params.c1 + params.d_lambda * ratio
                             + params.d_alpha * pk * uk
                             - params.d_f * pk
                             + params.c2 * params.d_atilde * wk ** 2)
        half = djp / (2.0 * prod)
        np.add.at(dkatilde, pn, half)
        dka[t_nodes] = labels[t_nodes] * dkatilde[t_nodes]

    # ---- interface (shape) nodes --------------------------------------------
    plus = element_plus_mask(mesh, phi)
    elem_mixed = plus.any(axis=1) & ~plus.all(axis=1)
    s_mask = (labels[pairs_node] == 0) & elem_mixed[pairs_elem]
    if s_mask.any():
        pe, pl, pn = pairs_elem[s_mask], pairs_loc[s_mask], pairs_node[s_mask]
        p1, p2, p3, djp = _rotated(phi, tris, det_j, pe, pl)
        rows = np.arange(len(pe))
        idx2, idx3 = (pl + 1) % 3, (pl + 2) % 3
        tsel = tris[pe]
        bits = ((plus[pe, pl].astype(int) << 2)
                | (plus[pe, idx2].astype(int) << 1)
                | plus[pe, idx3].astype(int))

        dka_pair = np.zeros(len(pe))
        num2 = np.zeros(len(pe))  # p . dm . u
        num3 = np.zeros(len(pe))  # p . df
        num4 = np.zeros(len(pe))  # w . dm . w
        u_rot = np.stack([u[tsel[rows, pl]], u[tsel[rows, idx2]],
                          u[tsel[rows, idx3]]], axis=1)
        p_rot = np.stack([p[tsel[rows, pl]], p[tsel[rows, idx2]],
                          p[tsel[rows, idx3]]], axis=1)
        w_rot = np.stack([w[tsel[rows, pl]], w[tsel[rows, idx2]],
                          w[tsel[rows, idx3]]], axis=1)

        for family, (bplus, bminus) in enumerate(((0b100, 0b011),
                                                  (0b010, 0b101),
                                                  (0b001, 0b110))):
            sel = np.flatnonzero((bits == bplus) | (bits == bminus))
            if not len(sel):
                continue
            sign = np.where(bits[sel] == bplus, 1.0, -1.0)
            a1, a2, a3 = p1[sel], p2[sel], p3[sel]
            _check_denominator_arrays(family, a1, a2, a3)
            area_rate, mass_rate, load_rate = _RATE_BY_FAMILY[family]
            dka_pair[sel] = sign * djp[sel] * area_rate(a1, a2, a3)
            dm = sign[:, None, None] * djp[sel, None, None] * mass_rate(a1, a2, a3)
            dfv = sign[:, None] * djp[sel, None] * load_rate(a1, a2, a3)
            num2[sel] = np.einsum("ei,eij,ej->e", p_rot[sel], dm, u_rot[sel])
            num3[sel] = np.einsum("ei,ei->e", p_rot[sel], dfv)
            num4[sel] = np.einsum("ei,eij,ej->e", w_rot[sel], dm, w_rot[sel])

        numerator = (params.d_lambda * pku[pe] * dka_pair
                     + params.d_alpha * num2
                     - params.d_f * num3
                     + params.c2 * params.d_atilde * num4)
        num_sum = np.zeros(num_nodes)
        np.add.at(num_sum, pn, numerator)
        np.add.at(dka, pn, dka_pair)
        np.add.at(dkatilde, pn, np.abs(dka_pair))

        s_nodes = np.flatnonzero(labels == 0)
        has_cut = np.zeros(num_nodes, dtype=bool)
        has_cut[pn] = True
        empty_cut[s_nodes] = ~has_cut[s_nodes]
        active = s_nodes[has_cut[s_nodes]]
        if np.any(dkatilde[active] == 0.0):
            raise DegenerateDenominator(
                "zero symmetric-difference rate at an interface node")
        dj[active] = -params.c1 + num_sum[active] / dkatilde[active]
    else:
        empty_cut[labels == 0] = True

    g = generalized_derivative(dj, labels)
    return SensitivityField(dj=dj, classification=classification, g=g,
                            dka=dka, dkatilde=dkatilde, empty_cut=empty_cut)


def _check_denominator_arrays(family: int, p1, p2, p3) -> None:
    if family == 0:
        bad = ((p1 - p2) == 0.0) | ((p1 - p3) == 0.0)
    elif family == 1:
        bad = ((p1 - p2) == 0.0) | ((p2 - p3) == 0.0)
    else:
        bad = ((p1 - p3) == 0.0) | ((p2 - p3) == 0.0)
    if np.any(bad):
        raise DegenerateDenominator("coincident level-set values in a cut element")


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
                              classification: NodeClassification | None = None) -> float:
    """Interface-node sensitivity obtained by discretizing the classical
    boundary-form shape derivative.

    Differs from the direct discrete sensitivity by a normal-flux term that
    the non-interface-fitted discretization cannot see.
    """
    if classification is None:
        classification = classify_nodes(mesh, phi)
    if classification.labels[k] != 0:
        raise ValueError("defined for interface nodes only")
    phi = np.asarray(phi, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    w = u - params.uhat
    tris = mesh.elements
    geo = mesh.geometry
    plus = element_plus_mask(mesh, phi)
    normals = {l: _outward_normal(mesh, phi, geo, l, seg)
               for l, seg in interface_segments(mesh, phi)}

    num = 0.0
    dkatilde = 0.0
    for l in mesh.node_to_elements[k]:
        row = plus[l]
        if row.all() or not row.any():
            continue
        loc = int(np.flatnonzero(tris[l] == k)[0])
        order = [loc, (loc + 1) % 3, (loc + 2) % 3]
        bits = (int(row[order[0]]) << 2) | (int(row[order[1]]) << 1) \
            | int(row[order[2]])
        tag, sign = _CUT_BY_BITS[bits]
        p1, p2, p3 = (phi[tris[l][o]] for o in order)
        _check_denominators(tag, p1, p2, p3)
        area_rate = _FAMILY[tag][0]
        dka_l = sign * geo.det_j[l] * area_rate(p1, p2, p3)
        mats = cut_matrices(tag, (p1, p2, p3), geo.det_j[l])
        u_rot = u[tris[l]][order]
        p_rot = p[tris[l]][order]
        w_rot = w[tris[l]][order]
        pku = p[tris[l]] @ geo.k0[l] @ u[tris[l]]
        term = (params.d_lambda * pku * dka_l
                + params.d_alpha * p_rot @ mats.dm @ u_rot
                - params.d_f * p_rot @ mats.df
                + params.c2 * params.d_atilde * w_rot @ mats.dm @ w_rot)
        if dka_l != 0.0:
            n = normals[l]
            gu = u[tris[l]] @ geo.grads[l]
            gp = p[tris[l]] @ geo.grads[l]
            term -= 2.0 * params.d_lambda * (gu @ n) * (gp @ n) * dka_l
        num += term
        dkatilde += abs(dka_l)
    if dkatilde == 0.0:
        raise DegenerateDenominator(
            "zero symmetric-difference rate at an interface node")
    return -params.c1 + num / dkatilde


def _outward_normal(mesh: Mesh, phi, geo, l: int, segment) -> np.ndarray:
    """Unit normal of the interface segment in element ``l``, pointing out of
    the negative region."""
    p0, p1 = segment
    direction = p1 - p0
    n = np.array([-direction[1], direction[0]])
    n /= np.hypot(*n)
    grad_phi = phi[mesh.elements[l]] @ geo.grads[l]
    if grad_phi @ n < 0.0:
        n = -n
    return n
