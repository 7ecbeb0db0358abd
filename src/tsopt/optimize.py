"""Level-set descent driven by the nodal sensitivity field.

Each iteration rotates the normalized level-set vector toward the
normalized descent field by spherical linear interpolation (which preserves
the L2 norm), smooths the interior values by one-ring averaging,
renormalizes, and accepts the step if the cost decreased.  The rotation
fraction walks a halving ladder (Amstutz and Andrä, J. Comput. Phys. 216,
2006): from ``KAPPA_INIT`` it is multiplied by ``KAPPA_SHRINK`` down to
``KAPPA_MIN``, and the walk stops ``PATIENCE`` candidates after the running
best stops improving once a decrease exists.  An angle below ``THETA_TOL``
leaves nothing to rotate.  The norms and the angle of the rotation are
fixed within an iteration (:func:`slerp_frame`); each candidate fraction is
one :func:`slerp_update` of them.  No distinction between shape and
topological updates is needed: the descent field already encodes both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .fem import AssembledSystem, ProblemParams, evaluate_cost, solve_adjoint
from .levelset import (SHAPE, T_MINUS, T_PLUS, _FULL_MASS_REF, _real_design,
                       classify_nodes)
from .mesh import Mesh
from .sensitivity import SensitivityField, ts_derivative

__all__ = [
    "DegenerateAngle",
    "OptimizerConfig",
    "History",
    "unit_mass_matrix",
    "l2_inner",
    "l2_norm",
    "slerp_frame",
    "slerp_update",
    "smooth",
    "run",
]

KAPPA_INIT = 1.0
KAPPA_MIN = 1e-9
KAPPA_SHRINK = 0.5
PATIENCE = 2
THETA_TOL = 1e-8


class DegenerateAngle(ArithmeticError):
    """Level set and descent field are (anti-)parallel in L2."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Loop settings: the iteration budget and the snapshot cadence."""

    max_iter: int = 800
    snapshot_cadence: int = 100    # 0 disables snapshots

    def __post_init__(self):
        for name in ("max_iter", "snapshot_cadence"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer")
            if value < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class History:
    """Per-iteration record of the optimization run.

    Row 0 describes the initial design (kappa and theta are zero there).
    ``slerp_norm_dev`` tracks how far the pre-smoothing update drifted from
    norm preservation; ``stalled`` flags iterations whose line search found
    no decrease (the design is then kept unchanged and the run ends there,
    so only the last row can be stalled); ``n_evals`` counts the cost
    evaluations of each row: 1 for the initial design, then the line
    search's candidates (the accepted one is not evaluated again).
    ``tsopt optimize`` writes the rows to ``history.csv``.
    """

    iteration: list = field(default_factory=list)
    j: list = field(default_factory=list)
    norm_g: list = field(default_factory=list)
    kappa: list = field(default_factory=list)
    theta: list = field(default_factory=list)
    n_tminus: list = field(default_factory=list)
    n_tplus: list = field(default_factory=list)
    n_shape: list = field(default_factory=list)
    slerp_norm_dev: list = field(default_factory=list)
    stalled: list = field(default_factory=list)
    n_evals: list = field(default_factory=list)

    def append(self, iteration, j, norm_g, kappa, theta, labels,
               norm_dev=0.0, stalled=False, n_evals=1) -> None:
        """Record one row; ``labels`` are the node classes of the design
        and ``n_evals`` the number of cost evaluations it took."""
        self.iteration.append(iteration)
        self.j.append(j)
        self.norm_g.append(norm_g)
        self.kappa.append(kappa)
        self.theta.append(theta)
        self.n_tminus.append(int((labels == T_MINUS).sum()))
        self.n_tplus.append(int((labels == T_PLUS).sum()))
        self.n_shape.append(int((labels == SHAPE).sum()))
        self.slerp_norm_dev.append(norm_dev)
        self.stalled.append(stalled)
        self.n_evals.append(n_evals)


def unit_mass_matrix(mesh: Mesh) -> sp.csr_matrix:
    """P1 mass matrix with unit coefficient over the whole domain, by
    scipy's COO-to-CSR conversion of the element matrices."""
    m, tris = mesh.num_nodes, mesh.elements
    vals = (_FULL_MASS_REF * mesh.geometry.det_j[:, None, None]).ravel()
    return sp.csr_matrix((vals, (np.repeat(tris, 3, axis=1).ravel(),
                                 np.tile(tris, 3).ravel())), shape=(m, m))


def l2_inner(m0: sp.csr_matrix, phi: np.ndarray, psi: np.ndarray) -> float:
    """L2 inner product over the domain, with the :func:`unit_mass_matrix`
    ``m0``."""
    return float(phi @ (m0 @ psi))


def l2_norm(m0: sp.csr_matrix, phi: np.ndarray) -> float:
    return math.sqrt(max(float(phi @ (m0 @ phi)), 0.0))


def slerp_frame(phi: np.ndarray, g: np.ndarray, m0: sp.csr_matrix):
    """The quantities of a slerp that do not depend on the rotation
    fraction: ``(norm_phi, g_unit, theta)``, the L2 norm of ``phi``, the
    normalized field and the L2 angle between the two.  Unless they are
    aligned (``theta < THETA_TOL``, which leaves nothing to rotate),
    anti-alignment leaves no rotation plane and raises
    :class:`DegenerateAngle`."""
    norm_phi = l2_norm(m0, phi)
    norm_g = l2_norm(m0, g)
    if norm_phi == 0.0 or norm_g == 0.0:
        raise DegenerateAngle("zero-norm argument")
    g_unit = g / norm_g
    cos_theta = l2_inner(m0, phi / norm_phi, g_unit)
    theta = math.acos(min(1.0, max(-1.0, cos_theta)))
    if theta > math.pi - THETA_TOL:
        raise DegenerateAngle("level set anti-parallel to the descent field")
    return norm_phi, g_unit, theta


def slerp_update(phi: np.ndarray, g_unit: np.ndarray, theta: float,
                 kappa: float) -> np.ndarray:
    """Rotate ``phi`` toward the normalized field ``g_unit`` by the fraction
    ``kappa`` of their L2 angle ``theta`` (both from :func:`slerp_frame`,
    with ``theta`` not below its tolerance); the L2 norm of ``phi`` is
    kept."""
    return (math.sin((1.0 - kappa) * theta) * phi
            + math.sin(kappa * theta) * g_unit) / math.sin(theta)


def smooth(mesh: Mesh, psi: np.ndarray) -> np.ndarray:
    """One-ring average on interior nodes of ``psi``'s own sign partition;
    interface nodes are left untouched.

    The ring sums are one product with the mesh's one-ring adjacency
    (:attr:`~tsopt.mesh.Mesh.ring_matrix`): each ring is summed left to
    right from +0.0, in the ring's sorted node order."""
    interior = classify_nodes(mesh, psi) != SHAPE
    ring = mesh.ring_matrix
    return np.where(interior, (ring @ psi) / np.diff(ring.indptr), psi)


@dataclass
class _Evaluation:
    j: float
    u: np.ndarray
    p: np.ndarray
    field: SensitivityField
    norm_g: float


@dataclass
class _Candidate:
    """A line-search candidate with its solved state, kept so the accepted
    one need not be assembled and factored again."""

    j: float
    phi: np.ndarray
    kappa: float
    theta: float
    norm_dev: float          # set once a candidate is returned
    system: AssembledSystem
    u: np.ndarray


def _evaluate(mesh, params, m0, phi, j, system, u) -> _Evaluation:
    """Adjoint and sensitivity of the design ``phi`` whose cost ``j``,
    system and state (:func:`~tsopt.fem.evaluate_cost`) are given."""
    p = solve_adjoint(system, u, params)
    fld = ts_derivative(mesh, phi, u, p, params)
    return _Evaluation(j=float(j), u=u, p=p, field=fld,
                       norm_g=l2_norm(m0, fld.g))


def _line_search(mesh, params, m0, phi, ev) -> tuple[_Candidate | None, int]:
    """Walk the rotation fraction down the halving ladder.

    Returns ``(best, n_evals)``: the best improving candidate, or None if
    no candidate decreases the cost, and the number of candidates whose
    cost was evaluated.  A candidate whose evaluation raises an
    :class:`ArithmeticError` is counted and rejected like a worse one; if
    every candidate raised, the last failure is raised again.  The slerp's
    norms and angle are computed once, and the norm deviation only for the
    returned candidate."""
    norm_phi, g_unit, theta = slerp_frame(phi, ev.field.g, m0)
    if theta < THETA_TOL:
        return None, 0  # aligned with the descent field: no rotation possible
    kappa = KAPPA_INIT
    best = failure = None
    since_best = n_evals = 0
    while kappa >= KAPPA_MIN:
        psi = slerp_update(phi, g_unit, theta, kappa)
        psi_hat = smooth(mesh, psi)
        candidate = psi_hat / l2_norm(m0, psi_hat)
        n_evals += 1
        since_best += 1
        try:
            j_cand, system, u = evaluate_cost(mesh, candidate, params)
        except ArithmeticError as exc:
            failure = exc
        else:
            j_cand = float(j_cand)
            if best is None or j_cand < best.j:
                best = _Candidate(j_cand, candidate, kappa, theta, 0.0,
                                  system, u)
                best_psi, since_best = psi, 0
        if best is not None and best.j < ev.j and since_best >= PATIENCE:
            break
        kappa *= KAPPA_SHRINK
    if best is None and failure is not None:
        raise failure
    if best is None or best.j >= ev.j:
        return None, n_evals
    best.norm_dev = abs(l2_norm(m0, best_psi) - norm_phi)
    return best, n_evals


def run(mesh: Mesh, params: ProblemParams,
        config: OptimizerConfig = OptimizerConfig(),
        phi0: Optional[np.ndarray] = None,
        on_snapshot: Optional[Callable] = None,
        history: Optional[History] = None) -> tuple[History, np.ndarray]:
    """Run the descent loop; returns the history and the final level set.

    The default start is the empty design (constant positive level set,
    normalized); a ``phi0`` that is not a 1-D array of ``mesh.num_nodes``
    finite real values raises ``ValueError`` before any work.
    ``on_snapshot(mesh, phi, ev, iteration, final)`` (see
    :func:`tsopt.vtkio.snapshot_writer`) is called every
    ``snapshot_cadence`` iterations and with ``final`` true at the end.  A
    caller-supplied ``history`` is filled in place, so partial progress
    survives a solver failure.
    """
    phi = (np.ones(mesh.num_nodes) if phi0 is None
           else _real_design(phi0))
    if phi.shape != (mesh.num_nodes,) or not np.isfinite(phi).all():
        raise ValueError(f"phi0 must be a 1-D array of {mesh.num_nodes} "
                         f"finite values")
    m0 = unit_mass_matrix(mesh)
    norm = l2_norm(m0, phi)
    if norm == 0.0:
        raise ValueError("initial level set has zero norm")
    phi = phi / norm

    history = History() if history is None else history
    ev = _evaluate(mesh, params, m0, phi, *evaluate_cost(mesh, phi, params))
    history.append(0, ev.j, ev.norm_g, 0.0, 0.0, ev.field.labels)
    _maybe_snapshot(mesh, phi, ev, 0, config, on_snapshot)

    for it in range(1, config.max_iter + 1):
        if ev.norm_g <= 1e-14:
            break  # locally optimal: every admissible move increases the cost
        best, n_evals = _line_search(mesh, params, m0, phi, ev)
        if best is None:
            # No decrease found anywhere on the ladder: keep the current
            # design so the cost stays monotone, and stop, since every
            # later iteration would walk the same ladder from it.
            history.append(it, ev.j, ev.norm_g, 0.0, 0.0,
                           ev.field.labels, 0.0, True, n_evals)
            break
        phi = best.phi
        ev = _evaluate(mesh, params, m0, phi, best.j, best.system, best.u)
        history.append(it, ev.j, ev.norm_g, best.kappa, best.theta,
                       ev.field.labels, best.norm_dev, False, n_evals)
        _maybe_snapshot(mesh, phi, ev, it, config, on_snapshot)

    _maybe_snapshot(mesh, phi, ev, len(history.iteration) - 1, config,
                    on_snapshot, final=True)
    return history, phi


def _maybe_snapshot(mesh, phi, ev, iteration, config, on_snapshot,
                    final=False) -> None:
    due = final or (config.snapshot_cadence
                    and iteration % config.snapshot_cadence == 0)
    if due and on_snapshot is not None:
        on_snapshot(mesh, phi, ev, iteration, final)
