"""Level-set descent driven by the nodal sensitivity field.

Each iteration rotates the normalized level-set vector toward the
normalized descent field by spherical linear interpolation (which preserves
the L2 norm), optionally smooths the interior values by one-ring averaging,
renormalizes, and accepts the step if the cost decreased, halving the
rotation fraction otherwise.  No distinction between shape and topological
updates is needed: the descent field already encodes both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .fem import (AssembledSystem, ProblemParams, _scatter_matrix,
                  evaluate_cost, solve_adjoint)
from .levelset import _FULL_MASS_REF, classify_nodes, interface_segments
from .mesh import Mesh
from .sensitivity import SensitivityField, ts_derivative

__all__ = [
    "DegenerateAngle",
    "OptimizerConfig",
    "History",
    "unit_mass_matrix",
    "l2_inner",
    "l2_norm",
    "slerp_update",
    "smooth",
    "run",
]


class DegenerateAngle(ArithmeticError):
    """Level set and descent field are (anti-)parallel in L2."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Loop settings.

    Each iteration walks the rotation fraction down a geometric ladder from
    ``kappa_init`` and accepts the best candidate seen; the ladder stops
    ``patience`` candidates after the running best stops improving (once a
    decrease exists) or at ``kappa_min``.
    """

    max_iter: int = 800
    kappa_init: float = 1.0
    kappa_min: float = 1e-9
    kappa_shrink: float = 0.5
    patience: int = 2
    smoothing: bool = True
    theta_tol: float = 1e-8
    snapshot_cadence: int = 100    # 0 disables snapshots

    def __post_init__(self):
        if self.max_iter < 0:
            raise ValueError("max_iter must be non-negative")
        if not (0.0 < self.kappa_min < self.kappa_init <= 1.0):
            raise ValueError("need 0 < kappa_min < kappa_init <= 1")
        if not (0.0 < self.kappa_shrink < 1.0):
            raise ValueError("need 0 < kappa_shrink < 1")
        if self.patience < 0 or self.snapshot_cadence < 0:
            raise ValueError("patience and snapshot_cadence must be "
                             "non-negative")


@dataclass
class History:
    """Per-iteration record of the optimization run.

    Row 0 describes the initial design (kappa and theta are zero there).
    ``slerp_norm_dev`` tracks how far the pre-smoothing update drifted from
    norm preservation; ``stalled`` flags iterations whose line search found
    no decrease (the design is then kept unchanged); ``n_evals`` counts the
    cost evaluations of each row: 1 for the initial design, then the line
    search's candidates (the accepted one is not evaluated again).
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
        self.n_tminus.append(int((labels == -1).sum()))
        self.n_tplus.append(int((labels == 1).sum()))
        self.n_shape.append(int((labels == 0).sum()))
        self.slerp_norm_dev.append(norm_dev)
        self.stalled.append(stalled)
        self.n_evals.append(n_evals)

    def write_csv(self, path) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            fh.write("iter,J,normG,kappa,theta,nTminus,nTplus,nS,normDev,"
                     "stalled,nEvals\n")
            for i in range(len(self.iteration)):
                fh.write(f"{self.iteration[i]},{self.j[i]:.17g},"
                         f"{self.norm_g[i]:.17g},{self.kappa[i]:.17g},"
                         f"{self.theta[i]:.17g},{self.n_tminus[i]},"
                         f"{self.n_tplus[i]},{self.n_shape[i]},"
                         f"{self.slerp_norm_dev[i]:.17g},"
                         f"{int(self.stalled[i])},{self.n_evals[i]}\n")


def unit_mass_matrix(mesh: Mesh) -> sp.csr_matrix:
    """P1 mass matrix with unit coefficient over the whole domain."""
    return _scatter_matrix(_FULL_MASS_REF[:, :, None] * mesh.geometry.det_j,
                           mesh.scatter)


def l2_inner(m0: sp.csr_matrix, phi: np.ndarray, psi: np.ndarray) -> float:
    """L2 inner product over the domain, with the :func:`unit_mass_matrix`
    ``m0``."""
    return float(phi @ (m0 @ psi))


def l2_norm(m0: sp.csr_matrix, phi: np.ndarray) -> float:
    return math.sqrt(max(float(phi @ (m0 @ phi)), 0.0))


def _slerp_frame(phi: np.ndarray, g: np.ndarray, m0: sp.csr_matrix,
                 theta_tol: float):
    """The quantities of a slerp that do not depend on the rotation
    fraction: ``(norm_phi, g_unit, theta)``, the L2 norm of ``phi``, the
    normalized field and the L2 angle between the two.  Unless they are
    aligned (``theta < theta_tol``), anti-alignment leaves no rotation plane
    and raises :class:`DegenerateAngle`."""
    norm_phi = l2_norm(m0, phi)
    norm_g = l2_norm(m0, g)
    if norm_phi == 0.0 or norm_g == 0.0:
        raise DegenerateAngle("zero-norm argument")
    g_unit = g / norm_g
    cos_theta = l2_inner(m0, phi / norm_phi, g_unit)
    theta = math.acos(min(1.0, max(-1.0, cos_theta)))
    if theta_tol <= theta > math.pi - theta_tol:
        raise DegenerateAngle("level set anti-parallel to the descent field")
    return norm_phi, g_unit, theta


def _rotate(phi, g_unit, theta: float, kappa: float) -> np.ndarray:
    """``phi`` rotated toward ``g_unit`` by the fraction ``kappa`` of their
    angle ``theta``."""
    return (math.sin((1.0 - kappa) * theta) * phi
            + math.sin(kappa * theta) * g_unit) / math.sin(theta)


def slerp_update(phi: np.ndarray, g: np.ndarray, kappa: float,
                 m0: sp.csr_matrix, theta_tol: float = 1e-8):
    """Rotate ``phi`` toward the normalized field ``g`` by the fraction
    ``kappa`` of their L2 angle.

    Returns ``(phi_new, theta)``.  If the two are already aligned the input
    is returned unchanged; anti-alignment leaves no rotation plane and
    raises :class:`DegenerateAngle`.
    """
    _, g_unit, theta = _slerp_frame(phi, g, m0, theta_tol)
    if theta < theta_tol:
        return phi.copy(), theta
    return _rotate(phi, g_unit, theta, kappa), theta


def smooth(mesh: Mesh, psi: np.ndarray) -> np.ndarray:
    """One-ring average on interior nodes of ``psi``'s own sign partition;
    interface nodes are left untouched.

    Rings are averaged a whole size group at a time; each row sum runs in
    the order a sum over the single ring would take."""
    interior = classify_nodes(mesh, psi) != 0
    out = np.array(psi, dtype=float)
    for nodes, rings in mesh.ring_groups:
        sel = interior[nodes]
        out[nodes[sel]] = psi[rings[sel]].sum(axis=1) / rings.shape[1]
    return out


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
    norm_dev: float
    system: AssembledSystem
    u: np.ndarray


def _evaluate(mesh, phi, params, m0,
              solved: _Candidate | None = None) -> _Evaluation:
    """Cost, state, adjoint and sensitivity of a design; ``solved`` reuses
    a candidate's system and state for the same design."""
    if solved is None:
        j, system, u = evaluate_cost(mesh, phi, params)
    else:
        j, system, u = solved.j, solved.system, solved.u
    p = solve_adjoint(system, u, params)
    fld = ts_derivative(mesh, phi, u, p, params)
    return _Evaluation(j=float(j), u=u, p=p, field=fld,
                       norm_g=l2_norm(m0, fld.g))


def _line_search(mesh, params, config, m0, phi,
                 ev) -> tuple[_Candidate | None, int]:
    """Walk the rotation fraction down a geometric ladder.

    Returns ``(best, n_evals)``: the best improving candidate, or None if
    no candidate decreases the cost, and the number of candidates whose
    cost was evaluated.  The slerp's norms and angle are computed once."""
    norm_phi, g_unit, theta = _slerp_frame(phi, ev.field.g, m0,
                                           config.theta_tol)
    if theta < config.theta_tol:
        return None, 0  # aligned with the descent field: no rotation possible
    kappa = config.kappa_init
    best = None
    since_best = 0
    n_evals = 0
    while kappa >= config.kappa_min:
        psi = _rotate(phi, g_unit, theta, kappa)
        norm_dev = abs(l2_norm(m0, psi) - norm_phi)
        psi_hat = smooth(mesh, psi) if config.smoothing else psi
        candidate = psi_hat / l2_norm(m0, psi_hat)
        j_cand, system, u = evaluate_cost(mesh, candidate, params)
        j_cand = float(j_cand)
        n_evals += 1
        if best is None or j_cand < best.j:
            best = _Candidate(j_cand, candidate, kappa, theta, norm_dev,
                              system, u)
            since_best = 0
        else:
            since_best += 1
        if best.j < ev.j and since_best >= config.patience:
            break
        kappa *= config.kappa_shrink
    if best is None or best.j >= ev.j:
        return None, n_evals
    return best, n_evals


def run(mesh: Mesh, params: ProblemParams,
        config: OptimizerConfig = OptimizerConfig(),
        phi0: Optional[np.ndarray] = None,
        output_dir: Optional[str] = None,
        on_snapshot: Optional[Callable] = None,
        history: Optional[History] = None) -> tuple[History, np.ndarray]:
    """Run the descent loop; returns the history and the final level set.

    The default start is the empty design (constant positive level set,
    normalized).  Snapshots are written every ``snapshot_cadence``
    iterations when ``output_dir`` is given.  A caller-supplied ``history``
    is filled in place, so partial progress survives a solver failure.
    """
    m0 = unit_mass_matrix(mesh)
    if phi0 is None:
        ones = np.ones(mesh.num_nodes)
        phi = ones / l2_norm(m0, ones)
    else:
        phi = np.asarray(phi0, dtype=float)
        norm = l2_norm(m0, phi)
        if norm == 0.0:
            raise ValueError("initial level set has zero norm")
        phi = phi / norm

    history = History() if history is None else history
    ev = _evaluate(mesh, phi, params, m0)
    history.append(0, ev.j, ev.norm_g, 0.0, 0.0, ev.field.labels)
    _maybe_snapshot(mesh, phi, ev, 0, config, output_dir, on_snapshot,
                    uhat=params.uhat)

    for it in range(1, config.max_iter + 1):
        if ev.norm_g <= 1e-14:
            break  # locally optimal: every admissible move increases the cost
        best, n_evals = _line_search(mesh, params, config, m0, phi, ev)
        if best is None:
            # No decrease found anywhere on the ladder: keep the current
            # design so the cost stays monotone.
            history.append(it, ev.j, ev.norm_g, 0.0, 0.0,
                           ev.field.labels, 0.0, True, n_evals)
            continue
        phi = best.phi
        ev = _evaluate(mesh, phi, params, m0, solved=best)
        history.append(it, ev.j, ev.norm_g, best.kappa, best.theta,
                       ev.field.labels, best.norm_dev, False, n_evals)
        _maybe_snapshot(mesh, phi, ev, it, config, output_dir, on_snapshot,
                        uhat=params.uhat)

    _maybe_snapshot(mesh, phi, ev, len(history.iteration) - 1, config,
                    output_dir, on_snapshot, final=True, uhat=params.uhat)
    return history, phi


def _maybe_snapshot(mesh, phi, ev, iteration, config, output_dir,
                    on_snapshot, final=False, uhat=None) -> None:
    due = final or (config.snapshot_cadence
                    and iteration % config.snapshot_cadence == 0)
    if not due:
        return
    if on_snapshot is not None:
        on_snapshot(mesh, phi, ev, iteration, final)
    if output_dir is None:
        return
    from .vtkio import write_interface_vtk, write_vtk
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = "final" if final else f"{iteration:05d}"
    fields = {
        "phi": phi, "u": ev.u, "p": ev.p,
        "dJ": ev.field.dj, "G": ev.field.g,
        "nodeclass": ev.field.labels.astype(float),
    }
    if uhat is not None:
        fields["uhat"] = uhat
    write_vtk(out / f"snapshot_{name}.vtk", mesh, fields)
    if final:
        write_interface_vtk(out / "interface_final.vtk",
                            interface_segments(mesh, phi))
