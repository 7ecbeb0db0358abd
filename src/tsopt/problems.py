"""The two-circle tracking benchmark.

Reaction-diffusion tracking problem on the unit square: Dirichlet data
``u = y`` on top and bottom, homogeneous Neumann on the sides, and a target
state manufactured from a two-circle design, so the optimum is known by
construction.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .fem import ProblemParams, assemble, solve_state
from .mesh import BoundaryData, Mesh, generate_crossed_mesh

__all__ = [
    "PROBLEM_DEFAULTS",
    "default_params",
    "experiment_boundary",
    "target_level_set",
    "interpolate_target",
    "experiment_mesh",
    "setup_problem",
]

_BOUNDARY_TOL = 1e-12

# Benchmark material constants and cost weights, read-only.
PROBLEM_DEFAULTS = MappingProxyType({
    "lambda1": 1.0, "lambda2": 0.6,
    "alpha1": 1.0, "alpha2": 0.2,
    "atilde1": 1.0, "atilde2": 0.9,
    "f1": 1.0, "f2": 0.5,
    "c1": 0.0, "c2": 1.0,
})


def experiment_boundary() -> BoundaryData:
    """``u = y`` where y is 0 or 1, zero flux on the vertical sides."""
    return BoundaryData(
        g_d=lambda x, y: y,
        is_dirichlet=lambda x, y: (np.abs(y) < _BOUNDARY_TOL)
        | (np.abs(y - 1.0) < _BOUNDARY_TOL),
    )


def default_params(**overrides) -> ProblemParams:
    """Benchmark problem: :data:`PROBLEM_DEFAULTS` with ``overrides``
    applied."""
    return ProblemParams(**{**PROBLEM_DEFAULTS, **overrides})


def target_level_set(x, y):
    """Product of two circle functions; negative inside either circle
    (radius 0.2 at (0.3, 0.4) and radius 0.1 at (0.7, 0.7))."""
    return (((x - 0.3) ** 2 + (y - 0.4) ** 2 - 0.2 ** 2)
            * ((x - 0.7) ** 2 + (y - 0.7) ** 2 - 0.1 ** 2))


def interpolate_target(mesh: Mesh) -> np.ndarray:
    """Nodal interpolant of the target design's level-set function."""
    return target_level_set(mesh.nodes[:, 0], mesh.nodes[:, 1])


def experiment_mesh(n: int) -> Mesh:
    return generate_crossed_mesh(n, boundary=experiment_boundary())


def setup_problem(mesh: Mesh, uhat: str = "target",
                  params: ProblemParams | None = None):
    """Attach a target vector to the parameters.

    ``uhat="target"`` solves the state problem once at the target design
    and tracks that solution (the optimum then has zero cost);
    ``uhat="zero"`` tracks the zero field, which gives a configuration with
    nonvanishing sensitivities everywhere, as needed by the derivative
    verification.
    """
    if params is None:
        params = default_params()
    if uhat == "target":
        phi_d = interpolate_target(mesh)
        u_star = solve_state(assemble(mesh, phi_d, params))
        return params.with_uhat(np.asarray(u_star, dtype=float))
    if uhat == "zero":
        return params.with_uhat(np.zeros(mesh.num_nodes))
    raise ValueError(f"unknown uhat mode {uhat!r}")
