"""Level-set topology optimization with a unified nodal topological-shape
sensitivity, verified by finite-difference, complex-step and hyper-dual
differentiation."""

from .hdarray import HyperDualArray
from .mesh import Mesh, generate_crossed_mesh
from .levelset import (classify_nodes, interface_segments, perturb,
                       subdomain_area, symmetric_difference_area)
from .fem import (AssembledSystem, ProblemParams, assemble, objective,
                  solve_adjoint, solve_state)
from .sensitivity import (SensitivityField, area_derivative,
                          continuous_sd_discretized, cut_matrices,
                          generalized_derivative, ts_derivative)
from .verify import run_verification
from .optimize import OptimizerConfig
from .problems import default_params, experiment_mesh, interpolate_target, setup_problem

__all__ = [
    "HyperDualArray",
    "Mesh", "generate_crossed_mesh",
    "classify_nodes", "interface_segments", "perturb", "subdomain_area",
    "symmetric_difference_area",
    "AssembledSystem", "ProblemParams", "assemble", "objective",
    "solve_adjoint", "solve_state",
    "SensitivityField", "area_derivative", "continuous_sd_discretized",
    "cut_matrices", "generalized_derivative", "ts_derivative",
    "run_verification",
    "OptimizerConfig",
    "default_params", "experiment_mesh", "interpolate_target", "setup_problem",
]

__version__ = "0.1.0"
