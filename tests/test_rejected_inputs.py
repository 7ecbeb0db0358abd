"""Each argument check of the library raises ``ValueError`` with its own
message, before any numerical work."""

from types import SimpleNamespace

import numpy as np
import pytest

from tsopt.fem import (assemble, evaluate_cost, objective, solve_adjoint,
                       solve_state)
from tsopt.hdarray import HyperDualArray
from tsopt.ldlt import band_storage
from tsopt.levelset import SHAPE, classify_nodes, perturb
from tsopt.mesh import Mesh, generate_crossed_mesh
from tsopt.optimize import OptimizerConfig, run
from tsopt.problems import (default_params, experiment_mesh,
                            interpolate_target, setup_problem)
from tsopt.sensitivity import continuous_sd_discretized, ts_derivative
from tsopt.verify import analytic_field


@pytest.fixture(scope="module")
def level2():
    """A solved level-2 problem whose parameters have no ``uhat``."""
    mesh = experiment_mesh(2)
    phi = np.ones(mesh.num_nodes)
    params = default_params()
    system = assemble(mesh, phi, params)
    return SimpleNamespace(mesh=mesh, phi=phi, params=params, system=system,
                           u=solve_state(system))


def _foreign_band_storage(s):
    # a level-3 matrix against the level-2 band layout
    other = experiment_mesh(3)
    matrix = assemble(other, np.ones(other.num_nodes), s.params).matrix
    band_storage(matrix, s.mesh.reduced_index.band)


def _with(phi, k, value):
    """A copy of ``phi`` with ``value`` at node ``k``."""
    phi = phi.copy()
    phi[k] = value
    return phi


CASES = {
    "optimize.run phi0=0": (
        lambda s: run(s.mesh, setup_problem(s.mesh, uhat="zero"),
                      OptimizerConfig(max_iter=1), phi0=0.0 * s.phi),
        "zero norm"),
    "setup_problem uhat": (
        lambda s: setup_problem(s.mesh, uhat="bogus"), "unknown uhat mode"),
    "generate_crossed_mesh(0)": (
        lambda s: generate_crossed_mesh(0), "at least one subdivision"),
    "Mesh (N, 4) elements": (
        lambda s: Mesh([(0, 0), (1, 0), (0, 1), (1, 1)], [(0, 1, 3, 2)]),
        r"shape \(N, 3\)"),
    "band_storage foreign pattern": (
        _foreign_band_storage, "does not match the band layout"),
    "assemble design length": (
        lambda s: assemble(s.mesh, s.phi[:-1], s.params),
        "does not match node count"),
    "assemble (M, 1) design": (
        lambda s: assemble(s.mesh, s.phi[:, None], s.params),
        r"shape \(\d+, 1\) does not match node count"),
    "assemble list design": (
        lambda s: assemble(s.mesh, list(s.phi), s.params),
        "must be an array, not list"),
    "assemble NaN design": (
        lambda s: assemble(s.mesh, _with(s.phi, 3, np.nan), s.params),
        "must be finite"),
    "assemble complex design, NaN imaginary part": (
        lambda s: assemble(s.mesh, _with(s.phi + 0j, 3, complex(1, np.nan)),
                           s.params),
        "must be finite"),
    "assemble hyper-dual design, inf real lane": (
        lambda s: assemble(s.mesh, HyperDualArray(_with(s.phi, 3, np.inf)),
                           s.params),
        "must be finite"),
    "classify_nodes design length": (
        lambda s: classify_nodes(s.mesh, s.phi[:-1]),
        "does not match node count"),
    "perturb node -1": (
        lambda s: perturb(s.phi, -1, 1e-3, SHAPE), r"node -1 is not in"),
    "perturb node M": (
        lambda s: perturb(s.phi, s.mesh.num_nodes, 1e-3, SHAPE),
        "is not in"),
    "perturb class 7": (
        lambda s: perturb(s.phi, 3, 1e-3, 7), "unknown node class 7"),
    "solve_adjoint uhat=None": (
        lambda s: solve_adjoint(s.system, s.u, s.params), "uhat is not set"),
    "objective uhat=None": (
        lambda s: objective(s.mesh, s.phi, s.u, s.params, system=s.system),
        "uhat is not set"),
    "ts_derivative uhat=None": (
        lambda s: ts_derivative(s.mesh, s.phi, s.u, s.u, s.params),
        "uhat is not set"),
    "ProblemParams alpha1<0": (
        lambda s: default_params(alpha1=-0.5), "alpha1 must be non-negative"),
    "HyperDualArray lane shapes": (
        lambda s: HyperDualArray(np.zeros(3), np.zeros(2)),
        "component shapes differ"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_invalid_input_raises_value_error(level2, case):
    call, message = CASES[case]
    with pytest.raises(ValueError, match=message):
        call(level2)



# the four tracking residuals, and the verification baseline built on them
TRACKING_CALLS = {
    "evaluate_cost": lambda s: evaluate_cost(s.mesh, s.phi, s.params),
    "solve_adjoint": lambda s: solve_adjoint(s.system, s.u, s.params),
    "ts_derivative": lambda s: ts_derivative(s.mesh, s.phi, s.u, s.u,
                                             s.params),
    "continuous_sd_discretized": lambda s: continuous_sd_discretized(
        s.mesh, s.phi, s.u, s.u, s.params, s.k),
    "analytic_field": lambda s: analytic_field(s.mesh, s.phi, s.params),
}


@pytest.mark.parametrize("call", sorted(TRACKING_CALLS))
@pytest.mark.parametrize("uhat", ["length 1", "(M, 1)"])
def test_a_target_of_another_shape_is_rejected(uhat, call):
    # a target that would broadcast against the state is not a target; the
    # cost checks it once the state it is compared with is solved
    mesh = experiment_mesh(4)
    phi = interpolate_target(mesh)
    params = default_params().with_uhat(
        np.array([0.5]) if uhat == "length 1"
        else np.full((mesh.num_nodes, 1), 0.5))
    system = assemble(mesh, phi, params)
    k = int(np.flatnonzero(classify_nodes(mesh, phi) == SHAPE)[0])
    s = SimpleNamespace(mesh=mesh, phi=phi, params=params, system=system,
                        u=solve_state(system), k=k)
    with pytest.raises(ValueError, match="params.uhat has shape"):
        TRACKING_CALLS[call](s)
