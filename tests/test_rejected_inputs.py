"""Each argument check of the library raises ``ValueError`` with its own
message, before any numerical work."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from tsopt.fem import (assemble, evaluate_cost, objective, solve_adjoint,
                       solve_state)
from tsopt.hdarray import HyperDualArray
from tsopt.ldlt import ldlt_factor
from tsopt.levelset import (SHAPE, classify_nodes, interface_segments,
                            perturb, subdomain_area,
                            symmetric_difference_area)
from tsopt.mesh import Mesh, generate_crossed_mesh
from tsopt.optimize import OptimizerConfig, run
from tsopt.problems import (default_params, experiment_mesh,
                            interpolate_target, setup_problem)
from tsopt.sensitivity import (area_derivative, continuous_sd_discretized,
                               ts_derivative)
from tsopt.verify import (analytic_field, cs_derivative, fd_quotient,
                          hd_derivative, run_verification)


@pytest.fixture(scope="module")
def level2():
    """A solved level-2 problem whose parameters have no ``uhat``."""
    mesh = experiment_mesh(2)
    phi = np.ones(mesh.num_nodes)
    params = default_params()
    system = assemble(mesh, phi, params)
    return SimpleNamespace(mesh=mesh, phi=phi, params=params, system=system,
                           u=solve_state(system))


def _foreign_band(s):
    # a level-3 band against the level-2 band layout
    other = experiment_mesh(3)
    matrix = assemble(other, np.ones(other.num_nodes), s.params).matrix
    ldlt_factor(matrix, s.mesh.reduced_index.band)


def _with(phi, k, value):
    """A copy of ``phi`` with ``value`` at node ``k``."""
    phi = phi.copy()
    phi[k] = value
    return phi


def _tracked(s):
    """The parameters of ``s`` tracking its state."""
    return s.params.with_uhat(s.u)


def _interface_last(s):
    """``s.phi`` with a negative last node, an interface node."""
    return _with(s.phi, s.mesh.num_nodes - 1, -1.0)


def _nan_beside_last(s):
    """:func:`_interface_last` with a NaN at a ring neighbour of the last
    node."""
    last = s.mesh.num_nodes - 1
    ring = s.mesh.elements[(s.mesh.elements == last).any(axis=1)]
    return _with(_interface_last(s), int(ring[ring != last][0]), np.nan)


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
    "ldlt_factor foreign band": (
        _foreign_band, "does not match the band layout"),
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
    "assemble hyper-dual design, NaN e1 lane": (
        lambda s: assemble(s.mesh, HyperDualArray(
            s.phi, _with(np.zeros_like(s.phi), 3, np.nan)), s.params),
        "must be finite"),
    "assemble hyper-dual design, inf e12 lane": (
        lambda s: assemble(s.mesh, HyperDualArray(
            s.phi, None, _with(np.zeros_like(s.phi), 3, np.inf)), s.params),
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
    "objective c1 on a system assembled at c1=0": (
        lambda s: objective(s.mesh, s.phi, s.u,
                            replace(s.params, c1=1.0, uhat=s.u),
                            system=s.system),
        "assembled without the area term"),
    "ts_derivative uhat=None": (
        lambda s: ts_derivative(s.mesh, s.phi, s.u, s.u, s.params),
        "uhat is not set"),
    "subdomain_area NaN design": (
        lambda s: subdomain_area(s.mesh, _with(s.phi, 3, np.nan)),
        "must be finite"),
    "subdomain_area design length": (
        lambda s: subdomain_area(s.mesh, s.phi[:-1]),
        "does not match node count"),
    "symmetric_difference_area NaN second design": (
        lambda s: symmetric_difference_area(s.mesh, s.phi,
                                            _with(s.phi, 3, np.nan)),
        "must be finite"),
    "symmetric_difference_area -inf first design": (
        lambda s: symmetric_difference_area(s.mesh, _with(s.phi, 3, -np.inf),
                                            s.phi),
        "must be finite"),
    "symmetric_difference_area design length": (
        lambda s: symmetric_difference_area(s.mesh, s.phi[:-1],
                                            s.phi[:-1] + 0.1),
        "does not match node count"),
    "interface_segments NaN design": (
        lambda s: interface_segments(s.mesh, _with(s.phi, 3, np.nan)),
        "must be finite"),
    "interface_segments design length": (
        lambda s: interface_segments(s.mesh, s.phi[:-1]),
        "does not match node count"),
    "area_derivative node -1": (
        lambda s: area_derivative(s.mesh, _interface_last(s), -1),
        r"node -1 is not in"),
    "area_derivative node M": (
        lambda s: area_derivative(s.mesh, s.phi, s.mesh.num_nodes),
        "is not in"),
    "continuous_sd_discretized node -1": (
        lambda s: continuous_sd_discretized(
            s.mesh, _interface_last(s), s.u, s.u, _tracked(s), -1),
        r"node -1 is not in"),
    "continuous_sd_discretized node M": (
        lambda s: continuous_sd_discretized(
            s.mesh, s.phi, s.u, s.u, _tracked(s), s.mesh.num_nodes),
        "is not in"),
    "ts_derivative NaN design": (
        lambda s: ts_derivative(s.mesh, _with(s.phi, 3, np.nan), s.u, s.u,
                                _tracked(s)),
        "must be finite"),
    "ts_derivative complex design": (
        lambda s: ts_derivative(s.mesh, s.phi + 0j, s.u, s.u, _tracked(s)),
        "must be real"),
    "ts_derivative p one short": (
        lambda s: ts_derivative(s.mesh, s.phi, s.u, s.u[:-1], _tracked(s)),
        r"p must be a finite array of shape \(\d+,\), got shape"),
    "ts_derivative inf p": (
        lambda s: ts_derivative(s.mesh, s.phi, s.u, _with(s.u, 3, np.inf),
                                _tracked(s)),
        "p must be a finite array"),
    "ts_derivative NaN u": (
        lambda s: ts_derivative(s.mesh, s.phi, _with(s.u, 3, np.nan), s.u,
                                _tracked(s)),
        "u must be a finite array"),
    "ts_derivative complex u": (
        lambda s: ts_derivative(s.mesh, s.phi, s.u + 0j, s.u, _tracked(s)),
        "u must be real"),
    "area_derivative NaN design": (
        lambda s: area_derivative(s.mesh, _with(s.phi, 3, np.nan), 3),
        "must be finite"),
    "area_derivative NaN beside the node": (
        lambda s: area_derivative(s.mesh, _nan_beside_last(s),
                                  s.mesh.num_nodes - 1),
        "must be finite"),
    "area_derivative complex design": (
        lambda s: area_derivative(s.mesh, s.phi + 0j, 3), "must be real"),
    "continuous_sd_discretized NaN beside the node": (
        lambda s: continuous_sd_discretized(
            s.mesh, _nan_beside_last(s), s.u, s.u, _tracked(s),
            s.mesh.num_nodes - 1),
        "must be finite"),
    "continuous_sd_discretized NaN p": (
        lambda s: continuous_sd_discretized(
            s.mesh, _interface_last(s), s.u, _with(s.u, 3, np.nan),
            _tracked(s), s.mesh.num_nodes - 1),
        "p must be a finite array"),
    "run_verification hd step 0": (
        lambda s: run_verification(s.mesh, s.phi, _tracked(s), "hd",
                                   steps=[1e-3, 0.0]),
        "finite and positive"),
    "run_verification no step": (
        lambda s: run_verification(s.mesh, s.phi, _tracked(s), "fd",
                                   steps=[]),
        "non-empty"),
    "fd_quotient step -1e-3": (
        lambda s: fd_quotient(s.mesh, s.phi, _tracked(s), 3, -1e-3, SHAPE,
                              0.0),
        "finite and positive"),
    "cs_derivative step 0": (
        lambda s: cs_derivative(s.mesh, s.phi, _tracked(s), 3, 0.0, SHAPE,
                                1.0, 0.0),
        "finite and positive"),
    "hd_derivative step -1": (
        lambda s: hd_derivative(s.mesh, s.phi, _tracked(s), 3, -1.0, SHAPE,
                                1.0),
        "finite and positive"),
    "hd_derivative step NaN": (
        lambda s: hd_derivative(s.mesh, s.phi, _tracked(s), 3, np.nan, SHAPE,
                                1.0),
        "finite and positive"),
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
