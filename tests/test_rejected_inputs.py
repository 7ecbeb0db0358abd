"""Each argument check of the library raises ``ValueError`` with its own
message, before any numerical work."""

from types import SimpleNamespace

import numpy as np
import pytest

from tsopt.fem import assemble, objective, solve_adjoint, solve_state
from tsopt.hdarray import HyperDualArray
from tsopt.ldlt import band_storage
from tsopt.levelset import classify_nodes
from tsopt.mesh import Mesh, generate_crossed_mesh
from tsopt.optimize import OptimizerConfig, run
from tsopt.problems import default_params, experiment_mesh, setup_problem
from tsopt.sensitivity import ts_derivative


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
    "classify_nodes design length": (
        lambda s: classify_nodes(s.mesh, s.phi[:-1]),
        "does not match node count"),
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
