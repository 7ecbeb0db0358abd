import numpy as np
import pytest

from tsopt.hdarray import promote_like
from tsopt.levelset import (_FULL_LOAD_REF, _FULL_MASS_REF,
                            negative_region_integrals)
from tsopt.problems import experiment_mesh, interpolate_target, setup_problem


@pytest.fixture(scope="session")
def mesh8():
    return experiment_mesh(8)


@pytest.fixture(scope="session")
def phi_d8(mesh8):
    return interpolate_target(mesh8)


@pytest.fixture(scope="session")
def params_zero8(mesh8):
    """Benchmark parameters with a zero tracking target (nondegenerate
    sensitivities at the target design)."""
    return setup_problem(mesh8, uhat="zero")


@pytest.fixture(scope="session")
def params_target8(mesh8):
    """Benchmark parameters tracking the attainable state at the target
    design (the optimum then has zero cost)."""
    return setup_problem(mesh8, uhat="target")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def _every_element_integrals(mesh, phi):
    # the cut-local integrals spread over every element: the reference
    # integrals of a whole element where it is fully negative, zeros where
    # it is fully positive
    full, cut, frac, mass, load = negative_region_integrals(mesh, phi)
    n = mesh.num_elements
    neg_frac = promote_like(np.zeros(n), phi)
    neg_mass = promote_like(np.zeros((n, 3, 3)), phi)
    neg_load = promote_like(np.zeros((n, 3)), phi)
    neg_frac[full] = 0.5
    neg_mass[full] = _FULL_MASS_REF
    neg_load[full] = _FULL_LOAD_REF
    neg_frac[cut] = frac
    neg_mass[cut] = mass.transpose(2, 0, 1)
    neg_load[cut] = load.transpose()
    return neg_frac, neg_mass, neg_load


@pytest.fixture(scope="session")
def every_element_integrals():
    """``(mesh, phi) -> (frac, mass, load)``: the negative-region integrals
    of every element, of shapes (N,), (N, 3, 3) and (N, 3)."""
    return _every_element_integrals
