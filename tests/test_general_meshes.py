"""The pipeline on triangulations other than the crossed mesh, and
invariances that need no oracle.

The meshes are the test-side builders of ``helpers``: the crossed mesh with
its inner nodes jittered, and a one-diagonal mesh.  Hyper-dual re-solves
and polygon clipping check the closed forms on them; scaling the design,
mirroring the mesh and reordering its elements must leave the cost and the
nodal sensitivities unchanged up to roundoff.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (BASIS_AT_VERTICES, clip_negative_region,
                     jittered_crossed_mesh, one_diagonal_mesh, polygon_area,
                     polygon_quadratic_integral)
from tsopt.fem import evaluate_cost
from tsopt.mesh import Mesh
from tsopt.problems import experiment_mesh, interpolate_target, setup_problem
from tsopt.verify import HD_TOLERANCE, analytic_field, run_verification

# Invariance tolerances.  Over 4,320 random designs (seeds 0-239, levels
# 1-6, the crossed, jittered and one-diagonal meshes) every transformation
# below moved J by at most 3.4e-15 relative and dJ by at most 1.8e-14 of
# max|dJ|; the bounds leave a margin of about 15x for other seeds.
J_TOL = 5e-14
DJ_TOL = 3e-13

LEVELS = st.integers(1, 6)
SEEDS = st.integers(0, 2 ** 32 - 1)
GENERAL = st.sampled_from(["jittered", "one-diagonal"])


def _mesh(kind, level, seed):
    if kind == "jittered":
        return jittered_crossed_mesh(level, seed)
    if kind == "one-diagonal":
        return one_diagonal_mesh(level)
    return experiment_mesh(level)


@settings(max_examples=30)
@given(kind=GENERAL, level=LEVELS, seed=SEEDS)
def test_hd_matches_the_closed_form_on_general_meshes(kind, level, seed):
    # acceptance criterion 1 off the crossed mesh: HD at step 1 against
    # ts_derivative on every node, relative to max(1, |dJ|)
    mesh = _mesh(kind, level, seed)
    report = run_verification(mesh, interpolate_target(mesh),
                              setup_problem(mesh, uhat="zero"), "hd",
                              steps=[1.0])
    assert report.max_relative_error() <= HD_TOLERANCE


@settings(max_examples=30)
@given(kind=GENERAL, level=LEVELS, seed=SEEDS)
def test_cut_integrals_match_clipping_on_general_meshes(
        every_element_integrals, kind, level, seed):
    mesh = _mesh(kind, level, seed)
    phi = np.random.default_rng(seed).uniform(-1.0, 1.0, mesh.num_nodes)
    frac, mass, load = every_element_integrals(mesh, phi)
    det_j = mesh.geometry.det_j
    for l, tri in enumerate(mesh.elements):
        poly, basis = clip_negative_region(mesh.nodes[tri], phi[tri],
                                           tracked=BASIS_AT_VERTICES)
        tol = 1e-13 * det_j[l]
        assert abs(frac[l] * det_j[l] - polygon_area(poly)) <= tol
        for i in range(3):
            assert abs(load[l, i] * det_j[l]
                       - polygon_quadratic_integral(poly, basis[i])) <= tol
            for j in range(3):
                want = polygon_quadratic_integral(poly, basis[i], basis[j])
                assert abs(mass[l, i, j] * det_j[l] - want) <= tol


def _cost_and_sensitivity(mesh, phi):
    params = setup_problem(mesh, uhat="zero")
    return (float(evaluate_cost(mesh, phi, params)[0]),
            analytic_field(mesh, phi, params).dj)


def _mirrored(mesh):
    # x -> 1 - x, each element's vertex order reversed to stay
    # counter-clockwise; the problem data are symmetric under it
    return Mesh(mesh.nodes * [-1.0, 1.0] + [1.0, 0.0], mesh.elements[:, ::-1],
                mesh.dirichlet_nodes, mesh.dirichlet_values)


def _reordered(mesh, rng):
    # the element rows permuted and each row's vertices rotated
    rows = mesh.elements[rng.permutation(mesh.num_elements)]
    shift = rng.integers(3, size=(len(rows), 1))
    return Mesh(mesh.nodes,
                np.take_along_axis(rows, (np.arange(3) + shift) % 3, axis=1),
                mesh.dirichlet_nodes, mesh.dirichlet_values)


TRANSFORMS = {
    "phi*3": lambda mesh, phi, rng: (mesh, 3.0 * phi),
    "phi*1e-3": lambda mesh, phi, rng: (mesh, 1e-3 * phi),
    "mirror": lambda mesh, phi, rng: (_mirrored(mesh), phi),
    "reorder": lambda mesh, phi, rng: (_reordered(mesh, rng), phi),
}


@settings(max_examples=60)
@given(kind=st.sampled_from(["crossed", "jittered", "one-diagonal"]),
       transform=st.sampled_from(sorted(TRANSFORMS)), level=LEVELS,
       seed=SEEDS)
def test_cost_and_sensitivity_are_invariant(kind, transform, level, seed):
    rng = np.random.default_rng(seed)
    mesh = _mesh(kind, level, seed)
    phi = rng.uniform(-1.0, 1.0, mesh.num_nodes)
    j, dj = _cost_and_sensitivity(mesh, phi)
    j_t, dj_t = _cost_and_sensitivity(*TRANSFORMS[transform](mesh, phi, rng))
    assert abs(j_t - j) <= J_TOL * abs(j)
    assert np.abs(dj_t - dj).max() <= DJ_TOL * np.abs(dj).max()


def test_a_mesh_without_free_nodes_runs_every_scheme():
    # the one-diagonal mesh at level 1 has its four nodes on the Dirichlet
    # sides: no unknowns, yet a cost and a sensitivity at every node
    mesh = one_diagonal_mesh(1)
    assert len(mesh.dirichlet_nodes) == mesh.num_nodes
    phi = np.array([-1.0, 0.5, 0.3, -0.2])
    params = setup_problem(mesh, uhat="zero")
    for method in ("fd", "cs", "hd"):
        report = run_verification(mesh, phi, params, method)
        assert np.isfinite(report.estimates).all()
        assert np.isfinite(report.analytic).all()
