import numpy as np
import pytest

from helpers import reference_triangles
from tsopt.fem import assemble, solve_adjoint, solve_state
from tsopt.hdarray import HyperDualArray
from tsopt.levelset import (SHAPE, T_MINUS, T_PLUS, classify_nodes,
                            perturb, subdomain_area)
from tsopt.mesh import Mesh
from tsopt.problems import default_params, experiment_mesh
from tsopt.sensitivity import (DegenerateDenominator, area_derivative,
                               continuous_sd_discretized, cut_matrices,
                               generalized_derivative, ts_derivative)
from tsopt.verify import analytic_field, hd_derivative

REF = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])


def test_interior_negative_single_element_rate():
    phi = np.array([-0.5, -1.0, -1.0])
    der = area_derivative(REF, phi, 0)
    assert der.order == 2
    assert der.values.tolist() == [-0.5]
    assert der.total == pytest.approx(-0.5)
    assert der.total_abs == pytest.approx(0.5)
    # oracle: change of the exact cut area per eps^2
    eps = 1e-4
    popped = perturb(phi, 0, eps, T_MINUS)
    delta = subdomain_area(REF, popped) - subdomain_area(REF, phi)
    assert delta / eps ** 2 == pytest.approx(der.total, rel=1e-3)


def test_interface_configuration_a_plus_rate():
    phi = np.array([1.0, -1.0, -1.0])
    der = area_derivative(REF, phi, 0)
    assert der.order == 1
    assert der.total == pytest.approx(-1.0 / 8.0)
    eps = 1e-6
    shifted = perturb(phi, 0, eps, SHAPE)
    delta = subdomain_area(REF, shifted) - subdomain_area(REF, phi)
    assert delta / eps == pytest.approx(-1.0 / 8.0, rel=1e-5)


def test_interior_rate_requires_nonzero_neighbors():
    phi = np.array([-0.5, 0.0, -1.0])
    with pytest.raises(DegenerateDenominator):
        area_derivative(REF, phi, 0)
    params = default_params().with_uhat(np.zeros(3))
    with pytest.raises(DegenerateDenominator):
        ts_derivative(REF, phi, np.zeros(3), np.zeros(3), params)


def test_per_node_views_ignore_a_degenerate_neighbor():
    # node 0 is interior with a zero neighbor, so its own rate is
    # degenerate; the views of the other nodes evaluate their own rates only
    mesh = Mesh([(0, 0), (1, 0), (0, 1), (1, 1)],
                            [(0, 1, 2), (1, 3, 2)])
    phi = np.array([-0.5, -1.0, 0.0, 1.0])
    labels = classify_nodes(mesh, phi)
    assert labels.tolist() == [-1, 0, 0, 0]
    with pytest.raises(DegenerateDenominator):
        area_derivative(mesh, phi, 0, labels)
    for k in (1, 2, 3):
        der = area_derivative(mesh, phi, k, labels)
        assert len(der.values) and np.isfinite(der.values).all()
        assert np.isfinite(der.total_abs)
    params = default_params().with_uhat(np.zeros(4))
    u, p = np.array([0.3, -0.2, 0.5, 0.1]), np.array([0.4, 0.2, -0.1, 0.6])
    assert np.isfinite(continuous_sd_discretized(mesh, phi, u, p, params, 1,
                                                 labels))


def _snap_zeros(mesh, phi, rng, tries=40):
    """Copy of ``phi`` with exact zeros at random nodes, each kept only if
    every node still has a finite sensitivity."""
    params = default_params().with_uhat(np.zeros(mesh.num_nodes))
    zeros = np.zeros(mesh.num_nodes)
    phi = phi.copy()
    for k in rng.choice(mesh.num_nodes, size=tries, replace=False):
        trial = phi.copy()
        trial[k] = 0.0
        try:
            ts_derivative(mesh, trial, zeros, zeros, params)
        except DegenerateDenominator:
            continue
        phi = trial
    return phi


@pytest.mark.parametrize("level", [4, 8])
def test_field_rates_equal_per_node_rates(level, rng):
    mesh = experiment_mesh(level)
    params = default_params().with_uhat(np.zeros(mesh.num_nodes))
    u, p = rng.normal(size=(2, mesh.num_nodes))
    designs = [rng.uniform(-1.0, 1.0, mesh.num_nodes) for _ in range(3)]
    snapped = [_snap_zeros(mesh, phi, rng) for phi in designs]
    assert all((phi == 0.0).sum() >= 3 for phi in snapped)
    for phi in designs + snapped:
        labels = classify_nodes(mesh, phi)
        field = ts_derivative(mesh, phi, u, p, params, labels)
        per_node = [area_derivative(mesh, phi, k, labels).total_abs
                    for k in range(mesh.num_nodes)]
        assert field.dkatilde.tolist() == per_node


def test_area_rate_sign_structure(mesh8, rng):
    for _ in range(10):
        phi = rng.uniform(-1, 1, mesh8.num_nodes)
        labels = classify_nodes(mesh8, phi)
        for k in rng.choice(mesh8.num_nodes, size=12, replace=False):
            der = area_derivative(mesh8, phi, int(k), labels)
            label = labels[k]
            if label == -1:
                assert (der.values < 0).all()
            elif label == 1:
                assert (der.values > 0).all()
            else:
                assert (der.values <= 0).all()
                assert der.total == pytest.approx(-der.total_abs)
            assert der.total_abs > 0 or len(der.values) == 0


def test_volume_derivative_piecewise_constant(mesh8, rng):
    # the closed form of the pure area cost is +1 on interior positive
    # nodes and -1 elsewhere, the same on the all-positive and all-negative
    # designs
    params = default_params(c1=1.0, c2=0.0).with_uhat(
        np.zeros(mesh8.num_nodes))
    phi = rng.uniform(-1, 1, mesh8.num_nodes)
    labels = classify_nodes(mesh8, phi)
    dv = analytic_field(mesh8, phi, params).dj
    assert np.all(dv[labels == T_PLUS] == 1.0)
    assert np.all(dv[labels != T_PLUS] == -1.0)
    ones = np.ones(mesh8.num_nodes)
    assert np.all(analytic_field(mesh8, ones, params).dj == 1.0)
    assert np.all(analytic_field(mesh8, -ones, params).dj == -1.0)


def test_cut_matrix_printed_entries():
    mats = cut_matrices((-1.0, 1.0, -1.0), det_j=1.0)        # B+
    assert mats.dm[0, 0] == pytest.approx(-1.0 / 128.0)
    mats_a = cut_matrices((1.0, -1.0, -1.0), det_j=1.0)      # A+
    assert mats_a.df[1] == pytest.approx(-0.03125)


def test_cut_matrix_symmetry_and_sign_flip(rng):
    # pivot-first sign patterns of the 'plus' configurations A+, B+, C+;
    # negating one gives its 'minus' configuration
    for pattern in ((1, -1, -1), (-1, 1, -1), (-1, -1, 1)):
        for _ in range(10):
            mags = rng.uniform(0.1, 2.0, 3)
            vals = tuple(s * m for s, m in zip(pattern, mags))
            m_plus = cut_matrices(vals, det_j=0.7)
            assert np.allclose(m_plus.dm, m_plus.dm.T)
            # negated values swap the two regions and the direction of the
            # pivot's perturbation, so the two sign flips cancel
            flipped = tuple(-v for v in vals)
            m_minus = cut_matrices(flipped, det_j=0.7)
            assert np.allclose(m_minus.dm, m_plus.dm)
            assert np.allclose(m_minus.df, m_plus.df)


def test_cut_matrix_degenerate_denominator():
    # sign-consistent near-ties whose fourth-power denominators underflow
    # configurations A+, B+ and C-
    near_ties = [(1e-80, -1e-80, -2e-80), (-2e-80, 1e-80, -1e-80),
                 (1e-80, 2e-80, -1e-80)]
    for vals in near_ties:
        with pytest.raises(DegenerateDenominator):
            cut_matrices(vals, det_j=1.0)


def test_cut_matrix_rejects_an_uncut_element():
    # zero counts as '+', so these signs agree
    for vals in ((1.0, 0.0, 2.0), (-1.0, -2.0, -0.5)):
        with pytest.raises(ValueError, match="do not cut"):
            cut_matrices(vals, det_j=1.0)


def test_near_tie_design_raises_instead_of_nan():
    # a design scaled so far down that the cut-rate denominators underflow
    mesh = experiment_mesh(4)
    phi = 1e-80 * (mesh.nodes[:, 0] - 0.37)
    params = default_params().with_uhat(np.zeros(mesh.num_nodes))
    zeros = np.zeros(mesh.num_nodes)
    with pytest.raises(DegenerateDenominator):
        ts_derivative(mesh, phi, zeros, zeros, params)


def test_cut_matrices_match_hyperdual_oracle(rng, every_element_integrals):
    # pivot-first sign patterns of A+, A-, B+, B-, C+, C-
    patterns = [(1, -1, -1), (-1, 1, 1), (-1, 1, -1), (1, -1, 1),
                (-1, -1, 1), (1, 1, -1)]
    h = 0.5
    # one reference triangle per sample, the pivot its first vertex
    mesh = reference_triangles(10)
    seed = np.zeros((10, 3))
    seed[:, 0] = h
    for pattern in patterns:
        vals = np.array(pattern) * rng.uniform(0.1, 2.0, (10, 3))
        _, mass, load = every_element_integrals(
            mesh, HyperDualArray(vals.reshape(-1), seed.reshape(-1)))
        for s, v in enumerate(vals):
            mats = cut_matrices(v, det_j=1.0)
            assert mats.df == pytest.approx(load.e1[s] / h, abs=1e-12)
            assert mats.dm == pytest.approx(mass.e1[s] / h, abs=1e-12)


def test_sensitivity_vanishes_without_material_contrast(mesh8, phi_d8):
    params = default_params(lambda1=0.8, lambda2=0.8, alpha1=0.4, alpha2=0.4,
                            atilde1=0.7, atilde2=0.7, f1=1.2, f2=1.2,
                            c1=0.0, c2=1.0).with_uhat(np.zeros(mesh8.num_nodes))
    system = assemble(mesh8, phi_d8, params)
    u = solve_state(system)
    p = solve_adjoint(system, u, params)
    field = ts_derivative(mesh8, phi_d8, u, p, params)
    assert np.abs(field.dj).max() < 1e-13


def test_pure_volume_cost_recovers_sign_table(mesh8, phi_d8):
    params = default_params(c1=1.0, c2=0.0).with_uhat(np.zeros(mesh8.num_nodes))
    system = assemble(mesh8, phi_d8, params)
    u = solve_state(system)
    p = solve_adjoint(system, u, params)
    field = ts_derivative(mesh8, phi_d8, u, p, params)
    sign_table = np.where(field.labels == T_PLUS, 1.0, -1.0)
    assert np.allclose(field.dj, sign_table, atol=1e-14)


def test_sensitivity_is_scale_invariant(mesh8, phi_d8, params_zero8):
    system = assemble(mesh8, phi_d8, params_zero8)
    u = solve_state(system)
    p = solve_adjoint(system, u, params_zero8)
    base = ts_derivative(mesh8, phi_d8, u, p, params_zero8)
    scaled = ts_derivative(mesh8, 7.3 * phi_d8, u, p, params_zero8)
    assert np.abs(base.dj - scaled.dj).max() < 1e-12 * max(1, np.abs(base.dj).max())


def test_matches_hyperdual_pipeline_on_sample_nodes(mesh8, phi_d8, params_zero8):
    field = analytic_field(mesh8, phi_d8, params_zero8)
    labels = field.labels
    sample = [int(np.flatnonzero(labels == 0)[0]),
              int(np.flatnonzero(labels == 1)[0]),
              int(np.flatnonzero(labels == -1)[0])]
    for k in sample:
        est = hd_derivative(mesh8, phi_d8, params_zero8, k, 0.7,
                            int(labels[k]), field.dkatilde[k])
        assert est == pytest.approx(field.dj[k], rel=1e-12, abs=1e-12)


def test_matches_hyperdual_pipeline_for_random_level_sets(mesh8, params_zero8,
                                                          rng):
    # the strongest generalization check: arbitrary designs, arbitrary node
    # classes, every sensitivity must equal the hyper-dual re-solve
    for _ in range(4):
        phi = rng.uniform(-1.0, 1.0, mesh8.num_nodes)
        field = analytic_field(mesh8, phi, params_zero8)
        nodes = rng.choice(mesh8.num_nodes, size=10, replace=False)
        for k in nodes:
            k = int(k)
            est = hd_derivative(mesh8, phi, params_zero8, k, 1.0,
                                int(field.labels[k]), field.dkatilde[k])
            assert est == pytest.approx(field.dj[k], rel=1e-10,
                                        abs=1e-10 * max(1, abs(field.dj[k])))


def test_matches_hyperdual_pipeline_on_other_mesh_levels(rng):
    from tsopt.problems import experiment_mesh, interpolate_target, setup_problem
    for level in (4, 12):
        mesh = experiment_mesh(level)
        params = setup_problem(mesh, uhat="zero")
        phi = interpolate_target(mesh)
        field = analytic_field(mesh, phi, params)
        nodes = rng.choice(mesh.num_nodes, size=8, replace=False)
        for k in nodes:
            k = int(k)
            est = hd_derivative(mesh, phi, params, k, 1.0,
                                int(field.labels[k]), field.dkatilde[k])
            assert est == pytest.approx(field.dj[k], rel=1e-10,
                                        abs=1e-10 * max(1, abs(field.dj[k])))


def test_generalized_derivative_branches():
    labels = np.array([-1, -1, 1, 1, 0], dtype=np.int8)
    dj = np.array([2.0, -2.0, 2.0, -2.0, 0.5])
    g = generalized_derivative(dj, labels)
    assert g.tolist() == [0.0, 2.0, 0.0, -2.0, -0.5]


def test_optimality_iff_descent_field_vanishes(mesh8, rng):
    labels = classify_nodes(mesh8, rng.uniform(-1, 1, mesh8.num_nodes))
    dj = np.abs(rng.normal(size=mesh8.num_nodes))  # nonnegative everywhere
    dj[labels == 0] = 0.0
    g = generalized_derivative(dj, labels)
    assert np.abs(g).max() == 0.0


def test_continuous_comparison_reduces_to_discrete_without_diffusion_contrast(
        mesh8, phi_d8):
    params = default_params(lambda1=0.8, lambda2=0.8).with_uhat(
        np.zeros(mesh8.num_nodes))
    system = assemble(mesh8, phi_d8, params)
    u = solve_state(system)
    p = solve_adjoint(system, u, params)
    field = ts_derivative(mesh8, phi_d8, u, p, params)
    for k in np.flatnonzero(field.labels == 0):
        ghat = continuous_sd_discretized(mesh8, phi_d8, u, p, params, int(k))
        assert ghat == pytest.approx(field.dj[k], rel=1e-12, abs=1e-14)


def test_continuous_comparison_pure_volume(mesh8, phi_d8):
    params = default_params(c1=1.0, c2=0.0).with_uhat(np.zeros(mesh8.num_nodes))
    system = assemble(mesh8, phi_d8, params)
    u = solve_state(system)
    p = solve_adjoint(system, u, params)
    labels = classify_nodes(mesh8, phi_d8)
    for k in np.flatnonzero(labels == 0)[:8]:
        assert continuous_sd_discretized(mesh8, phi_d8, u, p, params,
                                         int(k), labels) == pytest.approx(-1.0)


def test_continuous_comparison_rejects_interior_nodes(mesh8, phi_d8,
                                                      params_zero8):
    labels = classify_nodes(mesh8, phi_d8)
    system = assemble(mesh8, phi_d8, params_zero8)
    u = solve_state(system)
    p = solve_adjoint(system, u, params_zero8)
    with pytest.raises(ValueError):
        continuous_sd_discretized(mesh8, phi_d8, u, p, params_zero8,
                                  int(np.flatnonzero(labels == 1)[0]),
                                  labels)
