from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (band_to_dense, exact_negative_load_entry,
                     exact_negative_mass_entry, jittered_crossed_mesh,
                     one_diagonal_mesh, reference_triangles)
from tsopt import fem, levelset
from tsopt.fem import (_band_matrix, _coupled, _summed, assemble,
                       element_geometry, evaluate_cost, objective,
                       solve_adjoint, solve_state, tracking_matvec)
from tsopt.hdarray import HyperDualArray
from tsopt.levelset import (_FULL_LOAD_REF, _FULL_MASS_REF, SHAPE, T_MINUS,
                            T_PLUS, DegenerateCut, perturb, subdomain_area)
from tsopt.mesh import Mesh, generate_crossed_mesh, tag_boundary
from tsopt.problems import (default_params, experiment_mesh,
                            interpolate_target, on_top_or_bottom,
                            setup_problem)

REF = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])


def test_reference_triangle_gradient_products():
    geo = element_geometry(REF)
    assert geo.det_j[0] == pytest.approx(1.0)
    expected = np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    assert np.allclose(geo.k0[0], expected)


def test_gradient_product_row_sums_vanish(mesh8):
    k0 = element_geometry(mesh8).k0
    assert np.abs(k0.sum(axis=2)).max() < 1e-12


def test_geometry_is_translation_invariant():
    shifted = Mesh([(5, 3), (6, 3), (5, 4)], [(0, 1, 2)])
    a = element_geometry(REF)
    b = element_geometry(shifted)
    assert np.allclose(a.k0, b.k0)
    assert np.allclose(a.det_j, b.det_j)


def test_inverted_element_rejected():
    with pytest.raises(ValueError, match="counter-clockwise"):
        Mesh([(0, 0), (0, 1), (1, 0)], [(0, 1, 2)])


def test_uncut_local_mass_and_load(every_element_integrals):
    _, mass, load = every_element_integrals(reference_triangles(1),
                                            np.array([-1.0, -1.0, -1.0]))
    expected_mass = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    assert np.allclose(mass[0], expected_mass)
    assert np.allclose(load[0], np.full(3, 1.0 / 6.0))


def test_cut_integrals_match_clipping_quadrature(rng, every_element_integrals):
    # exact rational formulas vs clip + degree-2 quadrature on the reference
    # element, random sign configurations, one reference triangle each
    samples = rng.uniform(-1.5, 1.5, size=(40, 3))
    samples = samples[(samples != 0.0).all(axis=1)]
    _, mass, load = every_element_integrals(
        reference_triangles(len(samples)), samples.reshape(-1))
    for phi, m, f in zip(samples, mass, load):
        for i in range(3):
            assert f[i] == pytest.approx(
                exact_negative_load_entry(phi, i), abs=1e-13)
            for j in range(3):
                assert m[i, j] == pytest.approx(
                    exact_negative_mass_entry(phi, i, j), abs=1e-13)


def test_equal_coefficients_make_system_level_set_independent(rng, mesh8):
    params = default_params(lambda1=0.7, lambda2=0.7, alpha1=0.3, alpha2=0.3,
                            f1=2.0, f2=2.0, atilde1=0.5, atilde2=0.5)
    params = params.with_uhat(np.zeros(mesh8.num_nodes))
    p1 = rng.uniform(-1, 1, mesh8.num_nodes)
    p2 = rng.uniform(-1, 1, mesh8.num_nodes)
    s1 = assemble(mesh8, p1, params)
    s2 = assemble(mesh8, p2, params)
    assert np.abs((s1.matrix - s2.matrix)).max() < 1e-14
    assert np.abs(s1.rhs - s2.rhs).max() < 1e-14


def test_assembly_is_affine_in_coefficients(mesh8, phi_d8):
    mats = []
    for lam1 in (1.0, 2.0, 3.0):
        params = default_params(lambda1=lam1).with_uhat(np.zeros(mesh8.num_nodes))
        mats.append(assemble(mesh8, phi_d8, params).matrix)
    assert np.allclose(mats[1] - mats[0], mats[2] - mats[1], atol=1e-13)


def test_harmonic_dirichlet_data_reproduced_exactly(mesh8, phi_d8):
    params = default_params(lambda1=1.0, lambda2=1.0, alpha1=0.0, alpha2=0.0,
                            f1=0.0, f2=0.0).with_uhat(np.zeros(mesh8.num_nodes))
    u = solve_state(assemble(mesh8, phi_d8, params))
    assert np.abs(u - mesh8.nodes[:, 1]).max() < 1e-12


def test_residual_bound(mesh8, phi_d8, params_zero8):
    system = assemble(mesh8, phi_d8, params_zero8)
    u = solve_state(system)
    index = system.mesh.reduced_index
    free = index.free
    residual = band_to_dense(system.matrix, index.band) @ u[free] - system.rhs
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(system.rhs)


def test_galerkin_orthogonality_surrogate(mesh8, phi_d8, params_zero8, rng):
    system = assemble(mesh8, phi_d8, params_zero8)
    u = solve_state(system)
    index = system.mesh.reduced_index
    free = index.free
    residual = band_to_dense(system.matrix, index.band) @ u[free] - system.rhs
    scale = np.linalg.norm(system.rhs)
    for _ in range(20):
        v = rng.normal(size=len(free))
        assert abs(residual @ v) <= 1e-10 * scale * np.linalg.norm(v)


def test_solution_symmetry_for_symmetric_design(mesh8):
    # circle centered in the square: the problem is mirror symmetric in x
    x, y = mesh8.nodes[:, 0], mesh8.nodes[:, 1]
    phi = (x - 0.5) ** 2 + (y - 0.5) ** 2 - 0.3 ** 2
    params = setup_problem(mesh8, uhat="zero")
    u = solve_state(assemble(mesh8, phi, params))
    lookup = {(round(xi, 12), round(yi, 12)): i
              for i, (xi, yi) in enumerate(mesh8.nodes)}
    for i, (xi, yi) in enumerate(mesh8.nodes):
        j = lookup[(round(1.0 - xi, 12), round(yi, 12))]
        assert u[i] == pytest.approx(u[j], abs=1e-12)


def test_state_matches_target_at_target_design(mesh8, phi_d8, params_target8):
    system = assemble(mesh8, phi_d8, params_target8)
    u = solve_state(system)
    assert np.abs(u - params_target8.uhat).max() == 0.0
    assert objective(mesh8, phi_d8, u, params_target8, system=system) == 0.0
    p = solve_adjoint(system, u, params_target8)
    assert np.abs(p).max() == 0.0


def test_adjoint_vanishes_without_tracking_weight(mesh8, phi_d8):
    params = default_params(c2=0.0, c1=1.0).with_uhat(np.ones(mesh8.num_nodes))
    system = assemble(mesh8, phi_d8, params)
    u = solve_state(system)
    p = solve_adjoint(system, u, params)
    assert np.abs(p).max() == 0.0


def test_dense_cross_check_on_smallest_mesh():
    mesh = experiment_mesh(1)
    params = setup_problem(mesh, uhat="zero")
    system = assemble(mesh, np.array([-1.0, 1.0, 1.0, -1.0, 0.25]), params)
    dense = band_to_dense(system.matrix, mesh.reduced_index.band)
    u_free = np.linalg.solve(dense, system.rhs)
    u = solve_state(system)
    free = system.mesh.reduced_index.free
    assert np.allclose(u[free], u_free, atol=1e-13)


def test_generic_consistency(mesh8, phi_d8, params_zero8):
    system = assemble(mesh8, phi_d8, params_zero8)
    u = solve_state(system)
    j_real = objective(mesh8, phi_d8, u, params_zero8, system=system)

    phic = phi_d8.astype(complex)
    sc = assemble(mesh8, phic, params_zero8)
    uc = solve_state(sc)
    jc = objective(mesh8, phic, uc, params_zero8, system=sc)
    assert abs(uc - u).max() < 1e-12
    assert jc.imag == 0.0 and abs(jc.real - j_real) < 1e-12

    phih = HyperDualArray(phi_d8)
    sh = assemble(mesh8, phih, params_zero8)
    uh = solve_state(sh)
    jh = objective(mesh8, phih, uh, params_zero8, system=sh)
    assert np.abs(uh.re - u).max() < 1e-12
    assert np.abs(uh.e1).max() == 0.0
    assert abs(jh.re - j_real) < 1e-12 and jh.e12 == 0.0


def test_objective_terms(mesh8, phi_d8):
    params = default_params(c1=1.0, c2=0.0).with_uhat(np.zeros(mesh8.num_nodes))
    phi = -np.ones(mesh8.num_nodes)
    system = assemble(mesh8, phi, params)
    u = solve_state(system)
    assert objective(mesh8, phi, u, params, system=system) == pytest.approx(1.0)


def test_area_term_takes_the_cut_pass_of_the_assembly(rng, monkeypatch):
    # with c1 != 0 the system carries the negative area from its own cut
    # pass: one lone-cut pass per cost evaluation, and the cost of
    # objective's former second pass (subdomain_area), bit for bit for
    # real designs
    passes = []

    def counted(phi, tris, _real=levelset._lone_cuts):
        passes.append(None)
        return _real(phi, tris)

    for level in (2, 8, 16):
        mesh = experiment_mesh(level)
        params = replace(setup_problem(mesh, uhat="zero"), c1=1.0)
        m = mesh.num_nodes
        x = mesh.nodes[:, 0]
        designs = [interpolate_target(mesh)]
        for _ in range(3):
            phi = rng.uniform(-1.0, 1.0, m)
            phi[rng.uniform(size=m) < 0.2] = 0.0     # exact zeros
            designs.append(phi)
        for phi in designs:
            for design in (phi, phi + 1e-3j * x, HyperDualArray(phi, x, x)):
                passes.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(levelset, "_lone_cuts", counted)
                    j, system, u = evaluate_cost(mesh, design, params)
                assert len(passes) == 1
                want = objective(mesh, design, u, replace(params, c1=0.0),
                                 system) + subdomain_area(mesh, design)
                if isinstance(design, np.ndarray) and design.dtype == float:
                    assert np.float64(j).tobytes() == want.tobytes()
                else:
                    for got, ref in zip(_lanes(j), _lanes(want)):
                        assert abs(got - ref) <= 1e-15 * abs(ref)
    params = setup_problem(mesh, uhat="zero")
    assert assemble(mesh, designs[0], params).area is None


def test_tracking_matvec_matches_quadratic_form(mesh8, phi_d8, params_zero8, rng):
    system = assemble(mesh8, phi_d8, params_zero8)
    w = rng.normal(size=mesh8.num_nodes)
    v = rng.normal(size=mesh8.num_nodes)
    mw = tracking_matvec(system, w)
    mv = tracking_matvec(system, v)
    # symmetry of the underlying matrix
    assert w @ mv == pytest.approx(v @ mw, rel=1e-12)


def _full_matrix(mesh, local):
    """scipy's COO-to-CSR conversion of the ``(N, 3, 3)`` element matrices
    ``local`` of one real or complex part."""
    n, m = mesh.num_elements, mesh.num_nodes
    rows = np.broadcast_to(mesh.elements[:, :, None], (n, 3, 3)).ravel()
    cols = np.broadcast_to(mesh.elements[:, None, :], (n, 3, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(m, m)).tocsr()


def _reference_band(mesh, local):
    """The lower band storage of the permuted free x free block of
    :func:`_full_matrix`, entry by entry, with zeros elsewhere."""
    free, band = mesh.reduced_index.free, mesh.reduced_index.band
    block = _full_matrix(mesh, local)[free][:, free][band.perm][:, band.perm]
    block = block.tocoo()
    lower = block.row >= block.col
    ab = np.zeros((band.width + 1, len(free)), dtype=block.dtype)
    ab[(block.row - block.col)[lower], block.col[lower]] = block.data[lower]
    return ab


def _assert_band_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def _with_random_dirichlet_values(level, rng):
    """The level's experiment mesh with random Dirichlet values."""
    mesh = experiment_mesh(level)
    return Mesh(mesh.nodes, mesh.elements, mesh.dirichlet_nodes,
                rng.normal(size=len(mesh.dirichlet_nodes)))


def _reference_coupling(mesh, local):
    """The free x fixed block of :func:`_full_matrix` times the mesh's
    Dirichlet values, by scipy's CSR matrix-vector product."""
    free, fixed = mesh.reduced_index.free, mesh.dirichlet_nodes
    return _full_matrix(mesh, local)[free][:, fixed] @ mesh.dirichlet_values


@pytest.mark.parametrize("level", [2, 8, 16])
def test_reduced_scatter_equals_sliced_full_matrix_bitwise(level, rng):
    # the band and the coupling sum every duplicate entry in the same order
    # as the conversion of the full matrix and its product with the
    # Dirichlet values, so they agree to the last bit
    mesh = _with_random_dirichlet_values(level, rng)
    index = mesh.reduced_index
    n = mesh.num_elements
    for _ in range(3):
        local = rng.normal(size=(n, 3, 3))
        got = _band_matrix(local.transpose(1, 2, 0), index.band)
        _assert_band_bitwise(got, _reference_band(mesh, local))
        _assert_band_bitwise(_coupled(local.transpose(1, 2, 0), index),
                             _reference_coupling(mesh, local))


@pytest.mark.parametrize("level", [2, 8, 16])
def test_reduced_scatter_of_complex_and_hyperdual_data_bitwise(level, rng):
    # complex and hyper-dual components go through the same slots as real
    # data; each must equal the COO-to-CSR conversion of the full matrix,
    # sliced to the permuted free x free block, in its lower band, to the
    # last bit, each coupling the product of its free x fixed block with
    # the Dirichlet values, and each rhs the np.add.at scatter
    mesh = _with_random_dirichlet_values(level, rng)
    index = mesh.reduced_index
    n, m = mesh.num_elements, mesh.num_nodes

    local = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    _assert_band_bitwise(_band_matrix(local.transpose(1, 2, 0), index.band),
                         _reference_band(mesh, local))
    _assert_band_bitwise(_coupled(local.transpose(1, 2, 0), index),
                         _reference_coupling(mesh, local))
    parts = [rng.normal(size=(n, 3, 3)) for _ in range(3)]
    hd = HyperDualArray(*parts).transpose(1, 2, 0)
    got = _band_matrix(hd, index.band)
    coupled = _coupled(hd, index)
    assert isinstance(got, HyperDualArray)
    assert isinstance(coupled, HyperDualArray)
    for comp, lane, part in zip(got.lanes, coupled.lanes, parts):
        _assert_band_bitwise(comp, _reference_band(mesh, part))
        _assert_band_bitwise(lane, _reference_coupling(mesh, part))

    # the rhs scatter sums in the same order as np.add.at over the elements
    def added(vals):
        out = np.zeros(m, dtype=vals.dtype)
        np.add.at(out, mesh.elements.reshape(-1), vals.reshape(-1))
        return out

    real = rng.normal(size=(n, 3))
    for vals in (real, real + 1j * rng.normal(size=(n, 3))):
        got = _summed(vals, mesh.elements.reshape(-1), m)
        want = added(vals)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    lanes = [rng.normal(size=(n, 3)) for _ in range(3)]
    got = _summed(HyperDualArray(*lanes), mesh.elements.reshape(-1), m)
    assert isinstance(got, HyperDualArray)
    for lane, vals in zip(got.lanes, lanes):
        assert lane.tobytes() == added(vals).tobytes()


_BAND_MESHES = {
    "crossed 1": lambda: experiment_mesh(1),
    "crossed 2": lambda: experiment_mesh(2),
    "crossed 8": lambda: experiment_mesh(8),
    "jittered 5": lambda: jittered_crossed_mesh(5, 11),
    "one-diagonal 6": lambda: one_diagonal_mesh(6),
}


@pytest.mark.parametrize("name", sorted(_BAND_MESHES))
def test_assembled_band_equals_the_permuted_reference_bitwise(
        name, rng, monkeypatch):
    # assemble sums every lower free x free entry of the element matrices
    # straight into the band; each slot must hold the bits of the COO-to-CSR
    # conversion of the same element matrices, part by part and lane by
    # lane, and a hyper-dual solve through the band products must agree
    # with a dense solve of the three lanes
    mesh = _BAND_MESHES[name]()
    params = setup_problem(mesh, uhat="zero")
    band = mesh.reduced_index.band
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    phi = rng.uniform(-1.0, 1.0, mesh.num_nodes)
    locals_seen = []

    def captured(values, layout, _real=fem._band_matrix):
        locals_seen.append(values)
        return _real(values, layout)

    monkeypatch.setattr(fem, "_band_matrix", captured)
    hyper = HyperDualArray(phi, x, x * y)
    for design in (phi, phi + 1e-3j * y, hyper):
        got = assemble(mesh, design, params).matrix
        local = locals_seen.pop()
        if isinstance(design, HyperDualArray):
            pairs = zip(got.lanes, local.lanes)
        else:
            pairs = [(got, local)]
        for lane, values in pairs:
            assert lane.flags.f_contiguous
            _assert_band_bitwise(lane, _reference_band(
                mesh, values.transpose(2, 0, 1)))

    system = assemble(mesh, hyper, params)
    a0, a1, a12 = (band_to_dense(lane, band) for lane in system.matrix.lanes)
    b = system.rhs
    x0 = np.linalg.solve(a0, b.re)
    x1 = np.linalg.solve(a0, b.e1 - a1 @ x0)
    x12 = np.linalg.solve(a0, b.e12 - a1 @ x1 - a1 @ x1 - a12 @ x0)
    got = solve_state(system)[mesh.reduced_index.free]
    for comp, want in zip(got.lanes, (x0, x1, x12)):
        assert np.abs(comp - want).max() <= 1e-12 * np.abs(want).max()


def test_reduced_index_is_cached_per_mesh():
    mesh = experiment_mesh(4)
    assert mesh.reduced_index is mesh.reduced_index
    assert experiment_mesh(4).reduced_index is not mesh.reduced_index


def test_band_layout_is_cached_per_mesh():
    mesh = experiment_mesh(4)
    band = mesh.reduced_index.band
    assert mesh.reduced_index.band is band
    other = experiment_mesh(4).reduced_index.band
    assert other is not band
    assert np.array_equal(other.perm, band.perm) and other.width == band.width
    assert np.array_equal(np.sort(band.perm),
                          np.arange(len(mesh.reduced_index.free)))
    # cached arrays are shared, so they refuse in-place writes
    for array in (band.perm, band.source, band.target):
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize("level", [4, 8, 16, 32])
def test_bandwidth_grows_linearly_with_level(level):
    # a half-bandwidth of O(level) keeps the banded factors at
    # O(n level^2); a broken ordering would make them as costly as a dense
    # factor
    assert experiment_mesh(level).reduced_index.band.width <= 2.5 * level


@pytest.mark.parametrize("level", [2, 8, 16])
def test_state_solves_match_dense_reduced_system(level):
    mesh = experiment_mesh(level)
    params = setup_problem(mesh, uhat="zero")
    phi = interpolate_target(mesh)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]

    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    band = mesh.reduced_index.band
    for design in (phi, phi + 0.05j * x):
        system = assemble(mesh, design, params)
        want = np.linalg.solve(band_to_dense(system.matrix, band), system.rhs)
        got = solve_state(system)[system.mesh.reduced_index.free]
        assert_close(got.real, want.real)
        assert_close(got.imag, want.imag)

    system = assemble(mesh, HyperDualArray(phi, x, x * y), params)
    a0, a1, a12 = (band_to_dense(lane, band) for lane in system.matrix.lanes)
    b = system.rhs
    x0 = np.linalg.solve(a0, b.re)
    x1 = np.linalg.solve(a0, b.e1 - a1 @ x0)
    x12 = np.linalg.solve(a0, b.e12 - a1 @ x1 - a1 @ x1 - a12 @ x0)
    got = solve_state(system)[system.mesh.reduced_index.free]
    for comp, want in zip(got.lanes, (x0, x1, x12)):
        assert_close(comp, want)


def test_geometry_is_cached_per_mesh():
    mesh = experiment_mesh(4)
    assert mesh.geometry is mesh.geometry
    assert element_geometry(mesh) is mesh.geometry
    other = experiment_mesh(4)
    assert other.geometry is not mesh.geometry
    assert np.array_equal(other.geometry.k0, mesh.geometry.k0)
    # cached arrays are shared, so they refuse in-place writes
    with pytest.raises(ValueError):
        mesh.geometry.det_j[0] = 0.0


@pytest.mark.parametrize("fixed", ["no Dirichlet node", "no free node"])
def test_a_mesh_without_dirichlet_or_free_nodes_assembles_and_solves(fixed,
                                                                     rng):
    # with no Dirichlet node every node is free and the coupling is empty;
    # with no free node there is no unknown and the state is the Dirichlet
    # data; both assemble and solve in every scalar type
    base = generate_crossed_mesh(2)
    m = base.num_nodes
    mesh = (base if fixed == "no Dirichlet node" else
            Mesh(base.nodes, base.elements, np.arange(m), rng.normal(size=m)))
    index = mesh.reduced_index
    assert len(index.free) == (m if fixed == "no Dirichlet node" else 0)
    params = default_params().with_uhat(np.zeros(m))
    phi = rng.uniform(-1.0, 1.0, m)
    for x in (phi, phi + 1e-3j * rng.normal(size=m),
              HyperDualArray(phi, rng.normal(size=m), rng.normal(size=m))):
        system = assemble(mesh, x, params)
        u = solve_state(system)
        p = solve_adjoint(system, u, params)
        for lane in _lanes(u) + _lanes(p):
            assert lane.shape == (m,) and np.isfinite(lane).all()
        assert np.array_equal(_lanes(u)[0][mesh.dirichlet_nodes],
                              mesh.dirichlet_values)
        if isinstance(x, HyperDualArray):   # the three tied lane equations
            a0, a1, a12 = (band_to_dense(a, index.band)
                           for a in system.matrix.lanes)
            x0, x1, x12 = (lane[index.free] for lane in u.lanes)
            b0, b1, b12 = system.rhs.lanes
            residuals = (a0 @ x0 - b0, a0 @ x1 + a1 @ x0 - b1,
                         a0 @ x12 + 2.0 * (a1 @ x1) + a12 @ x0 - b12)
        else:
            residuals = (band_to_dense(system.matrix, index.band)
                         @ u[index.free] - system.rhs,)
        scale = max([1.0] + [np.abs(b).max(initial=0.0)
                             for b in _lanes(system.rhs)])
        for r in residuals:
            assert np.abs(r).max(initial=0.0) <= 1e-12 * scale


def test_hyperdual_components_share_one_pattern(mesh8, phi_d8, params_zero8):
    phih = HyperDualArray(phi_d8, np.ones(mesh8.num_nodes))
    matrix = assemble(mesh8, phih, params_zero8).matrix
    assert isinstance(matrix, HyperDualArray) and len(matrix.lanes) == 3
    real = assemble(mesh8, phi_d8, params_zero8).matrix
    for comp in matrix.lanes:
        assert comp.dtype == real.dtype and comp.shape == real.shape
        assert comp.flags.f_contiguous
    assert np.allclose(matrix.re, real, rtol=1e-14, atol=0.0)


def _assemble_every_element(mesh, phi, params, integrals):
    # the full-element assembly: every element through the ``integrals``
    # (the every_element_integrals fixture) and the local formulas, the
    # Dirichlet coupling by scipy, lane by lane
    geo = mesh.geometry
    dj = geo.det_j
    neg_frac, neg_mass, neg_load = integrals(mesh, phi)
    lam_int = params.lambda2 * 0.5 + params.d_lambda * neg_frac
    k_loc = geo.k0 * (dj * lam_int)[:, None, None]
    m_loc = (params.alpha2 * _FULL_MASS_REF + params.d_alpha * neg_mass) \
        * dj[:, None, None]
    a_loc = k_loc + m_loc
    mt_loc = (params.atilde2 * _FULL_MASS_REF + params.d_atilde * neg_mass) \
        * dj[:, None, None]
    f_loc = (params.f2 * _FULL_LOAD_REF + params.d_f * neg_load) * dj[:, None]
    index = mesh.reduced_index
    a_ff = _band_matrix(a_loc.transpose(1, 2, 0), index.band)

    coupled = (HyperDualArray(*(_reference_coupling(mesh, lane)
                                for lane in a_loc.lanes))
               if isinstance(a_loc, HyperDualArray)
               else _reference_coupling(mesh, a_loc))
    f_glob = _summed(f_loc, mesh.elements.reshape(-1), mesh.num_nodes)
    return a_ff, f_glob[index.free] - coupled, mt_loc, neg_frac


def _lanes(x):
    if isinstance(x, HyperDualArray):
        return x.lanes
    x = np.asarray(x)
    return (x.real, x.imag) if np.iscomplexobj(x) else (x,)


def _assert_same(got, want, bytewise):
    # real data byte for byte; complex and hyper-dual data lane by lane,
    # where an exact zero may differ in its sign
    assert type(got) is type(want)
    got_lanes, want_lanes = _lanes(got), _lanes(want)
    assert len(got_lanes) == len(want_lanes)
    for g, w in zip(got_lanes, want_lanes):
        assert g.dtype == w.dtype and g.shape == w.shape
        if bytewise:
            assert np.ascontiguousarray(g).tobytes() == w.tobytes()
        else:
            assert np.array_equal(g, w)


def test_cut_local_assembly_equals_the_full_element_body(
        rng, every_element_integrals):
    outcomes = set()
    # a second material, on a mesh with Dirichlet values that make the order
    # of the coupling sums matter
    def rough(x, y):
        return np.exp(3.1 * x) * (0.3 + y)

    second = default_params(lambda1=2.5, lambda2=0.3, alpha1=0.05,
                            alpha2=1.7, atilde1=0.0, atilde2=2.0, f1=-1.0,
                            f2=3.0)
    for n in (1, 2, 4, 8, 16, 32):
        mesh = tag_boundary(experiment_mesh(n), on_top_or_bottom, rough)
        m = mesh.num_nodes
        designs = [np.ones(m), -np.ones(m)]
        for _ in range(4):
            phi = rng.uniform(-1.0, 1.0, m)
            phi[rng.uniform(size=m) < 0.2] = 0.0     # snapped zeros
            designs.append(phi)
        for phi in designs:
            k = int(rng.integers(m))
            some = rng.uniform(size=m)
            seed = HyperDualArray(0.0, 0.5, 0.0)
            inputs = [
                phi,
                phi + 1j * rng.normal(size=m) * (some < 0.5),
                HyperDualArray(phi, rng.normal(size=m) * (some < 0.3),
                               rng.normal(size=m)),
                perturb(phi, k, seed, SHAPE),
                perturb(phi, k, seed, T_PLUS),
                perturb(phi, k, complex(0.0, 1e-3), T_MINUS),
            ]
            for x in inputs:
                for params in (default_params(), second):
                    try:
                        want = _assemble_every_element(
                            mesh, x, params, every_element_integrals)
                    except DegenerateCut:
                        with pytest.raises(DegenerateCut):
                            assemble(mesh, x, params)
                        outcomes.add("raised")
                        continue
                    got = assemble(mesh, x, params)
                    real = isinstance(x, np.ndarray) and x.dtype == float
                    a_ff, rhs, mt_loc, neg_frac = want
                    _assert_same(got.matrix, a_ff, real)
                    _assert_same(got.rhs, rhs, real)
                    _assert_same(got.mt_local.transpose(2, 0, 1), mt_loc,
                                 real)
                    _assert_same(subdomain_area(mesh, x),
                                 (neg_frac * mesh.geometry.det_j).sum(), real)
                    outcomes.add("equal")
        assert len(mesh.uncut_locals) == 2    # one entry per material
    assert outcomes == {"raised", "equal"}
