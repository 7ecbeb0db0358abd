import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (exact_negative_load_entry, exact_negative_mass_entry,
                     reference_triangles)
from tsopt.fem import (_scatter_matrix, _summed, assemble, element_geometry,
                       objective, solve_adjoint, solve_state, tracking_matvec)
from tsopt.hdarray import HyperDualArray, HyperDualMatrix
from tsopt.levelset import (_FULL_LOAD_REF, _FULL_MASS_REF, SHAPE, T_MINUS,
                            T_PLUS, DegenerateCut, perturb, subdomain_area)
from tsopt.mesh import Mesh, tag_boundary
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
        mats.append(assemble(mesh8, phi_d8, params).matrix.toarray())
    assert np.allclose(mats[1] - mats[0], mats[2] - mats[1], atol=1e-13)


def test_harmonic_dirichlet_data_reproduced_exactly(mesh8, phi_d8):
    params = default_params(lambda1=1.0, lambda2=1.0, alpha1=0.0, alpha2=0.0,
                            f1=0.0, f2=0.0).with_uhat(np.zeros(mesh8.num_nodes))
    u = solve_state(assemble(mesh8, phi_d8, params))
    assert np.abs(u - mesh8.nodes[:, 1]).max() < 1e-12


def test_residual_bound(mesh8, phi_d8, params_zero8):
    system = assemble(mesh8, phi_d8, params_zero8)
    u = solve_state(system)
    free = system.mesh.reduced_index.free
    residual = system.matrix @ u[free] - system.rhs
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(system.rhs)


def test_galerkin_orthogonality_surrogate(mesh8, phi_d8, params_zero8, rng):
    system = assemble(mesh8, phi_d8, params_zero8)
    u = solve_state(system)
    free = system.mesh.reduced_index.free
    residual = system.matrix @ u[free] - system.rhs
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
    dense = system.matrix.toarray()
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


def test_tracking_matvec_matches_quadratic_form(mesh8, phi_d8, params_zero8, rng):
    system = assemble(mesh8, phi_d8, params_zero8)
    w = rng.normal(size=mesh8.num_nodes)
    v = rng.normal(size=mesh8.num_nodes)
    mw = tracking_matvec(system, w)
    mv = tracking_matvec(system, v)
    # symmetry of the underlying matrix
    assert w @ mv == pytest.approx(v @ mw, rel=1e-12)


@pytest.mark.parametrize("level", [2, 8, 16])
def test_reduced_scatter_equals_sliced_full_matrix_bitwise(level, rng):
    # the reduced scatter sums every duplicate entry in the same order as
    # the conversion of the full matrix, so the two agree to the last bit
    mesh = experiment_mesh(level)
    index = mesh.reduced_index
    free, fixed = index.free, mesh.dirichlet_nodes
    n, m = mesh.num_elements, mesh.num_nodes
    rows = np.broadcast_to(mesh.elements[:, :, None], (n, 3, 3)).ravel()
    cols = np.broadcast_to(mesh.elements[:, None, :], (n, 3, 3)).ravel()
    g = rng.normal(size=len(fixed))
    for _ in range(3):
        local = rng.normal(size=(n, 3, 3))
        full = sp.coo_matrix((local.ravel(), (rows, cols)),
                             shape=(m, m)).tocsr()
        want = full[free][:, free].tocsr()
        got = _scatter_matrix(local.transpose(1, 2, 0), index.ff)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        coupling = _scatter_matrix(local.transpose(1, 2, 0), index.fd)
        assert np.array_equal(coupling @ g, full[free][:, fixed] @ g)


@pytest.mark.parametrize("level", [2, 8, 16])
def test_reduced_scatter_of_complex_and_hyperdual_data_bitwise(level, rng):
    # complex and hyper-dual components go through the same slots as real
    # data; each must equal the COO-to-CSR conversion of the full matrix,
    # sliced to the free x free block, to the last bit, and each rhs the
    # np.add.at scatter
    mesh = experiment_mesh(level)
    index = mesh.reduced_index
    free = index.free
    n, m = mesh.num_elements, mesh.num_nodes
    rows = np.broadcast_to(mesh.elements[:, :, None], (n, 3, 3)).ravel()
    cols = np.broadcast_to(mesh.elements[:, None, :], (n, 3, 3)).ravel()

    def reference(local):
        full = sp.coo_matrix((local.ravel(), (rows, cols)),
                             shape=(m, m)).tocsr()
        return full[free][:, free].tocsr()

    def assert_same(got, want):
        assert got.dtype == want.dtype
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.data.tobytes() == want.data.tobytes()

    local = rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3))
    assert_same(_scatter_matrix(local.transpose(1, 2, 0), index.ff),
                reference(local))
    parts = [rng.normal(size=(n, 3, 3)) for _ in range(3)]
    got = _scatter_matrix(HyperDualArray(*parts).transpose(1, 2, 0),
                          index.ff)
    assert isinstance(got, HyperDualMatrix)
    for comp, part in zip(got, parts):
        assert_same(comp, reference(part))

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
    for array in (band.perm, band.slot, band.lower, band.lower_slot):
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

    for design in (phi, phi + 0.05j * x):
        system = assemble(mesh, design, params)
        want = np.linalg.solve(system.matrix.toarray(), system.rhs)
        got = solve_state(system)[system.mesh.reduced_index.free]
        assert_close(got.real, want.real)
        assert_close(got.imag, want.imag)

    system = assemble(mesh, HyperDualArray(phi, x, x * y), params)
    a0, a1, a12 = (part.toarray() for part in system.matrix)
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


def test_hyperdual_components_share_one_pattern(mesh8, phi_d8, params_zero8):
    phih = HyperDualArray(phi_d8, np.ones(mesh8.num_nodes))
    matrix = assemble(mesh8, phih, params_zero8).matrix
    assert isinstance(matrix, HyperDualMatrix) and len(matrix) == 3
    real = assemble(mesh8, phi_d8, params_zero8).matrix
    for comp in matrix:
        assert np.array_equal(comp.indptr, real.indptr)
        assert np.array_equal(comp.indices, real.indices)
    assert np.allclose(matrix.re.data, real.data, rtol=1e-14, atol=0.0)


def _assemble_every_element(mesh, phi, params, integrals):
    # the full-element assembly: every element through the ``integrals``
    # (the every_element_integrals fixture) and the local formulas, the
    # Dirichlet coupling as a free x fixed matrix
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
    free = index.free
    a_ff = _scatter_matrix(a_loc.transpose(1, 2, 0), index.ff)
    a_fd = _scatter_matrix(a_loc.transpose(1, 2, 0), index.fd)
    f_glob = _summed(f_loc, mesh.elements.reshape(-1), mesh.num_nodes)
    return a_ff, f_glob[free] - a_fd @ mesh.dirichlet_values, mt_loc, neg_frac


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
                    parts = zip(got.matrix, a_ff) \
                        if isinstance(a_ff, HyperDualMatrix) \
                        else [(got.matrix, a_ff)]
                    for g, w in parts:
                        assert np.array_equal(g.indptr, w.indptr)
                        assert np.array_equal(g.indices, w.indices)
                        _assert_same(g.data, w.data, real)
                    _assert_same(got.rhs, rhs, real)
                    _assert_same(got.mt_local.transpose(2, 0, 1), mt_loc,
                                 real)
                    _assert_same(subdomain_area(mesh, x),
                                 (neg_frac * mesh.geometry.det_j).sum(), real)
                    outcomes.add("equal")
        assert len(mesh.uncut_locals) == 2    # one entry per material
    assert outcomes == {"raised", "equal"}
