from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exact_negative_area
from tsopt.hdarray import HyperDualArray, promote_like, sign_array
from tsopt.levelset import (_FULL_LOAD_REF, _FULL_MASS_REF, SHAPE, T_MINUS,
                            T_PLUS, DegenerateCut, _checked_ratio, _lone_cuts,
                            classify_nodes, element_negative_integrals,
                            interface_segments, negative_region_integrals,
                            perturb, subdomain_area, symmetric_difference_area)
from tsopt.fem import evaluate_cost
from tsopt.mesh import Mesh, generate_crossed_mesh
from tsopt.optimize import OptimizerConfig, run
from tsopt.problems import experiment_mesh, setup_problem
from tsopt.sensitivity import area_derivative

REF = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])


def test_uniform_classification(mesh8):
    labels = classify_nodes(mesh8, np.ones(mesh8.num_nodes))
    assert (labels == 1).all()
    labels = classify_nodes(mesh8, -np.ones(mesh8.num_nodes))
    assert (labels == -1).all()


def test_all_zero_ring_is_interior_negative(mesh8):
    labels = classify_nodes(mesh8, np.zeros(mesh8.num_nodes))
    assert (labels == -1).all()


def test_mixed_ring_classification_on_smallest_mesh():
    mesh = generate_crossed_mesh(1)
    phi = np.array([-1.0, 1.0, 1.0, 1.0, 0.0])
    labels = classify_nodes(mesh, phi)
    assert labels[4] == 0           # center sees both signs
    assert labels[0] == 0           # its ring contains the center & node 1
    # only node 3 has a sign-pure ring
    assert [int((labels == c).sum()) for c in (-1, 1, 0)] == [0, 1, 4]


def _labels_by_element_loop(mesh, phi):
    # the classification as min/max scatters over every element vertex pair
    s = np.sign(phi).astype(np.int8)
    ring_min, ring_max = s.copy(), s.copy()
    for a in range(3):
        for b in range(3):
            np.minimum.at(ring_min, mesh.elements[:, a], s[mesh.elements[:, b]])
            np.maximum.at(ring_max, mesh.elements[:, a], s[mesh.elements[:, b]])
    return np.where(ring_max <= 0, -1, np.where(ring_min >= 0, 1, 0))


@pytest.mark.parametrize("n", [1, 2, 8, 16, 32])
def test_classification_equals_element_loop(n, rng):
    mesh = generate_crossed_mesh(n)
    for _ in range(20):
        phi = rng.uniform(-1.0, 1.0, mesh.num_nodes)
        phi[rng.uniform(size=mesh.num_nodes) < 0.2] = 0.0   # snapped zeros
        assert np.array_equal(classify_nodes(mesh, phi),
                              _labels_by_element_loop(mesh, phi))
    # a node outside every element has only itself in its ring
    loose = Mesh([(0, 0), (1, 0), (0, 1), (2, 2)], [(0, 1, 2)])
    phi = np.array([1.0, -1.0, 0.0, -2.0])
    assert np.array_equal(classify_nodes(loose, phi),
                          _labels_by_element_loop(loose, phi))


def _labels_by_ring_groups(mesh, phi):
    # the classification as the minimum and maximum sign over each ring,
    # a whole size group of rings at a time
    s = sign_array(phi).astype(np.int8)
    ring_min, ring_max = np.empty_like(s), np.empty_like(s)
    for nodes, rings in mesh.ring_groups:
        ring_min[nodes] = s[rings].min(axis=1)
        ring_max[nodes] = s[rings].max(axis=1)
    labels = np.zeros(mesh.num_nodes, dtype=np.int8)
    t_minus = ring_max <= 0
    labels[t_minus] = -1
    labels[~t_minus & (ring_min >= 0)] = 1
    return labels


_RING_MESHES = [generate_crossed_mesh(n) for n in (1, 2, 3, 5)]
_TIES = st.sampled_from([-1.0, -0.5, -1e-300, -0.0, 0.0, 1e-300, 0.5, 1.0])


@settings(deadline=None, database=None, max_examples=150)
@given(st.data())
def test_classification_equals_the_ring_group_loop(data):
    mesh = data.draw(st.sampled_from(_RING_MESHES))
    m = mesh.num_nodes
    parts = [np.array(data.draw(st.lists(_TIES, min_size=m, max_size=m)))
             for _ in range(3)]
    kind = data.draw(st.sampled_from(["real", "complex", "hyper-dual"]))
    phi = {"real": parts[0], "complex": parts[0] + 1j * parts[1],
           "hyper-dual": HyperDualArray(*parts)}[kind]
    assert np.array_equal(classify_nodes(mesh, phi),
                          _labels_by_ring_groups(mesh, phi))


def test_perturbation_operators():
    phi = np.array([0.3, -0.7, 0.7])
    shaped = perturb(phi, 0, 0.1, SHAPE)
    assert shaped[0] == pytest.approx(0.4) and shaped[1] == -0.7
    popped = perturb(phi, 1, 0.01, T_MINUS)
    assert popped[1] == 0.01
    dropped = perturb(phi, 2, complex(0, 1e-3), T_PLUS)
    assert dropped[2] == complex(0, -1e-3)
    assert dropped.dtype == complex
    hd = perturb(phi, 0, HyperDualArray(0.0, 1.0), SHAPE)
    assert isinstance(hd, HyperDualArray)
    assert hd[0].re == pytest.approx(0.3) and hd[0].e1 == 1.0
    assert phi[0] == 0.3  # original untouched


def test_element_cut_classification():
    def mask(phi):   # the plus-mask of the cut kernel
        return _lone_cuts(phi, REF.elements)[0].tolist()

    assert mask(np.array([1.0, -1.0, -1.0])) == [True, False, False]
    assert mask(np.array([-1.0, -1.0, -1.0])) == [False, False, False]
    assert mask(np.array([-1.0, 1.0, 1.0])) == [False, True, True]
    # zero counts as '+'
    assert mask(np.array([0.0, -1.0, -1.0])) == [True, False, False]
    # perturbed scalars follow the sign rule of their first nonzero part
    base = np.array([0.0, -1.0, 1.0])
    seeds = [(HyperDualArray(0.0, 1.0), True),
             (HyperDualArray(0.0, -1.0), False),
             (HyperDualArray(0.0, 0.0, -1.0), False),
             (complex(0.0, 1e-6), True), (complex(0.0, -1e-6), False)]
    for eps, plus in seeds:
        phi = perturb(base, 0, eps, T_MINUS)
        assert mask(phi) == [plus, False, True]


def test_subdomain_area_basics(mesh8):
    assert subdomain_area(mesh8, -np.ones(mesh8.num_nodes)) == pytest.approx(1.0)
    assert subdomain_area(mesh8, np.ones(mesh8.num_nodes)) == 0.0
    phi = mesh8.nodes[:, 0] - 0.5
    assert subdomain_area(mesh8, phi) == pytest.approx(0.5, abs=1e-12)


def test_reference_triangle_cut_area():
    area = subdomain_area(REF, np.array([1.0, -1.0, -1.0]))
    assert area == pytest.approx(3.0 / 8.0, abs=1e-15)


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


@pytest.mark.parametrize("level", [1, 2])
def test_integer_designs_equal_their_float_cast_bitwise(level, rng):
    # an integer level set is a real design: each result is that of its
    # float cast to the last bit, not one computed in integer arithmetic
    assert _bits(subdomain_area(REF, np.array([-1, -1, -1]))) \
        == _bits(np.float64(0.5))
    assert _bits(subdomain_area(REF, np.array([1, -1, -1]))) \
        == _bits(np.float64(0.375))
    mesh = experiment_mesh(level)
    params = setup_problem(mesh)
    designs = [np.full(mesh.num_nodes, v) for v in (-1, 0, 1)]
    designs += [rng.integers(-2, 3, mesh.num_nodes) for _ in range(6)]
    for phi in designs:
        cast = phi.astype(float)
        assert _bits(subdomain_area(mesh, phi)) \
            == _bits(subdomain_area(mesh, cast))
        for got, want in zip(negative_region_integrals(mesh, phi),
                             negative_region_integrals(mesh, cast)):
            assert _bits(got) == _bits(want)
        assert _bits(evaluate_cost(mesh, phi, params)[0]) \
            == _bits(evaluate_cost(mesh, cast, params)[0])


def test_complement_partition(mesh8, rng):
    for _ in range(5):
        phi = rng.uniform(-1, 1, mesh8.num_nodes)
        total = subdomain_area(mesh8, phi) + subdomain_area(mesh8, -phi)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_area_against_clipping_oracle(rng):
    mesh = generate_crossed_mesh(4)
    for _ in range(25):
        phi = rng.uniform(-1, 1, mesh.num_nodes)
        expected = sum(
            exact_negative_area([phi[v] for v in tri],
                                points=[mesh.nodes[v] for v in tri])
            for tri in mesh.elements)
        assert subdomain_area(mesh, phi) == pytest.approx(expected, abs=1e-12)


def test_scalar_and_vectorized_integrals_agree(rng, every_element_integrals):
    mesh = generate_crossed_mesh(3)
    phi = rng.uniform(-1, 1, mesh.num_nodes)
    frac, mass, load = every_element_integrals(mesh, phi)
    for l, tri in enumerate(mesh.elements):
        a, m, f = element_negative_integrals([phi[v] for v in tri])
        assert frac[l] == pytest.approx(a, abs=1e-14)
        assert np.allclose(mass[l], m, atol=1e-14)
        assert np.allclose(load[l], f, atol=1e-14)


def test_degenerate_values_keep_exact_areas():
    # a zero vertex on the negative side boundary: cap collapses to a point
    assert subdomain_area(REF, np.array([0.0, -1.0, -1.0])) == pytest.approx(0.5)
    # zero pair: the interface is the full edge between them
    assert subdomain_area(REF, np.array([0.0, 0.0, -1.0])) == pytest.approx(0.5)
    assert subdomain_area(REF, np.array([0.0, 0.0, 1.0])) == 0.0


def _integrals_by_lone_position(mesh, phi):
    # reference: one vectorized pass per position of the lone vertex, with
    # the kernel's arithmetic, so the two must agree bit for bit
    phin = phi[mesh.elements]
    plus = sign_array(phi)[mesh.elements] >= 0
    n_plus = plus.sum(axis=1)
    n = len(mesh.elements)
    frac = promote_like(np.zeros(n), phi)
    mass = promote_like(np.zeros((n, 3, 3)), phi)
    load = promote_like(np.zeros((n, 3)), phi)
    full = np.flatnonzero(n_plus == 0)
    frac[full] = 0.5
    mass[full] = _FULL_MASS_REF
    load[full] = _FULL_LOAD_REF
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        idx = np.flatnonzero(((n_plus == 1) & plus[:, a])
                             | ((n_plus == 2) & ~plus[:, a]))
        pa, pb, pc = phin[idx, a], phin[idx, b], phin[idx, c]
        tb = _checked_ratio(pa, pa - pb)
        tc = _checked_ratio(pa, pa - pc)
        cap_area = tb * tc * 0.5
        vals = promote_like(np.zeros((len(idx), 3, 3)), phi)
        vals[:, a, 0] = 1.0
        vals[:, a, 1] = 1.0 - tb
        vals[:, a, 2] = 1.0 - tc
        vals[:, b, 1] = tb
        vals[:, c, 2] = tc
        pair = (vals[:, :, None, :] * vals[:, None, :, :]).sum(axis=-1)
        rows = vals.sum(axis=-1)
        cap_mass = (pair + rows[:, :, None] * rows[:, None, :]) \
            * (cap_area * (1.0 / 12.0))[:, None, None]
        cap_load = rows * (cap_area * (1.0 / 3.0))[:, None]
        pos = plus[idx, a]
        frac[idx[pos]] = 0.5 - cap_area[pos]
        mass[idx[pos]] = _FULL_MASS_REF - cap_mass[pos]
        load[idx[pos]] = _FULL_LOAD_REF - cap_load[pos]
        frac[idx[~pos]] = cap_area[~pos]
        mass[idx[~pos]] = cap_mass[~pos]
        load[idx[~pos]] = cap_load[~pos]
    return frac, mass, load


def _lanes_bytes(x):
    lanes = x.lanes if isinstance(x, HyperDualArray) else (x,)
    return [(lane.dtype.str, lane.shape, lane.tobytes()) for lane in lanes]


def _snapped(mesh, rng):
    phi = rng.uniform(-1.0, 1.0, mesh.num_nodes)
    phi[rng.uniform(size=mesh.num_nodes) < 0.2] = 0.0
    return phi


def test_integrals_equal_the_lone_position_loop_bitwise(
        rng, every_element_integrals):
    outcomes = set()
    for n in (1, 2, 4, 8, 16, 32):
        mesh = generate_crossed_mesh(n)
        m = mesh.num_nodes
        for _ in range(5):
            phi = _snapped(mesh, rng)
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
                try:
                    want = _integrals_by_lone_position(mesh, x)
                except DegenerateCut:
                    with pytest.raises(DegenerateCut):
                        negative_region_integrals(mesh, x)
                    outcomes.add("raised")
                    continue
                got = every_element_integrals(mesh, x)
                for g, w in zip(got, want):
                    assert type(g) is type(w)
                    assert _lanes_bytes(g) == _lanes_bytes(w)
                outcomes.add("equal")
    assert outcomes == {"raised", "equal"}


def _segments_by_element(mesh, phi):
    # one element at a time, lone vertex first
    tris = mesh.elements
    plus = sign_array(phi)[tris] >= 0
    n_plus = plus.sum(axis=1)
    segments = []
    for l in np.flatnonzero((n_plus == 1) | (n_plus == 2)):
        lone = (int(np.argmax(plus[l])) if n_plus[l] == 1
                else int(np.argmin(plus[l])))
        a, b, c = tris[l, [lone, (lone + 1) % 3, (lone + 2) % 3]]
        tb = phi[a] / (phi[a] - phi[b])
        tc = phi[a] / (phi[a] - phi[c])
        p0 = mesh.nodes[a] + tb * (mesh.nodes[b] - mesh.nodes[a])
        p1 = mesh.nodes[a] + tc * (mesh.nodes[c] - mesh.nodes[a])
        if np.hypot(*(p1 - p0)) > 1e-15:
            segments.append((int(l), (p0, p1)))
    return segments


def test_interface_segments_equal_the_element_loop_bitwise(rng, mesh8,
                                                           phi_d8):
    cases = [(mesh8, phi_d8)]
    for n in (1, 2, 4, 8, 16, 32):
        mesh = generate_crossed_mesh(n)
        cases += [(mesh, _snapped(mesh, rng)) for _ in range(3)]
    for mesh, phi in cases:
        got = interface_segments(mesh, phi)
        want = _segments_by_element(mesh, phi)
        assert [l for l, _ in got] == [l for l, _ in want]
        for (_, ends), (_, ends_want) in zip(got, want):
            for p, q in zip(ends, ends_want):
                assert p.tobytes() == q.tobytes()


def _exact_negative_fraction(vals):
    """Negative area of the reference triangle, in rational arithmetic."""
    v = [Fraction(x) for x in vals]
    plus = [x >= 0 for x in v]
    n_plus = sum(plus)
    if n_plus in (0, 3):
        return Fraction(1, 2) if n_plus == 0 else Fraction(0)
    a = plus.index(n_plus == 1)
    b, c = (a + 1) % 3, (a + 2) % 3
    cap = v[a] / (v[a] - v[b]) * v[a] / (v[a] - v[c]) / 2
    return Fraction(1, 2) - cap if n_plus == 1 else cap


def test_symmetric_difference_matches_exact_rationals(mesh8, phi_d8):
    labels = classify_nodes(mesh8, phi_d8)
    tris = mesh8.elements
    det_j = mesh8.geometry.det_j
    steps = [10.0 ** -(k / 2.0) for k in range(8, 16)] + [1e-8, 1e-9]
    worst = 0.0
    for k in range(mesh8.num_nodes):
        kind = int(labels[k])
        ring = np.flatnonzero((tris == k).any(axis=1))
        for eps in steps:
            phi2 = perturb(phi_d8, k, eps, kind)
            exact = abs(sum((_exact_negative_fraction(phi_d8[tris[l]])
                             - _exact_negative_fraction(phi2[tris[l]]))
                            * Fraction(det_j[l]) for l in ring))
            got = symmetric_difference_area(mesh8, phi_d8, phi2)
            worst = max(worst, float(abs(Fraction(got) - exact) / exact))
    assert worst <= 1e-6


def test_symmetric_difference_rejects_a_pair_that_is_not_nested(mesh8,
                                                                phi_d8):
    other = phi_d8.copy()
    other[0] += 1e-3
    other[1] -= 1e-3
    with pytest.raises(ValueError, match="nested"):
        symmetric_difference_area(mesh8, phi_d8, other)


@pytest.mark.parametrize("call", [
    lambda mesh, a: run(mesh, setup_problem(mesh, uhat="target"),
                        OptimizerConfig(max_iter=2), phi0=a),
    lambda mesh, a: symmetric_difference_area(mesh, a, a + 0.1),
    lambda mesh, a: interface_segments(mesh, a),
    lambda mesh, a: perturb(a, 0, 0.1, SHAPE),
], ids=["optimize.run", "symmetric_difference_area", "interface_segments",
        "perturb"])
def test_a_complex_design_is_rejected(call):
    # a design is real: its imaginary part must not be dropped in silence
    mesh = experiment_mesh(2)
    with pytest.raises(ValueError, match="real"):
        call(mesh, np.ones(mesh.num_nodes) + 1j)


def test_symmetric_difference_basics(mesh8, phi_d8):
    assert symmetric_difference_area(mesh8, phi_d8, phi_d8) == 0.0
    mesh16 = generate_crossed_mesh(16)
    a = mesh16.nodes[:, 0] - 0.5
    b = mesh16.nodes[:, 0] - 0.5 - 1.0 / 32.0
    assert symmetric_difference_area(mesh16, a, b) == pytest.approx(1.0 / 32.0,
                                                                    abs=1e-12)
    # symmetry in the arguments
    assert symmetric_difference_area(mesh16, b, a) == pytest.approx(1.0 / 32.0,
                                                                    abs=1e-12)


def test_nested_perturbation_matches_area_difference(mesh8, phi_d8):
    k = int(np.flatnonzero(classify_nodes(mesh8, phi_d8) == 0)[0])
    phi2 = perturb(phi_d8, k, 1e-3, SHAPE)
    sym = symmetric_difference_area(mesh8, phi_d8, phi2)
    diff = abs(subdomain_area(mesh8, phi_d8) - subdomain_area(mesh8, phi2))
    assert sym == pytest.approx(diff, abs=1e-12)


def test_symdiff_rate_approaches_analytic_rate(mesh8, phi_d8):
    labels = classify_nodes(mesh8, phi_d8)
    shape_nodes = np.flatnonzero(labels == 0)
    for k in (int(shape_nodes[0]), int(shape_nodes[5])):
        rate = area_derivative(mesh8, phi_d8, k, labels).total_abs
        errs = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            phi2 = perturb(phi_d8, k, eps, SHAPE)
            errs.append(abs(symmetric_difference_area(mesh8, phi_d8, phi2) / eps
                            - rate))
        assert errs[0] < 0.15 * rate
        assert errs[2] < 0.6 * errs[0]  # first-order decrease


def test_symdiff_rate_for_interior_nodes_scales_quadratically(mesh8, phi_d8):
    # interior nodes: the symmetric difference shrinks like the square of
    # the perturbation, with the analytic rate as the leading coefficient
    labels = classify_nodes(mesh8, phi_d8)
    for k, kind in ((int(np.flatnonzero(labels == -1)[0]),
                     T_MINUS),
                    (int(np.flatnonzero(labels == 1)[7]),
                     T_PLUS)):
        rate = area_derivative(mesh8, phi_d8, k, labels).total_abs
        errs = []
        for eps in (1e-4, 5e-5):
            phi2 = perturb(phi_d8, k, eps, kind)
            sym = symmetric_difference_area(mesh8, phi_d8, phi2)
            errs.append(abs(sym / eps ** 2 - rate))
        assert errs[0] < 0.05 * rate
        assert errs[1] < 0.6 * errs[0]


def test_interface_segments_on_vertical_line(mesh8):
    phi = mesh8.nodes[:, 0] - 0.5
    segs = interface_segments(mesh8, phi)
    assert segs, "expected cut elements"
    for _, (p0, p1) in segs:
        assert p0[0] == pytest.approx(0.5, abs=1e-14)
        assert p1[0] == pytest.approx(0.5, abs=1e-14)
    # total interface length is the full height of the square
    length = sum(np.hypot(*(p1 - p0)) for _, (p0, p1) in segs)
    assert length == pytest.approx(1.0, abs=1e-12)


def test_interface_segment_endpoints_on_reference_triangle():
    segs = interface_segments(REF, np.array([1.0, -1.0, -1.0]))
    assert len(segs) == 1
    (_, (p0, p1)) = segs[0]
    got = {tuple(np.round(p0, 12)), tuple(np.round(p1, 12))}
    assert got == {(0.5, 0.0), (0.0, 0.5)}


def test_uncut_elements_have_no_segment():
    assert interface_segments(REF, np.array([1.0, 1.0, 2.0])) == []


def test_generic_area_linearizes_like_real(mesh8, phi_d8):
    labels = classify_nodes(mesh8, phi_d8)
    k = int(np.flatnonzero(labels == 0)[3])
    h = 1e-2
    hd = perturb(phi_d8, k, HyperDualArray(0.0, h, 0.0), SHAPE)
    area_hd = subdomain_area(mesh8, hd)
    # the linear part must match the signed area rate
    rate = area_derivative(mesh8, phi_d8, k, labels).total
    assert area_hd.e1 / h == pytest.approx(rate, rel=1e-10)
    assert area_hd.re == pytest.approx(subdomain_area(mesh8, phi_d8), rel=1e-14)
