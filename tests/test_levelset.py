import numpy as np
import pytest

from helpers import exact_negative_area
from tsopt.hdarray import HyperDualArray
from tsopt.levelset import (CutTag, Perturbation, classify_element,
                            classify_nodes, element_det_j,
                            element_negative_integrals, interface_segments,
                            negative_region_integrals, perturb,
                            subdomain_area, symmetric_difference_area)
from tsopt.mesh import generate_crossed_mesh, mesh_from_arrays
from tsopt.scalars import HyperDual
from tsopt.sensitivity import area_derivative

REF = mesh_from_arrays([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])


def test_uniform_classification(mesh8):
    labels = classify_nodes(mesh8, np.ones(mesh8.num_nodes)).labels
    assert (labels == 1).all()
    labels = classify_nodes(mesh8, -np.ones(mesh8.num_nodes)).labels
    assert (labels == -1).all()


def test_all_zero_ring_is_interior_negative(mesh8):
    labels = classify_nodes(mesh8, np.zeros(mesh8.num_nodes)).labels
    assert (labels == -1).all()


def test_mixed_ring_classification_on_smallest_mesh():
    mesh = generate_crossed_mesh(1)
    phi = np.array([-1.0, 1.0, 1.0, 1.0, 0.0])
    cls = classify_nodes(mesh, phi)
    assert cls.labels[4] == 0           # center sees both signs
    assert cls.labels[0] == 0           # its ring contains the center & node 1
    assert cls.counts() == (0, 1, 4)    # only node 3 has a sign-pure ring


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
        assert np.array_equal(classify_nodes(mesh, phi).labels,
                              _labels_by_element_loop(mesh, phi))
    # a node outside every element has only itself in its ring
    loose = mesh_from_arrays([(0, 0), (1, 0), (0, 1), (2, 2)], [(0, 1, 2)])
    phi = np.array([1.0, -1.0, 0.0, -2.0])
    assert np.array_equal(classify_nodes(loose, phi).labels,
                          _labels_by_element_loop(loose, phi))


def test_perturbation_operators():
    phi = np.array([0.3, -0.7, 0.7])
    shaped = perturb(phi, 0, 0.1, Perturbation.SHAPE)
    assert shaped[0] == pytest.approx(0.4) and shaped[1] == -0.7
    popped = perturb(phi, 1, 0.01, Perturbation.TOPO_PLUS)
    assert popped[1] == 0.01
    dropped = perturb(phi, 2, complex(0, 1e-3), Perturbation.TOPO_MINUS)
    assert dropped[2] == complex(0, -1e-3)
    assert dropped.dtype == complex
    hd = perturb(phi, 0, HyperDual(0, 1, 1, 0), Perturbation.SHAPE)
    assert isinstance(hd, HyperDualArray)
    assert hd[0].re == pytest.approx(0.3) and hd[0].e1 == 1.0
    assert phi[0] == 0.3  # original untouched


def test_element_cut_classification():
    assert classify_element(1.0, -1.0, -1.0).tag is CutTag.A_PLUS
    assert classify_element(-1.0, 1.0, -1.0).tag is CutTag.B_PLUS
    assert classify_element(-1.0, -1.0, -1.0).tag is CutTag.ALL_NEG
    assert classify_element(-1.0, 1.0, 1.0).tag is CutTag.A_MINUS
    assert classify_element(-1.0, -1.0, 1.0).tag is CutTag.C_PLUS
    # zero counts as '+'
    assert classify_element(0.0, -1.0, -1.0).tag is CutTag.A_PLUS
    # rotation: values are read starting from the pivot
    cut = classify_element(-1.0, 1.0, -1.0, pivot=1)
    assert cut.tag is CutTag.A_PLUS and cut.rotation == 1
    # perturbed scalars classify through the sign rule
    assert classify_element(HyperDual(0, 1, 1, 0), -1.0, -1.0).tag is CutTag.A_PLUS
    assert classify_element(complex(0, -1e-6), 1.0, 1.0).tag is CutTag.A_MINUS


def test_subdomain_area_basics(mesh8):
    assert subdomain_area(mesh8, -np.ones(mesh8.num_nodes)) == pytest.approx(1.0)
    assert subdomain_area(mesh8, np.ones(mesh8.num_nodes)) == 0.0
    phi = mesh8.nodes[:, 0] - 0.5
    assert subdomain_area(mesh8, phi) == pytest.approx(0.5, abs=1e-12)


def test_reference_triangle_cut_area():
    area = subdomain_area(REF, np.array([1.0, -1.0, -1.0]))
    assert area == pytest.approx(3.0 / 8.0, abs=1e-15)


def test_complement_partition(mesh8, rng):
    for _ in range(5):
        phi = rng.uniform(-1, 1, mesh8.num_nodes)
        total = subdomain_area(mesh8, phi) + subdomain_area(mesh8, -phi)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_area_against_clipping_oracle(rng):
    mesh = generate_crossed_mesh(4)
    det = element_det_j(mesh)
    for _ in range(25):
        phi = rng.uniform(-1, 1, mesh.num_nodes)
        expected = sum(
            exact_negative_area([phi[v] for v in tri],
                                points=[mesh.nodes[v] for v in tri])
            for tri in mesh.elements)
        assert subdomain_area(mesh, phi, det) == pytest.approx(expected, abs=1e-12)


def test_scalar_and_vectorized_integrals_agree(rng):
    mesh = generate_crossed_mesh(3)
    phi = rng.uniform(-1, 1, mesh.num_nodes)
    frac, mass, load = negative_region_integrals(mesh, phi)
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
    cls = classify_nodes(mesh8, phi_d8)
    k = int(cls.shape_nodes[0])
    phi2 = perturb(phi_d8, k, 1e-3, Perturbation.SHAPE)
    sym = symmetric_difference_area(mesh8, phi_d8, phi2)
    diff = abs(subdomain_area(mesh8, phi_d8) - subdomain_area(mesh8, phi2))
    assert sym == pytest.approx(diff, abs=1e-12)


def test_symdiff_rate_approaches_analytic_rate(mesh8, phi_d8):
    cls = classify_nodes(mesh8, phi_d8)
    for k in (int(cls.shape_nodes[0]), int(cls.shape_nodes[5])):
        rate = area_derivative(mesh8, phi_d8, k, cls).total_abs
        errs = []
        for eps in (1e-3, 5e-4, 2.5e-4):
            phi2 = perturb(phi_d8, k, eps, Perturbation.SHAPE)
            errs.append(abs(symmetric_difference_area(mesh8, phi_d8, phi2) / eps
                            - rate))
        assert errs[0] < 0.15 * rate
        assert errs[2] < 0.6 * errs[0]  # first-order decrease


def test_symdiff_rate_for_interior_nodes_scales_quadratically(mesh8, phi_d8):
    # interior nodes: the symmetric difference shrinks like the square of
    # the perturbation, with the analytic rate as the leading coefficient
    cls = classify_nodes(mesh8, phi_d8)
    for k, kind in ((int(cls.t_minus[0]), Perturbation.TOPO_PLUS),
                    (int(cls.t_plus[7]), Perturbation.TOPO_MINUS)):
        rate = area_derivative(mesh8, phi_d8, k, cls).total_abs
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
    cls = classify_nodes(mesh8, phi_d8)
    k = int(cls.shape_nodes[3])
    h = 1e-2
    hd = perturb(phi_d8, k, HyperDual(0.0, h, h, 0.0), Perturbation.SHAPE)
    area_hd = subdomain_area(mesh8, hd)
    # the linear part must match the signed area rate
    rate = area_derivative(mesh8, phi_d8, k, cls).total
    assert area_hd.e1 / h == pytest.approx(rate, rel=1e-10)
    assert area_hd.re == pytest.approx(subdomain_area(mesh8, phi_d8), rel=1e-14)
