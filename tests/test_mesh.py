import numpy as np
import pytest

from tsopt.mesh import Mesh, build_incidence, generate_crossed_mesh, tag_boundary
from tsopt.problems import experiment_mesh, on_top_or_bottom
from tsopt.vtkio import write_vtk


@pytest.mark.parametrize("n,nodes,elems", [
    (1, 5, 4), (8, 145, 256), (16, 545, 1024), (32, 2113, 4096),
])
def test_node_and_element_counts(n, nodes, elems):
    mesh = generate_crossed_mesh(n)
    assert mesh.num_nodes == nodes
    assert mesh.num_elements == elems


def test_published_node_counts_extend_to_finer_levels():
    for n, nodes in ((64, 8321), (128, 33025)):
        assert (n + 1) ** 2 + n ** 2 == nodes
    mesh = generate_crossed_mesh(64)
    assert mesh.num_nodes == 8321


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_orientation_and_area_partition(n):
    mesh = generate_crossed_mesh(n)
    det = mesh.geometry.det_j
    assert (det > 0).all()
    assert abs(det.sum() / 2.0 - 1.0) < 1e-12


def test_incidence_sets(mesh8):
    indptr, indices = build_incidence(mesh8.elements, mesh8.num_nodes)
    assert len(indptr) == mesh8.num_nodes + 1 and indptr[0] == 0
    tris = mesh8.elements
    for k in range(mesh8.num_nodes):
        ring = indices[indptr[k]:indptr[k + 1]]
        assert np.all(np.diff(ring) > 0)   # sorted, no repeats
        expected = {k}
        for tri in tris[(tris == k).any(axis=1)]:
            expected.update(int(v) for v in tri)
        assert set(ring.tolist()) == expected


def test_n1_mesh_structure():
    mesh = generate_crossed_mesh(1)
    indptr, indices = build_incidence(mesh.elements, mesh.num_nodes)
    center = 4  # lattice nodes 0..3, then the single center
    ring = indices[indptr[center]:indptr[center + 1]]
    assert ring.tolist() == [0, 1, 2, 3, 4]
    # a square corner sees its two lattice neighbours and the center
    assert indices[indptr[0]:indptr[1]].tolist() == [0, 1, 2, 4]


def test_boundary_tags():
    mesh8 = experiment_mesh(8)
    assert len(mesh8.dirichlet_nodes) == 18
    ys = mesh8.nodes[mesh8.dirichlet_nodes, 1]
    assert np.all((ys == 0.0) | (ys == 1.0))
    mesh1 = experiment_mesh(1)
    assert len(mesh1.dirichlet_nodes) == 4


def test_dirichlet_value_function():
    for n in (1, 8):
        mesh = experiment_mesh(n)
        y = mesh.nodes[mesh.dirichlet_nodes, 1]
        assert np.array_equal(mesh.dirichlet_values, y)
        assert set(y.tolist()) == {0.0, 1.0}


def test_tag_boundary_stores_the_values_at_the_tagged_nodes():
    mesh = generate_crossed_mesh(4)
    assert mesh.dirichlet_nodes.size == mesh.dirichlet_values.size == 0
    tagged = tag_boundary(mesh, lambda x, y: x < 0.3,
                          lambda x, y: 2 * x + 3 * y)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    assert tagged.dirichlet_nodes.tolist() == np.flatnonzero(x < 0.3).tolist()
    values = tagged.dirichlet_values
    assert values.dtype == float and not values.flags.writeable
    assert np.array_equal(values, 2 * x[x < 0.3] + 3 * y[x < 0.3])


def _rings_per_node(elements, num_nodes):
    """Reference: the one-rings built by loops over elements and nodes."""
    node_elems = [[] for _ in range(num_nodes)]
    for l, tri in enumerate(elements):
        for k in tri:
            node_elems[k].append(l)
    one_ring = []
    for k in range(num_nodes):
        ring = {k}
        for l in node_elems[k]:
            ring.update(int(v) for v in elements[l])
        one_ring.append(np.array(sorted(ring), dtype=int))
    return one_ring


@pytest.mark.parametrize("n", [1, 2, 8, 16])
def test_incidence_equals_per_node_loops(n):
    mesh = generate_crossed_mesh(n)
    # also a shuffled element list and a node no element uses
    order = np.random.default_rng(n).permutation(mesh.num_elements)
    shuffled = mesh.elements[order]
    for elements, num_nodes in ((mesh.elements, mesh.num_nodes),
                                (shuffled, mesh.num_nodes + 1)):
        indptr, indices = build_incidence(elements, num_nodes)
        want = _rings_per_node(elements, num_nodes)
        assert len(indptr) == num_nodes + 1 and indptr[-1] == len(indices)
        for k, ring in enumerate(want):
            got = indices[indptr[k]:indptr[k + 1]]
            assert got.dtype == ring.dtype and np.array_equal(got, ring)
    assert indices[indptr[-2]:].tolist() == [mesh.num_nodes]  # loose node


def test_custom_mesh_builder():
    mesh = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    assert mesh.num_elements == 1
    assert mesh.geometry.det_j[0] == pytest.approx(1.0)
    assert mesh.nodes.dtype == float and mesh.nodes.shape == (3, 2)
    assert mesh.elements.dtype == int and mesh.elements.shape == (1, 3)
    assert mesh.dirichlet_nodes.dtype == int
    assert mesh.dirichlet_nodes.shape == mesh.dirichlet_values.shape == (0,)
    values = np.array([1.0, 2.0])
    tagged = Mesh(mesh.nodes, mesh.elements, (2, 0), values)
    assert tagged.dirichlet_nodes.tolist() == [2, 0]
    assert tagged.dirichlet_values.dtype == float
    assert not tagged.dirichlet_values.flags.writeable
    values[0] = 5
    assert tagged.dirichlet_values.tolist() == [1.0, 2.0]


_LEVEL2 = generate_crossed_mesh(2)   # 13 nodes
_NODES, _ELEMENTS = _LEVEL2.nodes, _LEVEL2.elements
_OUT_OF_RANGE = r"node ids in \[0, 13\)"
_SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]

_MALFORMED = {
    "nodes without values": (
        lambda: Mesh(_NODES, _ELEMENTS, [0, 1, 2]), "one value per"),
    "values without nodes": (
        lambda: Mesh(_NODES, _ELEMENTS, dirichlet_values=[0, 1]),
        "one value per"),
    "negative node id": (
        lambda: Mesh(_NODES, _ELEMENTS, [0, -1], [0, 1]), _OUT_OF_RANGE),
    "repeated node id": (
        lambda: Mesh(_NODES, _ELEMENTS, [0, 1, 1], [0, 5, 7]), "distinct"),
    "node id out of range": (
        lambda: Mesh(_NODES, _ELEMENTS, [0, 99], [0, 1]), _OUT_OF_RANGE),
    "float node ids": (
        lambda: Mesh(_NODES, _ELEMENTS, [0.0, 1.0], [0, 1]),
        "integer node ids"),
    "NaN value": (
        lambda: Mesh(_NODES, _ELEMENTS, [0, 1], [0.0, np.nan]), "finite"),
    "nodes with 3 columns": (
        lambda: Mesh(np.ones((13, 3)), _ELEMENTS), r"shape \(M, 2\)"),
    "NaN coordinate": (
        lambda: Mesh(np.where(_NODES == 0.5, np.nan, _NODES), _ELEMENTS),
        "finite"),
    "element id out of range": (
        lambda: Mesh(_NODES, np.where(_ELEMENTS == 12, 99, _ELEMENTS)),
        _OUT_OF_RANGE),
    "float element ids": (
        lambda: Mesh(_NODES, _ELEMENTS * 1.0), "integer node ids"),
    "repeated vertex": (
        lambda: Mesh(_SQUARE, [(0, 1, 2), (1, 1, 3)]), "counter-clockwise"),
    "clockwise element": (
        lambda: Mesh(_SQUARE, [(0, 1, 2), (1, 2, 3)]), "counter-clockwise"),
    "is_dirichlet gives floats": (
        lambda: tag_boundary(Mesh(_NODES, _ELEMENTS),
                             lambda x, y: 1.0 * on_top_or_bottom(x, y),
                             lambda x, y: y), "one bool per node"),
    "g_d gives a scalar": (
        lambda: tag_boundary(Mesh(_NODES, _ELEMENTS), on_top_or_bottom,
                             lambda x, y: 0.0), "one value per"),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_malformed_mesh_raises_where_it_is_made(case):
    make, message = _MALFORMED[case]
    with pytest.raises(ValueError, match=message):
        make()


def test_meshes_compare_and_hash_by_identity():
    a, b = experiment_mesh(2), experiment_mesh(2)
    assert a == a and not a != a
    assert a != b and not a == b
    by_mesh = {a: "a", b: "b"}
    assert len(by_mesh) == 2 and by_mesh[a] == "a" and by_mesh[b] == "b"


def test_vtk_export_round_trip(tmp_path, mesh8, phi_d8):
    path = tmp_path / "mesh.vtk"
    write_vtk(path, mesh8, {"phi": phi_d8})
    text = path.read_text().splitlines()
    assert text[3] == "DATASET UNSTRUCTURED_GRID"
    assert text[4] == f"POINTS {mesh8.num_nodes} double"
    cells_at = text.index(f"CELLS {mesh8.num_elements} {4 * mesh8.num_elements}")
    first = text[cells_at + 1].split()
    assert first[0] == "3" and len(first) == 4
    assert f"POINT_DATA {mesh8.num_nodes}" in text
    assert "SCALARS phi double 1" in text
    values = text[text.index("LOOKUP_TABLE default") + 1:]
    assert len(values) == mesh8.num_nodes
    assert float(values[0]) == pytest.approx(phi_d8[0], rel=1e-15)
