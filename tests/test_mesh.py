import numpy as np
import numpy.testing as npt
import pytest

from ebsolve import (
    Mesh,
    IndexArrays,
    build_grid_mesh,
    build_index_arrays,
    build_unit_square_mesh,
    export_mesh,
    uniform_refine,
)
from ebsolve.mesh import MAX_LEVEL, boundary_nodes, signed_areas


def test_level_counts():
    for level in range(6):
        m = build_unit_square_mesh(level)
        n = 2**level + 1
        assert m.n_nodes == n * n
        assert m.n_elements == 2 * 4**level
        assert m.level == level


def test_node_numbering_row_major():
    m = build_unit_square_mesh(2)
    n = 5
    for iy in range(n):
        for ix in range(n):
            assert m.nodes[iy * n + ix, 0] == ix / 4
            assert m.nodes[iy * n + ix, 1] == iy / 4


def test_cell_split_orientation():
    # the 2x2-node grid is the smallest case: one cell, two triangles
    m = build_grid_mesh(2)
    npt.assert_array_equal(m.elements, [[0, 1, 3], [0, 3, 2]])
    # at level 1 the first cell spans nodes 0,1,4,3
    m = build_unit_square_mesh(1)
    npt.assert_array_equal(m.elements[0], [0, 1, 4])
    npt.assert_array_equal(m.elements[1], [0, 4, 3])


def test_areas_exact():
    for level in range(5):
        m = build_unit_square_mesh(level)
        areas = signed_areas(m.nodes, m.elements)
        # dyadic coordinates make every area (and their sum) exact
        assert np.all(areas == 0.5 * 0.25**level)
        assert areas.sum() == 1.0


def test_boundary_nodes():
    for level in range(7):
        m = build_unit_square_mesh(level)
        nd = m.boundary_nodes
        assert len(nd) == 4 * 2**level
        assert np.all(np.diff(nd) > 0)
        coords = m.nodes[nd]
        on_edge = (coords == 0.0) | (coords == 1.0)
        assert np.all(on_edge.any(axis=1))
        npt.assert_array_equal(nd, boundary_nodes(m))
    interior = np.setdiff1d(np.arange(m.n_nodes), nd)
    assert np.all((m.nodes[interior] > 0) & (m.nodes[interior] < 1))


def test_refine_reproduces_generator():
    for level in range(4):
        fine = uniform_refine(build_unit_square_mesh(level))
        direct = build_unit_square_mesh(level + 1)
        npt.assert_array_equal(fine.nodes, direct.nodes)
        npt.assert_array_equal(fine.elements, direct.elements)
        npt.assert_array_equal(fine.boundary_nodes, direct.boundary_nodes)
        assert fine.level == level + 1


def test_refine_single_triangle():
    m = Mesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        elements=np.array([[0, 1, 2]]),
        boundary_nodes=np.array([0, 1, 2]),
    )
    fine = uniform_refine(m)
    assert fine.level is None
    assert fine.n_nodes == 6
    assert fine.n_elements == 4
    areas = signed_areas(fine.nodes, fine.elements)
    assert np.all(areas == 0.125)


def test_refine_conserves_area():
    m = build_unit_square_mesh(2)
    for _ in range(2):
        m = uniform_refine(m)
        assert signed_areas(m.nodes, m.elements).sum() == 1.0


def test_level_guards():
    with pytest.raises(ValueError):
        build_unit_square_mesh(-1)
    with pytest.raises(ValueError):
        build_unit_square_mesh(MAX_LEVEL + 1)
    with pytest.raises(ValueError):
        build_grid_mesh(1)


def test_refine_guard_at_max_level():
    small = build_unit_square_mesh(1)
    at_cap = Mesh(small.nodes, small.elements, small.boundary_nodes, level=MAX_LEVEL)
    with pytest.raises(ValueError):
        uniform_refine(at_cap)


def test_mesh_validation():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):  # clockwise triangle
        Mesh(nodes, np.array([[0, 2, 1]]), np.array([0]))
    with pytest.raises(ValueError):  # out-of-range connectivity
        Mesh(nodes, np.array([[0, 1, 3]]), np.array([0]))
    with pytest.raises(ValueError):  # out-of-range boundary node
        Mesh(nodes, np.array([[0, 1, 2]]), np.array([7]))
    with pytest.raises(ValueError):  # bad shape
        Mesh(nodes[:, :1], np.array([[0, 1, 2]]), np.array([0]))


def test_mesh_arrays_read_only():
    m = build_unit_square_mesh(1)
    with pytest.raises(ValueError):
        m.nodes[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.elements[0, 0] = 1


def test_index_arrays():
    m = build_unit_square_mesh(2)
    idx = build_index_arrays(m)
    assert idx.indt.shape == (3, m.n_elements)
    npt.assert_array_equal(idx.indt, m.elements.T)
    # every node appears in at least one element
    npt.assert_array_equal(np.unique(idx.indt), np.arange(m.n_nodes))
    # the scatter matrix: row n holds the positions of node n in indt.ravel()
    S = idx.scatter_matrix
    flat = idx.indt.ravel()
    assert S.shape == (m.n_nodes, flat.size)
    assert S.indices.dtype == np.int32
    assert np.all(S.data == 1.0)
    for n in range(m.n_nodes):
        npt.assert_array_equal(S.indices[S.indptr[n]:S.indptr[n + 1]],
                               np.flatnonzero(flat == n))
    # indt is the mesh's connectivity, not a copy of it, whatever the mesh's
    # origin: the generator, refinement, or a C-ordered array given by hand
    by_hand = np.ascontiguousarray(m.elements)
    assert by_hand.flags.c_contiguous and not by_hand.flags.f_contiguous
    for mesh in (m, uniform_refine(m), Mesh(m.nodes, by_hand, m.boundary_nodes)):
        idx = build_index_arrays(mesh)
        assert np.shares_memory(idx.indt, mesh.elements)
        assert idx.indt.flags.c_contiguous
        npt.assert_array_equal(idx.indt, mesh.elements.T)


def test_index_arrays_validation():
    indt = np.array([[0], [1], [2]])
    with pytest.raises(ValueError):
        IndexArrays(indt.reshape(1, 3))
    with pytest.raises(ValueError):
        IndexArrays(indt.reshape(3, 1, 1))
    with pytest.raises(ValueError):
        IndexArrays(-indt)
    with pytest.raises(ValueError):
        IndexArrays(indt).scatter(np.ones((3, 2)), 3)


def test_export_mesh_roundtrip(tmp_path):
    m = build_unit_square_mesh(2)
    export_mesh(m, tmp_path)
    nodes = np.loadtxt(tmp_path / "nodes.txt")
    elements = np.loadtxt(tmp_path / "elements.txt", dtype=np.int64)
    npt.assert_array_equal(nodes, m.nodes)
    npt.assert_array_equal(elements, m.elements)
