import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest

from conftest import detect_boundary, perturbed_mesh, stacked_signed_areas, uniform_refine

from ebsolve import Mesh, build_element_batch, build_grid_mesh, build_unit_square_mesh
from ebsolve import elements, mesh
from ebsolve.mesh import MAX_LEVEL


def test_level_counts():
    for level in range(6):
        m = build_unit_square_mesh(level)
        n = 2**level + 1
        assert m.n_nodes == n * n
        assert m.n_elements == 2 * 4**level


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


def meshgrid_construction(n):
    """Reference: the grid from int64 meshgrids and a coordinate boundary scan."""
    ticks = np.arange(n, dtype=np.float64) / (n - 1)
    xx, yy = np.meshgrid(ticks, ticks)
    nodes = np.column_stack([xx.ravel(), yy.ravel()])
    ix, iy = np.meshgrid(np.arange(n - 1), np.arange(n - 1))
    ll = (iy * n + ix).ravel()
    elements = np.empty((2 * len(ll), 3), dtype=np.int32)
    elements[0::2] = np.column_stack([ll, ll + 1, ll + n + 1])
    elements[1::2] = np.column_stack([ll, ll + n + 1, ll + n])
    return nodes, elements, detect_boundary(nodes)


@pytest.mark.parametrize("n", [2, 3, 5, 17, 100, 257])
def test_grid_generator_matches_meshgrid_construction_bitwise(n):
    m = build_grid_mesh(n)
    for got, want in zip((m.nodes, m.elements, m.boundary_nodes), meshgrid_construction(n)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_grid_build_forms_no_full_width_temporaries():
    # int64 meshgrids, stacked columns, a boundary scan and a full-width
    # areas array beside the mesh peaked at 2.99x
    tracemalloc.start()
    try:
        m = build_unit_square_mesh(9)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained >= m.nodes.nbytes + m.elements.nbytes
    assert peak <= 1.3 * retained


def test_grid_beyond_int32_is_rejected_before_anything_is_allocated():
    # iy*n + ix is computed in int32 and would wrap once n*n > INDEX_MAX
    with mock.patch.object(mesh, "INDEX_MAX", 400**2 - 1):
        assert build_grid_mesh(399).n_nodes == 399**2
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="int32"):
                build_grid_mesh(400)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 100_000  # the nodes alone would be 2.56 MB


def test_areas_exact():
    for level in range(5):
        m = build_unit_square_mesh(level)
        areas = stacked_signed_areas(m.nodes, m.elements)
        # dyadic coordinates make every area (and their sum) exact
        assert np.all(areas == 0.5 * 0.25**level)
        assert areas.sum() == 1.0
        assert build_element_batch(m).areas.tobytes() == areas.tobytes()


def test_boundary_nodes():
    for level in range(7):
        m = build_unit_square_mesh(level)
        nd = m.boundary_nodes
        assert len(nd) == 4 * 2**level
        assert np.all(np.diff(nd) > 0)
        coords = m.nodes[nd]
        on_edge = (coords == 0.0) | (coords == 1.0)
        assert np.all(on_edge.any(axis=1))
    interior = np.setdiff1d(np.arange(m.n_nodes), nd)
    assert np.all((m.nodes[interior] > 0) & (m.nodes[interior] < 1))


def test_refine_reproduces_generator():
    for level in range(4):
        fine = uniform_refine(build_unit_square_mesh(level))
        direct = build_unit_square_mesh(level + 1)
        npt.assert_array_equal(fine.nodes, direct.nodes)
        npt.assert_array_equal(fine.elements, direct.elements)
        npt.assert_array_equal(fine.boundary_nodes, direct.boundary_nodes)


def test_refine_single_triangle():
    m = Mesh(
        nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        elements=np.array([[0, 1, 2]]),
        boundary_nodes=np.array([0, 1, 2]),
    )
    fine = uniform_refine(m)
    assert fine.n_nodes == 6
    assert fine.n_elements == 4
    areas = stacked_signed_areas(fine.nodes, fine.elements)
    assert np.all(areas == 0.125)


def test_refine_conserves_area():
    m = build_unit_square_mesh(2)
    for _ in range(2):
        m = uniform_refine(m)
        assert stacked_signed_areas(m.nodes, m.elements).sum() == 1.0


def test_level_guards():
    with pytest.raises(ValueError):
        build_unit_square_mesh(-1)
    with pytest.raises(ValueError):
        build_unit_square_mesh(MAX_LEVEL + 1)
    with pytest.raises(ValueError):
        build_grid_mesh(1)


def test_mesh_validation():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="counterclockwise"):  # clockwise triangle
        build_element_batch(Mesh(nodes, np.array([[0, 2, 1]]), np.array([0])))
    with pytest.raises(ValueError):  # out-of-range connectivity
        Mesh(nodes, np.array([[0, 1, 3]]), np.array([0]))
    with pytest.raises(ValueError):  # out-of-range boundary node
        Mesh(nodes, np.array([[0, 1, 2]]), np.array([7]))
    with pytest.raises(ValueError):  # bad shape
        Mesh(nodes[:, :1], np.array([[0, 1, 2]]), np.array([0]))


@pytest.mark.parametrize("block", [7, elements.GATHER_BLOCK])
def test_clockwise_element_in_any_block_is_rejected(block):
    # the mesh holds topology only; the batch build checks orientation
    m = perturbed_mesh(3, 0.1, 2)
    tri = m.elements.copy()
    tri[100] = tri[100, ::-1]
    clockwise = Mesh(m.nodes, tri, m.boundary_nodes)
    with mock.patch.object(elements, "GATHER_BLOCK", block), \
            pytest.raises(ValueError, match="element 100: .*counterclockwise"):
        build_element_batch(clockwise)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinates_are_rejected(bad):
    # a NaN node once passed into A_e and stopped cheb3 as "diverged"
    m = build_unit_square_mesh(2)
    nodes = m.nodes.copy()
    nodes[7, 1] = bad
    with pytest.raises(ValueError, match="nodes must hold finite"):
        Mesh(nodes, m.elements, m.boundary_nodes)


def test_non_integer_indices_are_rejected():
    # floats were truncated: elements [0, 1.7, 2.2] named nodes 0, 1, 2
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="elements must hold integer"):
        Mesh(nodes, [[0, 1.7, 2.2]], [0, 1, 2])
    with pytest.raises(ValueError, match="elements must hold integer"):
        Mesh(nodes, np.array([[0.0, 1.0, 2.0]]), [0, 1, 2])
    with pytest.raises(ValueError, match="boundary_nodes must hold integer"):
        Mesh(nodes, [[0, 1, 2]], [0.5, 1.7])
    # any integer dtype still passes, and an empty boundary is no index at all
    m = Mesh(nodes, np.array([[0, 1, 2]], dtype=np.uint8), [])
    npt.assert_array_equal(m.elements, [[0, 1, 2]])
    assert m.boundary_nodes.dtype == np.int64 and m.boundary_nodes.size == 0


def test_mesh_arrays_read_only():
    m = build_unit_square_mesh(1)
    with pytest.raises(ValueError):
        m.nodes[0, 0] = 5.0
    with pytest.raises(ValueError):
        m.elements[0, 0] = 1
