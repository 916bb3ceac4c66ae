import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    detect_boundary,
    perturbed_mesh,
    scatter_blocks,
    shuffled,
    uniform_refine,
)

from ebsolve import (
    Mesh,
    IndexArrays,
    build_grid_mesh,
    build_index_arrays,
    build_unit_square_mesh,
)
from ebsolve import mesh, operators
from ebsolve.mesh import MAX_LEVEL, signed_areas


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
        areas = signed_areas(m.nodes, m.elements)
        # dyadic coordinates make every area (and their sum) exact
        assert np.all(areas == 0.5 * 0.25**level)
        assert areas.sum() == 1.0


def stacked_signed_areas(nodes, elements):
    """Reference: the (n_e, 3, 2) corner gather, differenced per edge."""
    p = nodes[elements]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


@settings(max_examples=30, deadline=None)
@given(level=st.integers(2, 4), amp=st.floats(0.0, 0.1),
       block=st.sampled_from([1, 7, 64, mesh.GATHER_BLOCK]),
       seed=st.integers(0, 2**32 - 1))
def test_signed_areas_match_stacked_gather_bitwise(level, amp, block, seed):
    m = perturbed_mesh(level, amp, seed)
    ref = stacked_signed_areas(m.nodes, m.elements)
    with mock.patch.object(mesh, "GATHER_BLOCK", block):
        assert signed_areas(m.nodes, m.elements).tobytes() == ref.tobytes()


def test_signed_areas_comparison_detects_reassociation():
    # the bitwise comparison above has teeth: the same area with its
    # products regrouped (the shoelace form) rounds differently
    m = perturbed_mesh(2, 0.1, 0)
    x, y = m.nodes.T
    a, b, c = m.elements.T
    shoelace = 0.5 * (x[a] * (y[b] - y[c]) + x[b] * (y[c] - y[a]) + x[c] * (y[a] - y[b]))
    ref = stacked_signed_areas(m.nodes, m.elements)
    npt.assert_allclose(shoelace, ref, rtol=1e-12)
    assert shoelace.tobytes() != ref.tobytes()


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


@pytest.mark.parametrize("block", [7, mesh.GATHER_BLOCK])
def test_clockwise_element_in_any_block_is_rejected(block):
    m = perturbed_mesh(3, 0.1, 2)
    elements = m.elements.copy()
    elements[100] = elements[100, ::-1]
    with mock.patch.object(mesh, "GATHER_BLOCK", block), \
            pytest.raises(ValueError, match="counterclockwise"):
        Mesh(m.nodes, elements, m.boundary_nodes)


def test_non_integer_indices_are_rejected():
    # floats were truncated: elements [0, 1.7, 2.2] named nodes 0, 1, 2
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="elements must hold integer"):
        Mesh(nodes, [[0, 1.7, 2.2]], [0, 1, 2])
    with pytest.raises(ValueError, match="elements must hold integer"):
        Mesh(nodes, np.array([[0.0, 1.0, 2.0]]), [0, 1, 2])
    with pytest.raises(ValueError, match="boundary_nodes must hold integer"):
        Mesh(nodes, [[0, 1, 2]], [0.5, 1.7])
    with pytest.raises(ValueError, match="indt must hold integer"):
        IndexArrays([[0.0], [1.9], [2.0]], 3)
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


def plan_rows(idx):
    """Each node's positions in ``indt.ravel()``, read back from the scatter plan."""
    plan = idx.scatter_plan
    n_e = idx.indt.shape[1]
    assert plan.indices.dtype == plan.indptr.dtype == np.int32
    assert np.all(plan.ones == 1.0)
    rows, end = [], 0
    for a, b, elo, ehi, indptr, indices in plan.blocks:
        assert a == end and 0 <= elo <= ehi <= n_e
        end = b
        width = ehi - elo
        assert indptr[0] == 0 and indptr.size == b - a + 1
        assert indptr[-1] == indices.size <= plan.ones.size
        assert np.all((indices >= 0) & (indices < 3 * width))
        i, e = np.divmod(indices, max(width, 1))
        positions = i * n_e + e + elo
        rows += [positions[indptr[n]:indptr[n + 1]] for n in range(b - a)]
    assert end == idx.n_nodes
    assert max((b.ehi - b.elo for b in plan.blocks), default=0) == plan.window
    return rows


def test_index_arrays():
    m = build_unit_square_mesh(2)
    idx = build_index_arrays(m)
    assert idx.indt.shape == (3, m.n_elements)
    npt.assert_array_equal(idx.indt, m.elements.T)
    # every node appears in at least one element
    npt.assert_array_equal(np.unique(idx.indt), np.arange(m.n_nodes))
    # the scatter plan: node n's entries are its positions in indt.ravel(),
    # ascending, whatever the block size; a mesh this small is one block
    assert len(idx.scatter_plan.blocks) == 1
    flat = idx.indt.ravel()
    for size in (1, 7, 64, operators.SCATTER_BLOCK):
        with scatter_blocks(size):
            idx = build_index_arrays(m)
        assert len(idx.scatter_plan.blocks) == -(-m.n_nodes // size)
        for n, positions in enumerate(plan_rows(idx)):
            npt.assert_array_equal(positions, np.flatnonzero(flat == n))
    # indt is the mesh's int32 connectivity, not a copy of it, whatever the
    # mesh's origin: the generator, refinement, or an int64 array in either
    # order given by hand
    by_hand = [np.ascontiguousarray(m.elements, dtype=np.int64),
               np.asfortranarray(m.elements, dtype=np.int64)]
    assert not by_hand[1].flags.c_contiguous
    meshes = [m, uniform_refine(m)] + [Mesh(m.nodes, e, m.boundary_nodes) for e in by_hand]
    for case in meshes:
        idx = build_index_arrays(case)
        assert idx.indt.dtype == np.int32
        assert np.shares_memory(idx.indt, case.elements)
        assert idx.indt.T.flags.c_contiguous
        npt.assert_array_equal(idx.indt, case.elements.T)


def test_connectivity_is_held_once_as_int32():
    for m in (build_unit_square_mesh(3), uniform_refine(build_unit_square_mesh(2))):
        assert m.elements.dtype == np.int32
        assert m.elements.flags.c_contiguous
        idx = build_index_arrays(m)
        # the element operator's column array is the connectivity itself
        assert idx.columns.shape == (3 * m.n_elements,)
        assert np.shares_memory(idx.columns, m.elements)
        npt.assert_array_equal(idx.columns, m.elements.ravel())
        npt.assert_array_equal(idx.indptr, np.arange(0, 3 * m.n_elements + 1, 3))
        assert idx.indptr.dtype == np.int32
    # the range is checked before the cast, which would wrap node 2**32 to 0
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="nonexistent"):
        Mesh(nodes, np.array([[2**32, 1, 2]]), np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="outside"):
        IndexArrays(np.array([[2**32], [1], [2]]), 3)
    # node counts beyond int32 are rejected before anything is allocated
    too_many = np.broadcast_to(np.zeros(2), (2**31, 2))
    with pytest.raises(ValueError, match="int32"):
        Mesh(too_many, np.array([[0, 1, 2]]), np.array([0]))
    with pytest.raises(ValueError, match="int32"):
        IndexArrays(np.array([[0], [1], [2]]), 2**31)


def test_index_arrays_validation():
    indt = np.array([[0], [1], [2]])
    with pytest.raises(ValueError):
        IndexArrays(indt.reshape(1, 3), 3)
    with pytest.raises(ValueError):
        IndexArrays(indt.reshape(3, 1, 1), 3)
    with pytest.raises(ValueError):
        IndexArrays(-indt, 3)
    with pytest.raises(ValueError):  # node 2 is not below the node count
        IndexArrays(indt, 2)
    # nodes that no element references get empty rows of their own, and a
    # block of them an empty window
    idx = IndexArrays(indt, 5)
    (block,) = idx.scatter_plan.blocks
    assert block[:4] == (0, 5, 0, 1)
    npt.assert_array_equal(block.indptr, [0, 1, 2, 3, 3, 3])
    with scatter_blocks(2):
        plan = IndexArrays(indt, 5).scatter_plan
    assert [blk[:4] for blk in plan.blocks] == [(0, 2, 0, 1), (2, 4, 0, 1), (4, 5, 0, 0)]
    npt.assert_array_equal(plan.indptr, [0, 1, 2, 0, 1, 1, 0, 0])
    assert plan.ones.size == 2
    # no nodes, no blocks
    assert IndexArrays(np.empty((3, 0), dtype=np.int32), 0).scatter_plan.blocks == ()
