import dataclasses
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse._sparsetools import csr_matvec
import scipy.sparse as sp

from conftest import make_problem, perturbed_mesh, shuffled, uniform_refine
from ebsolve.operators import MAX_THREADS, SCATTER_CHUNK

from ebsolve import (
    DirichletData,
    ElementBatch,
    IndexArrays,
    Mesh,
    assemble_rhs,
    assemble_sparse,
    build_element_batch,
    build_grid_mesh,
    build_index_arrays,
    build_unit_square_mesh,
    constant_dirichlet,
    elements,
    mask_dirichlet,
    operators,
    residual,
)


def test_rhs_level1_values():
    # at level 1 the single interior node collects 6 element loads of
    # f*area/3 = 0.125/3 each
    _, _, _, b = make_problem(1)
    assert abs(b[4] - 0.25) <= 1e-15
    assert abs(b.sum() - 1.0) <= 1e-14


def test_assemble_rhs_shape_guard():
    _, batch, _, _ = make_problem(1)
    with pytest.raises(ValueError):
        assemble_rhs(batch.b_e[:, :3], batch.index.indt)


def test_scatter_reproduces_assemble_rhs():
    # node 0 of the third mesh is unreferenced: nothing is added to it
    holed = with_unreferenced_node(build_unit_square_mesh(3), first=True)
    rng = np.random.default_rng(2)
    for m, size in ((perturbed_mesh(3, 0.1, 5), SCATTER_CHUNK),
                    (shuffled(perturbed_mesh(3, 0.1, 6), 6, -1), 10), (holed, 1)):
        with mock.patch.object(operators, "SCATTER_CHUNK", size):
            batch = build_element_batch(m, nu=1.5)
            idx = batch.index
            flat = idx.indt.ravel()
            b = assemble_rhs(batch.b_e, idx.indt)
            local = rng.standard_normal(idx.indt.shape)
            areas = np.broadcast_to(batch.areas, idx.indt.shape)
            assert operators.scatter(idx, batch.b_e).tobytes() == b.tobytes()
            for values in (local, areas):
                ref = np.bincount(flat, weights=values.ravel(), minlength=m.n_nodes)
                assert operators.scatter(idx, values).tobytes() == ref.tobytes()
    assert operators.scatter(idx, local)[0] == 0.0
    with pytest.raises(ValueError, match="shape mismatch"):
        operators.scatter(idx, np.ones((3, 2)))


@pytest.mark.parametrize("size", [7, SCATTER_CHUNK])
def test_batch_load_is_read_only_and_bitwise_assemble_rhs(size):
    rng = np.random.default_rng(5)
    meshes = [perturbed_mesh(4, 0.1, 1), shuffled(perturbed_mesh(4, 0.1, 2), 2, -1),
              with_unreferenced_node(build_unit_square_mesh(3), first=True),
              with_unreferenced_node(build_unit_square_mesh(3), first=False)]
    for m in meshes:
        with mock.patch.object(operators, "SCATTER_CHUNK", size):
            batch = build_element_batch(m, nu=1.0)
            # the batch's load summation fed with areas that vary far more
            # than the mesh's
            areas = rng.uniform(0.5, 2.0, m.n_elements)
            b_e = np.broadcast_to(areas / 3.0, (3, m.n_elements))
            varied = operators.scatter(batch.index, b_e)
        b = assemble_rhs(batch.b_e, batch.index.indt, m.n_nodes)
        assert batch.b.tobytes() == b.tobytes()
        assert varied.tobytes() == assemble_rhs(b_e, batch.index.indt, m.n_nodes).tobytes()
        assert not batch.b.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            batch.b[0] = 1.0


def test_residual_at_zero_is_rhs():
    _, batch, _, b = make_problem(2)
    r = residual(batch, np.zeros(25))
    npt.assert_array_equal(r, b)


def test_residual_at_constant_one_is_rhs():
    # for nu = 0 constants are in the operator kernel, and on the dyadic
    # structured grid A*1 is exactly zero, bit for bit
    for level in range(1, 5):
        m, batch, _, b = make_problem(level)
        r = residual(batch, np.ones(m.n_nodes))
        npt.assert_array_equal(r, b)


def test_residual_matches_assembled_matrix():
    rng = np.random.default_rng(7)
    for level in (1, 2, 3, 4):
        for nu in (0.0, 1.0, 2.5):
            m, batch, _, b = make_problem(level, nu=nu)
            A = assemble_sparse(batch.A_e, batch.index.indt)
            for _ in range(3):
                x = rng.standard_normal(m.n_nodes)
                r = residual(batch, x)
                r_ref = b - A @ x
                assert np.linalg.norm(r - r_ref) <= 1e-12 * np.linalg.norm(r_ref)


def test_residual_threads_bitwise_identical():
    m, batch, _, _ = make_problem(4)
    x = np.random.default_rng(3).standard_normal(m.n_nodes)
    r1 = residual(batch, x)
    for threads in (2, 3, 4, 8):
        npt.assert_array_equal(residual(dataclasses.replace(batch, threads=threads), x), r1)


@settings(max_examples=30, deadline=None)
@given(level=st.integers(2, 4), amp=st.floats(0.0, 0.1), nu=st.floats(0.0, 100.0),
       seed=st.integers(0, 2**32 - 1))
def test_residual_matches_oracle_on_perturbed_mesh(level, amp, nu, seed):
    m = perturbed_mesh(level, amp, seed)
    batch = build_element_batch(m, nu=nu)
    A = assemble_sparse(batch.A_e, batch.index.indt)
    b = assemble_rhs(batch.b_e, batch.index.indt)
    x = np.random.default_rng(seed).standard_normal(m.n_nodes)
    r = residual(batch, x)
    r_ref = b - A @ x
    assert np.linalg.norm(r - r_ref) <= 1e-12 * np.linalg.norm(r_ref)
    for threads in (2, 3):
        on = dataclasses.replace(batch, threads=threads)
        assert residual(on, x).tobytes() == r.tobytes()


def ordered_sum_residual(batch, x):
    """Reference residual: for each node, in ascending position p = i*n_e + e
    in ``indt.ravel()``, add each entry's A_e[i, j, e] * x[indt[j, e]]
    (j = 0, 1, 2) to a sum that starts at 0, then subtract the sum from the
    load, summed by np.bincount.

    Round k adds every node's k-th entry, one IEEE addition per node, so
    each node's sum runs in exactly that order.
    """
    indt = batch.index.indt
    # entries in (i, e, j) order: node indt[i, e], value A_e[i, j, e] * x[indt[j, e]]
    nodes = np.repeat(indt.ravel(), 3)
    values = (batch.A_e.transpose(0, 2, 1) * x[indt.T]).ravel()
    order = np.argsort(nodes, kind="stable")
    nodes, values = nodes[order], values[order]
    rank = np.arange(nodes.size) - np.searchsorted(nodes, nodes)
    sums = np.zeros(x.shape[0])
    for k in range(rank.max(initial=-1) + 1):
        at = rank == k
        sums[nodes[at]] += values[at]
    b = np.bincount(indt.ravel(), weights=batch.b_e.ravel(), minlength=x.shape[0])
    return b - sums


def with_unreferenced_node(m, first):
    """``m`` plus one node that no element references, numbered first or last.

    It sits a quarter cell above the grid's centre node.
    """
    extra = np.array([[0.5, 0.5 + 0.25 * m.nodes[1, 0]]])
    if not first:
        return Mesh(np.vstack([m.nodes, extra]), m.elements, m.boundary_nodes)
    return Mesh(np.vstack([extra, m.nodes]), m.elements + 1, m.boundary_nodes + 1)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["perturbed", "shuffled", "grid100", "unreferenced-first",
                             "unreferenced-last"]),
       level=st.integers(2, 4), nu=st.floats(0.0, 100.0),
       seed=st.integers(0, 2**32 - 1))
def test_residual_matches_ordered_sum_bitwise(kind, level, nu, seed):
    if kind == "perturbed":
        m = perturbed_mesh(level, 0.1, seed)
    elif kind == "shuffled":
        m = shuffled(perturbed_mesh(level, 0.1, seed), seed, -1)
    elif kind == "grid100":
        m = build_grid_mesh(100)  # 19602 elements, 9999 nodes: uneven ranges
    else:
        m = with_unreferenced_node(build_unit_square_mesh(level),
                                   first=kind == "unreferenced-first")
    batch = build_element_batch(m, nu=nu)
    x = np.random.default_rng(seed).standard_normal(m.n_nodes)
    ref = ordered_sum_residual(batch, x)
    for threads in range(1, 9):
        on = dataclasses.replace(batch, threads=threads)
        assert residual(on, x).tobytes() == ref.tobytes()
    if kind.startswith("unreferenced"):
        lone = 0 if kind == "unreferenced-first" else m.n_nodes - 1
        assert ref[lone] == 0.0


def read_node_rows(idx, indptr, indices):
    """For each local row i and node n, the elements of n's slots, read back
    from the CSR structure (their columns are the elements' nodes)."""
    n_e = idx.indt.shape[1]
    by_nodes = {tuple(idx.indt[:, e]): e for e in range(n_e)}
    assert len(by_nodes) == n_e  # no two elements on the same nodes
    rows = []
    for i in range(3):
        ptr, cols = indptr[i], indices[i]
        assert ptr.dtype == cols.dtype == np.int32
        assert cols.shape == (3 * n_e,) and ptr[0] == 0 and ptr[-1] == 3 * n_e
        assert np.all(ptr % 3 == 0) and np.all(np.diff(ptr) >= 0)
        slots = [by_nodes[tuple(cols[k:k + 3])] for k in range(0, 3 * n_e, 3)]
        rows.append([slots[ptr[n] // 3:ptr[n + 1] // 3] for n in range(idx.n_nodes)])
    return rows


def test_index_arrays():
    m = build_unit_square_mesh(2)
    idx = build_index_arrays(m)
    assert idx.indt.shape == (3, m.n_elements)
    npt.assert_array_equal(idx.indt, m.elements.T)
    # every node appears in at least one element
    npt.assert_array_equal(np.unique(idx.indt), np.arange(m.n_nodes))
    # node n's slots in local row i are the elements e with indt[i, e] == n,
    # ascending, and slots[i] names each element's slot, on the grid and
    # with the elements shuffled
    for case in (idx, build_index_arrays(shuffled(m, 4, -1))):
        rows, all_slots = operators.node_rows(case)
        assert rows.data.shape == (3, case.indt.shape[1], 3) and rows.data.flags.c_contiguous
        for i, row in enumerate(read_node_rows(case, rows.indptr, rows.indices)):
            for n, elements in enumerate(row):
                npt.assert_array_equal(elements, np.flatnonzero(case.indt[i] == n))
            slots = all_slots[i]
            order = np.concatenate(row).astype(int)
            if slots is None:
                npt.assert_array_equal(order, np.arange(case.indt.shape[1]))
            else:
                npt.assert_array_equal(slots[order], np.arange(case.indt.shape[1]))
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
        columns = idx.indt.T.reshape(-1)
        assert columns.shape == (3 * m.n_elements,)
        assert np.shares_memory(columns, m.elements)
        npt.assert_array_equal(columns, m.elements.ravel())
        # a local row in element order takes the connectivity as its
        # columns; the others hold columns of their own
        rows, slots = operators.node_rows(idx)
        indices = rows.indices
        for i in range(3):
            ordered = bool(np.all(np.diff(idx.indt[i]) >= 0))
            assert np.shares_memory(indices[i], m.elements) == ordered
            assert (slots[i] is None) == ordered
    # on the grid that is row 0, whose node never decreases: the batch's
    # row 0 shares memory with the mesh's connectivity
    m = build_unit_square_mesh(5)
    indices = build_element_batch(m).rows.indices
    assert np.shares_memory(indices[0], m.elements)
    assert not any(np.shares_memory(indices[i], m.elements) for i in (1, 2))
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


def test_index_arrays_bytes_per_element_are_bounded():
    # level 7: 32768 elements, 16641 nodes.  Beside the connectivity, the
    # grid's rows 1 and 2 hold 12 bytes of columns per element each, and
    # the three int32 row pointers ~6 bytes per element (one node per two
    # elements)
    m = build_unit_square_mesh(7)
    rows = build_element_batch(m).rows
    held = rows.indptr.nbytes + sum(cols.nbytes for cols in rows.indices
                                    if not np.shares_memory(cols, m.elements))
    assert held / m.n_elements <= 31.0


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
    # nodes that no element references get empty rows
    rows, slots = operators.node_rows(IndexArrays(indt, 5))
    npt.assert_array_equal(rows.indptr, [[0, 3, 3, 3, 3, 3], [0, 0, 3, 3, 3, 3],
                                         [0, 0, 0, 3, 3, 3]])
    for cols in rows.indices:
        npt.assert_array_equal(cols, [0, 1, 2])
    assert slots == [None] * 3
    assert rows.data.shape == (3, 1, 3)
    # no nodes, no slots
    rows, _ = operators.node_rows(IndexArrays(np.empty((3, 0), dtype=np.int32), 0))
    npt.assert_array_equal(rows.indptr, [[0], [0], [0]])
    assert [cols.size for cols in rows.indices] == [0, 0, 0]
    assert rows.data.shape == (3, 0, 3)


def one_element_mesh():
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.array([[0, 1, 2]]),
                np.array([0, 1, 2]))


# the grid's row 0 is in element order, the shuffled grid's rows are all
# permuted, and a single element's rows are all in order
NODE_ROW_MESHES = {
    "grid": (lambda: build_unit_square_mesh(3), [True, False, False]),
    "shuffled": (lambda: shuffled(build_unit_square_mesh(3), 8, -1), [False] * 3),
    "one-element": (one_element_mesh, [True] * 3),
}


@pytest.mark.parametrize("case", NODE_ROW_MESHES)
def test_node_rows_read_back_and_apply_what_they_were_written(case, monkeypatch):
    # non-symmetric matrices: a row written or read as a column shows
    make, in_order = NODE_ROW_MESHES[case]
    m = make()
    idx = build_index_arrays(m)
    rng = np.random.default_rng(11)
    A_e = rng.standard_normal((3, 3, m.n_elements))
    # written block by block, as the batch pass writes
    monkeypatch.setattr(elements, "GATHER_BLOCK", 7)
    rows, slots = operators.node_rows(idx)
    for lo in range(0, m.n_elements, elements.GATHER_BLOCK):
        blk = slice(lo, lo + elements.GATHER_BLOCK)
        rows.write(slots, blk, A_e[:, :, blk])
    assert [w is None for w in slots] == in_order
    back = rows.read(idx)
    assert back.shape == A_e.shape and not back.flags.writeable
    assert back.tobytes() == A_e.tobytes()
    # slot k of row i holds row i of its element's matrix, at that
    # element's nodes
    for i in range(3):
        order = np.arange(m.n_elements) if slots[i] is None else np.argsort(slots[i])
        assert rows.data[i].tobytes() == np.ascontiguousarray(A_e[i].T[order]).tobytes()
        npt.assert_array_equal(rows.indices[i].reshape(-1, 3), m.elements[order])
    # and the residual over them is that of the assembled matrix
    b = rng.standard_normal(m.n_nodes)
    batch = ElementBatch(rows, np.ones(m.n_elements), 0.0, idx, b, 0.0)
    A = assemble_sparse(A_e, idx.indt, m.n_nodes)
    for _ in range(3):
        x = rng.standard_normal(m.n_nodes)
        r_ref = b - A @ x
        assert np.linalg.norm(residual(batch, x) - r_ref) <= 1e-13 * np.linalg.norm(r_ref)


def slot_order_sum(A_e, indt, n_nodes):
    """The node rows' sum in its stated order, entry by entry, from element-order A_e.

    Local row i's terms at (n, c) are added to 0 in ascending element
    order, the order of its slots, the three rows' sums are added as
    (s0 + s1) + s2, and exact zeros are dropped.  Returns the sorted keys
    n * n_nodes + c of the entries and their values.
    """
    keys = indt[:, None, :].astype(np.int64) * n_nodes + indt[None, :, :]  # entry (i, j, e)
    pattern = np.unique(keys)
    sums = np.zeros((3, pattern.size))
    for i in range(3):
        # element-major: element e's three terms, then element e + 1's
        np.add.at(sums[i], np.searchsorted(pattern, keys[i].T.ravel()), A_e[i].T.ravel())
    total = (sums[0] + sums[1]) + sums[2]
    return pattern[total != 0], total[total != 0]


# node 3 belongs to no element
TRAILING_NODE_MESH = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
                          np.array([[0, 1, 2]]), np.array([0, 1, 2, 3]))
ASSEMBLED_MESHES = {
    **{f"grid-{level}": (lambda level=level: build_unit_square_mesh(level))
       for level in range(1, 7)},
    "shuffled": lambda: shuffled(build_unit_square_mesh(4), 5, -1),
    "perturbed-4": lambda: perturbed_mesh(4, 0.1, 3),
    "perturbed-5": lambda: perturbed_mesh(5, 0.1, 1),
    "trailing-node": lambda: TRAILING_NODE_MESH,
}


@pytest.mark.parametrize("nu", [0.0, 3.0, 100.0])
@pytest.mark.parametrize("case", ASSEMBLED_MESHES)
def test_node_rows_assemble_the_system_matrix(case, nu):
    m = ASSEMBLED_MESHES[case]()
    n = m.n_nodes
    batch = build_element_batch(m, nu=nu)
    A = batch.rows.assemble(n)
    assert isinstance(A, sp.csr_matrix) and A.shape == (n, n)
    assert A.has_canonical_format and np.all(A.data != 0)
    # bitwise the stated summation order, on every mesh
    keys, values = slot_order_sum(batch.A_e, batch.index.indt, n)
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    npt.assert_array_equal(rows * n + A.indices, keys)
    assert A.data.tobytes() == values.tobytes()
    # and the triplet assembly's pattern, with its values to rounding: that
    # sum adds each entry's terms left to right in (i, j, e) order
    R = assemble_sparse(batch.A_e, batch.index.indt, n)
    R.sum_duplicates()
    R.eliminate_zeros()
    R.sort_indices()
    npt.assert_array_equal(A.indptr, R.indptr)
    npt.assert_array_equal(A.indices, R.indices)
    assert np.abs(A.data - R.data).max() <= 1e-15 * np.abs(R.data).max()
    if case == "trailing-node":
        assert A.indptr[-1] == A.indptr[-2] and not (A.indices == n - 1).any()


def test_non_integer_indt_is_rejected():
    with pytest.raises(ValueError, match="indt must hold integer"):
        IndexArrays([[0.0], [1.9], [2.0]], 3)


def test_thread_count_change_keeps_every_array():
    # replacing the thread count re-assembles nothing: the store, the index
    # arrays and b are the same objects, and the residual the same bits
    m, batch, _, _ = make_problem(4, nu=2.0)
    x = np.random.default_rng(6).standard_normal(m.n_nodes)
    for threads in (2, 3):
        on = dataclasses.replace(batch, threads=threads)
        assert on.threads == threads
        for name in ("rows", "areas", "index", "b"):
            assert getattr(on, name) is getattr(batch, name), name
        assert on.beta == batch.beta
        assert residual(on, x).tobytes() == residual(batch, x).tobytes()


def test_residual_reuses_one_pool(monkeypatch):
    m, batch, _, _ = make_problem(4)
    x = np.random.default_rng(4).standard_normal(m.n_nodes)
    built = []

    class CountingPool(operators.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(operators, "ThreadPoolExecutor", CountingPool)
    ref = residual(batch, x)
    on_two = dataclasses.replace(batch, threads=2)
    for _ in range(20):
        assert residual(on_two, x).tobytes() == ref.tobytes()
    assert len(built) <= 1


def test_concurrent_residuals_share_the_pool():
    # several callers at once on the shared pools, more threads than cores,
    # with frequent switches: every result must still be bitwise serial
    m, batch, _, _ = make_problem(5)
    xs = [np.random.default_rng(s).standard_normal(m.n_nodes) for s in range(4)]
    refs = [residual(batch, x).tobytes() for x in xs]
    batches = [dataclasses.replace(batch, threads=2 + k % 3) for k in range(4)]
    errors = []

    def caller(k):
        try:
            for _ in range(10):
                r = residual(batches[k], xs[k])
                if r.tobytes() != refs[k]:
                    errors.append(k)
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert errors == []


def test_split_waits_for_every_range_and_raises_the_lowest_failure():
    # the calling thread's range 0 fails at once while the pool's ranges are
    # still running: _split returns only after they finish, and raises the
    # error of the lowest range that failed
    for failing, want in (({0, 2}, "range 0"), ({1, 2}, "range 1"), ({2}, "range 2")):
        finished = []

        def fn(lo, hi):
            if lo > 0:
                time.sleep(0.05 * lo)
            finished.append(lo)
            if lo in failing:
                raise ValueError(f"range {lo}")

        with pytest.raises(ValueError, match=want):
            operators._split(fn, 3, 3)
        assert sorted(finished) == [0, 1, 2]
    # the pool is free again: the next call's ranges all run
    seen = []
    operators._split(lambda lo, hi: seen.append((lo, hi)), 3, 3)
    assert sorted(seen) == [(0, 1), (1, 2), (2, 3)]


def test_csr_matvec_contract():
    # residual calls scipy's compiled CSR loop directly; pin what it relies on
    rng = np.random.default_rng(11)
    A = sp.random(40, 30, density=0.3, format="csr", rng=rng)
    x = rng.standard_normal(30)
    y0 = rng.standard_normal(40)
    # it accumulates into y, the loop behind csr_matrix @ x
    y = np.zeros(40)
    csr_matvec(40, 30, A.indptr, A.indices, A.data, x, y)
    assert y.tobytes() == (A @ x).tobytes()
    y = y0.copy()
    csr_matvec(40, 30, A.indptr, A.indices, A.data, x, y)
    ref = y0.copy()
    for row in range(40):
        for k in range(A.indptr[row], A.indptr[row + 1]):
            ref[row] += A.data[k] * x[A.indices[k]]
    assert y.tobytes() == ref.tobytes()
    # a row range is the slice indptr[a:b+1] of absolute offsets, written
    # into y[a:b] only
    y = np.zeros(40)
    csr_matvec(25 - 10, 30, A.indptr[10:26], A.indices, A.data, x, y[10:25])
    assert y[10:25].tobytes() == (A @ x)[10:25].tobytes()
    assert not y[:10].any() and not y[25:].any()


def test_residual_into_reused_workspace_matches_fresh_calls_bitwise(monkeypatch):
    # a reused out vector starts each call full of the previous call's
    # values, the first call full of NaN: every entry must be written before
    # it is read
    m = perturbed_mesh(4, 0.1, 3)
    batch = build_element_batch(m, nu=2.5)
    rng = np.random.default_rng(8)
    xs = [rng.standard_normal(m.n_nodes) for _ in range(4)]
    fresh = [residual(batch, x).tobytes() for x in xs]
    batches = [dataclasses.replace(batch, threads=threads) for threads in (1, 2, 3)]
    monkeypatch.setattr(np, "empty", lambda *a, **k: np.full(*a, np.nan, **k))
    assert np.isnan(np.empty(3)).all()
    for on in batches:
        out = np.empty(m.n_nodes)
        assert np.isnan(out).all()
        for x, ref in zip(xs, fresh):
            r = residual(on, x, out=out)
            assert r is out
            assert r.tobytes() == ref


def test_workspace_validation():
    m, batch, _, _ = make_problem(2)
    x = np.zeros(m.n_nodes)
    n_n = m.n_nodes
    frozen = np.empty(n_n)
    frozen.setflags(write=False)
    wrong = [np.empty(n_n + 1), np.empty(n_n, dtype=np.float32),
             np.empty((n_n, 1)), np.empty(2 * n_n)[::2], frozen]
    for r in wrong:
        with pytest.raises(ValueError, match="C-contiguous float64"):
            residual(batch, x, out=r)
    # adjacent slices of one buffer do not overlap
    shared = np.empty(2 * n_n)
    x = shared[:n_n]
    x[:] = np.linspace(0.0, 1.0, n_n)
    ref = residual(batch, x.copy())
    assert residual(batch, x, out=shared[n_n:]).tobytes() == ref.tobytes()
    # the result is written range by range while x is still read
    with pytest.raises(ValueError, match="x overlaps out"):
        residual(batch, x, out=x)
    with pytest.raises(ValueError, match="x overlaps out"):
        residual(batch, shared[1:n_n + 1], out=shared[n_n:])


def test_one_residual_call_allocates_less_than_one_element_array():
    # level 9: 263169 nodes, 524288 elements; the (3, n_e) element
    # residuals the node-row pass never forms would be 12.6 MB
    m, batch, _, _ = make_problem(9)
    x = np.random.default_rng(1).standard_normal(m.n_nodes)
    local_bytes = 3 * batch.n_elements * 8
    for threads in (1, 2):
        on = dataclasses.replace(batch, threads=threads)
        residual(on, x)  # the pool exists before tracing starts
        tracemalloc.start()
        try:
            r = residual(on, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.nbytes < peak < local_bytes


def test_thread_count_outside_cap_raises_before_any_pool(monkeypatch):
    m, batch, _, _ = make_problem(2)

    def no_pool(workers):
        raise AssertionError(f"a pool of {workers} workers was requested")

    monkeypatch.setattr(operators, "_pool", no_pool)
    for threads in (0, -1, MAX_THREADS + 1):
        with pytest.raises(ValueError, match=f"between 1 and {MAX_THREADS}"):
            dataclasses.replace(batch, threads=threads)
        with pytest.raises(ValueError, match=f"between 1 and {MAX_THREADS}"):
            build_element_batch(m, threads=threads)


def test_residual_input_validation():
    m, batch, _, _ = make_problem(1)
    with pytest.raises(ValueError):
        residual(batch, np.zeros((m.n_nodes, 1)))


NON_FINITE_MESHES = {
    "grid": lambda: build_unit_square_mesh(4),
    "perturbed": lambda: perturbed_mesh(4, 0.1, 3),
    "shuffled": lambda: shuffled(build_unit_square_mesh(4), 1, -1),
}


@pytest.mark.parametrize("kind", sorted(NON_FINITE_MESHES))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_x_spreads_to_the_rows_of_its_element_neighbours(kind, value):
    # residual does not check x's values: like b - A @ x, it gives a
    # non-finite entry in every row that reads the bad entry, and every
    # other row bitwise as it is with a finite entry there
    m = NON_FINITE_MESHES[kind]()
    indt = m.elements.T
    for nu in (0.0, 3.0):
        batch = build_element_batch(m, nu=nu)
        x = np.random.default_rng(5).standard_normal(m.n_nodes)
        clean = residual(batch, x)
        # an interior node and a boundary node
        for node in (m.n_nodes // 2, m.boundary_nodes[1]):
            near = np.zeros(m.n_nodes, dtype=bool)
            near[indt[:, (indt == node).any(axis=0)]] = True
            bad = x.copy()
            bad[node] = value
            r = residual(batch, bad)
            assert not np.isfinite(r[near]).any()
            assert r[~near].tobytes() == clean[~near].tobytes()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(NON_FINITE_MESHES)), nu=st.sampled_from([0.0, 3.0]),
       value=st.sampled_from([np.nan, np.inf, -np.inf]), pick=st.integers(0, 2**31),
       seed=st.integers(0, 2**32 - 1))
def test_a_non_finite_entry_at_a_free_node_makes_the_masked_norm_non_finite(
        kind, nu, value, pick, seed):
    # the invariant behind the solvers' one divergence test: every node an
    # element references has a_ii > 0, so its own masked residual entry is
    # non-finite
    m = NON_FINITE_MESHES[kind]()
    batch = build_element_batch(m, nu=nu)
    d = constant_dirichlet(m, 1.0)
    free = np.flatnonzero(d.free_mask(m.n_nodes))
    node = free[pick % free.size]
    x = np.random.default_rng(seed).standard_normal(m.n_nodes)
    x[node] = value
    r = mask_dirichlet(residual(batch, x), d)
    assert not np.isfinite(r[node])
    assert not np.isfinite(np.linalg.norm(r))


def test_residual_rejects_wrong_length():
    m, batch, _, _ = make_problem(2)
    assert m.n_nodes == 25
    for n in (24, 26, 29):
        with pytest.raises(ValueError, match="length 25"):
            residual(batch, np.zeros(n))


def test_mask_dirichlet():
    m, batch, d, b = make_problem(2)
    r = residual(batch, np.zeros(m.n_nodes))
    before = r.copy()
    # masks in place: the same array comes back
    assert mask_dirichlet(r, d) is r
    assert np.all(r[d.nd] == 0.0)
    assert np.any(before[d.nd] != 0.0)
    free = np.setdiff1d(np.arange(m.n_nodes), d.nd)
    assert r[free].tobytes() == before[free].tobytes()


def test_constant_dirichlet_values():
    m = build_unit_square_mesh(2)
    d = constant_dirichlet(m, 3.5)
    npt.assert_array_equal(d.nd, m.boundary_nodes)
    assert np.all(d.values == 3.5)


def test_dirichlet_data_sorted_and_validated():
    d = DirichletData(np.array([5, 2]), np.array([50.0, 20.0]))
    npt.assert_array_equal(d.nd, [2, 5])
    npt.assert_array_equal(d.values, [20.0, 50.0])
    with pytest.raises(ValueError):
        DirichletData(np.array([1, 1]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        DirichletData(np.array([1, 2]), np.array([0.0]))


def test_dirichlet_data_rejects_non_integer_nodes():
    # floats were truncated: [0.5, 1.7] constrained nodes 0 and 1
    with pytest.raises(ValueError, match="nd must hold integer"):
        DirichletData([0.5, 1.7], [5.0, 7.0])
    assert DirichletData([], []).nd.dtype == np.int64


def test_dirichlet_data_rejects_negative_nodes():
    # on an 81-node mesh, -1 would name node 80 a second time
    with pytest.raises(ValueError, match="nonnegative"):
        DirichletData(np.array([-1, 80]), np.array([5.0, 7.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        DirichletData(np.array([-1, 0]), np.array([5.0, 7.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dirichlet_data_rejects_non_finite_values(bad):
    # a NaN value once reached solve_reference, which blamed the matrix
    with pytest.raises(ValueError, match="values must be finite"):
        DirichletData(np.array([0, 3]), np.array([1.0, bad]))
