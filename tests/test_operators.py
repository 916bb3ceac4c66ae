import dataclasses
import sys
import threading
import time
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse._sparsetools import csr_matvec
import scipy.sparse as sp

from conftest import make_problem, perturbed_mesh, scatter_blocks, shuffled, uniform_refine
from ebsolve.operators import MAX_THREADS, SCATTER_BLOCK, WINDOW_SLACK, ScatterBlock

from ebsolve import (
    DirichletData,
    IndexArrays,
    Mesh,
    assemble_rhs,
    assemble_sparse,
    build_element_batch,
    build_grid_mesh,
    build_index_arrays,
    build_unit_square_mesh,
    constant_dirichlet,
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
    # node 0 of the second mesh is unreferenced: its row of the scatter is empty
    holed = with_unreferenced_node(build_unit_square_mesh(3), first=True)
    rng = np.random.default_rng(2)
    for m, size in ((perturbed_mesh(3, 0.1, 5), SCATTER_BLOCK),
                    (perturbed_mesh(3, 0.1, 6), 10), (holed, 1)):
        with scatter_blocks(size):
            batch = build_element_batch(m, nu=1.5, f=lambda x, y: np.cos(3.0 * x) - y)
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


@pytest.mark.parametrize("size", [7, SCATTER_BLOCK])
def test_batch_load_is_read_only_and_bitwise_assemble_rhs(size):
    rng = np.random.default_rng(5)
    meshes = [perturbed_mesh(4, 0.1, 1), shuffled(perturbed_mesh(4, 0.1, 2), 2, -1),
              with_unreferenced_node(build_unit_square_mesh(3), first=True),
              with_unreferenced_node(build_unit_square_mesh(3), first=False)]
    for m in meshes:
        with scatter_blocks(size):
            batch = build_element_batch(m, nu=1.0, f=lambda x, y: np.cos(3.0 * x) - y)
            # a load that differs between an element's three nodes
            loads = dataclasses.replace(batch, b_e=rng.standard_normal((3, m.n_elements)))
        for case in (batch, loads):
            b = assemble_rhs(case.b_e, case.index.indt, m.n_nodes)
            assert case.b.tobytes() == b.tobytes()
            assert not case.b.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                case.b[0] = 1.0


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
    r1 = residual(batch, x, threads=1)
    for threads in (2, 3, 4, 8):
        npt.assert_array_equal(residual(batch, x, threads=threads), r1)


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
        assert residual(batch, x, threads=threads).tobytes() == r.tobytes()


def bincount_residual(batch, x):
    """Reference residual: the loads summed by np.bincount, then each element
    product subtracted from its node in ``indt.ravel()`` order by
    np.subtract.at, ((b[n] - s1) - s2) - ...

    The einsum runs on a C-contiguous copy of A_e: there it sums each row
    left to right, as the residual's CSR loop does.  On the strided A_e
    view it regroups the sum and differs in the last bit.
    """
    indt = batch.index.indt
    products = np.einsum("ije,je->ie", np.ascontiguousarray(batch.A_e), x[indt])
    r = np.bincount(indt.ravel(), weights=batch.b_e.ravel(), minlength=x.shape[0])
    np.subtract.at(r, indt.ravel(), products.ravel())
    return r


def with_unreferenced_node(m, first):
    """``m`` plus one node that no element references, numbered first or last.

    It sits a quarter cell above the grid's centre node.
    """
    extra = np.array([[0.5, 0.5 + 0.25 * m.nodes[1, 0]]])
    if not first:
        return Mesh(np.vstack([m.nodes, extra]), m.elements, m.boundary_nodes)
    return Mesh(np.vstack([extra, m.nodes]), m.elements + 1, m.boundary_nodes + 1)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["perturbed", "grid100", "unreferenced-first",
                             "unreferenced-last"]),
       level=st.integers(2, 4), nu=st.floats(0.0, 100.0),
       size=st.sampled_from([1, 7, 64, 1000, SCATTER_BLOCK]),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_scatter_matches_bincount_bitwise(kind, level, nu, size, seed):
    if kind == "perturbed":
        m = perturbed_mesh(level, 0.1, seed)
    elif kind == "grid100":
        m = build_grid_mesh(100)  # 19602 elements, 9999 nodes: uneven chunks
    else:
        m = with_unreferenced_node(build_unit_square_mesh(level),
                                   first=kind == "unreferenced-first")
    with scatter_blocks(size):
        batch = build_element_batch(
            m, nu=nu, f=lambda x, y: np.sin(7.0 * x) + y * y)
    x = np.random.default_rng(seed).standard_normal(m.n_nodes)
    ref = bincount_residual(batch, x)
    for threads in (1, 2, 3, 4, 8):
        assert residual(batch, x, threads=threads).tobytes() == ref.tobytes()
    if kind.startswith("unreferenced"):
        lone = 0 if kind == "unreferenced-first" else m.n_nodes - 1
        assert ref[lone] == 0.0


def plan_windows(indt, n_nodes, size):
    """Oracle: each ``size``-node block's element window [elo, ehi), by brute force."""
    windows = []
    for a in range(0, n_nodes, size):
        touching = np.flatnonzero(((indt >= a) & (indt < a + size)).any(axis=0))
        windows.append((a, min(a + size, n_nodes), touching[0], touching[-1] + 1)
                       if touching.size else (a, min(a + size, n_nodes), 0, 0))
    return windows


@settings(max_examples=30, deadline=None)
@given(level=st.integers(4, 6), size=st.sampled_from([256, 1024]),
       swaps=st.sampled_from([-1, 0, 1, 3]), seed=st.integers(0, 2**32 - 1))
def test_shuffled_elements_stay_within_the_window_slack_or_fall_back(level, size,
                                                                      swaps, seed):
    m = shuffled(perturbed_mesh(level, 0.1, seed), seed, swaps)
    with scatter_blocks(size, slack=WINDOW_SLACK):
        batch = build_element_batch(m, nu=2.0, f=lambda x, y: np.exp(x) - y)
    idx = batch.index
    n_e = batch.n_elements
    windows = plan_windows(idx.indt, m.n_nodes, size)
    plan = [blk[:4] for blk in idx.blocks]
    if sum(ehi - elo for *_, elo, ehi in windows) <= WINDOW_SLACK * n_e:
        assert plan == windows
    else:
        assert plan == [(0, m.n_nodes, 0, n_e)]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(m.n_nodes)
    local = rng.standard_normal((3, n_e))
    ref = bincount_residual(batch, x)
    ref_scatter = np.bincount(idx.indt.ravel(), local.ravel(), minlength=m.n_nodes)
    for threads in (1, 2, 3):
        assert residual(batch, x, threads=threads).tobytes() == ref.tobytes()
    assert operators.scatter(idx, local).tobytes() == ref_scatter.tobytes()


def plan_rows(idx):
    """Each node's positions in ``indt.ravel()``, read back from the blocks."""
    n_e = idx.indt.shape[1]
    assert np.all(idx.minus_ones == -1.0)
    rows, end = [], 0
    for a, b, elo, ehi, indptr, indices in idx.blocks:
        assert indices.dtype == indptr.dtype == np.int32
        assert a == end and 0 <= elo <= ehi <= n_e
        end = b
        width = ehi - elo
        assert indptr[0] == 0 and indptr.size == b - a + 1
        assert indptr[-1] == indices.size <= idx.minus_ones.size
        assert np.all((indices >= 0) & (indices < 3 * width))
        i, e = np.divmod(indices, max(width, 1))
        positions = i * n_e + e + elo
        rows += [positions[indptr[n]:indptr[n + 1]] for n in range(b - a)]
    assert end == idx.n_nodes
    # the shared element row pointer spans the largest window
    window = max((b.ehi - b.elo for b in idx.blocks), default=0)
    assert idx.window_ptr.dtype == np.int32
    npt.assert_array_equal(idx.window_ptr, np.arange(0, 3 * window + 1, 3))
    return rows


def test_index_arrays():
    m = build_unit_square_mesh(2)
    idx = build_index_arrays(m)
    assert idx.indt.shape == (3, m.n_elements)
    npt.assert_array_equal(idx.indt, m.elements.T)
    # every node appears in at least one element
    npt.assert_array_equal(np.unique(idx.indt), np.arange(m.n_nodes))
    # the scatter blocks: node n's entries are its positions in
    # indt.ravel(), ascending, whatever the block size; a mesh this small is
    # one block
    assert len(idx.blocks) == 1
    flat = idx.indt.ravel()
    for size in (1, 7, 64, operators.SCATTER_BLOCK):
        with scatter_blocks(size):
            idx = build_index_arrays(m)
        assert len(idx.blocks) == -(-m.n_nodes // size)
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
        columns = idx.indt.T.reshape(-1)
        assert columns.shape == (3 * m.n_elements,)
        assert np.shares_memory(columns, m.elements)
        npt.assert_array_equal(columns, m.elements.ravel())
        # one block, whose window is every element
        npt.assert_array_equal(idx.window_ptr, np.arange(0, 3 * m.n_elements + 1, 3))
        assert idx.window_ptr.dtype == np.int32
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


def held(obj):
    """``obj`` and all it holds through dataclass fields and tuples, recursively."""
    yield obj
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from held(item)


def test_index_arrays_hold_nothing_element_long_but_the_connectivity_and_positions():
    # with several blocks in grid order, the pointers and the minus ones are
    # sized by a block or a window, not by the element count
    for level, size in ((6, 256), (9, SCATTER_BLOCK)):
        m = build_unit_square_mesh(level)
        with scatter_blocks(size):
            idx = build_index_arrays(m)
        objs = list(held(idx))
        positions = [o.indices for o in objs if isinstance(o, ScatterBlock)]
        assert len(positions) > 1
        long = [arr.shape for arr in objs
                if isinstance(arr, np.ndarray) and arr.size >= m.n_elements
                and not np.shares_memory(arr, idx.indt)
                and not any(np.shares_memory(arr, p) for p in positions)]
        assert long == []


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
    (block,) = idx.blocks
    assert block[:4] == (0, 5, 0, 1)
    npt.assert_array_equal(block.indptr, [0, 1, 2, 3, 3, 3])
    with scatter_blocks(2):
        idx = IndexArrays(indt, 5)
    assert [blk[:4] for blk in idx.blocks] == [(0, 2, 0, 1), (2, 4, 0, 1), (4, 5, 0, 0)]
    for blk, ptr in zip(idx.blocks, ([0, 1, 2], [0, 1, 1], [0, 0])):
        npt.assert_array_equal(blk.indptr, ptr)
    assert idx.minus_ones.size == 2
    npt.assert_array_equal(idx.window_ptr, [0, 3])
    # no nodes, no blocks
    empty = IndexArrays(np.empty((3, 0), dtype=np.int32), 0)
    assert empty.blocks == ()
    npt.assert_array_equal(empty.window_ptr, [0])


def test_non_integer_indt_is_rejected():
    with pytest.raises(ValueError, match="indt must hold integer"):
        IndexArrays([[0.0], [1.9], [2.0]], 3)


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
    for _ in range(20):
        assert residual(batch, x, threads=2).tobytes() == ref.tobytes()
    assert len(built) <= 1


def test_concurrent_residuals_share_the_pool():
    # several callers at once on the shared pools, more threads than cores,
    # with frequent switches: every result must still be bitwise serial
    with scatter_blocks(64):
        m, batch, _, _ = make_problem(5)
    xs = [np.random.default_rng(s).standard_normal(m.n_nodes) for s in range(4)]
    refs = [residual(batch, x).tobytes() for x in xs]
    errors = []

    def caller(k):
        try:
            for _ in range(10):
                r = residual(batch, xs[k], threads=2 + k % 3)
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
    # values, the first call full of NaN, and so does every window buffer:
    # every entry must be written before it is read
    m = perturbed_mesh(4, 0.1, 3)
    with scatter_blocks(40):
        batch = build_element_batch(m, nu=2.5, f=lambda x, y: np.sin(5.0 * x) + y)
    assert len(batch.index.blocks) == 8
    rng = np.random.default_rng(8)
    xs = [rng.standard_normal(m.n_nodes) for _ in range(4)]
    fresh = [residual(batch, x).tobytes() for x in xs]
    monkeypatch.setattr(np, "empty", lambda *a, **k: np.full(*a, np.nan, **k))
    assert np.isnan(np.empty(3)).all()
    for threads in (1, 2, 3):
        out = np.empty(m.n_nodes)
        assert np.isnan(out).all()
        for x, ref in zip(xs, fresh):
            r = residual(batch, x, threads, out=out)
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
    # the result is written block by block while x is still read
    with pytest.raises(ValueError, match="x overlaps out"):
        residual(batch, x, out=x)
    with pytest.raises(ValueError, match="x overlaps out"):
        residual(batch, shared[1:n_n + 1], out=shared[n_n:])


def test_one_residual_call_allocates_less_than_one_element_array():
    # level 9: 263169 nodes, 524288 elements, 9 blocks; the (3, n_e) element
    # residuals the blocked pass replaces would be 12.6 MB
    m, batch, _, _ = make_problem(9)
    assert len(batch.index.blocks) == 9
    x = np.random.default_rng(1).standard_normal(m.n_nodes)
    local_bytes = 3 * batch.n_elements * 8
    for threads in (1, 2):
        residual(batch, x, threads)  # the pool exists before tracing starts
        tracemalloc.start()
        try:
            r = residual(batch, x, threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.nbytes < peak < local_bytes


def test_thread_count_outside_cap_raises_before_any_pool(monkeypatch):
    m, batch, _, _ = make_problem(2)

    def no_pool(workers):
        raise AssertionError(f"a pool of {workers} workers was requested")

    monkeypatch.setattr(operators, "_pool", no_pool)
    x = np.zeros(m.n_nodes)
    for threads in (0, -1, MAX_THREADS + 1):
        with pytest.raises(ValueError, match=f"between 1 and {MAX_THREADS}"):
            residual(batch, x, threads)


def test_residual_input_validation():
    m, batch, _, _ = make_problem(1)
    with pytest.raises(ValueError):
        residual(batch, np.zeros((m.n_nodes, 1)))
    bad = np.zeros(m.n_nodes)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        residual(batch, bad)


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
