import dataclasses
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perturbed_mesh, shuffled

from ebsolve import elements, operators
from ebsolve.operators import MAX_THREADS, NodeRows, node_rows
from ebsolve import (
    Mesh,
    build_element_batch,
    build_unit_square_mesh,
    local_mass_batch,
    local_stiffness_batch,
)

# closed-form local stiffness of the right triangle with legs along the axes;
# it does not depend on the leg length
K_REF = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])


def right_triangle(h, shift=(0.0, 0.0)):
    sx, sy = shift
    nodes = np.array([[sx, sy], [sx + h, sy], [sx, sy + h]])
    return Mesh(nodes, np.array([[0, 1, 2]]), np.array([0, 1, 2]))


def test_stiffness_reference_triangle():
    for h in (1.0, 0.5, 0.25, 0.0625):
        K = local_stiffness_batch(right_triangle(h))
        npt.assert_array_equal(K[:, :, 0], K_REF)


def test_stiffness_translation_invariant():
    K0 = local_stiffness_batch(right_triangle(0.25))
    K1 = local_stiffness_batch(right_triangle(0.25, shift=(0.375, 0.5)))
    npt.assert_array_equal(K0, K1)


def test_stiffness_row_sums_exactly_zero():
    # constants lie in the P1 kernel; on dyadic grids this holds bitwise
    m = build_unit_square_mesh(3)
    K = local_stiffness_batch(m)
    assert np.all(K.sum(axis=1) == 0.0)
    assert np.all(K.sum(axis=0) == 0.0)


def test_stiffness_symmetric():
    m = build_unit_square_mesh(2)
    K = local_stiffness_batch(m)
    npt.assert_array_equal(K, K.transpose(1, 0, 2))


def test_mass_pattern():
    m = build_unit_square_mesh(2)
    area = 0.5 * 0.25**2
    M = local_mass_batch(m)
    expected = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    for e in range(m.n_elements):
        npt.assert_array_equal(M[:, :, e], expected)


def test_mass_eigenvalues():
    M = local_mass_batch(right_triangle(1.0))[:, :, 0]
    eigs = np.linalg.eigvalsh(M)
    npt.assert_allclose(eigs, [0.5 / 12, 0.5 / 12, 2.0 / 12], rtol=1e-13)


def test_mass_total_is_domain_area():
    for level in (1, 3, 4):
        M = local_mass_batch(build_unit_square_mesh(level))
        assert abs(M.sum() - 1.0) <= 1e-14


def test_mass_scales_with_area():
    M1 = local_mass_batch(right_triangle(0.25))
    M2 = local_mass_batch(right_triangle(0.5))
    npt.assert_array_equal(M2, 4.0 * M1)


def test_load_constant_source():
    # f = 1: every element's three loads are area/3, and they sum to |Omega|
    m = build_unit_square_mesh(3)
    area = 0.5 * 0.25**3
    b = build_element_batch(m).b_e
    npt.assert_allclose(b, np.full((3, m.n_elements), area / 3.0), rtol=1e-15)
    assert abs(b.sum() - 1.0) <= 1e-14


def test_degenerate_triangle_rejected():
    # positive area, but below the degeneracy cutoff
    sliver = Mesh(
        nodes=np.array([[0.0, 0.0], [1e-7, 0.0], [0.0, 2e-7]]),
        elements=np.array([[0, 1, 2]]),
        boundary_nodes=np.array([0]),
    )
    with pytest.raises(ValueError, match="degenerate"):
        local_stiffness_batch(sliver)


def test_batch_validation():
    m = build_unit_square_mesh(1)
    batch = build_element_batch(m)
    for nu in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="nu"):
            dataclasses.replace(batch, nu=nu)
        with pytest.raises(ValueError, match="nu"):
            build_element_batch(m, nu=nu)
    # every stored field is checked against the index: the node rows' sizes,
    # the areas' and b's lengths
    rows = batch.rows
    with pytest.raises(ValueError, match="rows must hold"):
        dataclasses.replace(batch, rows=NodeRows(rows.indptr, rows.indices,
                                                 rows.data[:, :3].copy()))
    with pytest.raises(ValueError, match="rows must hold"):
        dataclasses.replace(batch, rows=NodeRows(rows.indptr, tuple(c[:9] for c in rows.indices),
                                                 rows.data[:, :3].copy()))
    with pytest.raises(ValueError, match="rows must hold"):
        dataclasses.replace(batch, rows=NodeRows(rows.indptr[:, :-1], rows.indices, rows.data))
    with pytest.raises(ValueError, match="areas must have shape"):
        dataclasses.replace(batch, areas=batch.areas[:3])
    with pytest.raises(ValueError, match="b must have shape"):
        dataclasses.replace(batch, b=batch.b[:3])
    # the same fields, unchanged, make a valid batch
    assert dataclasses.replace(batch, nu=0.0).rows is rows


def test_stored_batch_arrays_are_read_only():
    # a write through the batch would change every later residual
    m = shuffled(build_unit_square_mesh(3), 1, 5)
    batch = build_element_batch(m, nu=1.0)
    rows = batch.rows
    stored = {"rows.data": rows.data, "rows.indptr": rows.indptr, "areas": batch.areas,
              "b": batch.b}
    stored.update({f"rows.indices[{i}]": cols for i, cols in enumerate(rows.indices)})
    for name, array in stored.items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


@pytest.mark.parametrize("swaps", [0, -1])
def test_A_e_is_derived_from_the_slot_orders_alone(monkeypatch, swaps):
    # each access sorts the rows again for the element of each slot, but
    # makes none of node_rows' column arrays or slot maps: its transient
    # memory is the result (72 B per element) and the sorts' scratch
    m = shuffled(build_unit_square_mesh(6), 2, swaps)
    batch = build_element_batch(m, nu=1.5)
    expected = local_stiffness_batch(m) + 1.5 * local_mass_batch(m)
    for module in (elements, operators):
        monkeypatch.setattr(module, "node_rows", mock.Mock(side_effect=AssertionError))
    tracemalloc.start()
    try:
        A_e = batch.A_e
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert A_e.tobytes() == expected.tobytes()
    assert peak <= 100 * m.n_elements


@pytest.mark.parametrize("nu", [0.0, 2.5])
def test_batch_layout_keeps_only_A_e(nu):
    m = shuffled(build_unit_square_mesh(3), 3, 5)
    batch = build_element_batch(m, nu=nu)
    K, M = local_stiffness_batch(m), local_mass_batch(m)
    assert batch.A_e.shape == (3, 3, m.n_elements)
    # bitwise, down to the sign of zero
    assert batch.A_e.tobytes() == (K + nu * M).tobytes()
    # A_e is derived on access: a new read-only array each time
    assert batch.A_e is not batch.A_e
    assert not batch.A_e.flags.writeable
    # stored by node row: data[i, k] is A_e[i, :, e] of the element e in
    # slot k of local row i, whose columns are e's nodes
    rows = batch.rows
    assert rows.data.shape == (3, m.n_elements, 3) and rows.data.flags.c_contiguous
    for i, slots in enumerate(node_rows(batch.index)[1]):
        order = np.arange(m.n_elements) if slots is None else np.argsort(slots)
        assert rows.data[i].tobytes() == np.ascontiguousarray((K + nu * M)[i].T[order]).tobytes()
        npt.assert_array_equal(rows.indices[i].reshape(-1, 3), m.elements[order])
    # beta: the largest area * tr(A_e) / 3
    tr = np.einsum("iie->e", batch.A_e) * batch.areas
    assert batch.beta == tr.max() / 3.0
    # K_e, M_e and the local loads are not held beside the store, and no
    # mesh is kept to rebuild them
    stored = [name for name, value in vars(batch).items()
              if isinstance(value, np.ndarray) and value.size >= m.n_elements]
    assert stored == ["areas"]
    assert [name for name, value in vars(rows).items()
            if isinstance(value, np.ndarray) and value.size == 9 * m.n_elements] == ["data"]
    assert not any(isinstance(value, Mesh) for value in vars(batch).values())


def test_batch_load_is_one_read_only_vector():
    # the local loads are area/3, derived from the stored areas on each
    # access: a read-only broadcast view, never a field of its own
    m = perturbed_mesh(3, 0.1, 4)
    batch = build_element_batch(m, nu=2.0)
    b_e = batch.b_e
    assert b_e.shape == (3, m.n_elements)
    assert not b_e.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        b_e[0, 0] = 1.0
    for j in range(3):
        assert b_e[j].tobytes() == (batch.areas / 3.0).tobytes()
    assert b_e is not batch.b_e
    assert "b_e" not in vars(batch)
    owner = b_e
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    assert owner.nbytes == m.n_elements * owner.itemsize
    assert owner.dtype == np.float64


def test_build_element_batch_defaults():
    m = build_unit_square_mesh(2)
    batch = build_element_batch(m, nu=2.0)
    npt.assert_array_equal(batch.A_e, local_stiffness_batch(m) + 2.0 * local_mass_batch(m))
    assert batch.nu == 2.0
    assert batch.n_elements == m.n_elements
    default = build_element_batch(m)
    assert default.nu == 0.0 and default.threads == 1


def full_width_batch(m, nu):
    """Reference: A_e, b_e and areas from one full-width corner gather."""
    p = m.nodes[m.elements]  # (n_e, 3, 2)
    x, y = p[:, :, 0].T, p[:, :, 1].T
    det = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
    areas = 0.5 * det
    grads = np.empty((2, 3, m.n_elements))
    for j in range(3):
        jn, jp = (j + 1) % 3, (j + 2) % 3
        grads[0, j] = (y[jn] - y[jp]) / det
        grads[1, j] = (x[jp] - x[jn]) / det
    A_e = np.einsum("kie,kje->ije", grads, grads) * areas
    if nu > 0:
        A_e += nu * ((np.ones((3, 3)) + np.eye(3))[:, :, None] / 12.0 * areas)
    return A_e, np.broadcast_to(areas / 3.0, (3, m.n_elements)), areas


@settings(max_examples=30, deadline=None)
@given(level=st.integers(2, 4), amp=st.floats(0.0, 0.1), nu=st.floats(0.0, 100.0),
       block=st.sampled_from([1, 7, 64, 16384]),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_A_e_matches_full_width_einsum_bitwise(level, amp, nu, block, seed):
    m = perturbed_mesh(level, amp, seed)
    with mock.patch.object(elements, "GATHER_BLOCK", block):
        batch = build_element_batch(m, nu=nu)
    assert batch.A_e.transpose(0, 2, 1).flags.c_contiguous
    for got, want in zip((batch.A_e, batch.b_e, batch.areas), full_width_batch(m, nu)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [1, 7, 64, 16384])
def test_degenerate_element_named_by_global_index(block):
    # a sliver on three extra nodes, inserted as element 100 of 129: in a
    # later block than the first for every block size but the default
    m = perturbed_mesh(3, 0.1, 5)
    n = m.n_nodes
    nodes = np.vstack([m.nodes, [[2.0, 2.0], [2.0 + 1e-8, 2.0], [2.0, 2.0 + 1e-8]]])
    tri = np.insert(m.elements, 100, [n, n + 1, n + 2], axis=0)
    sliver = Mesh(nodes, tri, m.boundary_nodes)
    with mock.patch.object(elements, "GATHER_BLOCK", block), \
            pytest.raises(ValueError, match="degenerate element 100:"):
        build_element_batch(sliver)


def with_slivers(m, at):
    """``m`` with a sliver on three extra nodes inserted as element i, for each i in ``at``."""
    nodes, tri = m.nodes, m.elements
    for i in sorted(at):
        n = len(nodes)
        nodes = np.vstack([nodes, [[2.0, 2.0], [2.0 + 1e-8, 2.0], [2.0, 2.0 + 1e-8]]])
        tri = np.insert(tri, i, [n, n + 1, n + 2], axis=0)
    return Mesh(nodes, tri, m.boundary_nodes)


# 128 to 130 elements in 8 or 9 blocks of 16: element 100 lies in the last
# range, which a pool worker runs, and 20 in the calling thread's range; 60
# lies in the calling thread's range on 2 threads and in a worker's on 3
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("at", [(100,), (20, 100), (60, 100)])
def test_bad_element_named_by_lowest_global_index_on_any_thread_count(threads, at):
    m = perturbed_mesh(3, 0.1, 5)
    with mock.patch.object(elements, "GATHER_BLOCK", 16):
        with pytest.raises(ValueError, match=f"degenerate element {at[0]}:"):
            build_element_batch(with_slivers(m, at), threads=threads)


def test_thread_count_outside_cap_raises_before_anything_is_allocated(monkeypatch):
    def no_index(m):
        raise AssertionError("index arrays were built")

    monkeypatch.setattr(elements, "build_index_arrays", no_index)
    m = build_unit_square_mesh(2)
    for threads in (0, -1, MAX_THREADS + 1):
        with pytest.raises(ValueError, match=f"between 1 and {MAX_THREADS}"):
            build_element_batch(m, threads=threads)


@pytest.mark.parametrize("nu", [0.0, 3.5])
@pytest.mark.parametrize("swaps", [0, -1])
def test_batch_is_bitwise_independent_of_threads(nu, swaps):
    # blocks of 7 elements: every thread takes several of the 128 elements' blocks
    m = shuffled(perturbed_mesh(3, 0.1, 9), 3, swaps)
    callers = set()
    geometry = elements._geometry

    def recorded(x, y, lo):
        callers.add(threading.get_ident())
        return geometry(x, y, lo)

    with mock.patch.object(elements, "GATHER_BLOCK", 7), \
            mock.patch.object(elements, "_geometry", recorded):
        batches = {t: build_element_batch(m, nu=nu, threads=t) for t in (1, 2, 3)}
    # the pool's ranges really ran on other threads
    assert len(callers) >= 2
    ref = batches[1]
    for t, batch in batches.items():
        assert batch.threads == t  # the count its residuals run on
        for name in ("A_e", "b_e", "areas", "b"):
            assert getattr(batch, name).tobytes() == getattr(ref, name).tobytes(), name
        assert batch.beta == ref.beta
        assert batch.rows.data.tobytes() == ref.rows.data.tobytes()


def test_concurrent_batch_builds_share_the_pool():
    # several callers at once on the shared pools, more threads than cores,
    # with frequent switches: every batch must still be bitwise serial
    m = perturbed_mesh(3, 0.1, 2)
    fields = ("A_e", "b_e", "areas", "b")
    errors = []
    with mock.patch.object(elements, "GATHER_BLOCK", 7):
        ref = build_element_batch(m, nu=2.0)

        def caller(k):
            try:
                for _ in range(5):
                    batch = build_element_batch(m, nu=2.0, threads=2 + k % 3)
                    if any(getattr(batch, n).tobytes() != getattr(ref, n).tobytes()
                           for n in fields):
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


def test_area_that_is_not_a_number_is_rejected():
    # finite corners whose differences overflow: det = inf*0 - inf*inf = NaN,
    # which a test for area <= EPS_AREA would let through; the overflow
    # reaches the caller as the ValueError, not as a RuntimeWarning
    m = Mesh(np.array([[-1e308, -1e308], [1e308, 1e308], [1e308, -1e308]]),
             np.array([[0, 1, 2]]), np.array([0]))
    with pytest.raises(ValueError, match="element 0: area nan"):
        build_element_batch(m)


def test_infinite_area_is_rejected():
    # det = inf*1 - 0*1e308 = inf passes area > EPS_AREA, and every entry
    # of the element's A_e would be NaN (gradients inf/inf)
    m = perturbed_mesh(3, 0.1, 5)
    n = m.n_nodes
    nodes = np.vstack([m.nodes, [[-1e308, 0.0], [1e308, 0.0], [0.0, 1.0]]])
    tri = np.insert(m.elements, 100, [n, n + 1, n + 2], axis=0)
    with pytest.raises(ValueError, match="degenerate element 100: area inf"):
        build_element_batch(Mesh(nodes, tri, m.boundary_nodes))


def test_batch_build_forms_no_full_width_temporaries():
    # full-width corner and gradient arrays beside A_e peaked at 1.37x
    m = build_unit_square_mesh(9)
    tracemalloc.start()
    try:
        batch = build_element_batch(m)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained >= batch.rows.data.nbytes
    assert peak <= 1.15 * retained
