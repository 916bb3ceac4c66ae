import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse._sparsetools import csr_matvec
import scipy.sparse as sp

from conftest import make_problem, perturbed_mesh

from ebsolve import (
    DirichletData,
    Mesh,
    assemble_rhs,
    assemble_sparse,
    build_element_batch,
    build_grid_mesh,
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
    for mesh in (perturbed_mesh(3, 0.1, 5), holed):
        batch = build_element_batch(mesh, nu=1.5, f=lambda x, y: np.cos(3.0 * x) - y)
        idx = batch.index
        flat = idx.indt.ravel()
        b = assemble_rhs(batch.b_e, idx.indt)
        local = rng.standard_normal(idx.indt.shape)
        areas = np.broadcast_to(batch.areas, idx.indt.shape)
        for threads in (1, 2, 3):
            assert operators.scatter(idx, batch.b_e, threads).tobytes() == b.tobytes()
            for values in (local, areas):
                ref = np.bincount(flat, weights=values.ravel(), minlength=mesh.n_nodes)
                out = operators.scatter(idx, values, threads)
                assert out.tobytes() == ref.tobytes()
    assert operators.scatter(idx, local)[0] == 0.0
    with pytest.raises(ValueError, match="shape mismatch"):
        operators.scatter(idx, np.ones((3, 2)))


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
    """Reference residual: one full-width local product, one np.bincount.

    The einsum runs on a C-contiguous copy of A_e: there it sums each row
    left to right, as the residual's CSR loop does.  On the strided A_e
    view it regroups the sum and differs in the last bit.
    """
    indt = batch.index.indt
    local = batch.b_e - np.einsum("ije,je->ie", np.ascontiguousarray(batch.A_e), x[indt])
    return np.bincount(indt.ravel(), weights=local.ravel(), minlength=x.shape[0])


def with_unreferenced_node(m, first):
    """``m`` plus one node that no element references, numbered first or last."""
    extra = np.array([[0.5, 0.5 + 0.25 / 2**m.level]])
    if not first:
        return Mesh(np.vstack([m.nodes, extra]), m.elements, m.boundary_nodes)
    return Mesh(np.vstack([extra, m.nodes]), m.elements + 1, m.boundary_nodes + 1)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["perturbed", "grid100", "unreferenced-first",
                             "unreferenced-last"]),
       level=st.integers(2, 4), nu=st.floats(0.0, 100.0),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_scatter_matches_bincount_bitwise(kind, level, nu, seed):
    if kind == "perturbed":
        m = perturbed_mesh(level, 0.1, seed)
    elif kind == "grid100":
        m = build_grid_mesh(100)  # 19602 elements, 9999 nodes: uneven chunks
    else:
        m = with_unreferenced_node(build_unit_square_mesh(level),
                                   first=kind == "unreferenced-first")
    batch = build_element_batch(
        m, nu=nu, f=lambda x, y: np.sin(7.0 * x) + y * y)
    x = np.random.default_rng(seed).standard_normal(m.n_nodes)
    ref = bincount_residual(batch, x)
    for threads in (1, 2, 3, 4, 8):
        assert residual(batch, x, threads=threads).tobytes() == ref.tobytes()
    if kind.startswith("unreferenced"):
        lone = 0 if kind == "unreferenced-first" else m.n_nodes - 1
        assert ref[lone] == 0.0


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
