from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    m = perturbed_mesh(3, 0.1, 5)
    batch = build_element_batch(m, nu=1.5, f=lambda x, y: np.cos(3.0 * x) - y)
    idx = batch.index
    b = assemble_rhs(batch.b_e, idx.indt)
    assert idx.scatter(batch.b_e).tobytes() == b.tobytes()
    local = np.random.default_rng(2).standard_normal(idx.indt.shape)
    ref = np.bincount(idx.indt.ravel(), weights=local.ravel(), minlength=m.n_nodes)
    assert idx.scatter(local).tobytes() == ref.tobytes()


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
    """Reference residual: one full-width local product, one np.bincount."""
    indt = batch.index.indt
    local = batch.b_e - np.einsum("ije,je->ie", batch.A_e, x[indt])
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
       block=st.sampled_from([1, 7, 64, operators.BLOCK]),
       seed=st.integers(0, 2**32 - 1))
def test_blocked_scatter_matches_bincount_bitwise(kind, level, nu, block, seed):
    if kind == "perturbed":
        m = perturbed_mesh(level, 0.1, seed)
    elif kind == "grid100":
        m = build_grid_mesh(100)  # 19602 elements, not a multiple of BLOCK
    else:
        m = with_unreferenced_node(build_unit_square_mesh(level),
                                   first=kind == "unreferenced-first")
    batch = build_element_batch(
        m, nu=nu, f=lambda x, y: np.sin(7.0 * x) + y * y)
    x = np.random.default_rng(seed).standard_normal(m.n_nodes)
    ref = bincount_residual(batch, x)
    with mock.patch.object(operators, "BLOCK", block):
        for threads in (1, 2, 3):
            assert residual(batch, x, threads=threads).tobytes() == ref.tobytes()
    if kind.startswith("unreferenced"):
        lone = 0 if kind == "unreferenced-first" else m.n_nodes - 1
        assert ref[lone] == 0.0


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
