import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_problem, perturbed_mesh

from ebsolve import (
    DirichletData,
    Mesh,
    assemble_sparse,
    build_element_batch,
    build_grid_mesh,
    constant_dirichlet,
    dense_interior_eigenvalues,
    local_mass_batch,
    mass_bounds,
    model_eigen_bounds,
    model_eigenvalues_all,
    operator_bounds,
)
from ebsolve.spectrum import _lower_end


def test_model_eigenvalues_smallest_grids():
    npt.assert_allclose(model_eigenvalues_all(3), [4.0], rtol=1e-14)
    npt.assert_allclose(model_eigenvalues_all(4), [2.0, 4.0, 4.0, 6.0], rtol=1e-13)


def test_model_eigenvalue_count_and_order():
    for n in (3, 5, 9, 17):
        lam = model_eigenvalues_all(n)
        assert lam.shape == ((n - 2) ** 2,)
        assert np.all(np.diff(lam) >= 0)
        assert lam[0] > 0


def test_model_bounds_are_extremes():
    for n in (3, 5, 9, 17, 33):
        lam = model_eigenvalues_all(n)
        b = model_eigen_bounds(n)
        npt.assert_allclose(b.lambda1, lam[0], rtol=1e-14)
        npt.assert_allclose(b.lambda2, lam[-1], rtol=1e-14)
        # the two extremes are exact complements; the implementation keeps
        # that identity bitwise
        assert b.lambda1 + b.lambda2 == 8.0


def test_model_bounds_level5_values():
    b = model_eigen_bounds(33)
    assert abs(b.lambda1 - 0.019261093311212455) <= 1e-15
    assert abs(b.lambda2 - 7.980738906688788) <= 1e-14


def test_model_bounds_monotone_in_resolution():
    lam1 = [model_eigen_bounds(n).lambda1 for n in (3, 5, 9, 17, 33)]
    lam2 = [model_eigen_bounds(n).lambda2 for n in (3, 5, 9, 17, 33)]
    assert np.all(np.diff(lam1) < 0)
    assert np.all(np.diff(lam2) > 0)


def test_model_matches_dense_spectrum():
    for n in (3, 4, 5, 9):
        m = build_grid_mesh(n)
        batch = build_element_batch(m)
        A = assemble_sparse(batch.A_e, batch.index.indt)
        dense = dense_interior_eigenvalues(A, constant_dirichlet(m))
        assert np.max(np.abs(dense - model_eigenvalues_all(n))) <= 1e-10


def test_model_rejects_no_interior():
    with pytest.raises(ValueError):
        model_eigenvalues_all(2)
    with pytest.raises(ValueError):
        model_eigen_bounds(2)


@pytest.mark.parametrize("level", [2, 3])
def test_mass_gershgorin_encloses_spectrum(level):
    m, batch, d, _ = make_problem(level)
    lo, hi = mass_bounds(batch, d)
    assert 0.0 <= lo <= hi
    M = assemble_sparse(local_mass_batch(m), batch.index.indt)
    eigs = dense_interior_eigenvalues(M, d)
    assert lo <= eigs[0] + 1e-15
    assert eigs[-1] <= hi + 1e-15


@settings(max_examples=30, deadline=None)
@given(level=st.sampled_from([2, 3]), amp=st.floats(0.0, 0.1),
       seed=st.integers(0, 2**32 - 1))
def test_mass_bounds_enclose_perturbed_mesh_spectrum(level, amp, seed):
    m = perturbed_mesh(level, amp, seed)
    batch = build_element_batch(m)
    d = constant_dirichlet(m)
    lo, hi = mass_bounds(batch, d)
    M = assemble_sparse(local_mass_batch(m), batch.index.indt)
    eigs = dense_interior_eigenvalues(M, d)
    assert 0.0 < lo <= eigs[0] * (1 + 1e-12)
    assert eigs[-1] <= hi * (1 + 1e-12)


def test_mass_bounds_count_the_last_node_when_no_element_references_it():
    grid = build_grid_mesh(5)
    m = Mesh(np.vstack([grid.nodes, [[0.5, 0.55]]]), grid.elements, grid.boundary_nodes)
    batch = build_element_batch(m)
    grid_bounds = mass_bounds(build_element_batch(grid), constant_dirichlet(grid))
    # free, the lone node is a zero row of M: the free-node spectrum holds 0
    assert mass_bounds(batch, constant_dirichlet(m)) == (0.0, grid_bounds[1])
    # constrained, it leaves the grid's interval unchanged
    nd = np.append(grid.boundary_nodes, m.n_nodes - 1)
    assert mass_bounds(batch, DirichletData(nd, np.ones(nd.size))) == grid_bounds


def test_mass_bounds_copy_no_element_array():
    # level 9: the broadcast areas were once copied to a (3, n_e) array
    # (12.6 MB) to be summed; each block's window now reads them directly
    m, batch, d, _ = make_problem(9)
    ref = mass_bounds(batch, d)
    tracemalloc.start()
    try:
        assert mass_bounds(batch, d) == ref
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * batch.n_elements * 8


def test_operator_bounds_pure_stiffness():
    # n = sqrt(n_nodes) is the grid's 2**level + 1 nodes per side
    for level in range(1, 9):
        _, batch, d, _ = make_problem(level)
        b = operator_bounds(batch, d)
        ref = model_eigen_bounds(2**level + 1)
        assert b.lambda1 == ref.lambda1
        assert b.lambda2 == ref.lambda2


@pytest.mark.parametrize("nu", [3.0, 100.0])
def test_operator_bounds_with_mass_term_pin_the_coupled_lower_end(nu):
    # lower end: max(Weyl, coupled) where nu*beta < 1, else Weyl, rounded
    # down by 2**-46; upper end: the closed form plus Weyl
    branches = []
    for level in range(1, 9):
        _, batch, d, _ = make_problem(level, nu=nu)
        base = model_eigen_bounds(2**level + 1)
        m_lo, m_hi = mass_bounds(batch, d)
        A = batch.A_e
        beta = float(np.max(batch.areas * (A[0, 0] + A[1, 1] + A[2, 2]))) / 3.0
        c = nu * (beta * (1.0 + 2.0**-46))
        weyl = base.lambda1 + nu * m_lo
        coupled = (1.0 - c) * base.lambda1 + nu * 4.0 * m_lo
        lower = max(weyl, coupled) if c < 1.0 else weyl
        b = operator_bounds(batch, d)
        assert b.lambda1 == lower * (1.0 - 2.0**-46)
        assert b.lambda2 == base.lambda2 + nu * m_hi
        branches.append("weyl" if lower == weyl else "coupled")
    # nu = 100: nu*beta >= 1 on the two coarsest grids; nu = 3: nu*beta < 1
    # everywhere, but Weyl is larger on the one-free-node grid
    n_weyl = {3.0: 1, 100.0: 2}[nu]
    assert branches == ["weyl"] * n_weyl + ["coupled"] * (8 - n_weyl)


def test_operator_bounds_with_mass_term_are_within_1e_4_of_the_minimum():
    # level 8, nu = 100: the minimum is 1.826994952894e-3 (shift-invert
    # eigsh, tol 1e-14); Weyl's lambda1 + nu*m_lo gave 6.83e-4
    _, batch, d, _ = make_problem(8, nu=100.0)
    b = operator_bounds(batch, d)
    assert 1.826994952e-3 * (1 - 1e-4) <= b.lambda1 <= 1.826994952e-3


def test_operator_bounds_reject_a_node_count_that_is_not_square():
    grid = build_grid_mesh(5)
    m = Mesh(np.vstack([grid.nodes, [[0.5, 0.55]]]), grid.elements, grid.boundary_nodes)
    for nu in (0.0, 1.0):
        with pytest.raises(ValueError, match="26 nodes do not form a square grid"):
            operator_bounds(build_element_batch(m, nu=nu), constant_dirichlet(m))


@pytest.mark.parametrize("nu", [0.0, 3.0])
def test_bounds_reject_a_constrained_node_the_batch_lacks(nu):
    m = build_grid_mesh(5)  # 25 nodes
    batch = build_element_batch(m, nu=nu)
    d = DirichletData(np.array([0, 100]), np.ones(2))
    for bounds in (operator_bounds, mass_bounds):
        with pytest.raises(ValueError, match="constrained node 100 is out of range for 25"):
            bounds(batch, d)


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("nu", [1.0, 10.0, 100.0])
def test_operator_bounds_with_mass_term(level, nu):
    m, batch, d, _ = make_problem(level, nu=nu)
    b = operator_bounds(batch, d)
    A = assemble_sparse(batch.A_e, batch.index.indt)
    eigs = dense_interior_eigenvalues(A, d)
    assert b.lambda1 <= eigs[0] + 1e-12
    assert eigs[-1] <= b.lambda2 + 1e-12
    # the mass term only shifts the spectrum up
    assert b.lambda1 >= model_eigen_bounds(2**level + 1).lambda1


@settings(max_examples=40, deadline=None)
@given(level=st.sampled_from([2, 3, 4]), amp=st.floats(0.0, 0.1),
       seed=st.integers(0, 2**32 - 1), log_nu=st.floats(-0.3, 4.0))
def test_coupled_lower_end_encloses_perturbed_mesh_spectrum(level, amp, seed, log_nu):
    # off the grid, with the dense lambda_min(K) in place of the closed form
    nu = 10.0**log_nu
    m = perturbed_mesh(level, amp, seed)
    d = constant_dirichlet(m)
    stiffness = build_element_batch(m)
    batch = build_element_batch(m, nu=nu)
    lam_k = dense_interior_eigenvalues(
        assemble_sparse(stiffness.A_e, stiffness.index.indt), d)[0]
    m_lo, _ = mass_bounds(batch, d)
    lower = _lower_end(batch, lam_k, m_lo)
    eigs = dense_interior_eigenvalues(assemble_sparse(batch.A_e, batch.index.indt), d)
    assert lam_k + nu * m_lo <= lower * (1 + 1e-12)
    assert lower <= eigs[0] * (1 + 1e-12)
