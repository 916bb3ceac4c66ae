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


def test_operator_bounds_pure_stiffness():
    _, batch, d, _ = make_problem(3)
    b = operator_bounds(batch, d, 9)
    ref = model_eigen_bounds(9)
    assert b.lambda1 == ref.lambda1
    assert b.lambda2 == ref.lambda2


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("nu", [1.0, 10.0])
def test_operator_bounds_with_mass_term(level, nu):
    m, batch, d, _ = make_problem(level, nu=nu)
    b = operator_bounds(batch, d, 2**level + 1)
    A = assemble_sparse(batch.A_e, batch.index.indt)
    eigs = dense_interior_eigenvalues(A, d)
    assert b.lambda1 <= eigs[0] + 1e-12
    assert eigs[-1] <= b.lambda2 + 1e-12
    # the mass term only shifts the spectrum up
    assert b.lambda1 >= model_eigen_bounds(2**level + 1).lambda1
