import numpy as np
import numpy.testing as npt
import pytest

import ebsolve.reference
from conftest import make_problem

from ebsolve import (
    DirichletData,
    Mesh,
    assemble_rhs,
    assemble_sparse,
    build_element_batch,
    build_unit_square_mesh,
    dense_interior_eigenvalues,
    local_mass_batch,
    local_stiffness_batch,
    mask_dirichlet,
    residual,
    solve_reference,
)


def test_assembled_stiffness_symmetric_zero_rowsums():
    m, batch, _, _ = make_problem(3)
    A = assemble_sparse(local_stiffness_batch(m), batch.index.indt)
    assert abs(A - A.T).max() == 0.0
    # constants are in the kernel; dyadic entries make the row sums exact
    assert np.max(np.abs(A @ np.ones(A.shape[0]))) == 0.0


def test_assembled_mass_total():
    m, batch, _, _ = make_problem(3)
    M = assemble_sparse(local_mass_batch(m), batch.index.indt)
    assert abs(M.sum() - 1.0) <= 1e-14


def test_assembly_distributes_over_combination():
    for level in (1, 2, 3, 4):
        m, batch, _, _ = make_problem(level)
        K_e, M_e = local_stiffness_batch(m), local_mass_batch(m)
        K = assemble_sparse(K_e, batch.index.indt)
        M = assemble_sparse(M_e, batch.index.indt)
        A = assemble_sparse(K_e + 1.7 * M_e, batch.index.indt)
        assert abs(A - (K + 1.7 * M)).max() <= 1e-14


def test_assembly_element_order_invariant():
    m, batch, _, _ = make_problem(3)
    K_e = local_stiffness_batch(m)
    A1 = assemble_sparse(K_e, batch.index.indt)
    perm = np.random.default_rng(11).permutation(batch.n_elements)
    A2 = assemble_sparse(K_e[:, :, perm], batch.index.indt[:, perm])
    assert abs(A1 - A2).max() == 0.0


def test_assemble_shape_guard():
    m, batch, _, _ = make_problem(1)
    K_e = local_stiffness_batch(m)
    with pytest.raises(ValueError):
        assemble_sparse(K_e[:, :2, :], batch.index.indt)
    with pytest.raises(ValueError):
        assemble_sparse(K_e, batch.index.indt[:, :3])


def test_level1_interior_value():
    # one interior unknown: 4*u = 0.25 + 4  =>  u = 1.0625
    _, batch, d, b = make_problem(1)
    A = assemble_sparse(batch.A_e, batch.index.indt)
    u = solve_reference(A, b, d)
    assert abs(u[4] - 1.0625) <= 1e-12
    assert np.all(u[d.nd] == 1.0)


def test_zero_source_gives_constant_solution():
    from ebsolve import build_element_batch, build_unit_square_mesh, constant_dirichlet

    m = build_unit_square_mesh(3)
    batch = build_element_batch(m, f=lambda x, y: np.zeros_like(x))
    d = constant_dirichlet(m, 1.0)
    A = assemble_sparse(batch.A_e, batch.index.indt)
    b = assemble_rhs(batch.b_e, batch.index.indt)
    u = solve_reference(A, b, d)
    npt.assert_allclose(u, 1.0, atol=1e-12)


@pytest.mark.parametrize("nu", [0.0, 1.0])
def test_reference_solution_consistency(nu):
    # the assembled solve and the matrix-free residual must agree on what
    # "solved" means
    m, batch, d, b = make_problem(4, nu=nu)
    A = assemble_sparse(batch.A_e, batch.index.indt)
    u = solve_reference(A, b, d)
    r = mask_dirichlet(residual(batch, u), d)
    assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(b)


def test_reference_maximum_location():
    # symmetric data: the maximum sits at the center node
    m, batch, d, b = make_problem(3)
    A = assemble_sparse(batch.A_e, batch.index.indt)
    u = solve_reference(A, b, d)
    n = 9
    center = (n // 2) * n + n // 2
    assert np.argmax(u) == center
    assert u[center] > 1.0


def test_cg_fallback_matches_direct(monkeypatch):
    m, batch, d, b = make_problem(3)
    A = assemble_sparse(batch.A_e, batch.index.indt)
    u_direct = solve_reference(A, b, d)
    monkeypatch.setattr(ebsolve.reference, "_DIRECT_LIMIT", 10)
    u_cg = solve_reference(A, b, d)
    npt.assert_allclose(u_cg, u_direct, atol=1e-9)


def test_dense_eigenvalues_level1():
    m, batch, d, _ = make_problem(1)
    A = assemble_sparse(local_stiffness_batch(m), batch.index.indt)
    npt.assert_allclose(dense_interior_eigenvalues(A, d), [4.0], atol=1e-12)


def test_dense_eigenvalues_size_guard():
    m, batch, d, _ = make_problem(6)  # 63*63 = 3969 interior nodes
    A = assemble_sparse(local_stiffness_batch(m), batch.index.indt)
    with pytest.raises(ValueError):
        dense_interior_eigenvalues(A, d)


def test_solve_reference_rejects_nodes_beyond_the_mesh():
    m, batch, _, b = make_problem(3)
    assert m.n_nodes == 81
    A = assemble_sparse(batch.A_e, batch.index.indt)
    for nd in ([999], [0, 81]):
        d = DirichletData(np.array(nd), np.ones(len(nd)))
        with pytest.raises(ValueError, match="81 nodes"):
            solve_reference(A, b, d)


def test_oracle_keeps_a_last_node_that_no_element_references():
    grid = build_unit_square_mesh(2)
    m = Mesh(np.vstack([grid.nodes, [[0.5, 0.55]]]), grid.elements, grid.boundary_nodes)
    assert m.n_nodes == 26
    batch = build_element_batch(m)
    idx = batch.index
    A = assemble_sparse(batch.A_e, idx.indt, n_nodes=idx.n_nodes)
    b = assemble_rhs(batch.b_e, idx.indt, n_nodes=idx.n_nodes)
    assert A.shape == (26, 26) and b.shape == (26,)
    assert A[25].nnz == 0 and b[25] == 0.0
    nd = np.append(grid.boundary_nodes, 25)
    u = solve_reference(A, b, DirichletData(nd, np.full(nd.size, 2.0)))
    assert u.shape == (26,) and u[25] == 2.0
    # the grid's own solution on the other 25 nodes, bit for bit
    g = build_element_batch(grid)
    ref = solve_reference(assemble_sparse(g.A_e, g.index.indt),
                          assemble_rhs(g.b_e, g.index.indt),
                          DirichletData(grid.boundary_nodes, np.full(16, 2.0)))
    assert u[:25].tobytes() == ref.tobytes()
    # without the count the node is dropped; a count too small is refused
    assert assemble_rhs(batch.b_e, idx.indt).shape == (25,)
    for assemble, values in ((assemble_sparse, batch.A_e), (assemble_rhs, batch.b_e)):
        with pytest.raises(ValueError, match="out of range for 24 nodes"):
            assemble(values, idx.indt, n_nodes=24)
