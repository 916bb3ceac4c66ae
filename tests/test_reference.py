import re
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse.csgraph
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import ebsolve.reference
from conftest import make_problem, perturbed_mesh, renumbered

from ebsolve import (
    DirichletData,
    Mesh,
    assemble_rhs,
    assemble_sparse,
    build_element_batch,
    build_unit_square_mesh,
    constant_dirichlet,
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
    m = build_unit_square_mesh(3)
    batch = build_element_batch(m)
    d = constant_dirichlet(m, 1.0)
    A = assemble_sparse(batch.A_e, batch.index.indt)
    u = solve_reference(A, np.zeros(m.n_nodes), d)
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


def test_solve_reference_refuses_more_free_nodes_than_the_limit(monkeypatch):
    # refused before anything is factorized, with no other method to fall to;
    # the limit is the level-10 grid's free-node count
    assert ebsolve.reference.MAX_DIRECT_UNKNOWNS == (2**10 - 1) ** 2
    m, batch, d, b = make_problem(3)
    A = assemble_sparse(batch.A_e, batch.index.indt)
    free = m.n_nodes - d.nd.size
    assert free == 49
    monkeypatch.setattr(ebsolve.reference, "MAX_DIRECT_UNKNOWNS", free)
    u = solve_reference(A, b, d)
    monkeypatch.setattr(ebsolve.reference, "MAX_DIRECT_UNKNOWNS", free - 1)
    with mock.patch.object(scipy.sparse.linalg, "spsolve",
                           side_effect=AssertionError("spsolve reached")) as spsolve:
        with pytest.raises(ValueError, match="49 free nodes exceed .*limit.* 48"):
            solve_reference(A, b, d)
    spsolve.assert_not_called()
    assert np.all(np.isfinite(u))


def test_solve_reference_rejects_a_right_hand_side_of_another_shape():
    m, batch, d, b = make_problem(3)
    A = assemble_sparse(batch.A_e, batch.index.indt)
    # the last node is a boundary corner, so a b without it still holds every
    # free entry the solve reads; it is refused all the same
    assert m.n_nodes - 1 in d.nd
    for bad in (np.append(b, 0.0), b[:-1], b[:, None]):
        names_both = re.escape(f"shape {bad.shape}") + r".*shape \(81,\)"
        with pytest.raises(ValueError, match=names_both):
            solve_reference(A, bad, d)


@pytest.mark.parametrize("nu", [0.0, 100.0])
@pytest.mark.parametrize("level", range(3, 9))
def test_minimum_degree_solve_agrees_with_colamd(level, nu):
    # the direct solve drops the free-node system's stored zeros, renumbers
    # it by reverse Cuthill-McKee and orders it by minimum degree on its
    # symmetric pattern; SuperLU's default COLAMD on the system as numbered
    # gives the same solution up to round-off
    m, batch, d, b = make_problem(level, nu=nu)
    A = assemble_sparse(batch.A_e, batch.index.indt).tocsr()
    with mock.patch.object(scipy.sparse.linalg, "spsolve",
                           wraps=scipy.sparse.linalg.spsolve) as spsolve:
        u = solve_reference(A, b, d)
    assert spsolve.call_args.kwargs["permc_spec"] == "MMD_AT_PLUS_A"
    free = np.setdiff1d(np.arange(m.n_nodes), d.nd)
    rhs = b[free] - A[free][:, d.nd] @ d.values
    Aff = A[free][:, free]
    zeros = np.count_nonzero(Aff.data == 0)
    # at nu = 0 the hypotenuse couplings of the grid's right triangles are
    # exact zeros; at nu > 0 the mass term fills them
    assert (zeros > 0) == (nu == 0)
    Aff.eliminate_zeros()
    perm = scipy.sparse.csgraph.reverse_cuthill_mckee(Aff, symmetric_mode=True)
    assert np.any(perm != np.arange(free.size))
    solved, solved_rhs = spsolve.call_args.args
    # the CSR matrix itself is factorized: no CSC copy, no stored zero
    assert solved.format == "csr" and np.all(solved.data != 0)
    expected = Aff[perm][:, perm]
    assert solved.nnz == expected.nnz and (solved != expected).nnz == 0
    assert solved_rhs.tobytes() == rhs[perm].tobytes()
    ref = u.copy()
    ref[free] = scipy.sparse.linalg.spsolve(Aff.tocsc(), rhs, permc_spec="COLAMD")
    assert np.all(u[d.nd] == d.values)
    npt.assert_allclose(u, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("nu", [0.0, 3.0])
@pytest.mark.parametrize("level", [4, 7])
def test_solve_reference_keeps_the_callers_matrix_and_its_zeros(level, nu):
    # the stored zeros are dropped from a fresh free-node slice, never from
    # the caller's A; the solution agrees with one that factorizes them
    m, batch, d, b = make_problem(level, nu=nu)
    A = assemble_sparse(batch.A_e, batch.index.indt)
    before = [A.nnz] + [getattr(A, name).tobytes() for name in ("indptr", "indices", "data")]
    assert (np.count_nonzero(A.data == 0) > 0) == (nu == 0)
    u = solve_reference(A, b, d)
    after = [A.nnz] + [getattr(A, name).tobytes() for name in ("indptr", "indices", "data")]
    assert after == before
    # the solve as it was with the zeros stored: RCM on their pattern, and
    # minimum degree on the CSC copy
    free = np.setdiff1d(np.arange(m.n_nodes), d.nd)
    Aff = A[free][:, free]
    rhs = b[free] - A[free][:, d.nd] @ d.values
    perm = scipy.sparse.csgraph.reverse_cuthill_mckee(Aff, symmetric_mode=True)
    with_zeros = u.copy()
    with_zeros[free[perm]] = scipy.sparse.linalg.spsolve(
        Aff[perm][:, perm].tocsc(), rhs[perm], permc_spec="MMD_AT_PLUS_A")
    npt.assert_allclose(u, with_zeros, rtol=1e-12, atol=0.0)


def test_solve_reference_factorizes_beside_one_matrix(monkeypatch):
    # A, A[free] and the unpermuted Aff are dropped before SuperLU allocates
    # its factors: the only sparse matrix solve_reference holds then is the
    # one it factorizes
    m, batch, d, b = make_problem(4)
    spsolve, held = scipy.sparse.linalg.spsolve, []

    def recording(A, *args, **kwargs):
        caller = sys._getframe(1).f_locals
        held.extend((name, value is A) for name, value in caller.items()
                    if scipy.sparse.issparse(value))
        return spsolve(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", recording)
    solve_reference(assemble_sparse(batch.A_e, batch.index.indt), b, d)
    assert held == [("Aff", True)]


def direct_solution(m, nu=0.0):
    batch = build_element_batch(m, nu=nu)
    A = assemble_sparse(batch.A_e, batch.index.indt, n_nodes=m.n_nodes)
    t0 = time.perf_counter()
    u = solve_reference(A, batch.b, constant_dirichlet(m, 1.0))
    return u, time.perf_counter() - t0


@pytest.mark.parametrize("level", range(2, 8))
def test_direct_solve_does_not_depend_on_node_numbering(level):
    # minimum degree alone took ~12 s on a randomly renumbered level-7
    # grid (~50 ms in grid order); after reverse Cuthill-McKee both take
    # ~40 ms
    grid = build_unit_square_mesh(level)
    m, new = renumbered(grid, level)
    u, seconds = direct_solution(m)
    npt.assert_allclose(u[new], direct_solution(grid)[0], rtol=1e-12, atol=0.0)
    if level == 7:
        assert seconds < 1.0


@settings(max_examples=20, deadline=None)
@given(level=st.integers(2, 4), amp=st.floats(0.0, 0.1), nu=st.floats(0.0, 100.0),
       seed=st.integers(0, 2**32 - 1))
def test_direct_solve_on_renumbered_perturbed_mesh(level, amp, nu, seed):
    m = perturbed_mesh(level, amp, seed)
    r, new = renumbered(m, seed)
    npt.assert_allclose(direct_solution(r, nu)[0][new], direct_solution(m, nu)[0],
                        rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("compare_direct", [False, True])
def test_csgraph_is_imported_only_by_a_direct_solve(compare_direct):
    # scipy.sparse.csgraph costs ~1 MB of resident memory, scipy.sparse.linalg
    # and scipy.linalg ~11 MB; a run with no reference solve imports none
    code = ("import sys\n"
            "from ebsolve.cli import ExperimentConfig, run_experiment\n"
            f"run_experiment(ExperimentConfig(level=3, iters=4, solver='cheb3', "
            f"compare_direct={compare_direct}))\n"
            "print(*(name in sys.modules for name in\n"
            "        ('scipy.sparse.csgraph', 'scipy.sparse.linalg', 'scipy.linalg')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(compare_direct)] * 3


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
