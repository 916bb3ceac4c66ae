"""Acceptance gate: every guaranteed behavior at its stated tolerance.

One test per guarantee, named by number, so the verbose test report reads
as a checklist.  Each test prints a short evidence line with the measured
quantities next to their thresholds.
"""

import time

import numpy as np
import numpy.testing as npt

from conftest import make_problem

from ebsolve import (
    assemble_sparse,
    build_element_batch,
    build_grid_mesh,
    chebyshev2,
    chebyshev3,
    constant_dirichlet,
    dense_interior_eigenvalues,
    local_mass_batch,
    local_stiffness_batch,
    model_eigen_bounds,
    model_eigenvalues_all,
    residual,
    richardson,
    solve_reference,
)
from ebsolve.cli import ExperimentConfig, run_experiment


def contraction_radius(bounds):
    s1, s2 = np.sqrt(bounds.lambda1), np.sqrt(bounds.lambda2)
    return (s2 - s1) / (s2 + s1)


def test_criterion_1_residual_matches_assembled_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for level in (1, 2, 3, 4, 5):
        for nu in (0.0, 1.0):
            m, batch, _, b = make_problem(level, nu=nu)
            A = assemble_sparse(batch.A_e, batch.index.indt)
            for _ in range(20):
                x = rng.standard_normal(m.n_nodes)
                r = residual(batch, x)
                r_ref = b - A @ x
                rel = np.linalg.norm(r - r_ref) / np.linalg.norm(r_ref)
                worst = max(worst, rel)
                assert rel <= 1e-12
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"criterion 1: max rel deviation {worst:.2e} <= 1e-12 "
          f"(levels 1-5, nu in {{0,1}}, 20 vectors each, {dt:.2f}s < 10s)")


def test_criterion_2_model_eigenvalues_match_dense_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (3, 4, 5, 9):
        m = build_grid_mesh(n)
        batch = build_element_batch(m)
        A = assemble_sparse(batch.A_e, batch.index.indt)
        dense = dense_interior_eigenvalues(A, constant_dirichlet(m))
        diff = np.max(np.abs(dense - model_eigenvalues_all(n)))
        worst = max(worst, diff)
        assert diff <= 1e-10
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"criterion 2: max eigenvalue deviation {worst:.2e} <= 1e-10 "
          f"(n in {{3,4,5,9}}, {dt:.2f}s < 5s)")


def test_criterion_3_benchmark_convergence_behavior():
    t0 = time.perf_counter()
    report = run_experiment(ExperimentConfig(
        level=5, nu=0.0, iters=124, solver="all", cycle_n=32,
        compare_direct=True,
    ))
    rich = report.runs["richardson"]
    c2 = report.runs["cheb2"]
    c3 = report.runs["cheb3"]
    e0 = rich.history.error_norms[0]

    rich_ratio = rich.final_error / e0
    assert 0.50 <= rich_ratio <= 0.56

    c3_ratio = c3.final_error / e0
    assert c3_ratio <= 1.1e-5

    norms = c2.history.residual_norms
    assert norms.max() > norms[0]          # intermediate residual growth
    assert np.any(np.diff(norms) > 0)      # not monotone
    assert c2.final_error > c3.final_error  # worse final accuracy than cheb3

    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"criterion 3: richardson ratio {rich_ratio:.4f} in [0.50, 0.56]; "
          f"cheb3 ratio {c3_ratio:.3e} <= 1.1e-5; "
          f"cheb2 peak {norms.max() / norms[0]:.1f}x its start residual and "
          f"final error {c2.final_error:.2e} > {c3.final_error:.2e} "
          f"({dt:.2f}s < 5s)")


def test_criterion_4_cycle_end_agreement():
    worst = 0.0
    for level in (2, 3):
        m, batch, d, _ = make_problem(level)
        bounds = model_eigen_bounds(2**level + 1)
        x0 = np.ones(m.n_nodes)
        for N in (2, 4, 8):
            x2, _ = chebyshev2(batch, d, x0, bounds, N, N)
            x3, _ = chebyshev3(batch, d, x0, bounds, N)
            rel = np.linalg.norm(x2 - x3) / np.linalg.norm(x3)
            worst = max(worst, rel)
            assert rel <= 1e-8
    print(f"criterion 4: max cycle-end disagreement {worst:.2e} <= 1e-8 "
          f"(levels 2-3, N in {{2,4,8}})")


def test_criterion_5_richardson_equals_single_root_cycle_bitwise():
    m, batch, d, _ = make_problem(3)
    bounds = model_eigen_bounds(9)
    x0 = np.ones(m.n_nodes)
    xs_r, xs_c = [], []
    richardson(batch, d, x0, bounds, 50,
               callback=lambda k, x, r: xs_r.append(x.copy()))
    chebyshev2(batch, d, x0, bounds, 1, 50,
               callback=lambda k, x, r: xs_c.append(x.copy()))
    assert len(xs_r) == len(xs_c) == 51
    for a, b in zip(xs_r, xs_c):
        npt.assert_array_equal(a, b)
    print("criterion 5: all 51 iterates bitwise identical "
          "(richardson vs N=1 cycle, level 3)")


def test_criterion_6_three_level_error_bound():
    worst = 0.0
    for level in (2, 3):
        m, batch, d, b = make_problem(level)
        bounds = model_eigen_bounds(2**level + 1)
        A = assemble_sparse(batch.A_e, batch.index.indt)
        u = solve_reference(A, b, d)
        rho = contraction_radius(bounds)
        x0 = np.ones(m.n_nodes)
        for N in (4, 8, 16):
            x, hist = chebyshev3(batch, d, x0, bounds, N, reference=u)
            bound = 2.0 * rho**N * hist.error_norms[0] * (1.0 + 1e-6)
            margin = hist.error_norms[-1] / bound
            worst = max(worst, margin)
            assert hist.error_norms[-1] <= bound
    print(f"criterion 6: error within bound, worst fraction used "
          f"{worst:.3f} <= 1 (levels 2-3, N in {{4,8,16}})")


def test_criterion_7_exactness_and_boundary_invariants():
    worst_rowsum = 0.0
    for level in (1, 2, 3, 4, 5):
        m, _, _, _ = make_problem(level)
        K = local_stiffness_batch(m)
        worst_rowsum = max(worst_rowsum, np.max(np.abs(K.sum(axis=1))))
        assert worst_rowsum <= 1e-14

    m, batch, _, _ = make_problem(4)
    M = assemble_sparse(local_mass_batch(m), batch.index.indt)
    mass_defect = abs(M.sum() - 1.0)
    assert mass_defect <= 1e-14

    m, batch, d, _ = make_problem(3)
    bounds = model_eigen_bounds(9)
    x0 = np.ones(m.n_nodes)

    def pinned(k, x, r):
        assert np.all(x[d.nd] == 1.0)

    richardson(batch, d, x0, bounds, 20, callback=pinned)
    chebyshev2(batch, d, x0, bounds, 8, 20, callback=pinned)
    chebyshev3(batch, d, x0, bounds, 20, callback=pinned)
    print(f"criterion 7: stiffness row sums <= {worst_rowsum:.1e} (1e-14); "
          f"total mass defect {mass_defect:.1e} <= 1e-14; "
          f"boundary entries bitwise constant across all solvers")


def test_criterion_8_level8_runtime_and_determinism(tmp_path):
    out1, out4 = tmp_path / "threads1", tmp_path / "threads4"
    t0 = time.perf_counter()
    report = run_experiment(ExperimentConfig(level=8, solver="all",
                                             out_dir=str(out1), threads=1))
    dt = time.perf_counter() - t0
    assert dt < 60.0
    assert not report.any_diverged

    run_experiment(ExperimentConfig(level=8, solver="all",
                                    out_dir=str(out4), threads=4))
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out4.iterdir())
    assert len(names) == 7  # 3 histories + 4 solutions
    for name in names:
        assert (out1 / name).read_bytes() == (out4 / name).read_bytes(), name
    print(f"criterion 8: level-8 experiment in {dt:.1f}s < 60s; all {len(names)} "
          f"output files byte-identical for 1 vs 4 threads")
