import warnings

import numpy as np
import numpy.testing as npt
import pytest

from conftest import diagonal_batch, make_problem

from ebsolve import (
    DirichletData,
    SpectralBounds,
    assemble_sparse,
    assemble_rhs,
    chebyshev2,
    chebyshev3,
    chebyshev_roots,
    chebyshev_scaling_factor,
    mask_dirichlet,
    residual,
    richardson,
    solve_reference,
)
import ebsolve.solvers
from ebsolve.spectrum import model_eigen_bounds, operator_bounds

NO_CONSTRAINTS = DirichletData(np.array([], dtype=np.int64), np.array([]))


def collect_iterates(solver, *args, **kwargs):
    xs = []
    kwargs["callback"] = lambda k, x, r: xs.append(x.copy())
    x, hist = solver(*args, **kwargs)
    return x, hist, xs


# ---------------------------------------------------------------- bounds


def test_spectral_bounds():
    b = SpectralBounds(1.0, 3.0)
    assert b.center == 2.0
    assert b.half_width == 1.0
    SpectralBounds(0.0, 8.0)  # zero lower bound is allowed
    for bad in [(-1.0, 2.0), (3.0, 1.0), (0.0, 0.0), (np.nan, 1.0), (1.0, np.inf)]:
        with pytest.raises(ValueError):
            SpectralBounds(*bad)


# ---------------------------------------------------------------- roots


def test_chebyshev_roots_two_point():
    alphas = chebyshev_roots(SpectralBounds(0.0, 8.0), 2)
    npt.assert_allclose(alphas, [4 + 2 * np.sqrt(2), 4 - 2 * np.sqrt(2)],
                        rtol=1e-14)


def test_chebyshev_roots_order_and_range():
    b = SpectralBounds(1.0, 3.0)
    alphas = chebyshev_roots(b, 8)
    assert np.all(np.diff(alphas) < 0)  # naive descending order
    assert np.all((alphas > b.lambda1) & (alphas < b.lambda2))
    # roots come in pairs symmetric about the interval center
    npt.assert_allclose(alphas + alphas[::-1], 2 * b.center, rtol=1e-14)


def test_chebyshev_roots_single():
    # one root: exactly the interval center, so one cycle step is the
    # optimal Richardson step
    for b in (SpectralBounds(1.0, 3.0), model_eigen_bounds(33)):
        alphas = chebyshev_roots(b, 1)
        assert alphas.shape == (1,)
        assert alphas[0] == b.center


def test_chebyshev_roots_validation():
    with pytest.raises(ValueError):
        chebyshev_roots(SpectralBounds(1.0, 3.0), 0)


def test_scaling_factors():
    b = SpectralBounds(1.0, 3.0)  # t = (1+3)/(3-1) = 2
    assert [chebyshev_scaling_factor(b, k) for k in range(5)] == [1, 2, 7, 26, 97]
    vals = [chebyshev_scaling_factor(b, k) for k in range(11)]
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(ValueError):
        chebyshev_scaling_factor(b, -1)
    with pytest.raises(ValueError):
        chebyshev_scaling_factor(SpectralBounds(2.0, 2.0), 3)


# ------------------------------------------------- hand-checkable systems


def test_richardson_exact_with_tight_bounds():
    # A = 2*I, all eigenvalues equal: the optimal step solves in one go
    batch = diagonal_batch([2.0, 2.0, 2.0], [1.0, 0.0, 0.0])
    x, hist = richardson(batch, NO_CONSTRAINTS, np.zeros(3),
                         SpectralBounds(2.0, 2.0), 1)
    npt.assert_array_equal(x, [0.5, 0.0, 0.0])
    assert hist.residual_norms[-1] == 0.0


def test_richardson_contraction_rate():
    # free part diag(1,3), zero rhs: the error contracts by exactly
    # (lam2-lam1)/(lam2+lam1) = 1/2 per step for this start vector
    batch = diagonal_batch([1.0, 3.0, 1.0], [0.0, 0.0, 0.0])
    d = DirichletData(np.array([2]), np.array([0.0]))
    x0 = np.array([1.0, 1.0, 0.0])
    _, hist = richardson(batch, d, x0, SpectralBounds(1.0, 3.0), 3,
                         reference=np.zeros(3))
    ratios = hist.error_norms[1:] / hist.error_norms[:-1]
    npt.assert_allclose(ratios, 0.5, rtol=1e-14)


def test_cheb3_first_step_is_center_step():
    m, batch, d, _ = make_problem(2)
    bounds = model_eigen_bounds(5)
    x0 = np.ones(m.n_nodes)
    x1, _ = chebyshev3(batch, d, x0, bounds, 1)
    r0 = mask_dirichlet(residual(batch, x0), d)
    npt.assert_array_equal(x1, x0 + (1.0 / bounds.center) * r0)


# ------------------------------------------------------- equivalences


def explicit_three_term(batch, d, x0, bounds, iters):
    """Chebyshev acceleration written with the explicit scaling factors.

    Numerically poor for large k (the factors grow exponentially) but an
    independent reference for the stable two-term recurrence.
    """
    gap = bounds.lambda2 - bounds.lambda1
    C = [chebyshev_scaling_factor(bounds, k) for k in range(iters + 2)]
    xs = [np.array(x0, dtype=np.float64)]
    if iters >= 1:
        r = mask_dirichlet(residual(batch, xs[0]), d)
        xs.append(xs[0] + (1.0 / bounds.center) * r)
    for k in range(1, iters):
        r = mask_dirichlet(residual(batch, xs[k]), d)
        xs.append(xs[k]
                  + (C[k - 1] / C[k + 1]) * (xs[k] - xs[k - 1])
                  + (4.0 / gap) * (C[k] / C[k + 1]) * r)
    return xs


@pytest.mark.parametrize("level", [2, 3])
def test_cheb3_matches_explicit_three_term(level):
    m, batch, d, _ = make_problem(level)
    bounds = model_eigen_bounds(2**level + 1)
    x0 = np.ones(m.n_nodes)
    iters = 16
    _, _, xs = collect_iterates(chebyshev3, batch, d, x0, bounds, iters)
    ref = explicit_three_term(batch, d, x0, bounds, iters)
    assert len(xs) == len(ref) == iters + 1
    for k, (a, b) in enumerate(zip(xs, ref)):
        rel = np.linalg.norm(a - b) / np.linalg.norm(b)
        assert rel <= 1e-10, f"step {k}: {rel:.3e}"


def test_richardson_is_cheb2_with_one_root():
    m, batch, d, _ = make_problem(3)
    bounds = model_eigen_bounds(9)
    x0 = np.ones(m.n_nodes)
    _, _, xs_r = collect_iterates(richardson, batch, d, x0, bounds, 50)
    _, _, xs_c = collect_iterates(chebyshev2, batch, d, x0, bounds, 1, 50)
    assert len(xs_r) == len(xs_c) == 51
    for a, b in zip(xs_r, xs_c):
        npt.assert_array_equal(a, b)


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("N", [2, 4, 8])
def test_cheb2_cheb3_agree_at_cycle_end(level, N):
    # after a full cycle both methods realize the same Chebyshev polynomial
    m, batch, d, _ = make_problem(level)
    bounds = model_eigen_bounds(2**level + 1)
    x0 = np.ones(m.n_nodes)
    x2, _ = chebyshev2(batch, d, x0, bounds, N, N)
    x3, _ = chebyshev3(batch, d, x0, bounds, N)
    assert np.linalg.norm(x2 - x3) <= 1e-8 * np.linalg.norm(x3)


# ------------------------------------------------------- error bounds


def reference_solution(batch, d):
    A = assemble_sparse(batch.A_e, batch.index.indt)
    b = assemble_rhs(batch.b_e, batch.index.indt)
    return solve_reference(A, b, d)


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("N", [4, 8, 16])
def test_cheb3_error_bound(level, N):
    m, batch, d, _ = make_problem(level)
    bounds = model_eigen_bounds(2**level + 1)
    u = reference_solution(batch, d)
    x0 = np.ones(m.n_nodes)
    x, hist = chebyshev3(batch, d, x0, bounds, N, reference=u)
    rho = ((np.sqrt(bounds.lambda2) - np.sqrt(bounds.lambda1))
           / (np.sqrt(bounds.lambda2) + np.sqrt(bounds.lambda1)))
    e0 = hist.error_norms[0]
    assert hist.error_norms[-1] <= 2.0 * rho**N * e0 * (1.0 + 1e-6)


def test_cheb3_error_bound_every_step():
    m, batch, d, _ = make_problem(2)
    bounds = model_eigen_bounds(5)
    u = reference_solution(batch, d)
    x0 = np.ones(m.n_nodes)
    _, hist = chebyshev3(batch, d, x0, bounds, 20, reference=u)
    rho = ((np.sqrt(bounds.lambda2) - np.sqrt(bounds.lambda1))
           / (np.sqrt(bounds.lambda2) + np.sqrt(bounds.lambda1)))
    e0 = hist.error_norms[0]
    for k, err in enumerate(hist.error_norms):
        assert err <= 2.0 * rho**k * e0 * (1.0 + 1e-6) + 1e-13


@pytest.mark.parametrize("level,nu,iters", [(3, 10.0, 60), (5, 100.0, 300)])
def test_cheb3_residual_envelope_with_mass_term(level, nu, iters):
    # ||r_k|| <= 2 rho^k ||r_0|| holds only if operator_bounds encloses the
    # spectrum; the 1e-12 term covers the round-off floor reached at level 5
    m, batch, d, _ = make_problem(level, nu=nu)
    bounds = operator_bounds(batch, d)
    _, hist = chebyshev3(batch, d, np.ones(m.n_nodes), bounds, iters)
    rho = ((np.sqrt(bounds.lambda2) - np.sqrt(bounds.lambda1))
           / (np.sqrt(bounds.lambda2) + np.sqrt(bounds.lambda1)))
    r0 = hist.residual_norms[0]
    assert len(hist.residual_norms) == iters + 1
    for k, res in enumerate(hist.residual_norms):
        assert res <= (2.0 * rho**k + 1e-12) * r0


def test_cheb3_steps_to_tolerance_with_mass_term():
    # level 6, nu = 100: 195 steps with Weyl's lower end lambda1 + nu*m_lo,
    # 119 with the coupled one
    m, batch, d, _ = make_problem(6, nu=100.0)
    bounds = operator_bounds(batch, d)
    _, hist = chebyshev3(batch, d, np.ones(m.n_nodes), bounds, 1000, tol=1e-6)
    assert hist.stop_reason == "tol"
    assert len(hist.residual_norms) - 1 == 119


# ------------------------------------------------------- loop mechanics


def test_history_lengths():
    m, batch, d, _ = make_problem(2)
    bounds = model_eigen_bounds(5)
    u = reference_solution(batch, d)
    _, hist = richardson(batch, d, np.ones(m.n_nodes), bounds, 7, reference=u)
    assert len(hist.residual_norms) == 8
    assert len(hist.error_norms) == 8
    assert hist.wall_time >= 0.0
    assert not hist.diverged


def test_zero_iterations():
    m, batch, d, _ = make_problem(2)
    x0 = np.ones(m.n_nodes)
    x, hist = richardson(batch, d, x0, model_eigen_bounds(5), 0)
    assert len(hist.residual_norms) == 1
    npt.assert_array_equal(x, x0)
    assert x is not x0


def test_negative_iterations_rejected():
    m, batch, d, _ = make_problem(2)
    with pytest.raises(ValueError):
        richardson(batch, d, np.ones(m.n_nodes), model_eigen_bounds(5), -1)


def test_callback_sequence():
    m, batch, d, _ = make_problem(2)
    ks = []
    richardson(batch, d, np.ones(m.n_nodes), model_eigen_bounds(5), 5,
               callback=lambda k, x, r: ks.append(k))
    assert ks == [0, 1, 2, 3, 4, 5]


def test_tol_early_stop():
    m, batch, d, _ = make_problem(3)
    bounds = model_eigen_bounds(9)
    _, hist = chebyshev3(batch, d, np.ones(m.n_nodes), bounds, 500, tol=1e-6)
    assert len(hist.residual_norms) < 501
    assert hist.residual_norms[-1] <= 1e-6 * hist.residual_norms[0]
    assert not hist.diverged


def test_divergence_sets_flag():
    # absurdly small bounds make the step 4 orders of magnitude too long,
    # so the iteration blows up; that must be reported, not raised
    m, batch, d, _ = make_problem(2)
    bad = SpectralBounds(1e-4, 2e-4)
    for run in (
        lambda: richardson(batch, d, np.ones(m.n_nodes), bad, 300),
        lambda: chebyshev2(batch, d, np.ones(m.n_nodes), bad, 4, 300),
        lambda: chebyshev3(batch, d, np.ones(m.n_nodes), bad, 300),
    ):
        _, hist = run()
        assert hist.diverged
        assert not np.isfinite(hist.residual_norms[-1])
        assert len(hist.residual_norms) <= 301


def test_stop_reason():
    m, batch, d, _ = make_problem(3)
    x0 = np.ones(m.n_nodes)
    bounds = model_eigen_bounds(9)
    _, hist = chebyshev3(batch, d, x0, bounds, 20)
    assert hist.stop_reason == "budget" and len(hist.residual_norms) == 21
    _, hist = chebyshev3(batch, d, x0, bounds, 500, tol=1e-6)
    assert hist.stop_reason == "tol" and len(hist.residual_norms) < 501
    # a tolerance that the budget does not reach is still a budget stop
    _, hist = chebyshev3(batch, d, x0, bounds, 5, tol=1e-6)
    assert hist.stop_reason == "budget" and len(hist.residual_norms) == 6
    # bounds pulled inside the spectrum [0.30, 7.70]: the modes outside
    # them grow without limit
    _, hist = chebyshev3(batch, d, x0, SpectralBounds(2.0, 3.0), 5000)
    assert hist.stop_reason == "diverged" and hist.diverged
    assert len(hist.residual_norms) < 5001
    with pytest.raises(ValueError, match="stop reason"):
        type(hist)(hist.residual_norms, None, 0.0, stop_reason="converged")


def test_overflowing_start_stops_at_step_0():
    # x0 = 1e200 off the boundary is finite, and so is its residual, but
    # the residual's norm overflows: that is a divergence at step 0, with
    # or without a tolerance, and numpy's overflow warning is not repeated
    m, batch, d, _ = make_problem(3)
    x0 = np.full(m.n_nodes, 1e200)
    x0[d.nd] = 1.0
    bounds = model_eigen_bounds(9)
    u = reference_solution(batch, d)
    for tol in (None, 1e-6):
        for solver, extra in ((richardson, ()), (chebyshev2, (4,)), (chebyshev3, ())):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                x, hist = solver(batch, d, x0, bounds, *extra, 10, tol=tol,
                                 reference=u)
            assert hist.stop_reason == "diverged"
            assert hist.residual_norms.tolist() == [np.inf]
            assert hist.error_norms.tolist() == [np.inf]
            npt.assert_array_equal(x, x0)


SOLVERS = ((richardson, ()), (chebyshev2, (4,)), (chebyshev3, ()))


def count_residual_calls(monkeypatch):
    """Patch the solvers' ``residual`` to record one entry per call; returns the list."""
    calls = []
    original = ebsolve.solvers.residual

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(ebsolve.solvers, "residual", counted)
    return calls


def test_one_residual_call_per_recorded_norm(monkeypatch):
    calls = count_residual_calls(monkeypatch)
    m, batch, d, _ = make_problem(3)
    ones = np.ones(m.n_nodes)
    overflowing = np.where(np.isin(np.arange(m.n_nodes), d.nd), 1.0, 1e200)
    good = model_eigen_bounds(9)
    # an infinite step size makes the first iterate non-finite; the norm
    # test finds it, so that case too calls residual once per recorded norm
    infinite_step = SpectralBounds(0.0, 1e-320)
    cases = [  # x0, bounds, iters, tol, stop reason
        (ones, good, 20, None, "budget"),
        (ones, good, 500, 1e-6, "tol"),
        (ones, SpectralBounds(2.0, 3.0), 5000, None, "diverged"),
        (overflowing, good, 20, 1e-6, "diverged"),
        (ones, infinite_step, 20, None, "diverged"),
    ]
    for x0, bounds, iters, tol, reason in cases:
        for solver, extra in ((richardson, ()), (chebyshev2, (4,)), (chebyshev3, ())):
            calls.clear()
            _, hist = solver(batch, d, x0, bounds, *extra, iters, tol=tol)
            assert hist.stop_reason == reason, (solver.__name__, reason)
            assert len(calls) == len(hist.residual_norms)


def test_one_finite_check_of_x0_and_none_per_step(monkeypatch):
    m, batch, d, _ = make_problem(3)
    u = reference_solution(batch, d)
    checked = []
    isfinite = np.isfinite

    def counted(a, *args, **kwargs):
        if np.shape(a) == (m.n_nodes,):
            checked.append(None)
        return isfinite(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    ones = np.ones(m.n_nodes)
    for bounds, reason in ((model_eigen_bounds(9), "budget"),
                           (SpectralBounds(0.0, 1e-320), "diverged")):
        for solver, extra in ((richardson, ()), (chebyshev2, (4,)), (chebyshev3, ())):
            checked.clear()
            _, hist = solver(batch, d, ones, bounds, *extra, 20, reference=u)
            assert hist.stop_reason == reason
            assert len(checked) == 1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["free", "constrained"])
def test_a_non_finite_start_raises_before_any_residual(monkeypatch, value, where):
    calls = count_residual_calls(monkeypatch)
    m, batch, d, _ = make_problem(3)
    x0 = np.ones(m.n_nodes)
    # node 40 is the level-3 grid's centre; node 8 a corner whose one
    # element holds boundary nodes only, which the norm test would miss
    node = 40 if where == "free" else 8
    assert (node in d.nd) == (where == "constrained")
    x0[node] = value
    norm = np.linalg.norm(mask_dirichlet(residual(batch, x0), d))
    assert np.isfinite(norm) == (where == "constrained")
    for solver, extra in SOLVERS:
        with pytest.raises(ValueError, match="x0"):
            solver(batch, d, x0, model_eigen_bounds(9), *extra, 5)
    assert calls == []


@pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf])
def test_a_tol_that_is_not_finite_and_positive_is_rejected(monkeypatch, tol):
    calls = count_residual_calls(monkeypatch)
    m, batch, d, _ = make_problem(3)
    for solver, extra in SOLVERS:
        with pytest.raises(ValueError, match="tol"):
            solver(batch, d, np.ones(m.n_nodes), model_eigen_bounds(9), *extra, 50,
                   tol=tol)
    assert calls == []


def test_an_infinite_step_stops_as_diverged_at_step_1():
    # the step is inf, so the first iterate is non-finite everywhere; the
    # callback still sees it, once per recorded norm
    m, batch, d, _ = make_problem(3)
    for solver, extra in SOLVERS:
        ks = []
        _, hist = solver(batch, d, np.ones(m.n_nodes), SpectralBounds(0.0, 1e-320),
                         *extra, 20, callback=lambda k, x, r: ks.append(k))
        assert hist.stop_reason == "diverged"
        assert ks == [0, 1]
        assert len(hist.residual_norms) == 2
        assert np.isfinite(hist.residual_norms[0])
        assert not np.isfinite(hist.residual_norms[1])


def test_a_read_only_broadcast_start_gives_the_solve_of_a_full_one():
    # nu = 2: at nu = 1 the start would be the exact solution (u = 1)
    m, batch, d, _ = make_problem(4, nu=2.0)
    u = reference_solution(batch, d)
    bounds = operator_bounds(batch, d)
    start = np.broadcast_to(1.0, m.n_nodes)
    assert not start.flags.writeable
    for solver, extra in ((richardson, ()), (chebyshev2, (4,)), (chebyshev3, ())):
        for kwargs in ({}, {"reference": u, "tol": 1e-3}):
            x_ref, ref = solver(batch, d, np.full(m.n_nodes, 1.0), bounds, *extra, 30,
                                **kwargs)
            x, hist = solver(batch, d, start, bounds, *extra, 30, **kwargs)
            assert hist.residual_norms.tobytes() == ref.residual_norms.tobytes()
            if "reference" in kwargs:
                assert hist.error_norms.tobytes() == ref.error_norms.tobytes()
            assert hist.stop_reason == ref.stop_reason
            assert x.tobytes() == x_ref.tobytes()
            assert x.flags.writeable and x.flags.c_contiguous
            assert not np.shares_memory(x, start)


def test_error_norms_are_the_norms_of_each_iterate_minus_the_reference():
    m, batch, d, _ = make_problem(3, nu=2.0)
    u = reference_solution(batch, d)
    bounds = operator_bounds(batch, d)
    for solver, extra in ((richardson, ()), (chebyshev2, (4,)), (chebyshev3, ())):
        _, hist, xs = collect_iterates(solver, batch, d, np.ones(m.n_nodes), bounds,
                                       *extra, 15, reference=u)
        expected = [np.linalg.norm(x - u) for x in xs]
        assert hist.error_norms.tobytes() == np.array(expected).tobytes()


def test_reference_of_another_shape_is_rejected():
    # a one-entry reference would broadcast against x: every "error norm" ||x||
    m, batch, d, _ = make_problem(3)
    x0 = np.ones(m.n_nodes)
    bounds = model_eigen_bounds(9)
    wrong = (0.0, np.array([0.0]), np.zeros(m.n_nodes + 1), np.zeros((m.n_nodes, 1)))
    for solver, extra in ((richardson, ()), (chebyshev2, (4,)), (chebyshev3, ())):
        for reference in wrong:
            with pytest.raises(ValueError, match="reference must have the shape of x0"):
                solver(batch, d, x0, bounds, *extra, 3, reference=reference)
        # a list of the right length is still accepted
        _, hist = solver(batch, d, x0, bounds, *extra, 3, reference=[1.0] * m.n_nodes)
        assert hist.error_norms[0] == 0.0


def test_every_step_writes_into_one_workspace(monkeypatch):
    calls = []
    original = ebsolve.solvers.residual

    def recorded(batch, x, out=None):
        r = original(batch, x, out=out)
        calls.append((out, r, x))
        return r

    monkeypatch.setattr(ebsolve.solvers, "residual", recorded)
    m, batch, d, _ = make_problem(3)
    x0 = np.ones(m.n_nodes)
    bounds = model_eigen_bounds(9)
    for solver, extra in ((richardson, ()), (chebyshev2, (4,)), (chebyshev3, ())):
        calls.clear()
        x, hist = solver(batch, d, x0, bounds, *extra, 12)
        assert len(calls) == len(hist.residual_norms) == 13
        out = calls[0][0]
        assert out.shape == (m.n_nodes,)
        for o, r, xk in calls:
            assert o is out and r is out and xk is x
    assert x0.tolist() == [1.0] * m.n_nodes


def test_solvers_reject_nodes_beyond_the_mesh():
    m, batch, _, _ = make_problem(3)
    assert m.n_nodes == 81
    x0 = np.ones(m.n_nodes)
    bounds = model_eigen_bounds(9)
    for nd in ([999], [0, 81]):
        d = DirichletData(np.array(nd), np.ones(len(nd)))
        for solver, extra in ((richardson, ()), (chebyshev2, (4,)), (chebyshev3, ())):
            with pytest.raises(ValueError, match="81 nodes"):
                solver(batch, d, x0, bounds, *extra, 3)


def test_cheb3_needs_spectral_gap():
    m, batch, d, _ = make_problem(2)
    with pytest.raises(ValueError):
        chebyshev3(batch, d, np.ones(m.n_nodes), SpectralBounds(2.0, 2.0), 5)


def test_constrained_entries_never_move():
    m, batch, d, _ = make_problem(3)
    bounds = model_eigen_bounds(9)
    x0 = np.ones(m.n_nodes)

    def assert_pinned(k, x, r):
        assert np.all(x[d.nd] == 1.0)
        assert np.all(r[d.nd] == 0.0)

    for solver, extra in ((richardson, ()), (chebyshev2, (8,)), (chebyshev3, ())):
        x, _ = solver(batch, d, x0, bounds, *extra, 20, callback=assert_pinned)
        assert np.all(x[d.nd] == 1.0)
