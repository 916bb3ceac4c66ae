"""Fast self-tests of the benchmark (levels <= 4).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from tracer import Span, Tracer, layer_self_times, self_times  # noqa: E402

TINY = {
    "config": dict(level=3, nu=0.0, iters=20, solver="all", cycle_n=4,
                   compare_direct=True, threads=1),
    "export": True,
}


@pytest.mark.parametrize("trace", [False, True])
def test_every_reported_metric_is_declared(trace):
    record = run.run_workload(TINY, seed=3, seconds=1, trace=trace, tag="selftest")
    assert not any(record["failures"]), record["failures"]
    metrics = run.summarize(record, trace)
    declared = run.declared_units()["per_layer" if trace else "end_to_end"]
    assert set(metrics) == set(declared)
    assert all(isinstance(v, (int, float)) for v in metrics.values())
    if trace:
        assert set(run.LAYER_MAP) == set(declared)
        assert metrics["solvers.cheb3.iters"] == 20
        assert metrics["operators.residual_calls"] == 3 * 21


def test_benchmark_json_workloads_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))


def _tiny_report(nu=0.0):
    from ebsolve import (assemble_rhs, assemble_sparse, build_element_batch,
                         build_unit_square_mesh, constant_dirichlet)
    from ebsolve.cli import ExperimentConfig, run_experiment

    report = run_experiment(ExperimentConfig(level=3, nu=nu, iters=30, solver="cheb3"))
    mesh = build_unit_square_mesh(3)
    batch = build_element_batch(mesh, nu=nu)
    A = assemble_sparse(batch.A_e, batch.index.indt)
    b = assemble_rhs(batch.b_e, batch.index.indt)
    return report, A, b, constant_dirichlet(mesh, 1.0).nd


def _as_reference(report, A, b, nd):
    return {"rho": 0.5, "solvers": gate.solver_summary(report.runs),
            "digest": gate.history_digest(report.runs),
            "oracle": {"b_norm": float(np.linalg.norm(b)),
                       "gaps": gate.residual_gaps(report.runs, A, b, nd)}}


def test_gate_passes_the_unperturbed_iterate_and_flags_a_perturbed_one():
    report, A, b, nd = _tiny_report()
    ref = _as_reference(report, A, b, nd)
    assert gate.failures(ref, ref, None) == []

    x = report.runs["cheb3"].x
    x[np.flatnonzero(np.isin(np.arange(x.size), nd, invert=True))[0]] += 1e-6
    perturbed = _as_reference(report, A, b, nd)
    reasons = gate.failures(perturbed, perturbed, None)
    assert any("assembled oracle" in r for r in reasons)
    other = dict(ref, oracle=None)
    assert gate.failures(dict(perturbed, oracle=None), ref, None) == [
        "history digest differs from the reference sample"]
    assert gate.failures(other, ref, None) == []


def test_gate_flags_the_nu_1_start_at_the_solution():
    ref = _as_reference(*_tiny_report(nu=1.0))
    assert any("round-off" in r for r in gate.failures(ref, ref, None))


def test_gate_flags_divergence_cap_and_raise():
    s = {"rho": 0.5, "digest": "d", "solvers": {
        "cheb2": {"iters": 9, "r0": 1.0, "final": float("inf"), "diverged": True, "e_ratio": None},
        "cheb3": {"iters": 9, "r0": 1.0, "final": 0.1, "diverged": False, "e_ratio": 0.5}}}
    ref = dict(s, oracle={"b_norm": 1.0, "gaps": {}})
    reasons = gate.failures(s, ref, tol=1e-3)
    assert "cheb2 diverged" in reasons
    assert any("hit its cap" in r for r in reasons)
    assert any("2*rho^N" in r for r in reasons)  # 0.5 > 2 * 0.5**9
    assert gate.failures({"error": "ValueError: x"}, ref, None) == ["raised ValueError: x"]


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        Span("cli.run", 0.0, 10.0, -1),
        Span("solvers.a", 1.0, 5.0, 0),
        Span("operators.r", 2.0, 3.0, 1),
        Span("operators.r", 3.5, 4.0, 1),
        Span("mesh.b", 6.0, 7.0, 0),
        Span("cli.export", 8.0, 9.5, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1 - 1.5, 4 - 1.5, 1, 0.5, 1, 1.5])
    assert layer_self_times(spans) == pytest.approx(
        {"cli": 3.5 + 1.5, "solvers": 2.5, "operators": 1.5, "mesh": 1.0})


def test_recorded_spans_nest_and_restore():
    import ebsolve.solvers

    original = ebsolve.solvers.residual
    tracer = Tracer()
    targets = [("ebsolve.cli", "chebyshev3", "solvers.cheb3"),
               ("ebsolve.solvers", "residual", "operators.residual")]
    with tracer.installed(targets) as missing:
        assert missing == []
        _tiny_report()
    assert ebsolve.solvers.residual is original
    names = [s.name for s in tracer.spans]
    assert names[0] == "solvers.cheb3" and names.count("operators.residual") == 31
    assert all(s.parent == 0 for s in tracer.spans[1:])


def test_wrapping_a_missing_function_is_harmless():
    import ebsolve.cli

    tracer = Tracer()
    targets = [("ebsolve.cli", "no_such_function", "cli.gone"),
               ("ebsolve.no_such_module", "f", "x.gone"),
               ("ebsolve.cli", "chebyshev3", "solvers.cheb3")]
    with tracer.installed(targets) as missing:
        assert missing == ["ebsolve.cli.no_such_function", "ebsolve.no_such_module.f"]
        _tiny_report()
    assert not hasattr(ebsolve.cli, "no_such_function")
    assert [s.name for s in tracer.spans] == ["solvers.cheb3"]
    assert layer_self_times(tracer.spans).keys() == {"solvers"}


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default-l8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

