"""ebsolve benchmark: time to solution, throughput and memory, traced per module.

    python3 perfbench/run.py --workload default-l8 --seed 1 --seconds 40 --trace 0

Closed loop with one client: samples run one at a time, each in a fresh
Python process (``child.py``) that calls ``ebsolve.cli.run_experiment`` once
with the workload's configuration, BLAS/OpenMP threads pinned to 1.  New
samples start until the next one would end after ``--seconds``; at least one
always runs.  ``--trace 0`` reports the end-to-end metrics of untraced
samples.  ``--trace 1`` runs pairs of one untraced and one traced sample,
alternating which goes first, and reports per-layer metrics, the tracing
overhead between the two, and the yardsticks (CSR SpMV, copy bandwidth).
The workloads are deterministic; the seed only draws the yardstick's random
vector.

Every sample passes the gate in ``gate.py`` or counts as failed.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (samples) and ``metrics`` (name -> value and unit, units as
declared in BENCHMARK.json).  Spans and per-sample records are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
from tracer import Span, durations, layer_self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Everything must finish well inside the 180 s a run is allowed.
HARD_LIMIT_S = 170.0

PINNED_THREADS = {
    name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                           "VECLIB_MAXIMUM_THREADS")
}

WORKLOADS = {
    # README invocation at level 8: every layer runs, working set fits the LLC.
    "default-l8": {
        "config": dict(level=8, nu=0.0, iters=124, solver="all", cycle_n=32,
                       compare_direct=True, threads=1),
        "export": True,
    },
    # Level 10: A_e alone exceeds the LLC, so the residual streams from memory;
    # 32 steps keep a sample near 8 s so a run holds several.
    "stream-l10": {
        "config": dict(level=10, nu=0.0, iters=32, solver="cheb3", threads=2),
        "export": False,
    },
    # Time to a stated accuracy with power-iteration bounds (nu > 0).  nu = 1
    # would start at the exact solution (u = 1), see gate.ROUNDOFF_R0.
    "reaction-tol-l8": {
        "config": dict(level=8, nu=100.0, iters=5000, solver="cheb3", tol=1e-6, threads=1),
        "export": False,
    },
}

# per-layer metric -> (end-to-end metric it should move, workloads where it does)
LAYER_MAP = {
    "mesh.build_s": ("setup_s", "stream-l10"),
    "elements.batch_s": ("setup_s", "stream-l10"),
    "elements.batch_mb": ("peak_rss_mb", "stream-l10"),
    "spectrum.bounds_s": ("setup_s", "reaction-tol-l8"),
    "spectrum.power_s": ("setup_s", "reaction-tol-l8"),
    "spectrum.rho": ("solve_s", "reaction-tol-l8"),
    "reference.assemble_s": ("setup_s", "default-l8"),
    "reference.solve_s": ("setup_s", "default-l8"),
    "operators.residual_calls": ("solve_s", "all"),
    "operators.residual_busy_s": ("solve_s", "all"),
    "operators.residual_p50_ms": ("melem_iter_per_s", "all"),
    "operators.residual_p90_ms": ("melem_iter_per_s", "all"),
    "operators.residual_over_spmv": ("melem_iter_per_s", "all"),
    "operators.residual_gbps": ("solve_s", "stream-l10"),
    "operators.mask_busy_s": ("solve_s", "stream-l10"),
    "solvers.loop_self_s": ("solve_s", "stream-l10"),
    "solvers.richardson.iters": ("solve_s", "default-l8"),
    "solvers.cheb2.iters": ("solve_s", "default-l8"),
    "solvers.cheb3.iters": ("solve_s", "reaction-tol-l8"),
    "cli.export_s": ("wall_s", "default-l8"),
    "cli.export_mb": ("wall_s", "default-l8"),
    "cli.import_s": ("wall_s", "all"),
    "mesh.self_s": ("setup_s", "stream-l10"),
    "elements.self_s": ("setup_s", "stream-l10"),
    "spectrum.self_s": ("setup_s", "reaction-tol-l8"),
    "reference.self_s": ("setup_s", "default-l8"),
    "operators.self_s": ("solve_s", "all"),
    "cli.self_s": ("wall_s", "all"),
    "yardstick.spmv_p50_ms": ("none (fixed yardstick)", "all"),
    "bench.untraced_wall_s": ("wall_s", "all"),
    "bench.traced_wall_s": ("none (traced run)", "all"),
    "bench.trace_overhead_s": ("none (traced - untraced wall_s)", "all"),
}

SOLVERS = ("richardson", "cheb2", "cheb3")
LAYERS = ("mesh", "elements", "spectrum", "reference", "operators", "cli")  # solvers: loop_self_s


def declared_units() -> dict[str, dict[str, str]]:
    """{"end_to_end" | "per_layer": {metric: unit}} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_json(argv: list[str], timeout: float) -> dict:
    """Run a helper process and parse the JSON object on its last stdout line."""
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {proc.returncode}: {tail[0]}"}


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) by statistics.quantiles; 0 without values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end_metrics(samples: list[dict]) -> dict[str, float]:
    med = lambda key: statistics.median(s[key] for s in samples)
    return {
        "wall_s": med("wall_s"),
        "setup_s": med("setup_s"),
        "solve_s": med("solve_s"),
        "melem_iter_per_s": statistics.median(
            s["n_elements"] * s["steps"] / s["solve_s"] / 1e6 for s in samples),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def residual_bytes(n_elements: int, n_nodes: int) -> int:
    """Computed bytes one residual call must move at least.

    A_e (72 B/element) and b_e (24) read once, the index array read twice
    (gather and scatter, 2 x 24), x read and r written (2 x 8 B/node).
    Intermediates and cache misses are not counted.
    """
    return n_elements * (72 + 24 + 2 * 24) + n_nodes * 2 * 8


def layer_metrics(traced: list[dict], untraced: list[dict], spmv_ms: list[float]) -> dict:
    """Per-layer metrics: medians over traced samples, residual calls pooled."""
    per_sample = []
    residual_ms = []
    for s in traced:
        spans = [Span(*row) for row in s["spans"]]
        total = lambda name: sum(durations(spans, name))
        self_s = layer_self_times(spans)
        calls = durations(spans, "operators.residual")
        residual_ms += [d * 1e3 for d in calls]
        row = {
            "mesh.build_s": total("mesh.build"),
            "elements.batch_s": total("elements.batch"),
            "elements.batch_mb": s["batch_bytes"] / 1e6,
            "spectrum.bounds_s": total("spectrum.bounds"),
            "spectrum.power_s": total("spectrum.power"),
            "spectrum.rho": s["rho"] or 0.0,
            "reference.assemble_s": total("reference.assemble"),
            "reference.solve_s": total("reference.solve"),
            "operators.residual_calls": len(calls),
            "operators.residual_busy_s": sum(calls),
            "operators.mask_busy_s": total("operators.mask"),
            "solvers.loop_self_s": self_s.get("solvers", 0.0),
            "cli.export_s": total("cli.export"),
            "cli.export_mb": s["export_bytes"] / 1e6,
            "cli.import_s": s["import_s"],
        }
        for name in SOLVERS:
            row[f"solvers.{name}.iters"] = s["solvers"].get(name, {}).get("iters", 0)
        for layer in LAYERS:
            row[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        per_sample.append(row)

    out = {k: statistics.median(r[k] for r in per_sample) for k in per_sample[0]}
    p50 = percentile(residual_ms, 50)
    spmv_p50 = percentile(spmv_ms, 50)
    out["operators.residual_p50_ms"] = p50
    out["operators.residual_p90_ms"] = percentile(residual_ms, 90)
    out["operators.residual_over_spmv"] = p50 / spmv_p50 if spmv_p50 else 0.0
    nbytes = residual_bytes(traced[0]["n_elements"], traced[0]["n_nodes"])
    out["operators.residual_gbps"] = nbytes / (p50 / 1e3) / 1e9 if p50 else 0.0
    out["yardstick.spmv_p50_ms"] = spmv_p50
    untraced_wall = statistics.median(s["wall_s"] for s in untraced)
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    out["bench.untraced_wall_s"] = untraced_wall
    out["bench.traced_wall_s"] = traced_wall
    out["bench.trace_overhead_s"] = traced_wall - untraced_wall
    return out


def run_workload(spec: dict, seed: int, seconds: float, trace: bool, tag: str) -> dict:
    """Run samples for ``seconds`` and gate them; returns the full run record."""
    start = time.monotonic()
    deadline = start + seconds
    remaining = lambda: start + HARD_LIMIT_S - time.monotonic()
    config = dict(spec["config"])
    if spec["export"]:
        config["out_dir"] = str(OUT / f"export-{tag}")
    copy = run_json([sys.executable, str(HERE / "copybw.py")], remaining()) if trace else None

    samples: list[dict] = []
    stop = min(deadline, start + HARD_LIMIT_S - 10)
    while True:
        t = time.monotonic()
        new = []
        # traced runs alternate which side of a pair goes first; the very
        # first sample is always the untraced reference
        order = [False, True] if len(samples) % 4 == 0 else [True, False]
        for traced in (order if trace else [False]):
            first = not samples and not new
            req = {"config": config, "traced": traced, "oracle": first,
                   "yardstick": first and trace, "seed": seed}
            sample = run_json([sys.executable, str(HERE / "child.py"), json.dumps(req)],
                              remaining())
            sample["traced"] = traced
            new.append(sample)
        samples += new
        # the next unit costs about what this one did, minus the one-off checks
        cost = time.monotonic() - t - sum(s.get("check_s", 0.0) for s in new)
        if any(s.get("error") for s in new) or time.monotonic() + cost > stop:
            break

    ref = samples[0]
    tol = config.get("tol")
    fails = [gate.failures(s, ref, tol) for s in samples]
    return {"samples": samples, "failures": fails, "copy": copy,
            "elapsed_s": time.monotonic() - start}


def summarize(run: dict, trace: bool) -> dict[str, float] | None:
    ok = [s for s in run["samples"] if not s.get("error")]
    untraced = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    if not untraced or (trace and not traced):
        return None
    if not trace:
        return end_to_end_metrics(untraced)
    spmv = run["samples"][0].get("oracle", {}).get("spmv_ms", [])
    return layer_metrics(traced, untraced, spmv)


def environment(run: dict) -> dict:
    versions = next((s["versions"] for s in run["samples"] if "versions" in s), {})
    env = {"nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
           **versions, "pinned": PINNED_THREADS}
    if run["copy"]:
        env.update(run["copy"])
    return env


def report_lines(name: str, run: dict, metrics: dict | None, units: dict, env: dict) -> list[str]:
    samples, fails = run["samples"], run["failures"]
    n_failed = sum(1 for f in fails if f)
    lines = [f"workload {name}: {len(samples)} samples in {run['elapsed_s']:.1f} s, "
             f"fail_frac {n_failed}/{len(samples)} = {n_failed / len(samples):.3f}"]
    for i, f in enumerate(fails):
        for reason in f:
            lines.append(f"  FAILED sample {i}: {reason}")
    n_untraced = sum(1 for s in samples if not s["traced"] and not s.get("error"))
    n_traced = sum(1 for s in samples if s["traced"] and not s.get("error"))
    for metric, value in (metrics or {}).items():
        n = n_traced if metric in LAYER_MAP else n_untraced
        line = f"  {metric:28s} {value:14.6g} {units[metric]:8s} median of {n}"
        if metric in LAYER_MAP:
            target, where = LAYER_MAP[metric]
            line += f"  -> {target} on {where}"
        lines.append(line)
    if metrics and "operators.residual_gbps" in metrics:
        s = next(s for s in samples if "n_elements" in s)
        lines.append(f"  computed bytes per residual call: "
                     f"{residual_bytes(s['n_elements'], s['n_nodes']) / 1e6:.1f} MB "
                     f"({s['n_elements']} elements, {s['n_nodes']} nodes)")
    missing = sorted({m for s in samples for m in s.get("missing", [])})
    if missing:
        lines.append(f"  not traced (no longer exist): {', '.join(missing)}")
    lines.append("  env: " + json.dumps(env))
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ebsolve" / "__init__.py").is_file():
        print(f"error: no ebsolve sources under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2

    units = declared_units()
    trace = bool(args.trace)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, trace, tag)
    metrics = summarize(run, trace)
    env = environment(run)
    all_units = {**units["end_to_end"], **units["per_layer"]}
    for line in report_lines(args.workload, run, metrics, all_units, env):
        print(line)

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "metrics": metrics, **run}
    (OUT / f"{tag}.json").write_text(json.dumps(record))
    if metrics is None:
        print("error: no sample completed; no metrics to report", file=sys.stderr)
        return 1

    kind = "per_layer" if trace else "end_to_end"
    failed = sum(1 for f in run["failures"] if f)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run["samples"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[kind][k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
