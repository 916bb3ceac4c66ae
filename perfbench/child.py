"""One benchmark sample in a fresh Python process.

    python3 perfbench/child.py '<json request>'

Runs ``ebsolve.cli.run_experiment`` once and prints one JSON object as the
last line of standard output.  The request says whether to trace every layer
boundary or only the solver entries (which mark where set-up ends), whether
this sample is the run's reference (assembled-oracle check), and whether to
time the CSR SpMV yardstick.  Peak RSS is read as soon as ``run_experiment``
returns, before any check allocates.
"""

from __future__ import annotations

import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import gate
from tracer import SOLVER_TARGETS, TRACE_TARGETS, Tracer

# NumPy, SciPy and ebsolve are imported inside functions so that the timed
# import in run_sample (cli.import_s) is the first to load them.

SPMV_MIN_REPS = 20
SPMV_MIN_SECONDS = 0.3


def distinct_bytes(obj) -> int:
    """Bytes of the distinct buffers behind the arrays an object stores.

    Walks stored attributes (not properties, which may compute), follows
    each array to the array that owns its memory, and counts every owner
    once, so views and reshapes of one buffer are not counted twice.
    """
    import numpy as np

    owners = {}

    def visit(value):
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            owners[id(value)] = value.nbytes
        elif hasattr(value, "__dict__"):
            for v in vars(value).values():
                visit(v)

    visit(obj)
    return sum(owners.values())


def time_spmv(A, seed: int) -> list[float]:
    """Milliseconds per assembled ``A @ x`` on a seeded random vector."""
    import numpy as np

    x = np.random.default_rng(seed).standard_normal(A.shape[1])
    for _ in range(3):
        A @ x
    times, spent = [], 0.0
    while len(times) < SPMV_MIN_REPS or spent < SPMV_MIN_SECONDS:
        t = time.perf_counter()
        A @ x
        dt = time.perf_counter() - t
        times.append(dt * 1e3)
        spent += dt
    return times


def oracle_check(cfg, runs, seed: int, yardstick: bool) -> dict:
    """Assemble A and b for the same problem and compare every iterate."""
    import numpy as np

    from ebsolve import (assemble_rhs, assemble_sparse, build_element_batch,
                         build_unit_square_mesh, constant_dirichlet)
    from ebsolve.cli import BOUNDARY_VALUE

    mesh = build_unit_square_mesh(cfg.level)
    d = constant_dirichlet(mesh, BOUNDARY_VALUE)
    batch = build_element_batch(mesh, nu=cfg.nu)
    A = assemble_sparse(batch.A_e, batch.index.indt)
    b = assemble_rhs(batch.b_e, batch.index.indt)
    del batch, mesh
    out = {"b_norm": float(np.linalg.norm(b)), "gaps": gate.residual_gaps(runs, A, b, d.nd)}
    if yardstick:
        out["spmv_ms"] = time_spmv(A, seed)
    return out


def export_bytes(out_dir) -> int:
    if out_dir is None or not Path(out_dir).exists():
        return 0
    total = sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())
    shutil.rmtree(out_dir)
    return total


def run_sample(req: dict) -> dict:
    t = time.perf_counter()
    import ebsolve.cli
    import numpy
    import scipy
    import_s = time.perf_counter() - t

    cfg = ebsolve.cli.ExperimentConfig(**req["config"])
    tracer = Tracer()
    batch_bytes = []
    targets = TRACE_TARGETS if req["traced"] else SOLVER_TARGETS
    on_result = {"elements.batch": lambda batch: batch_bytes.append(distinct_bytes(batch))}
    with tracer.installed(targets, on_result) as missing:
        t_run = time.perf_counter()
        report = ebsolve.cli.run_experiment(cfg)
        wall_s = time.perf_counter() - t_run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    solver_starts = [s.start for s in tracer.spans if s.layer == "solvers"]
    solvers = gate.solver_summary(report.runs)
    rho = None
    if report.bounds is not None:
        l1, l2 = (v ** 0.5 for v in report.bounds)
        rho = (l2 - l1) / (l2 + l1)
    sample = {
        "traced": req["traced"],
        "wall_s": wall_s,
        "setup_s": (min(solver_starts) - t_run) if solver_starts else wall_s,
        "solve_s": sum(r.wall_time for r in report.runs.values() if r.history is not None),
        "steps": sum(s["iters"] for s in solvers.values()),
        "n_nodes": report.n_nodes,
        "n_elements": report.n_elements,
        "peak_rss_mb": peak_rss_mb,
        "import_s": import_s,
        "rho": rho,
        "solvers": solvers,
        "digest": gate.history_digest(report.runs),
        "export_bytes": export_bytes(cfg.out_dir),
        "batch_bytes": batch_bytes[0] if batch_bytes else 0,
        "spans": [[s.name, s.start, s.end, s.parent] for s in tracer.spans],
        "missing": missing,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if req["oracle"]:
        t = time.perf_counter()
        sample["oracle"] = oracle_check(cfg, report.runs, req["seed"], req["yardstick"])
        sample["check_s"] = time.perf_counter() - t
    return sample


def main() -> int:
    req = json.loads(sys.argv[1])
    try:
        result = run_sample(req)
    except Exception as exc:  # the parent counts this sample as failed
        traceback.print_exc()
        result = {"error": f"{type(exc).__name__}: {exc}", "traced": req["traced"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
