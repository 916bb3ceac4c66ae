"""Benchmark driver: the unit-square experiment behind the library.

Solves -Laplace(u) + nu*u = 1 with u = 1 on the boundary, at a chosen
refinement level, with any of the three matrix-free iterations and/or the
assembled direct solver, and writes convergence histories and solution
fields.  Every solver starts from the same initial guess: the boundary
value extended as a constant over the whole domain (x0 = 1 everywhere), a
conforming start whose error is dominated by the smoothest mode.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .elements import build_element_batch
from .mesh import MAX_LEVEL, Mesh, build_unit_square_mesh
from .operators import MAX_THREADS, constant_dirichlet
from .reference import MAX_DIRECT_UNKNOWNS, assemble_sparse, solve_reference
from .solvers import ConvergenceHistory, chebyshev2, chebyshev3, richardson
from .spectrum import operator_bounds

ITERATIVE_SOLVERS = ("richardson", "cheb2", "cheb3")
SOLVER_CHOICES = ITERATIVE_SOLVERS + ("direct", "all")

BOUNDARY_VALUE = 1.0

# cheb2 holds its N roots as one float64 array: 2**20 roots are 8 MB, and a
# mistyped --cycle-n far above that would fail allocating them only after
# the whole problem is built
MAX_CYCLE_N = 2**20


@dataclass
class ExperimentConfig:
    level: int = 5
    nu: float = 0.0
    iters: int = 124
    solver: str = "all"
    cycle_n: int = 32
    tol: float | None = None
    threads: int = 1
    out_dir: str | None = None
    compare_direct: bool = False

    def __post_init__(self):
        # a run with a direct solve loads SuperLU's modules (~0.15 s) here,
        # with its configuration, as importing ebsolve once did for every
        # run; a run without one never loads them (~11 MB)
        if _needs_reference(self):
            importlib.import_module("scipy.sparse.linalg")


@dataclass
class SolverRun:
    """One solver's result; the direct run has no history."""

    x: np.ndarray
    history: ConvergenceHistory | None
    wall_time: float

    @property
    def final_residual(self) -> float | None:
        return None if self.history is None else float(self.history.residual_norms[-1])

    @property
    def final_error(self) -> float | None:
        errors = None if self.history is None else self.history.error_norms
        return None if errors is None else float(errors[-1])

    @property
    def diverged(self) -> bool:
        return self.history is not None and self.history.diverged


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    n_nodes: int
    n_elements: int
    bounds: tuple[float, float] | None
    runs: dict[str, SolverRun] = field(default_factory=dict)

    @property
    def any_diverged(self) -> bool:
        return any(run.diverged for run in self.runs.values())


def _validate(cfg: ExperimentConfig) -> list[str]:
    solvers = _requested_solvers(cfg.solver)
    problems = []
    if not 1 <= cfg.level <= MAX_LEVEL:
        problems.append(
            f"--level must be between 1 and {MAX_LEVEL} (got {cfg.level}); "
            "level 0 has no interior nodes to solve for"
        )
    elif _needs_reference(cfg) and (2**cfg.level - 1) ** 2 > MAX_DIRECT_UNKNOWNS:
        problems.append(f"--solver direct or all and --compare-direct are limited to "
                        f"{MAX_DIRECT_UNKNOWNS} free nodes (level 10); at level {cfg.level}, "
                        "use an iterative solver (--solver richardson, cheb2 or cheb3) alone")
    if cfg.iters < 0:
        problems.append(f"--iters must be nonnegative (got {cfg.iters})")
    if not (np.isfinite(cfg.nu) and cfg.nu >= 0):
        problems.append(f"--nu must be finite and nonnegative (got {cfg.nu})")
    if not 1 <= cfg.cycle_n <= MAX_CYCLE_N:
        problems.append(f"--cycle-n must be between 1 and {MAX_CYCLE_N} (got {cfg.cycle_n})")
    if not 1 <= cfg.threads <= MAX_THREADS:
        problems.append(f"--threads must be between 1 and {MAX_THREADS} (got {cfg.threads})")
    if cfg.tol is not None and not (np.isfinite(cfg.tol) and cfg.tol > 0):
        problems.append(f"--tol must be finite and positive (got {cfg.tol})")
    if cfg.solver not in SOLVER_CHOICES:
        problems.append(f"unknown solver {cfg.solver!r}; choose from {SOLVER_CHOICES}")
    if "cheb3" in solvers and cfg.level == 1 and cfg.nu == 0:
        problems.append(
            "cheb3 needs distinct spectral bounds, but level 1 has a single "
            "interior node (lambda1 = lambda2); use --level 2 or higher, or "
            "drop cheb3 via --solver"
        )
    return problems


def _needs_reference(cfg: ExperimentConfig) -> bool:
    return cfg.compare_direct or cfg.solver in ("direct", "all")


def _requested_solvers(choice: str) -> list[str]:
    if choice == "all":
        return list(ITERATIVE_SOLVERS)
    if choice == "direct":
        return []
    return [choice]


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Build the problem, run the requested solvers, export, summarize."""
    problems = _validate(cfg)
    if problems:
        raise ValueError("; ".join(problems))

    mesh = build_unit_square_mesh(cfg.level)
    batch = build_element_batch(mesh, nu=cfg.nu, threads=cfg.threads)
    dirichlet = constant_dirichlet(mesh, BOUNDARY_VALUE)
    report = ExperimentReport(config=cfg, n_nodes=mesh.n_nodes, n_elements=mesh.n_elements,
                              bounds=None)
    # the batch holds the connectivity; only an export needs the coordinates
    # again (16.8 MB at level 10)
    if cfg.out_dir is None:
        mesh = None
    solvers = _requested_solvers(cfg.solver)

    bounds = None
    if solvers:
        bounds = operator_bounds(batch, dirichlet)
        report.bounds = (bounds.lambda1, bounds.lambda2)

    reference = None
    ref_time = 0.0
    if _needs_reference(cfg):
        t0 = time.perf_counter()
        # the assembled matrix is handed over, not kept: solve_reference frees
        # it before it factorizes, and nothing after the reference reads it
        reference = solve_reference(
            assemble_sparse(batch.A_e, batch.index.indt, n_nodes=batch.index.n_nodes),
            batch.b, dirichlet)
        ref_time = time.perf_counter() - t0

    # every solver copies x0 into its own iterate, so one read-only
    # broadcast serves them all without an n_nodes vector of its own
    x0 = np.broadcast_to(BOUNDARY_VALUE, report.n_nodes)
    common = dict(
        tol=cfg.tol,
        reference=reference if cfg.compare_direct else None,
    )
    for name in solvers:
        if name == "richardson":
            x, hist = richardson(batch, dirichlet, x0, bounds, cfg.iters, **common)
        elif name == "cheb2":
            x, hist = chebyshev2(batch, dirichlet, x0, bounds, cfg.cycle_n,
                                 cfg.iters, **common)
        else:
            x, hist = chebyshev3(batch, dirichlet, x0, bounds, cfg.iters, **common)
        report.runs[name] = SolverRun(x=x, history=hist, wall_time=hist.wall_time)

    if cfg.solver in ("direct", "all"):
        report.runs["direct"] = SolverRun(x=reference, history=None, wall_time=ref_time)

    if cfg.out_dir is not None:
        _export_all(cfg, mesh, report)
    return report


def _export_all(cfg: ExperimentConfig, mesh: Mesh, report: ExperimentReport) -> None:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, run in report.runs.items():
        if run.history is not None:
            export_history(run.history, out / f"history_{name}.csv")
        export_solution(mesh, run.x, out / f"solution_{name}.csv")


def export_history(history: ConvergenceHistory, path) -> None:
    """Write `k,residual_norm[,error_norm]` rows with 17 significant digits."""
    with_errors = history.error_norms is not None
    lines = ["k,residual_norm,error_norm" if with_errors else "k,residual_norm"]
    for k, rn in enumerate(history.residual_norms):
        row = f"{k},{rn:.17g}"
        if with_errors:
            row += f",{history.error_norms[k]:.17g}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n")


def export_solution(mesh: Mesh, x: np.ndarray, path) -> None:
    """Nodal solution as `x,y,u` CSV rows with 17 significant digits.

    Each distinct coordinate, told apart by its bits so that -0.0 still
    reads ``-0``, is formatted once; the rows' ``x,y,`` prefixes then make
    the template that one ``%`` pass fills with ``u``.  ``x`` must hold one
    value per node, else ``ValueError``.
    """
    n = mesh.n_nodes
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, but the mesh has {n} nodes, "
                         f"so it needs shape ({n},)")
    bits, where = np.unique(mesh.nodes.view(np.uint64), return_inverse=True)
    coords = np.array(["%.17g" % c for c in bits.view(np.float64).tolist()], dtype=object)
    template = "%s,%s,%%.17g\n" * n % tuple(coords[where.ravel()].tolist())
    Path(path).write_text("x,y,u\n" + template % tuple(x.tolist()))


def _print_report(report: ExperimentReport) -> None:
    cfg = report.config
    print(f"level {cfg.level}: {report.n_nodes} nodes, {report.n_elements} elements, "
          f"nu={cfg.nu:g}, iters={cfg.iters}")
    if report.bounds is not None:
        print(f"spectral bounds: [{report.bounds[0]:.7g}, {report.bounds[1]:.7g}]")
    for name, run in report.runs.items():
        if run.history is None:
            print(f"  {name:10s} wall {run.wall_time:8.3f}s  (assembled direct solve)")
            continue
        status = "DIVERGED" if run.diverged else "ok"
        line = (f"  {name:10s} wall {run.wall_time:8.3f}s  "
                f"||r||: {run.history.residual_norms[0]:.3e} -> "
                f"{run.final_residual:.3e}  [{status}]")
        if run.final_error is not None:
            e0 = run.history.error_norms[0]
            ratio = run.final_error / e0 if e0 > 0 else 0.0
            line += f"  ||x-u||/||e0||: {ratio:.3e}"
        print(line)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ebsolve",
        description="Matrix-free P1 benchmark: -Laplace(u) + nu*u = 1 on the "
                    "unit square, u = 1 on the boundary.",
    )
    defaults = ExperimentConfig()
    p.add_argument("--level", type=int, default=defaults.level,
                   help="refinement level L, (2^L+1)^2 nodes (default %(default)s)")
    p.add_argument("--nu", type=float, default=defaults.nu,
                   help="reaction coefficient nu >= 0 (default %(default)s)")
    p.add_argument("--iters", type=int, default=defaults.iters,
                   help="iteration budget (default %(default)s)")
    p.add_argument("--solver", choices=SOLVER_CHOICES, default=defaults.solver,
                   help="solver(s) to run; direct and all at level <= 10 (default %(default)s)")
    p.add_argument("--cycle-n", type=int, default=defaults.cycle_n,
                   help=f"two-level Chebyshev cycle length N, at most {MAX_CYCLE_N} "
                        "(default %(default)s)")
    p.add_argument("--tol", type=float, default=defaults.tol,
                   help="optional early stop at ||r^k|| <= tol*||r^0||")
    p.add_argument("--threads", type=int, default=defaults.threads,
                   help="worker threads for the element batch and the residual kernel, "
                        f"at most {MAX_THREADS} (default %(default)s)")
    p.add_argument("--out-dir", default=defaults.out_dir,
                   help="directory for history/solution exports")
    p.add_argument("--compare-direct", action="store_true",
                   default=defaults.compare_direct,
                   help="also solve the assembled system (level <= 10) and record error norms")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = ExperimentConfig(**vars(args))
    try:
        report = run_experiment(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(report)
    return 3 if report.any_diverged else 0


if __name__ == "__main__":
    sys.exit(main())
