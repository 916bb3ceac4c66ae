import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from conftest import perturbed_mesh

from ebsolve import Mesh, SpectralBounds, build_unit_square_mesh
from ebsolve.operators import MAX_THREADS
from ebsolve.cli import (
    ITERATIVE_SOLVERS,
    ExperimentConfig,
    _validate,
    build_parser,
    export_history,
    export_solution,
    main,
    run_experiment,
)


def read_history(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.level == 5
    assert args.nu == 0.0
    assert args.iters == 124
    assert args.solver == "all"
    assert args.cycle_n == 32
    assert args.tol is None
    assert args.threads == 1
    assert args.out_dir is None
    assert args.compare_direct is False
    # solutions are written as CSV only: the former VTK switch is unknown
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--export-vtk"])
    assert exc.value.code == 2


def test_readme_flag_table_matches_the_parser():
    # one row per long option, its default as the parser's: "off" for
    # None/False, numbers as %g, strings bare (the table may quote them)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(--[\w-]+)[^`]*` \| ([^|]+) \|", readme, re.M)
    table = {flag: default.strip().strip("`") for flag, default in rows}
    parser = {}
    for action in build_parser()._actions:
        flag = max(action.option_strings, key=len, default="")
        if flag.startswith("--") and flag != "--help":
            d = action.default
            parser[flag] = ("off" if d is None or d is False
                            else f"{d:g}" if isinstance(d, (int, float)) else str(d))
    assert len(rows) == len(table)
    assert table == parser


def test_main_writes_expected_files(tmp_path, capsys):
    rc = main(["--level", "2", "--iters", "5", "--out-dir", str(tmp_path)])
    assert rc == 0
    for name in ("richardson", "cheb2", "cheb3"):
        assert (tmp_path / f"history_{name}.csv").exists()
        assert (tmp_path / f"solution_{name}.csv").exists()
    assert (tmp_path / "solution_direct.csv").exists()
    assert not (tmp_path / "history_direct.csv").exists()
    out = capsys.readouterr().out
    assert "level 2" in out
    assert "richardson" in out


def test_main_rejects_bad_level(capsys):
    assert main(["--level", "0"]) == 2
    assert main(["--level", "13"]) == 2
    err = capsys.readouterr().err
    assert "--level" in err


def test_main_refuses_a_direct_solve_above_level_10(monkeypatch, capsys):
    # refused before any mesh is built: the level-10 reference already
    # peaks at ~2.2 GB, and its memory grows ~4x per level
    import ebsolve.cli as cli

    def no_mesh(level):
        raise AssertionError(f"a level-{level} mesh was built")

    monkeypatch.setattr(cli, "build_unit_square_mesh", no_mesh)
    assert main(["--level", "11"]) == 2
    assert main(["--level", "11", "--solver", "direct"]) == 2
    assert main(["--level", "11", "--solver", "cheb3", "--compare-direct"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    for line in err:
        assert str(cli.MAX_DIRECT_UNKNOWNS) in line and "level 10" in line
        assert "iterative solver" in line and "--solver richardson, cheb2 or cheb3" in line
    for level in (11, 12):
        for solver in ITERATIVE_SOLVERS:
            assert _validate(ExperimentConfig(level=level, solver=solver)) == []
    for solver in ("direct", "all"):
        assert _validate(ExperimentConfig(level=10, solver=solver)) == []
        assert len(_validate(ExperimentConfig(level=12, solver=solver))) == 1
    assert _validate(ExperimentConfig(level=10, solver="cheb2", compare_direct=True)) == []


def test_main_rejects_cheb3_on_level1(capsys):
    assert main(["--level", "1", "--solver", "cheb3"]) == 2
    assert "cheb3" in capsys.readouterr().err
    # the other solvers are fine on level 1
    assert main(["--level", "1", "--solver", "richardson", "--iters", "5"]) == 0


def test_main_rejects_unknown_solver():
    with pytest.raises(SystemExit) as exc:
        main(["--solver", "sor"])
    assert exc.value.code == 2


def test_main_rejects_bad_numerics(capsys):
    assert main(["--iters", "-1"]) == 2
    assert main(["--nu", "-2"]) == 2
    assert main(["--cycle-n", "0"]) == 2
    assert main(["--threads", "0"]) == 2
    assert main(["--level", "2", "--tol", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 5


def test_main_rejects_too_many_threads(capsys):
    # rejected before any mesh or thread pool exists
    assert _validate(ExperimentConfig(threads=MAX_THREADS)) == []
    assert _validate(ExperimentConfig(threads=MAX_THREADS + 1))
    assert _validate(ExperimentConfig(threads=100_000))
    assert main(["--level", "2", "--iters", "1", "--solver", "richardson",
                 "--threads", "100000"]) == 2
    assert f"between 1 and {MAX_THREADS}" in capsys.readouterr().err


def test_main_rejects_a_cycle_length_above_the_cap(monkeypatch, capsys):
    # rejected before any mesh is built, so no root array is ever allocated
    import ebsolve.cli as cli

    def no_mesh(level):
        raise AssertionError(f"a level-{level} mesh was built")

    monkeypatch.setattr(cli, "build_unit_square_mesh", no_mesh)
    assert _validate(ExperimentConfig(cycle_n=cli.MAX_CYCLE_N)) == []
    assert _validate(ExperimentConfig(cycle_n=cli.MAX_CYCLE_N + 1))
    assert main(["--level", "2", "--solver", "cheb2",
                 "--cycle-n", "1000000000000"]) == 2
    assert f"between 1 and {cli.MAX_CYCLE_N}" in capsys.readouterr().err


def test_main_rejects_nonfinite_numerics(capsys):
    # nan passes a "< 0" check, and inf a "> 0" one
    assert main(["--level", "3", "--nu", "nan", "--solver", "direct"]) == 2
    assert main(["--level", "3", "--nu", "inf", "--solver", "cheb3"]) == 2
    assert main(["--level", "3", "--tol", "inf"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3
    assert "--nu" in err[0] and "--nu" in err[1] and "--tol" in err[2]


def test_main_rejects_an_out_dir_that_cannot_be_a_directory(monkeypatch, tmp_path, capsys):
    # refused before any mesh is built, not after the whole solve
    import ebsolve.cli as cli

    def no_mesh(level):
        raise AssertionError(f"a level-{level} mesh was built")

    monkeypatch.setattr(cli, "build_unit_square_mesh", no_mesh)
    taken = tmp_path / "taken"
    taken.write_text("")
    for path in (taken, taken / "sub"):
        assert main(["--level", "3", "--solver", "cheb3", "--out-dir", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out-dir") and str(path) in err
    assert taken.read_text() == ""


def test_run_experiment_validation_message():
    with pytest.raises(ValueError, match="cheb3"):
        run_experiment(ExperimentConfig(level=1))


def test_direct_only(tmp_path):
    rc = main(["--level", "2", "--solver", "direct", "--out-dir", str(tmp_path)])
    assert rc == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["solution_direct.csv"]


def test_zero_iterations(tmp_path):
    rc = main(["--level", "2", "--iters", "0", "--solver", "richardson",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    hist = read_history(tmp_path / "history_richardson.csv")
    assert hist.shape == (1, 2)
    assert hist[0, 0] == 0


def test_history_roundtrip_exact(tmp_path):
    cfg = ExperimentConfig(level=3, iters=10, solver="all", compare_direct=True,
                           out_dir=str(tmp_path))
    report = run_experiment(cfg)
    for name in ("richardson", "cheb2", "cheb3"):
        data = read_history(tmp_path / f"history_{name}.csv")
        hist = report.runs[name].history
        assert data.shape == (11, 3)
        npt.assert_array_equal(data[:, 0], np.arange(11))
        # 17 significant digits survive the text round trip bit for bit
        npt.assert_array_equal(data[:, 1], hist.residual_norms)
        npt.assert_array_equal(data[:, 2], hist.error_norms)
    header = (tmp_path / "history_cheb3.csv").read_text().splitlines()[0]
    assert header == "k,residual_norm,error_norm"


def test_history_without_reference_has_two_columns(tmp_path):
    run_experiment(ExperimentConfig(level=2, iters=3, solver="richardson",
                                    out_dir=str(tmp_path)))
    header = (tmp_path / "history_richardson.csv").read_text().splitlines()[0]
    assert header == "k,residual_norm"


def test_solution_roundtrip_exact(tmp_path):
    cfg = ExperimentConfig(level=2, iters=8, solver="cheb3", out_dir=str(tmp_path))
    report = run_experiment(cfg)
    mesh = build_unit_square_mesh(2)
    data = np.loadtxt(tmp_path / "solution_cheb3.csv", delimiter=",", skiprows=1)
    npt.assert_array_equal(data[:, :2], mesh.nodes)
    npt.assert_array_equal(data[:, 2], report.runs["cheb3"].x)


def test_same_config_same_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(["--level", "3", "--iters", "20", "--out-dir", str(out),
              "--compare-direct"])
    for pa in sorted(a.iterdir()):
        assert pa.read_bytes() == (b / pa.name).read_bytes()


def test_thread_count_does_not_change_output(tmp_path, monkeypatch):
    import ebsolve.cli as cli
    from ebsolve import elements, operators

    # blocks of 50 elements, so that the level-4 batch (512 elements) is
    # split across the threads too; every residual splits its 289 node rows
    # into one range per thread
    monkeypatch.setattr(elements, "GATHER_BLOCK", 50)
    batch_threads = []
    build = cli.build_element_batch

    def recording_build(*args, **kwargs):
        batch_threads.append(kwargs.get("threads"))
        return build(*args, **kwargs)

    residual_ranges = {}
    split = operators._split

    def recording_split(fn, n, threads):
        if not fn.__qualname__.startswith("residual."):
            return split(fn, n, threads)
        ranges = []

        def run(lo, hi):
            ranges.append((lo, hi))
            fn(lo, hi)

        split(run, n, threads)
        residual_ranges.setdefault(threads, set()).add(len(ranges))

    monkeypatch.setattr(cli, "build_element_batch", recording_build)
    monkeypatch.setattr(operators, "_split", recording_split)
    outs = {t: tmp_path / f"t{t}" for t in (1, 2, 3, 4)}
    for t, out in outs.items():
        main(["--level", "4", "--iters", "30", "--out-dir", str(out), "--threads", str(t)])
    assert batch_threads == list(outs)
    assert residual_ranges == {t: {t} for t in outs}
    names = sorted(p.name for p in outs[1].iterdir())
    for out in outs.values():
        assert names == sorted(p.name for p in out.iterdir())
        for name in names:
            assert (out / name).read_bytes() == (outs[1] / name).read_bytes()


def test_export_helpers_accept_str_paths(tmp_path):
    cfg = ExperimentConfig(level=1, iters=2, solver="richardson")
    report = run_experiment(cfg)
    mesh = build_unit_square_mesh(1)
    export_history(report.runs["richardson"].history, str(tmp_path / "h.csv"))
    export_solution(mesh, report.runs["richardson"].x, str(tmp_path / "s.csv"))
    assert read_history(tmp_path / "h.csv").shape == (3, 2)
    assert np.loadtxt(tmp_path / "s.csv", delimiter=",", skiprows=1).shape == (9, 3)


def per_node_csv(mesh, x):
    """The solution CSV formatted one row at a time, every value on its own."""
    rows = np.column_stack([mesh.nodes, x]).ravel().tolist()
    return "x,y,u\n" + "%.17g,%.17g,%.17g\n" * mesh.n_nodes % tuple(rows)


def test_solution_export_formats_each_row_as_the_per_node_formula(tmp_path):
    # each distinct coordinate is formatted once, by its bits: -0.0 keeps its
    # sign where 0.0 sits beside it, and repeated values share one string
    grid = build_unit_square_mesh(4)
    nodes = grid.nodes.copy()
    nodes[0] = (-0.0, 0.0)
    nodes[1, 1] = -0.0
    nodes[18] = nodes[17]
    signed = Mesh(nodes, grid.elements, grid.boundary_nodes)
    u = np.random.default_rng(5).standard_normal(grid.n_nodes)
    u[:3] = (-0.0, 1e-300, 123456789.0)
    for mesh in (grid, perturbed_mesh(4, 0.1, 9), signed):
        path = tmp_path / "s.csv"
        export_solution(mesh, u, path)
        assert path.read_text() == per_node_csv(mesh, u)
    assert path.read_text().splitlines()[1:3] == ["-0,0,-0", "0.0625,-0,1e-300"]


def test_solution_export_rejects_a_vector_of_another_length(tmp_path):
    mesh = build_unit_square_mesh(3)
    for bad in (np.zeros(80), np.zeros(82), np.zeros((81, 1))):
        with pytest.raises(ValueError, match=re.escape(f"shape {bad.shape}") + ".* 81 nodes"):
            export_solution(mesh, bad, tmp_path / "s.csv")
    assert not (tmp_path / "s.csv").exists()


def test_tol_stops_early(tmp_path):
    cfg = ExperimentConfig(level=2, iters=500, solver="cheb3", tol=1e-10,
                           out_dir=str(tmp_path))
    report = run_experiment(cfg)
    norms = report.runs["cheb3"].history.residual_norms
    assert len(norms) < 501
    assert norms[-1] <= 1e-10 * norms[0]


def test_divergence_exit_code(monkeypatch, capsys):
    import ebsolve.cli as cli

    monkeypatch.setattr(cli, "operator_bounds",
                        lambda *a, **k: SpectralBounds(1e-4, 2e-4))
    rc = main(["--level", "2", "--iters", "300"])
    assert rc == 3
    assert "DIVERGED" in capsys.readouterr().out


def test_report_contents():
    report = run_experiment(ExperimentConfig(level=2, iters=6, solver="all",
                                             compare_direct=True))
    assert report.n_nodes == 25
    assert report.n_elements == 32
    lam1, lam2 = report.bounds
    assert lam1 + lam2 == 8.0
    assert set(report.runs) == {"richardson", "cheb2", "cheb3", "direct"}
    for name in ("richardson", "cheb2", "cheb3"):
        run = report.runs[name]
        assert run.final_residual == run.history.residual_norms[-1]
        assert run.final_error == run.history.error_norms[-1]
        assert not run.diverged
    assert report.runs["direct"].history is None
    assert report.runs["direct"].final_error is None
    assert not report.any_diverged


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ebsolve.cli", "--level", "1", "--iters", "2",
         "--solver", "richardson", "--out-dir", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "history_richardson.csv").exists()


def test_package_entry_point_without_warnings():
    # `python -m ebsolve.cli` makes runpy warn that the package imported
    # ebsolve.cli first; `python -m ebsolve` runs the same main() cleanly
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ebsolve",
         "--level", "2", "--solver", "cheb3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "cheb3" in proc.stdout


def test_run_experiment_calls_through_module_attributes(monkeypatch, tmp_path):
    # perfbench's tracer times these calls by wrapping the module attributes
    # the callers look up, and measures setup up to the first solver call; a
    # caller that bound them any other way would drop out of its spans
    import ebsolve.cli as cli
    import ebsolve.solvers as solvers

    calls, results = [], {}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            result = fn(*args, **kwargs)
            results[name] = result
            return result

        monkeypatch.setattr(module, name, wrapper)

    setup = ("build_unit_square_mesh", "build_element_batch", "constant_dirichlet",
             "operator_bounds", "solve_reference")
    solver_names = ("richardson", "chebyshev2", "chebyshev3")
    for name in setup + solver_names:
        counting(cli, name)
    for name in ("export_history", "export_solution"):
        counting(cli, name)
    for name in ("residual", "mask_dirichlet"):
        counting(solvers, name)

    seen = []
    original_cheb3 = cli.chebyshev3

    def cheb3_seeing_bounds(batch, d, x0, bounds, *args, **kwargs):
        seen.append(bounds)
        return original_cheb3(batch, d, x0, bounds, *args, **kwargs)

    monkeypatch.setattr(cli, "chebyshev3", cheb3_seeing_bounds)
    solved_rhs = []
    original_solve = cli.solve_reference

    def solve_recording_rhs(A, b, d):
        solved_rhs.append(b)
        return original_solve(A, b, d)

    monkeypatch.setattr(cli, "solve_reference", solve_recording_rhs)
    report = run_experiment(ExperimentConfig(level=3, iters=4, solver="all",
                                             compare_direct=True, out_dir=str(tmp_path)))
    for name in setup + solver_names:
        assert calls.count(name) == 1, name
    assert calls.count("export_history") == 3
    assert calls.count("export_solution") == 4
    assert calls.count("residual") == 3 * 5
    assert calls.count("mask_dirichlet") == 3 * 5
    # cheb3 steps with the interval that the looked-up operator_bounds returned
    assert seen == [results["operator_bounds"]]
    assert report.bounds == (seen[0].lambda1, seen[0].lambda2)
    # setup comes before any solver, and no residual runs before the first
    first_solver = calls.index("richardson")
    assert max(calls.index(name) for name in setup) < first_solver
    assert first_solver < calls.index("residual")
    assert calls.index("chebyshev3") < calls.index("export_history")
    # the load is assembled once, by the batch, and the direct solve reads it
    assert not hasattr(cli, "assemble_rhs")
    assert len(solved_rhs) == 1
    assert solved_rhs[0] is results["build_element_batch"].b


def test_every_solver_starts_from_a_read_only_broadcast_of_the_boundary_value(monkeypatch):
    import ebsolve.cli as cli

    calls = []
    for name in ("richardson", "chebyshev2", "chebyshev3"):
        def recording(batch, d, x0, *args, fn=getattr(cli, name), **kwargs):
            calls.append((fn, batch, d, x0, args, kwargs))
            return fn(batch, d, x0, *args, **kwargs)

        monkeypatch.setattr(cli, name, recording)
    report = run_experiment(ExperimentConfig(level=4, iters=30, solver="all",
                                             compare_direct=True))
    runs = [report.runs[name] for name in ("richardson", "cheb2", "cheb3")]
    for run, (fn, batch, d, x0, args, kwargs) in zip(runs, calls, strict=True):
        assert x0.shape == (report.n_nodes,) and not x0.flags.writeable
        assert np.all(x0 == cli.BOUNDARY_VALUE)
        _, ref = fn(batch, d, np.full(report.n_nodes, cli.BOUNDARY_VALUE), *args, **kwargs)
        assert run.history.residual_norms.tobytes() == ref.residual_norms.tobytes()
        assert run.history.error_norms.tobytes() == ref.error_norms.tobytes()
        assert run.x.flags.writeable
        assert not np.shares_memory(run.x, x0)


@pytest.mark.parametrize("export", [False, True])
def test_mesh_is_kept_only_for_an_export(monkeypatch, tmp_path, export):
    # the batch holds the connectivity; without an export the mesh, and with
    # it the coordinates (16.8 MB at level 10), is freed before the solve
    import gc
    import weakref

    import ebsolve.cli as cli

    meshes, alive = [], []
    build, solve = cli.build_unit_square_mesh, cli.chebyshev3

    def recording_build(level):
        mesh = build(level)
        meshes.append(weakref.ref(mesh))
        return mesh

    def checking_solve(*args, **kwargs):
        gc.collect()
        alive.append(meshes[0]() is not None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "build_unit_square_mesh", recording_build)
    monkeypatch.setattr(cli, "chebyshev3", checking_solve)
    run_experiment(ExperimentConfig(level=3, iters=4, solver="cheb3",
                                    out_dir=str(tmp_path) if export else None))
    assert alive == [export]


def test_run_experiment_never_reads_the_element_matrices_back(monkeypatch):
    # the direct oracle is the node rows' own sum: nothing on the run path
    # rebuilds A_e in element order (batch.A_e, NodeRows.read)
    from ebsolve.operators import NodeRows

    def refuse(*args, **kwargs):
        raise AssertionError("NodeRows.read called on the run path")

    monkeypatch.setattr(NodeRows, "read", refuse)
    report = run_experiment(ExperimentConfig(level=4, solver="all", compare_direct=True))
    assert list(report.runs) == ["richardson", "cheb2", "cheb3", "direct"]
    assert all(report.runs[name].final_error is not None
               for name in ("richardson", "cheb2", "cheb3"))


def test_assembled_matrix_is_freed_before_the_factorization(monkeypatch):
    # run_experiment hands the matrix the node rows assemble to
    # solve_reference without keeping it, and solve_reference drops it,
    # A[free] and the unpermuted Aff before SuperLU allocates its factors
    import gc
    import weakref

    import scipy.sparse.linalg

    import ebsolve.cli as cli
    from ebsolve.operators import NodeRows

    assembled, alive = [], []
    assemble, spsolve, solve = NodeRows.assemble, scipy.sparse.linalg.spsolve, cli.richardson

    def recording_assemble(*args, **kwargs):
        A = assemble(*args, **kwargs)
        assembled.append(weakref.ref(A))
        return A

    def checking(fn, where):
        def wrapper(*args, **kwargs):
            gc.collect()
            alive.append((where, assembled[0]() is not None))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(NodeRows, "assemble", recording_assemble)
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", checking(spsolve, "spsolve"))
    monkeypatch.setattr(cli, "richardson", checking(solve, "solver"))
    run_experiment(ExperimentConfig(level=3, iters=4, solver="all", compare_direct=True))
    assert alive == [("spsolve", False), ("solver", False)]
