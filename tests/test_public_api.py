"""The surface that the benchmark harness and README's "Library use" rely on.

The suite collects ``perfbench/test_perfbench.py`` too (``testpaths``), but
those self-tests run the harness on small configurations only; the
benchmark's own samples run outside the suite, so a trimmed export or a
renamed attribute used only there would show up as failed samples.  These
tests pin that surface here.
"""

import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path

import pytest

import ebsolve
import ebsolve.cli

ROOT = Path(__file__).resolve().parents[1]
HARNESS_MODULES = ("run", "gate", "tracer")


@pytest.fixture
def perfbench(monkeypatch):
    """``perfbench/run.py`` and ``tracer.py``, imported the way the harness does."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    for name in HARNESS_MODULES:
        sys.modules.pop(name, None)
    yield importlib.import_module("run"), importlib.import_module("tracer")
    for name in HARNESS_MODULES:
        sys.modules.pop(name, None)


def test_harness_oracle_imports():
    # the names perfbench/child.py imports for its assembled-oracle check
    from ebsolve import (assemble_rhs, assemble_sparse, build_element_batch,
                         build_unit_square_mesh, constant_dirichlet)
    from ebsolve.cli import BOUNDARY_VALUE

    mesh = build_unit_square_mesh(2)
    d = constant_dirichlet(mesh, BOUNDARY_VALUE)
    batch = build_element_batch(mesh, nu=1.0)
    A = assemble_sparse(batch.A_e, batch.index.indt)
    b = assemble_rhs(batch.b_e, batch.index.indt)
    assert A.shape == (mesh.n_nodes, mesh.n_nodes)
    assert b.shape == (mesh.n_nodes,)
    assert d.nd.size == 16
    # the oracle's load, assembled from the derived local loads, is the
    # batch's own, bitwise, at the workloads' nu
    mesh = build_unit_square_mesh(4)
    for nu in (0.0, 100.0):
        batch = build_element_batch(mesh, nu=nu)
        b = assemble_rhs(batch.b_e, batch.index.indt)
        assert b.tobytes() == batch.b.tobytes(), nu


def test_every_workload_config_is_valid(perfbench):
    run, _ = perfbench
    assert set(run.WORKLOADS) == {"default-l8", "stream-l10", "reaction-tol-l8"}
    for name, workload in run.WORKLOADS.items():
        cfg = ebsolve.cli.ExperimentConfig(**workload["config"])
        assert ebsolve.cli._validate(cfg) == [], name


# Traced attributes the library no longer calls: the batch assembles the
# load once (``ElementBatch.b``, inside the ``elements.batch`` span), so the
# CLI's direct path has no ``assemble_rhs`` call for ``operators.rhs`` to
# time; and the run's direct oracle is the node rows' own sum
# (``NodeRows.assemble``), so there is no ``assemble_sparse`` call for
# ``reference.assemble`` to time either.
RETIRED_TARGETS = {("ebsolve.cli", "assemble_rhs"), ("ebsolve.cli", "assemble_sparse")}


def test_traced_attributes_exist(perfbench):
    # the tracer wraps these module attributes; one that is gone reads as 0
    _, tracer = perfbench
    for module_name, attr, _ in tracer.TRACE_TARGETS:
        if module_name in ("ebsolve.cli", "ebsolve.solvers"):
            module = importlib.import_module(module_name)
            found = callable(getattr(module, attr, None))
            # a retired target is really gone, so the tracer reports it missing
            assert found != ((module_name, attr) in RETIRED_TARGETS), f"{module_name}.{attr}"


def test_every_export_resolves():
    assert len(set(ebsolve.__all__)) == len(ebsolve.__all__)
    for name in ebsolve.__all__:
        assert hasattr(ebsolve, name), name


def test_readme_library_use_runs(capsys):
    section = (ROOT / "README.md").read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    ratio = float(capsys.readouterr().out)
    assert 0.0 < ratio < 1e-3


PACKAGE_MODULES = sorted(p.stem for p in (ROOT / "src" / "ebsolve").glob("*.py")
                         if not p.stem.startswith("_"))
# ``module.name`` or ``ElementBatch.name``/``batch.name`` inside a backticked
# span, not preceded by another dotted part (``ebsolve.cli.x`` is skipped)
QUALIFIED = re.compile(r"(?<![\w.])(\w+)\.([A-Za-z_]\w*)")


def cited_names(text):
    """(owner, name) for each qualified name in ``text``'s backticked spans.

    Fenced code blocks are skipped: their ``mesh`` and ``batch`` are variables.
    """
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    for span in re.findall(r"`([^`]+)`", text):
        for owner, name in QUALIFIED.findall(span):
            if owner in PACKAGE_MODULES or owner in ("ElementBatch", "batch"):
                yield owner, name


def docstrings(path):
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node)
            if doc:
                yield doc


def test_every_qualified_name_the_docs_cite_resolves():
    # a deleted or moved attribute must not leave its name in README or in a
    # docstring; ``mesh.py`` names a file, not an attribute
    batch_names = {f.name for f in dataclasses.fields(ebsolve.ElementBatch)}
    sources = {"README.md": [(ROOT / "README.md").read_text()]}
    for path in sorted((ROOT / "src" / "ebsolve").glob("*.py")):
        sources[path.name] = list(docstrings(path))
    stale = []
    for source, texts in sources.items():
        for text in texts:
            for owner, name in cited_names(text):
                if owner in PACKAGE_MODULES:
                    found = name == "py" or hasattr(
                        importlib.import_module(f"ebsolve.{owner}"), name)
                else:
                    found = name in batch_names or hasattr(ebsolve.ElementBatch, name)
                if not found:
                    stale.append(f"{source}: {owner}.{name}")
    assert stale == [], "\n".join(stale)
    # the scan sees both kinds of source
    assert ("operators", "NodeRows") in set(cited_names(sources["README.md"][0]))
    assert any(("operators", "MAX_THREADS") in set(cited_names(doc))
               for doc in sources["elements.py"])
