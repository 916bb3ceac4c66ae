"""Span recorder that times calls into ebsolve from outside the package.

Public functions are wrapped where they are looked up (the module attribute
the caller resolves at call time), so the library itself stays untouched.
Every call becomes one span: name, start, end and the index of the span
that was open when it began.  Spans stay in memory; the caller writes them
out once the sample has finished.

Span names are ``<layer>.<what>``; the layer is the ebsolve module the
measured function belongs to, so a layer's self time is the sum over its
spans of the duration not covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module where the caller looks the name up, attribute, span name)
SOLVER_TARGETS = (
    ("ebsolve.cli", "richardson", "solvers.richardson"),
    ("ebsolve.cli", "chebyshev2", "solvers.cheb2"),
    ("ebsolve.cli", "chebyshev3", "solvers.cheb3"),
)

TRACE_TARGETS = (
    ("ebsolve.cli", "run_experiment", "cli.run_experiment"),
    ("ebsolve.cli", "build_unit_square_mesh", "mesh.build"),
    ("ebsolve.cli", "build_element_batch", "elements.batch"),
    ("ebsolve.cli", "constant_dirichlet", "operators.dirichlet"),
    ("ebsolve.cli", "operator_bounds", "spectrum.bounds"),
    ("ebsolve.spectrum", "power_iteration_lambda_max", "spectrum.power"),
    ("ebsolve.spectrum", "mass_gershgorin", "spectrum.gershgorin"),
    ("ebsolve.cli", "assemble_sparse", "reference.assemble"),
    ("ebsolve.cli", "assemble_rhs", "operators.rhs"),
    ("ebsolve.cli", "solve_reference", "reference.solve"),
    *SOLVER_TARGETS,
    ("ebsolve.solvers", "residual", "operators.residual"),
    ("ebsolve.solvers", "mask_dirichlet", "operators.mask"),
    ("ebsolve.cli", "export_history", "cli.export"),
    ("ebsolve.cli", "export_solution", "cli.export"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records nested spans for the functions it wraps (single thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, fn, name, on_result=None):
        """Return ``fn`` timed as span ``name``; ``on_result`` sees its return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx].end = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextmanager
    def installed(self, targets, on_result=None):
        """Wrap every target that exists; yields the names that could not be found.

        A module or attribute that no longer exists is skipped, so its span is
        simply absent.  ``on_result`` maps span names to result callbacks.
        Original attributes are restored on exit.
        """
        on_result = on_result or {}
        saved, missing = [], []
        for module_name, attr, name in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, on_result.get(name)))
        try:
            yield missing
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Sum of span self times per layer."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        out[s.layer] = out.get(s.layer, 0.0) + t
    return out


def durations(spans: list[Span], name: str) -> list[float]:
    return [s.end - s.start for s in spans if s.name == name]
