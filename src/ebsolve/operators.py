"""Matrix-free residual evaluation and Dirichlet handling.

The global system matrix is never formed here.  A residual is computed
element by element,

    r = sum_e scatter( b_e - A_e * x[indt] ),

in scipy's compiled CSR matrix-vector loop, node block by node block.  For
each local row i the element operator is a CSR matrix with one row per
element (data ``A_e[i, :, e]``, columns element e's nodes, see
``IndexArrays``); its product with x is the gather and the local 3x3
product in one pass.  For each block of ``mesh.SCATTER_BLOCK`` node rows,
``residual`` computes the local residuals of the block's element window
into a per-thread buffer of 3*W doubles (~1.6 MB at level 10), then sums
the block's rows from it with the index array's ``ScatterPlan`` (MATLAB's
``accumarray``; it holds connectivity only, so the system matrix is still
never formed).  No (3, n_e) array of element residuals is ever stored, and
every pass runs on zero-copy slices of the stored arrays.  ``residual`` is
the only implementation of this operator, and the blocked pass in
``_scatter_blocks`` the only node-row scatter: ``scatter`` (and through it
``mass_bounds``) fills the windows from its own (3, n_e) input.  Global
vectors are 1-D float64 of length n_n.

A call without a ``Workspace`` allocates its result.  A solve allocates
one ``Workspace`` and passes it to every step's ``residual`` call, which
then overwrites the same vector; the arithmetic, and so every bit of the
result, is the same.

Dirichlet conditions are enforced by masking: residual entries at
constrained nodes are zeroed every iteration, so a conforming iterate never
moves off its prescribed boundary values.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache

import numpy as np
import numpy.typing as npt
from scipy.sparse._sparsetools import csr_matvec

from .elements import ElementBatch
from .mesh import MAX_THREADS, IndexArrays, Mesh, as_index_array


@dataclass(frozen=True)
class DirichletData:
    """Constrained node indices (sorted, unique, nonnegative) and their prescribed values.

    The upper end depends on the mesh: the solvers and ``solve_reference``
    check it with ``check_nodes``.
    """

    nd: npt.NDArray[np.int64]
    values: npt.NDArray[np.float64]

    def __post_init__(self):
        nd = as_index_array(self.nd, "nd").astype(np.int64, copy=False)
        values = np.asarray(self.values, dtype=np.float64)
        if nd.ndim != 1 or values.shape != nd.shape:
            raise ValueError("nd and values must be 1-D arrays of equal length")
        order = np.argsort(nd)
        nd = nd[order]
        if nd.size and nd[0] < 0:
            raise ValueError(f"constrained node indices must be nonnegative, got {nd[0]}")
        if np.any(np.diff(nd) == 0):
            raise ValueError("duplicate constrained node indices")
        values = values[order]
        nd.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "nd", nd)
        object.__setattr__(self, "values", values)

    def check_nodes(self, n_nodes: int) -> None:
        """Reject constrained nodes that a system with ``n_nodes`` nodes lacks."""
        if self.nd.size and self.nd[-1] >= n_nodes:
            raise ValueError(
                f"constrained node {self.nd[-1]} is out of range for {n_nodes} nodes"
            )


def constant_dirichlet(m: Mesh, value: float = 1.0) -> DirichletData:
    """Constrain every boundary node of the mesh to a single value."""
    nd = m.boundary_nodes
    return DirichletData(nd, np.full(nd.shape, float(value)))


def node_count(indt: np.ndarray, n_nodes: int | None) -> int:
    """Node count of a system assembled over ``indt``.

    ``n_nodes`` when given (it must cover every node ``indt`` references),
    else one more than the largest referenced node.  The default misses
    nodes after the last referenced one, which no element references; pass
    the mesh's count to keep them.
    """
    referenced = int(indt.max()) + 1 if indt.size else 0
    if n_nodes is None:
        return referenced
    if n_nodes < referenced:
        raise ValueError(f"indt references node {referenced - 1}, "
                         f"out of range for {n_nodes} nodes")
    return n_nodes


def assemble_rhs(b_e: np.ndarray, indt: np.ndarray,
                 n_nodes: int | None = None) -> npt.NDArray[np.float64]:
    """Scatter-add local loads into the global right-hand side (see ``node_count``)."""
    if b_e.shape != indt.shape:
        raise ValueError(f"shape mismatch: b_e {b_e.shape} vs indt {indt.shape}")
    return np.bincount(indt.ravel(), weights=b_e.ravel(),
                       minlength=node_count(indt, n_nodes))


class NonFiniteError(ValueError):
    """``residual`` was given an x with a NaN or an infinite entry."""


@dataclass(frozen=True)
class Workspace:
    """The length-n_n result ``r`` that one ``residual`` call writes.

    ``residual(batch, x, work=w)`` overwrites it and returns ``w.r``, so a
    solve that passes one workspace to every step allocates it once.
    """

    r: npt.NDArray[np.float64]

    @classmethod
    def for_batch(cls, batch: ElementBatch) -> Workspace:
        return cls(np.empty(batch.index.n_nodes))


def _buffer(a: np.ndarray | None, shape: tuple, name: str) -> npt.NDArray[np.float64]:
    """``a`` checked as an output the compiled loops can write in place, or a new array."""
    if a is None:
        return np.empty(shape)
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape
            and a.flags.c_contiguous and a.flags.writeable):
        raise ValueError(f"{name} must be a writeable C-contiguous float64 array "
                         f"of shape {shape}")
    return a


@cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """One long-lived pool per size, shared by every residual and scatter call."""
    return ThreadPoolExecutor(max_workers=workers)


def _split(fn, n: int, threads: int) -> None:
    """fn(lo, hi) on ``threads`` contiguous ranges covering 0..n.

    The first range runs on the calling thread, the others on the pool.
    ``threads`` outside 1..MAX_THREADS raises before any pool is built.
    """
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be between 1 and {MAX_THREADS}, got {threads}")
    threads = min(threads, max(n, 1))
    bounds = [n * k // threads for k in range(threads + 1)]
    futures = [_pool(threads - 1).submit(fn, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    fn(bounds[0], bounds[1])
    for f in futures:
        f.result()


def _scatter_blocks(index: IndexArrays, fill, threads: int,
                    r: np.ndarray) -> npt.NDArray[np.float64]:
    """The node-row scatter: r[a:b] for every block of ``index.scatter_plan``.

    ``fill(window, elo, ehi)`` writes the (3, W) local values of elements
    [elo, ehi) into ``window``, a slice of one buffer per thread.  Then
    ``csr_matvec(n_row, n_col, indptr, indices, data, x, y)``, the loop
    behind ``csr_matrix @ x``, which adds row k's products to ``y[k]`` left
    to right and releases the GIL, sums the block's rows from the window
    with the plan's rebased pointer, window positions and shared ones.
    Contiguous ranges of blocks run on ``threads`` workers of one
    long-lived pool.  Row n adds node n's values in ``indt.ravel()`` order,
    as ``np.bincount`` does, so the result is bitwise independent of
    ``threads`` and of the block size; nodes that no element references
    get 0.
    """
    plan = index.scatter_plan

    def run(k0, k1):
        buf = np.empty(3 * plan.window)
        for a, b, elo, ehi, indptr, indices in plan.blocks[k0:k1]:
            window = buf[:3 * (ehi - elo)]
            fill(window.reshape(3, ehi - elo), elo, ehi)
            rows = r[a:b]
            rows.fill(0.0)
            csr_matvec(b - a, window.size, indptr, indices, plan.ones, window, rows)

    _split(run, len(plan.blocks), threads)
    return r


def scatter(index: IndexArrays, local: np.ndarray, threads: int = 1,
            out: np.ndarray | None = None) -> npt.NDArray[np.float64]:
    """Sum the (3, n_e) local contributions into a global vector of length n_nodes.

    The sum is written into ``out`` (a writeable C-contiguous float64 vector
    of length n_nodes, overwritten and returned) or into a new vector.  Each
    block's window is copied from ``local``, which may be any (3, n_e)
    array, a broadcast view included: only a one-block plan copies it
    whole.  For any ``threads`` the result is bitwise equal to
    ``np.bincount(indt.ravel(), local.ravel(), minlength=n_nodes)``.
    """
    if local.shape != index.indt.shape:
        raise ValueError(f"shape mismatch: local {local.shape} vs indt {index.indt.shape}")
    r = _buffer(out, (index.n_nodes,), "out")
    if np.may_share_memory(local, r):
        raise ValueError("out overlaps local")

    def copy_window(window, elo, ehi):
        np.copyto(window, local[:, elo:ehi])

    return _scatter_blocks(index, copy_window, threads, r)


def residual(batch: ElementBatch, x: np.ndarray, threads: int = 1,
             work: Workspace | None = None) -> npt.NDArray[np.float64]:
    """r = b - A x without forming A, into ``work.r`` when a workspace is given.

    Node block by node block (see ``_scatter_blocks``): for each local row
    i, zero the window's row, add the element operator's products with
    ``csr_matvec`` on the zero-copy row slice ``indptr[elo:ehi+1]``, then
    ``b_e - .``; then sum the block's node rows from the window.  Every
    element's and every node's arithmetic is self-contained and in fixed
    order, so the result is bitwise independent of ``threads`` and equal to
    ``scatter(index, b_e - A_e x[indt])``.  An element whose nodes lie in
    two blocks is computed once for each.

    An ``x`` with a NaN or an infinite entry raises ``NonFiniteError``, a
    ``ValueError``.  Without ``work`` the result is a new vector; with it,
    ``work.r`` (shaped for this batch, see ``Workspace``) is overwritten,
    and the result is the same bit for bit.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    index = batch.index
    n_n = index.n_nodes
    if x.shape != (n_n,):
        raise ValueError(f"x must be a flat global vector of length {n_n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("x contains non-finite entries")
    r = _buffer(None if work is None else work.r, (n_n,), "work.r")
    if np.may_share_memory(x, r):
        raise ValueError("x overlaps work.r")
    data = batch.A_e.transpose(0, 2, 1).reshape(3, -1)  # a view
    cols, ptr, b_e = index.columns, index.indptr, batch.b_e

    def local_residuals(window, elo, ehi):
        for i in range(3):
            out = window[i]
            out.fill(0.0)
            csr_matvec(ehi - elo, n_n, ptr[elo:ehi + 1], cols, data[i], x, out)
            np.subtract(b_e[i, elo:ehi], out, out=out)

    return _scatter_blocks(index, local_residuals, threads, r)


def mask_dirichlet(r: np.ndarray, d: DirichletData) -> npt.NDArray[np.float64]:
    """Zero the residual at constrained nodes, in place; returns ``r``."""
    r[d.nd] = 0.0
    return r
