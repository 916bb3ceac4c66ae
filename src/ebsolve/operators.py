"""Matrix-free residual evaluation and Dirichlet handling.

The global system matrix is never formed here.  A residual is computed
element by element,

    r = sum_e scatter( b_e - A_e * x[indt] ),

in two passes of scipy's compiled CSR matrix-vector loop.  For each local
row i the element operator is a CSR matrix with one row per element (data
``A_e[i, :, e]``, columns element e's nodes, see ``IndexArrays``); its
product with x is the gather and the local 3x3 product in one pass.  The
index array's precomputed 0/1 scatter matrix then sums all local
contributions (the counterpart of MATLAB's ``accumarray``; it holds
connectivity only, so the system matrix is still never formed).  Both
passes run on zero-copy slices of the stored arrays.  ``residual`` is the
only implementation of this operator.  Global vectors are plain 1-D
float64 ndarrays of length n_n.

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
from .mesh import Mesh, as_index_array


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
        if nd.size and nd.min() < 0:
            raise ValueError(f"constrained node indices must be nonnegative, got {nd.min()}")
        if nd.size and np.any(np.diff(np.sort(nd)) == 0):
            raise ValueError("duplicate constrained node indices")
        order = np.argsort(nd)
        nd = nd[order]
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


def assemble_rhs(b_e: np.ndarray, indt: np.ndarray) -> npt.NDArray[np.float64]:
    """Scatter-add local loads into the global right-hand side."""
    if b_e.shape != indt.shape:
        raise ValueError(f"shape mismatch: b_e {b_e.shape} vs indt {indt.shape}")
    n = int(indt.max()) + 1 if indt.size else 0
    return np.bincount(indt.ravel(), weights=b_e.ravel(), minlength=n)


@cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """One long-lived pool per size, shared by every residual call."""
    return ThreadPoolExecutor(max_workers=workers)


def _split(fn, n: int, threads: int) -> None:
    """fn(lo, hi) on ``threads`` contiguous ranges covering 0..n.

    The first range runs on the calling thread, the others on the pool.
    """
    bounds = [n * k // threads for k in range(threads + 1)]
    futures = [_pool(threads - 1).submit(fn, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    fn(bounds[0], bounds[1])
    for f in futures:
        f.result()


def residual(batch: ElementBatch, x: np.ndarray, threads: int = 1) -> npt.NDArray[np.float64]:
    """r = b - A x without forming A.

    ``csr_matvec(n_row, n_col, indptr, indices, data, x, y)`` is the loop
    behind ``csr_matrix @ x``: it adds row k's products to ``y[k]`` left to
    right and releases the GIL.  A row range [a, b) is the zero-copy slice
    ``indptr[a:b+1]``, whose offsets still point into the whole ``indices``
    and ``data``.

    First each element range gets its local residuals: for each local row
    i, zero ``local[i, lo:hi]``, add the element operator's products, then
    ``b_e - .``.  Then each node range [a, b) sums its rows of the scatter
    matrix into ``r[a:b]``.  Each pass splits its range into ``threads``
    chunks, run on one long-lived pool.  Every element's and every node's
    arithmetic is self-contained and in fixed order, so the result is
    bitwise independent of ``threads`` and equal to
    ``index.scatter(b_e - A_e x[indt])``.
    """
    x = np.asarray(x, dtype=np.float64)
    index = batch.index
    n_n = index.n_nodes
    if x.shape != (n_n,):
        raise ValueError(f"x must be a flat global vector of length {n_n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite entries")
    n_e = batch.n_elements
    x = np.ascontiguousarray(x)
    data = batch.A_e.transpose(0, 2, 1).reshape(3, 3 * n_e)  # a view
    cols, ptr, b_e = index.columns, index.indptr, batch.b_e
    S = index.scatter_matrix
    local = np.empty((3, n_e))
    r = np.zeros(n_n)

    def local_residuals(lo, hi):
        for i in range(3):
            out = local[i, lo:hi]
            out.fill(0.0)
            csr_matvec(hi - lo, n_n, ptr[lo:hi + 1], cols, data[i], x, out)
            np.subtract(b_e[i, lo:hi], out, out=out)

    def scatter_rows(a, b):
        csr_matvec(b - a, 3 * n_e, S.indptr[a:b + 1], S.indices, S.data,
                   local.reshape(-1), r[a:b])

    threads = max(1, min(threads, n_e // 2))
    _split(local_residuals, n_e, threads)
    _split(scatter_rows, n_n, threads)
    return r


def mask_dirichlet(r: np.ndarray, d: DirichletData) -> npt.NDArray[np.float64]:
    """Zero the residual at constrained nodes, in place; returns ``r``."""
    r[d.nd] = 0.0
    return r
