"""Matrix-free residual evaluation and Dirichlet handling.

The global system matrix is never formed here.  A residual is computed
element by element,

    r = sum_e scatter( b_e - A_e * x[indt] ),

on the element-contiguous ``A_e`` of the batch: a gather through the index
array ``indt`` and a local 3x3 product per element, done in cache-sized
blocks of elements, then one product with the index array's precomputed
0/1 scatter matrix that sums all local contributions (the counterpart of
MATLAB's ``accumarray``; it holds connectivity only, so the system matrix
is still never formed).  ``residual`` is the only implementation of this
operator.  Global vectors are plain 1-D float64 ndarrays of length n_n.

Dirichlet conditions are enforced by masking: residual entries at
constrained nodes are zeroed every iteration, so a conforming iterate never
moves off its prescribed boundary values.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .elements import ElementBatch
from .mesh import Mesh

# Elements per block of the local product.  One block's slices of A_e,
# indt, the gathered x and the output (~1.5 MB) fit a core's share of L2,
# so the gathered values are still cached when the product reads them.
BLOCK = 16384


@dataclass(frozen=True)
class DirichletData:
    """Constrained node indices (sorted, unique) and their prescribed values."""

    nd: npt.NDArray[np.int64]
    values: npt.NDArray[np.float64]

    def __post_init__(self):
        nd = np.asarray(self.nd, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        if nd.ndim != 1 or values.shape != nd.shape:
            raise ValueError("nd and values must be 1-D arrays of equal length")
        if nd.size and np.any(np.diff(np.sort(nd)) == 0):
            raise ValueError("duplicate constrained node indices")
        order = np.argsort(nd)
        nd = nd[order]
        values = values[order]
        nd.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "nd", nd)
        object.__setattr__(self, "values", values)


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


def residual(batch: ElementBatch, x: np.ndarray, threads: int = 1) -> npt.NDArray[np.float64]:
    """r = b - A x without forming A.

    The element range is split into ``threads`` contiguous chunks, inline
    for one thread or on a thread pool for more.  Each chunk walks its
    elements in blocks of ``BLOCK``: gather x[indt], local 3x3 product,
    b_e - ., written into the block's disjoint slice of one (3, n_e) array.
    The index array's precomputed scatter matrix then sums the whole array
    in fixed order.  Every element's arithmetic is self-contained and the
    scatter never sees the chunking or the blocks, so the result is bitwise
    independent of ``threads``.
    """
    x = np.asarray(x, dtype=np.float64)
    n_n = batch.index.n_nodes
    if x.shape != (n_n,):
        raise ValueError(f"x must be a flat global vector of length {n_n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("x contains non-finite entries")
    n_e = batch.n_elements
    A_e, b_e, indt = batch.A_e, batch.b_e, batch.index.indt
    local = np.empty((3, n_e))

    def local_residuals(lo, hi):
        for start in range(lo, hi, BLOCK):
            blk = slice(start, min(start + BLOCK, hi))
            out = local[:, blk]
            np.einsum("ije,je->ie", A_e[:, :, blk], x[indt[:, blk]], out=out)
            np.subtract(b_e[:, blk], out, out=out)

    if threads <= 1 or n_e < 2 * threads:
        local_residuals(0, n_e)
    else:
        bounds = np.linspace(0, n_e, threads + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(local_residuals, bounds[:-1], bounds[1:]))
    return batch.index.scatter(local)


def mask_dirichlet(r: np.ndarray, d: DirichletData) -> npt.NDArray[np.float64]:
    """Zero the residual at constrained nodes, in place; returns ``r``."""
    r[d.nd] = 0.0
    return r
