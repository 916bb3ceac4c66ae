"""Batched P1 element matrices.

Local quantities are indexed as 3-index arrays of shape (n_b, n_b, n_e)
with n_b = 3, and ``build_element_batch`` computes all of them in one pass
over blocks of ``GATHER_BLOCK`` elements, a few array operations per
block.  Contiguous ranges of blocks run on the residual's thread pool;
each block writes only its own entries, so the batch is bitwise the same
for any thread count.  That pass is the library's only geometry code: it
computes each element's area once and rejects, by global index, any
element that is clockwise, degenerate or of non-finite area, and it is
the only code that lays out a batch.  The batch stores A_e by node row
(``operators.NodeRows``, which alone knows each element's slots): the pass
writes each block's entries straight into their slots of the node-row CSR
matrices, the data the residual kernel streams once, in order.  A_e in
element order is read back from them on access.  ``local_stiffness_batch``
and ``local_mass_batch`` are thin wrappers over that pass and return plain
C-contiguous (3, 3, n_e) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .mesh import Mesh
from .operators import (IndexArrays, NodeRows, _split, build_index_arrays, check_threads,
                        node_rows, scatter)

EPS_AREA = 1e-14

# Elements per block of ``build_element_batch``'s pass.  numpy converts an
# int32 index to intp before it gathers, and a block's corners, geometry
# and (3, 3, B) einsum scratch (~1.2 MB) stay in cache.  Level 10, on a
# shared 2-core host: the corner gathers, 1-D on ``x, y = nodes.T``,
# ~20 ms, against ~100 ms for the mixed index ``nodes.T[:, corners]``.
GATHER_BLOCK = 16384

# exact P1 mass pattern: M_e = area/12 * (ones + eye)
_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0


@dataclass(frozen=True)
class ElementBatch:
    """Everything the matrix-free operator needs, batched over elements.

    A_e = K_e + nu*M_e is the only resident element matrix, held by node
    row as ``rows`` (see ``NodeRows``): ``rows.data[i, k]`` is A_e[i, :, e]
    for the element e in slot k of local row i.  ``A_e`` reads the
    (3, 3, n_e) element-order array back from it on each access
    (``NodeRows.read``), a new read-only array.  ``areas`` holds the
    element areas, the only per-element array stored beside ``rows``.  The
    source is f = 1, so the local load vectors are b_e[j] = area/3 by
    one-point quadrature; ``b_e`` derives them from ``areas`` on each
    access, a read-only (3, n_e) broadcast view.  ``b`` is the assembled
    load, bitwise ``assemble_rhs(b_e, index.indt, index.n_nodes)``: every
    residual starts from it.  ``beta`` is max_e area_e*tr(A_e)/3, the
    coupling constant of ``spectrum.operator_bounds`` at nu > 0.  In a
    batch from ``build_element_batch``, ``index.indt`` is a view of the
    mesh's connectivity.  The batch keeps no mesh:
    ``local_stiffness_batch(m)`` and ``local_mass_batch(m)`` give K_e and
    M_e for the mesh it was built from.  ``threads`` (an integer, 1 to
    ``MAX_THREADS``) is every residual's worker count.  The fields are
    what the batch stores, so ``dataclasses.replace(batch, threads=t)``
    keeps every array; ``rows``, ``b`` and ``beta`` do not follow replaced
    geometry.  The stored arrays, ``rows``' data and index arrays,
    ``areas`` and ``b``, are made read-only on construction, so no write
    through the batch can change a later residual.
    """

    rows: NodeRows
    areas: npt.NDArray[np.float64]
    nu: float
    index: IndexArrays
    b: npt.NDArray[np.float64]
    beta: float
    threads: int = 1

    def __post_init__(self):
        check_threads(self.threads)
        n_e, n_n = self.index.indt.shape[1], self.index.n_nodes
        if self.rows.data.shape != (3, n_e, 3) or self.rows.indptr.shape != (3, n_n + 1):
            raise ValueError(f"rows must hold {n_e} elements over {n_n} nodes")
        if self.areas.shape != (n_e,):
            raise ValueError(f"areas must have shape ({n_e},), got {self.areas.shape}")
        if self.b.shape != (n_n,):
            raise ValueError(f"b must have shape ({n_n},), got {self.b.shape}")
        if not (np.isfinite(self.nu) and self.nu >= 0):
            raise ValueError(f"nu must be finite and nonnegative, got {self.nu}")
        rows = self.rows
        for stored in (rows.data, rows.indptr, *rows.indices, self.areas, self.b):
            stored.setflags(write=False)

    @property
    def A_e(self) -> npt.NDArray[np.float64]:
        """The (3, 3, n_e) element matrices in element order, a new read-only array.

        Read back from ``rows`` on each access (``NodeRows.read``).
        """
        return self.rows.read(self.index)

    @property
    def b_e(self) -> npt.NDArray[np.float64]:
        """The (3, n_e) local load vectors area/3, a read-only broadcast view.

        Derived from ``areas`` on each access.
        """
        return _local_load(self.areas)

    @property
    def n_elements(self) -> int:
        return self.index.indt.shape[1]


def _local_load(areas: np.ndarray) -> npt.NDArray[np.float64]:
    """b_e[j] = area/3 for f = 1, one column per element (read-only)."""
    return np.broadcast_to(areas / 3.0, (3, len(areas)))


def _trace_max(k: np.ndarray, areas: np.ndarray) -> float:
    """max_e area_e*tr(k[:, :, e]), 0 for no elements."""
    tr = k[0, 0] + k[1, 1]
    tr += k[2, 2]
    tr *= areas
    return float(tr.max(initial=0.0))


def _geometry(x, y, lo: int):
    """Areas and P1 basis gradients of one block of elements.

    ``x[j]``, ``y[j]`` hold the coordinates of the block's j-th corners and
    ``lo`` is the global index of its first element.  An element whose area
    is not a finite number above ``EPS_AREA`` (clockwise, degenerate, or
    NaN or infinite because finite corners' differences overflow) is
    rejected, by global index, before any gradient is formed; the overflow
    itself raises no warning.  Returns (areas, grads) with grads of shape
    (2, 3, B), C-contiguous: grads[:, j, e] is the constant gradient of the
    basis function attached to local node j.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        det = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])  # 2*area
    areas = 0.5 * det
    valid = (areas > EPS_AREA) & (areas < np.inf)  # False for NaN too
    if not valid.all():
        e = int(np.argmin(valid))  # the block's first invalid element
        raise ValueError(
            f"degenerate element {lo + e}: area {areas[e]:.3e} is not a finite "
            f"number above {EPS_AREA}; elements must be counterclockwise with "
            f"positive area"
        )
    grads = np.empty((2, 3, len(det)))
    for j in range(3):
        jn, jp = (j + 1) % 3, (j + 2) % 3
        np.divide(y[jn] - y[jp], det, out=grads[0, j])
        np.divide(x[jp] - x[jn], det, out=grads[1, j])
    return areas, grads


def _mass(areas) -> npt.NDArray[np.float64]:
    return _MASS_PATTERN[:, :, None] * areas


def build_element_batch(m: Mesh, nu: float = 0.0, threads: int = 1) -> ElementBatch:
    """Assemble the full batch for a mesh, with source f = 1.

    One pass over blocks of ``GATHER_BLOCK`` elements: each block's
    corners are gathered once, by 1-D gathers on the coordinate views
    ``m.nodes.T``, then give its areas and gradients, its
    A_e = area * G^T G + nu * M_e, written into its slots (``NodeRows.write``),
    and its part of beta.  The index arrays and the slots (``node_rows``)
    are computed first, while only the mesh is resident, and no
    full-width temporary is formed in the pass.  After it the load
    b_e[j] = area/3 is assembled into ``b``.

    Contiguous ranges of blocks run on ``threads`` workers of the
    long-lived pool the residual uses, the calling thread taking the first
    range, and the batch keeps the count for its residuals; the counting
    sorts of ``node_rows`` hold the GIL and run on the calling thread.
    ``threads`` that is not an integer in 1..``operators.MAX_THREADS``
    raises ``ValueError`` before anything is allocated.  Each block
    writes only its own entries of the stored arrays, so the batch is
    bitwise independent of ``threads``.  A block that holds a degenerate
    element raises a ``ValueError`` naming the element by global index;
    every range finishes first, and the error raised is that of the
    lowest failing block, the one the serial pass raises.
    """
    if not (np.isfinite(nu) and nu >= 0):
        raise ValueError(f"nu must be finite and nonnegative, got {nu}")
    check_threads(threads)
    index = build_index_arrays(m)
    rows, slots = node_rows(index)
    n_e = m.n_elements
    size = GATHER_BLOCK
    areas = np.empty(n_e)
    traces = np.zeros(-(-n_e // size))
    xs, ys = m.nodes.T

    def run(k0, k1):
        for k in range(k0, k1):
            lo = k * size
            blk = slice(lo, lo + size)
            corners = m.elements[blk].T.astype(np.intp)
            a, grads = _geometry(xs[corners], ys[corners], lo)
            A = np.einsum("kie,kje->ije", grads, grads)
            A *= a
            if nu > 0:
                A += nu * _mass(a)
            rows.write(slots, blk, A)
            traces[k] = _trace_max(A, a)
            areas[blk] = a

    # each range's temporaries (~3 MB a block) are freed when it returns,
    # and the slots (8.4 MB at level 10, the grid's row 1) here, before
    # the load is assembled beside the finished arrays
    _split(run, len(traces), threads)
    slots = None
    return ElementBatch(rows, areas, float(nu), index,
                        scatter(index, _local_load(areas)),
                        float(traces.max(initial=0.0)) / 3.0, threads)


def local_stiffness_batch(m: Mesh) -> npt.NDArray[np.float64]:
    """K_e slices: area * G^T G with G the 2x3 gradient matrix (exact for P1).

    The A_e of ``build_element_batch(m)`` (nu = 0), so both share one
    geometry code path.
    """
    return np.ascontiguousarray(build_element_batch(m).A_e)


def local_mass_batch(m: Mesh) -> npt.NDArray[np.float64]:
    """M_e slices: area/12 * [[2,1,1],[1,2,1],[1,1,2]] (exact for P1).

    Built from the areas of ``build_element_batch(m)``.
    """
    return _mass(build_element_batch(m).areas)
