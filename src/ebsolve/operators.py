"""The element operator: its index layout, the matrix-free residual and
Dirichlet handling.

The global system matrix is never formed here.  A residual is computed
element by element,

    r = b - sum_e scatter( A_e * x[indt] ),

in scipy's compiled CSR matrix-vector loop, node block by node block, from
the load b the batch assembles once.  For each local row i the element
operator is a CSR matrix with one row per element (data ``A_e[i, :, e]``,
columns element e's nodes, see ``IndexArrays``); its product with x is the
gather and the local 3x3 product in one pass.  For each block of
``SCATTER_BLOCK`` node rows, ``residual`` computes the element products of
the block's element window into a per-thread buffer of 3*W doubles
(~1.6 MB at level 10), then subtracts them from the block's rows of b,
node by node, with the index array's ``blocks`` (MATLAB's ``accumarray``;
they hold connectivity only, so the system matrix is still never formed).
No (3, n_e) array of element values is ever stored, and every pass runs on
zero-copy slices of the stored arrays.  ``residual`` is the only
implementation of this operator, and the blocked pass in
``_scatter_blocks``, the blocks' only reader, the only node-row scatter:
``scatter`` (and through it ``mass_bounds`` and the batch's b) fills the
windows from its own (3, n_e) input, negated, so that subtracting them
from 0 sums them.  Global vectors are 1-D float64 of length n_n.

A ``residual`` call without ``out`` allocates its result.  A solve
allocates one vector and passes it as ``out`` to every step, which then
overwrites it; the arithmetic, and so every bit of the result, is the same.

Dirichlet conditions are enforced by masking: residual entries at
constrained nodes are zeroed every iteration, so a conforming iterate never
moves off its prescribed boundary values.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import numpy.typing as npt
from scipy.sparse._sparsetools import coo_tocsr, csr_matvec

from .mesh import INDEX_MAX, Mesh, as_index_array

if TYPE_CHECKING:
    from .elements import ElementBatch

# The residual and the batch build start one pool thread per extra thread,
# and the residual is memory-bound, so counts far above a machine's cores
# only add threads; this ceiling keeps a mistyped --threads from starting
# thousands of them.
MAX_THREADS = 64

# Nodes per block of the node-blocked scatter (``IndexArrays``), whatever
# the thread count.  A block of grid rows touches about two elements per
# node, so its window of element products, 3 x ~65536 doubles (1.6 MB) per
# thread, is still in cache when the scatter subtracts it from b; the
# (3, n_e) array it replaces is 50 MB at level 10.  Level 10 has 33 blocks,
# each element computed x1.031 times on average; level 8 has 3 (x1.008),
# and meshes up to level 7 are one block.
SCATTER_BLOCK = 32768

# Blocks whose windows together cover more than this many times n_e
# elements are replaced by one block: with the elements shuffled, the
# windows sum to x3.0 the element work at level 8 (3 blocks) and x33 at
# level 10 (33 blocks), each window nearly every element.
WINDOW_SLACK = 1.1


class ScatterBlock(NamedTuple):
    """Node rows [a, b) of ``IndexArrays.blocks`` and their element window [elo, ehi)."""

    a: int
    b: int
    elo: int
    ehi: int
    indptr: npt.NDArray[np.int32]
    indices: npt.NDArray[np.int32]


def _blocks(indt: np.ndarray, n_nodes: int):
    """The blocks, shared minus ones and window row pointer of ``IndexArrays``."""
    n_e = indt.shape[1]
    flat = indt.ravel()
    # COO -> CSR is a counting sort, so each node row keeps its positions in
    # ascending order; its 0/1 values are int8 scratch, then dropped
    ptr = np.empty(n_nodes + 1, dtype=np.int32)
    indices = np.empty(flat.size, dtype=np.int32)
    coo_tocsr(n_nodes, flat.size, flat.size, flat, np.arange(flat.size, dtype=np.int32),
              np.ones(flat.size, dtype=np.int8), ptr, indices,
              np.empty(flat.size, dtype=np.int8))

    rows = list(range(0, n_nodes, SCATTER_BLOCK)) + [n_nodes]
    windows = []
    for a, b in zip(rows, rows[1:]):
        positions = indices[ptr[a]:ptr[b]]
        if positions.size == 0:
            windows.append((0, 0))
            continue
        e = positions // n_e
        e *= n_e
        np.subtract(positions, e, out=e)  # the element of each position
        windows.append((int(e.min()), int(e.max()) + 1))
    if sum(hi - lo for lo, hi in windows) > WINDOW_SLACK * n_e:
        rows, windows = [0, n_nodes], [(0, n_e)]

    block_ptr = np.empty(n_nodes + len(windows), dtype=np.int32)
    spans = []
    for k, (a, b, (elo, ehi)) in enumerate(zip(rows, rows[1:], windows)):
        lo, hi = int(ptr[a]), int(ptr[b])
        positions = indices[lo:hi]
        shift = positions // n_e
        shift *= n_e - (ehi - elo)
        shift += elo
        positions -= shift  # i*n_e + e  ->  i*W + e - elo
        np.subtract(ptr[a:b + 1], lo, out=block_ptr[a + k:b + k + 1])
        spans.append((a, b, elo, ehi, lo, hi))
    minus_ones = np.full(max((hi - lo for *_, lo, hi in spans), default=0), -1.0)
    window = max((hi - lo for lo, hi in windows), default=0)
    window_ptr = np.arange(0, 3 * window + 1, 3, dtype=np.int32)
    for arr in (block_ptr, indices, minus_ones, window_ptr):
        arr.setflags(write=False)
    blocks = tuple(ScatterBlock(a, b, elo, ehi, block_ptr[a + k:b + k + 1], indices[lo:hi])
                   for k, (a, b, elo, ehi, lo, hi) in enumerate(spans))
    return blocks, minus_ones, window_ptr


@dataclass(frozen=True)
class IndexArrays:
    """Gather/scatter index array replacing explicit connectivity matrices.

    ``indt`` has shape (3, n_e); column e holds the global indices of
    element e's nodes, each below ``n_nodes``.  It is int32 and the
    transpose of a C-contiguous (n_e, 3) array, normally ``Mesh.elements``
    itself, so ``indt.T.ravel()``, element e's nodes at 3e..3e+2, is a
    view of it too.

    The rest is the node-row scatter, MATLAB's ``accumarray``, precomputed
    from ``indt`` alone and split into ``blocks`` of ``SCATTER_BLOCK``
    nodes.  Node n's entries are its positions p = i*n_e + e in
    ``indt.ravel()``, in ascending order.  The rows [a, b) of a block
    reference only the elements of its window [elo, ehi), W = ehi - elo, so
    its ``indices`` hold each position rebased to the window, i*W + e - elo:
    an index into the (3, W) local values of the window's elements.  Each
    block's ``indptr`` is rebased to 0 too, so one shared array of
    ``minus_ones``, as long as the largest block's entry count, is the CSR
    data of every block: the scatter subtracts each window value from its
    node's row, so the residual needs no subtract pass of its own, and
    ``scatter``, which runs at set-up only, negates its window copy
    instead.  When the windows together cover more than
    ``WINDOW_SLACK * n_e`` elements (elements in poor order), there is one
    block over all nodes, whose window is every element.

    ``window_ptr`` (0, 3, ..., 3W for the largest window W) is the row
    pointer of the element operator over any window: for each local row i,
    a CSR matrix with one row per element, row e holding element e's three
    entries ``A_e[i, :, e]`` at the columns ``indt.T.ravel()[3e:3e+3]``.
    It holds element rows, not assembled ones, and its length W + 1 sizes
    the per-thread window buffers.  Nothing here holds element values;
    ``residual`` and ``_scatter_blocks`` read these arrays.
    """

    indt: npt.NDArray[np.int32]
    n_nodes: int
    blocks: tuple[ScatterBlock, ...] = field(init=False, repr=False, compare=False)
    minus_ones: npt.NDArray[np.float64] = field(init=False, repr=False, compare=False)
    window_ptr: npt.NDArray[np.int32] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        indt = as_index_array(self.indt, "indt")
        if indt.ndim != 2 or indt.shape[0] != 3:
            raise ValueError(f"indt must have shape (3, n_e), got {indt.shape}")
        if indt.size and (indt.min() < 0 or indt.max() >= self.n_nodes):
            raise ValueError(f"indt references nodes outside 0..{self.n_nodes - 1}")
        if self.n_nodes > INDEX_MAX or indt.size > INDEX_MAX:
            raise ValueError(f"{self.n_nodes} nodes and {indt.shape[1]} elements "
                             "exceed the int32 index range")
        # no copy when indt already is the transposed int32 connectivity
        indt = np.ascontiguousarray(indt.T, dtype=np.int32).T
        indt.setflags(write=False)
        object.__setattr__(self, "indt", indt)
        names = ("blocks", "minus_ones", "window_ptr")
        for name, value in zip(names, _blocks(indt, self.n_nodes)):
            object.__setattr__(self, name, value)


def build_index_arrays(m: Mesh) -> IndexArrays:
    """Gather/scatter index array for a mesh: column e holds element e's nodes.

    ``indt`` is a view of ``m.elements``, not a copy.
    """
    return IndexArrays(m.elements.T, m.n_nodes)


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
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
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


@cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """One long-lived pool per size, shared by every residual call and batch build."""
    return ThreadPoolExecutor(max_workers=workers)


def check_threads(threads: int) -> None:
    """Reject a thread count outside 1..MAX_THREADS."""
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"threads must be between 1 and {MAX_THREADS}, got {threads}")


def _split(fn, n: int, threads: int) -> None:
    """fn(lo, hi) on ``threads`` contiguous ranges covering 0..n.

    The first range runs on the calling thread, the others on the pool.
    ``threads`` outside 1..MAX_THREADS raises before any pool is built.
    Every range finishes before ``_split`` returns or raises, so no range
    still writes into the caller's arrays, or holds a pool worker, after
    it; when ranges raise, the error of the lowest is raised.
    """
    check_threads(threads)
    threads = min(threads, max(n, 1))
    bounds = [n * k // threads for k in range(threads + 1)]
    futures = [_pool(threads - 1).submit(fn, lo, hi)
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(bounds[0], bounds[1])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _scatter_blocks(index: IndexArrays, fill, threads: int, start: np.ndarray,
                    r: np.ndarray) -> npt.NDArray[np.float64]:
    """The node-row scatter: r[a:b] = start[a:b] minus the block's node rows.

    ``fill(window, elo, ehi)`` writes the (3, W) local values of elements
    [elo, ehi) into ``window``, a slice of one buffer per thread.  Then the
    block's rows of ``start`` are copied into r, and
    ``csr_matvec(n_row, n_col, indptr, indices, data, x, y)``, the loop
    behind ``csr_matrix @ x``, which adds row k's products to ``y[k]`` left
    to right and releases the GIL, subtracts each node's window values from
    them with the block's rebased pointer and window positions and the
    shared minus ones: r[n] = ((start[n] - v1) - v2) - ..., node n's values in
    ``indt.ravel()`` order, since -1*v is exact and adding -v is
    subtracting v.  Contiguous ranges of blocks run on ``threads`` workers
    of one long-lived pool.  Every row's arithmetic is self-contained and
    in fixed order, so the result is bitwise independent of ``threads`` and
    of the block size; nodes that no element references get ``start``.
    """
    def run(k0, k1):
        buf = np.empty(3 * (index.window_ptr.size - 1))  # the largest window
        for a, b, elo, ehi, indptr, indices in index.blocks[k0:k1]:
            window = buf[:3 * (ehi - elo)]
            fill(window.reshape(3, ehi - elo), elo, ehi)
            rows = r[a:b]
            np.copyto(rows, start[a:b])
            csr_matvec(b - a, window.size, indptr, indices, index.minus_ones, window, rows)

    _split(run, len(index.blocks), threads)
    return r


def scatter(index: IndexArrays, local: np.ndarray) -> npt.NDArray[np.float64]:
    """Sum the (3, n_e) local contributions into a new vector of length n_nodes.

    Each block's window is ``-local[:, elo:ehi]``, which the scatter
    subtracts from 0: -(-v) is exact, so node n's row is 0 + v1 + v2 + ...
    ``local`` may be any (3, n_e) array, a broadcast view included: only a
    single block reads it whole.  The result is bitwise equal to
    ``np.bincount(indt.ravel(), local.ravel(), minlength=n_nodes)``.
    """
    if local.shape != index.indt.shape:
        raise ValueError(f"shape mismatch: local {local.shape} vs indt {index.indt.shape}")

    def negated_window(window, elo, ehi):
        np.negative(local[:, elo:ehi], out=window)

    n_n = index.n_nodes
    return _scatter_blocks(index, negated_window, 1, np.broadcast_to(0.0, n_n), np.empty(n_n))


def residual(batch: ElementBatch, x: np.ndarray, threads: int = 1,
             out: np.ndarray | None = None) -> npt.NDArray[np.float64]:
    """r = b - A x without forming A, into ``out`` when it is given.

    Node block by node block (see ``_scatter_blocks``): zero the window,
    then for each local row i add the element operator's products with
    ``csr_matvec`` on the window's zero-copy slices of the columns and of
    ``A_e``, with the shared ``window_ptr``; then subtract them from the
    block's rows of the batch's assembled load ``b``.  Node n's entry is
    ((b[n] - s1) - s2) - ... over its element products s_k = A_e[i, :, e] .
    x[indt[:, e]] (each summed left to right) in ``indt.ravel()`` order.
    Every element's and every node's arithmetic is self-contained and in
    fixed order, so the result is bitwise independent of ``threads`` and of
    the block size.  An element whose nodes lie in two blocks is computed
    once for each.

    An ``x`` with a NaN or an infinite entry raises ``NonFiniteError``, a
    ``ValueError``.  Without ``out`` the result is a new vector; with it,
    ``out`` (a writeable C-contiguous float64 vector of length n_nodes that
    does not overlap ``x``) is overwritten and returned, and the result is
    the same bit for bit.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    index = batch.index
    n_n = index.n_nodes
    if x.shape != (n_n,):
        raise ValueError(f"x must be a flat global vector of length {n_n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteError("x contains non-finite entries")
    if out is None:
        out = np.empty(n_n)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == (n_n,) and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError("out must be a writeable C-contiguous float64 vector "
                         f"of length {n_n}")
    # the result is written block by block while x is still read
    if np.may_share_memory(x, out):
        raise ValueError("x overlaps out")
    data = batch.A_e.transpose(0, 2, 1).reshape(3, -1)  # a view
    cols = index.indt.T.reshape(-1)  # a view, see IndexArrays
    ptr = index.window_ptr

    def element_products(window, elo, ehi):
        w, lo, hi = ehi - elo, 3 * elo, 3 * ehi
        window.fill(0.0)
        for i in range(3):
            csr_matvec(w, n_n, ptr[:w + 1], cols[lo:hi], data[i, lo:hi], x, window[i])

    return _scatter_blocks(index, element_products, threads, batch.b, out)


def mask_dirichlet(r: np.ndarray, d: DirichletData) -> npt.NDArray[np.float64]:
    """Zero the residual at constrained nodes, in place; returns ``r``."""
    r[d.nd] = 0.0
    return r
