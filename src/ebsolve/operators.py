"""The element operator: its index layout, the matrix-free residual and
Dirichlet handling.

The iterative solvers never form the global system matrix.  A residual
is computed from the element matrices alone,

    r = b - sum_e scatter( A_e * x[indt] ),

in scipy's compiled CSR matrix-vector loop, from the load b the batch
assembles once.  A_e is read by node row, the row-gathered layout of
Cecka, Lew & Darve (2011): each local row i of A_e is its own CSR matrix
over the nodes, whose row n holds one slot per element e with
``indt[i, e] == n``, in ascending e, and each slot the three entries
``A_e[i, :, e]`` at element e's nodes.  Only this module knows which slot
each element takes: ``node_rows`` sorts the slots, ``NodeRows.write``
writes element matrices into them, ``NodeRows.read`` reads A_e back in
element order and ``NodeRows.assemble`` sums them into the CLI's direct
oracle; a row already in element order takes the connectivity itself as
its columns.  The three matrices sum to the system matrix, so three
``csr_matvec`` passes into one vector and one subtraction from b give the
residual: the gather, the local 3x3 product and the scatter in one pass,
with no (3, n_e) array of element values.  Node n sums its element
products in ascending position in ``indt.ravel()``.  ``residual`` is the
only implementation of this operator; ``scatter``, which sums (3, n_e)
local values at set-up, is ``np.add.at`` in the same order.  Global
vectors are 1-D float64 of length n_n.

A ``residual`` call without ``out`` allocates its result.  A solve
allocates one vector and passes it as ``out`` to every step, which then
overwrites it; the arithmetic, and so every bit of the result, is the same.

Dirichlet conditions are enforced by masking: residual entries at
constrained nodes are zeroed every iteration, so a conforming iterate never
moves off its prescribed boundary values.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

import numpy as np
import numpy.typing as npt
import scipy.sparse
from scipy.sparse._sparsetools import coo_tocsr, csr_matvec

from .mesh import INDEX_MAX, Mesh, as_index_array

if TYPE_CHECKING:
    from .elements import ElementBatch

# The residual and the batch build start one pool thread per extra thread,
# and the residual is memory-bound, so counts far above a machine's cores
# only add threads; this ceiling keeps a mistyped --threads from starting
# thousands of them.
MAX_THREADS = 64

# Elements per ``np.add.at`` call of ``scatter``: each chunk's int32 nodes
# are copied to intp, 256 kB, not 16.8 MB for a full row at level 10.
SCATTER_CHUNK = 32768


@dataclass(frozen=True)
class IndexArrays:
    """Gather/scatter index array replacing explicit connectivity matrices.

    ``indt`` has shape (3, n_e); column e holds the global indices of
    element e's nodes, each below ``n_nodes``.  It is int32 and the
    transpose of a C-contiguous (n_e, 3) array, normally ``Mesh.elements``
    itself, so ``indt.T.ravel()``, element e's nodes at 3e..3e+2, is a
    view of it too.  ``node_rows`` derives the node-row layout of A_e from
    it.
    """

    indt: npt.NDArray[np.int32]
    n_nodes: int

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


def _slot_orders(index: IndexArrays):
    """Each local row's slots, sorted by one counting sort per row.

    Row i's slots are its elements stably sorted by node ``indt[i, e]``
    (scipy's COO -> CSR conversion).  Yields (i, ptr, order) for each row
    i: ``ptr`` (int32, n_nodes + 1) the slot offsets, so node n's slots are
    ptr[n]..ptr[n+1]; ``order`` (intp, n_e) the element in each slot, or
    None for a row that never decreases, which is in element order.  Both
    are buffers that the next row overwrites.
    """
    indt, n_n = index.indt, index.n_nodes
    n_e = indt.shape[1]
    # scratch reused by every row: fresh pages cost as much as the sorts
    elements = np.arange(n_e, dtype=np.int32)
    nodes, perm = np.empty((2, n_e), dtype=np.int32)
    ptr = np.empty(n_n + 1, dtype=np.int32)
    order = np.empty(n_e, dtype=np.intp)  # perm as numpy's gather and scatter take it
    values = np.empty((2, n_e), dtype=np.int8)  # coo_tocsr's values, unused
    for i, row in enumerate(indt):
        np.copyto(nodes, row)
        coo_tocsr(n_n, n_e, n_e, nodes, elements, values[0], ptr, perm, values[1])
        if np.array_equal(perm, elements):
            yield i, ptr, None
        else:
            np.copyto(order, perm)
            yield i, ptr, order


def node_rows(index: IndexArrays) -> tuple[NodeRows, list]:
    """The node-row layout of A_e over ``index``, and each element's slots.

    Local row i's slots are those of ``_slot_orders``.  Returns (rows,
    slots): ``rows`` the ``NodeRows``, whose ``data`` is allocated but not
    written (``NodeRows.write`` fills it); ``slots[i][e]`` (int32) element
    e's slot in row i, or None for a row in element order, which takes
    ``indt.T.ravel()``, the connectivity itself, as its ``indices`` (row 0
    of the grid).
    """
    indt, n_n = index.indt, index.n_nodes
    n_e = indt.shape[1]
    indptr = np.empty((3, n_n + 1), dtype=np.int32)
    indices, slots = [indt.T.reshape(-1)] * 3, [None] * 3
    elements = np.arange(n_e, dtype=np.int32)
    for i, ptr, order in _slot_orders(index):
        np.multiply(ptr, 3, out=indptr[i])
        if order is not None:
            indices[i] = np.take(indt.T, order, axis=0).reshape(-1)
            slots[i] = np.empty(n_e, dtype=np.int32)
            slots[i][order] = elements
    return NodeRows(indptr, tuple(indices), np.empty((3, n_e, 3))), slots


@dataclass(frozen=True)
class NodeRows:
    """A_e by node row: for each local row i, one CSR matrix over the nodes.

    The layout of ``node_rows``, the row-gathered storage of Cecka, Lew &
    Darve (2011): slot k of row i, element e, holds the three entries
    ``data[i, k] = A_e[i, :, e]`` at the columns ``indices[i][3k:3k+3]``,
    e's nodes, and node n's entries are ``indptr[i, n]`` to
    ``indptr[i, n + 1]``.  ``write`` fills the slots, ``read`` gives A_e
    back and ``assemble`` sums the three matrices into the system matrix.
    ``data`` is C-contiguous (3, n_e, 3) float64 and the index arrays int32,
    the arrays ``csr_matvec`` reads as they are.
    """

    indptr: npt.NDArray[np.int32]
    indices: tuple[npt.NDArray[np.int32], ...]
    data: npt.NDArray[np.float64]

    def write(self, slots: list, blk: slice, k: np.ndarray) -> None:
        """Write the element matrices k, (3, 3, B), of elements ``blk`` into their slots.

        ``slots`` is the second result of ``node_rows``.  Column by column:
        one write per entry (i, j).
        """
        for i, where in enumerate(slots):
            where = blk if where is None else where[blk].astype(np.intp)  # numpy's index type
            for j in range(3):
                self.data[i, where, j] = k[i, j]

    def assemble(self, n_nodes: int) -> scipy.sparse.csr_matrix:
        """The system matrix, canonical CSR without exact zeros.

        The rows' matrices summed by scipy's ``+``, which drops exact zeros
        but leaves columns unsorted: entry (n, c) is ``(s0 + s1) + s2``,
        ``s_i`` row i's terms at (n, c) added in slot order.
        """
        def row(i):
            return scipy.sparse.csr_matrix((self.data[i].reshape(-1), self.indices[i],
                                            self.indptr[i]), shape=(n_nodes, n_nodes))

        A = row(0) + row(1) + row(2)
        A.sort_indices()
        return A

    def read(self, index: IndexArrays) -> npt.NDArray[np.float64]:
        """The (3, 3, n_e) element matrices in element order, a new read-only array.

        Each row's counting sort (``_slot_orders`` over ``index``, the
        index the rows were laid out from) gives the element of each slot
        again, and no column array is made.  It is the transposed view of
        a C-contiguous (3, n_e, 3) array.
        """
        data = self.data
        out = np.empty_like(data)
        for i, _, order in _slot_orders(index):
            if order is None:
                out[i] = data[i]
            else:
                out[i][order] = data[i]
        out.setflags(write=False)
        return out.transpose(0, 2, 1)


def build_index_arrays(m: Mesh) -> IndexArrays:
    """Gather/scatter index array for a mesh: column e holds element e's nodes.

    ``indt`` is a view of ``m.elements``, not a copy.
    """
    return IndexArrays(m.elements.T, m.n_nodes)


@dataclass(frozen=True)
class DirichletData:
    """Constrained node indices (sorted, unique, nonnegative) and their prescribed values.

    The upper end depends on the mesh: the solvers, the spectral bounds and
    ``solve_reference`` check it with ``check_nodes``.
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

    def free_mask(self, n_nodes: int) -> npt.NDArray[np.bool_]:
        """True at the free nodes of an ``n_nodes``-node system, after ``check_nodes``."""
        self.check_nodes(n_nodes)
        is_free = np.ones(n_nodes, dtype=bool)
        is_free[self.nd] = False
        return is_free


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


def scatter(index: IndexArrays, local: np.ndarray) -> npt.NDArray[np.float64]:
    """Sum the (3, n_e) local contributions into a new vector of length n_nodes.

    ``np.add.at`` row by row of ``indt``, ``SCATTER_CHUNK`` elements at a
    time, adds the values one by one in ``indt.ravel()`` order, so the
    result is bitwise ``np.bincount(indt.ravel(), local.ravel(),
    minlength=n_nodes)``.  ``local`` may be any (3, n_e) array, a broadcast
    view included: no (3, n_e) copy of it is made.
    """
    indt = index.indt
    if local.shape != indt.shape:
        raise ValueError(f"shape mismatch: local {local.shape} vs indt {indt.shape}")
    out = np.zeros(index.n_nodes)
    for i in range(3):
        for lo in range(0, indt.shape[1], SCATTER_CHUNK):
            hi = lo + SCATTER_CHUNK
            np.add.at(out, indt[i, lo:hi].astype(np.intp), local[i, lo:hi])
    return out


def residual(batch: ElementBatch, x: np.ndarray,
             out: np.ndarray | None = None) -> npt.NDArray[np.float64]:
    """r = b - A x without forming A, into ``out`` when it is given.

    On each of ``batch.threads`` contiguous ranges [a, c) of node rows:
    zero out[a:c], add the products of the three node-row CSR matrices of
    A_e (``batch.rows``, see ``NodeRows``) with
    ``csr_matvec(n_row, n_col, indptr, indices, data, x, y)``, the loop
    behind ``csr_matrix @ x``, which adds row k's products to ``y[k]`` left
    to right and releases the GIL; then out[a:c] = b[a:c] - out[a:c] with
    the batch's assembled load ``b``.  Node n's entry is b[n] minus
    (((0 + a1*x1) + a2*x2) + ...) over the entries of its slots, in
    ascending position in ``indt.ravel()``.  Every row's arithmetic is
    self-contained and in fixed order, so the result is bitwise independent
    of the thread count.

    ``x``'s values are not checked: a NaN or an infinite entry gives
    non-finite entries in the rows of every node that shares an element
    with it, as ``b - A @ x`` does.  Without ``out`` the result is a new
    vector; with it, ``out`` (a writeable C-contiguous float64 vector of
    length n_nodes that does not overlap ``x``) is overwritten and
    returned, and the result is the same bit for bit.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    n_n = batch.index.n_nodes
    if x.shape != (n_n,):
        raise ValueError(f"x must be a flat global vector of length {n_n}, got shape {x.shape}")
    if out is None:
        out = np.empty(n_n)
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.shape == (n_n,) and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError("out must be a writeable C-contiguous float64 vector "
                         f"of length {n_n}")
    # the result is written range by range while x is still read
    if np.may_share_memory(x, out):
        raise ValueError("x overlaps out")
    indptr, indices = batch.rows.indptr, batch.rows.indices
    data = batch.rows.data.reshape(3, -1)  # a view
    b = batch.b

    def run(a, c):
        rows = out[a:c]
        rows.fill(0.0)
        for i in range(3):
            csr_matvec(c - a, n_n, indptr[i, a:c + 1], indices[i], data[i], x, rows)
        np.subtract(b[a:c], rows, out=rows)

    _split(run, n_n, batch.threads)
    return out


def mask_dirichlet(r: np.ndarray, d: DirichletData) -> npt.NDArray[np.float64]:
    """Zero the residual at constrained nodes, in place; returns ``r``."""
    r[d.nd] = 0.0
    return r
