"""Structured triangular meshes of the unit square.

The generator subdivides (0,1)x(0,1) into an n-by-n grid of nodes and
splits every cell into two triangles along the diagonal running from the
lower-left to the upper-right corner.  Nodes are numbered row by row
(y outer, x inner), so node ``iy*n + ix`` sits at ``(ix/(n-1), iy/(n-1))``.
All coordinates are dyadic rationals for the level-based sizes, which keeps
element areas exact.

Connectivity is held once, as int32 in C order (one node triple per row).
The element operator reads it three ways without copying: ``elements.T`` is
the (3, n_e) gather array ``indt``, ``elements.ravel()`` the column array of
the per-row element CSR matrices, and the node-blocked scatter plan is built
from it.
``IndexArrays`` holds these structures only; the kernels that run on them,
``operators.residual`` and ``operators.scatter``, live with the operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import numpy.typing as npt
from scipy.sparse._sparsetools import coo_tocsr

# Levels above this exhaust address space long before they are useful
# (level 12 already means ~33.5M triangles).
MAX_LEVEL = 12

# The residual starts one pool thread per extra thread and is memory-bound,
# so counts far above a machine's cores only add threads; this ceiling
# keeps a mistyped --threads from starting thousands of them.
MAX_THREADS = 64

_BOUNDARY_TOL = 1e-12

# connectivity, row pointers and scatter positions are int32
INDEX_MAX = np.iinfo(np.int32).max

# Elements per block, the one block size of every element-wise set-up pass
# (``signed_areas`` and ``build_element_batch``).  numpy converts an int32
# index to intp before it gathers, and a block's corners, geometry and
# (3, 3, B) einsum scratch (~1.2 MB) stay in cache.  Level 10: signed_areas
# 45 ms, against 99 ms for full-width int32 gathers and 56 ms for
# full-width int64 ones; the whole batch build ~0.5 s, against ~0.9 s for
# full-width geometry.
GATHER_BLOCK = 16384

# Nodes per block of the node-blocked scatter (``ScatterPlan``), whatever
# the thread count.  A block of grid rows touches about two elements per
# node, so its window of local residuals, 3 x ~65536 doubles (1.6 MB) per
# thread, is still in cache when the scatter reads it back; the (3, n_e)
# array it replaces is 50 MB at level 10.  Level 10 has 33 blocks, each
# element computed x1.031 times on average; level 8 has 3 (x1.008), and
# meshes up to level 7 are one block.
SCATTER_BLOCK = 32768

# A plan whose windows together cover more than this many times n_e
# elements is built as one block instead: with the elements shuffled, the
# level-8 windows overlap to x9 the element work.
WINDOW_SLACK = 1.1


def as_index_array(values, name: str) -> np.ndarray:
    """``values`` as an integer array; any other dtype is rejected, not truncated.

    An empty sequence is let through: ``np.asarray([])`` is float64.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and arr.size:
        raise ValueError(f"{name} must hold integer node indices, got dtype {arr.dtype}")
    return arr


@dataclass(frozen=True)
class Mesh:
    """A triangulation: node coordinates, connectivity and boundary set.

    ``elements`` holds one counterclockwise node-index triple per row, as
    a C-contiguous int32 (n_e, 3) array: ``elements.ravel()`` lists each
    element's three nodes in turn, the column array of the element
    operator, and ``build_index_arrays`` shares the array rather than
    copying it.  Meshes with more nodes than int32 can index are rejected.
    """

    nodes: npt.NDArray[np.float64]
    elements: npt.NDArray[np.int32]
    boundary_nodes: npt.NDArray[np.int64]

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=np.float64)
        elements = as_index_array(self.elements, "elements")
        boundary = as_index_array(self.boundary_nodes, "boundary_nodes")
        boundary = boundary.astype(np.int64, copy=False)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise ValueError(f"nodes must have shape (n_n, 2), got {nodes.shape}")
        if len(nodes) > INDEX_MAX:
            raise ValueError(f"{len(nodes)} nodes exceed the int32 index range")
        nodes = np.ascontiguousarray(nodes)
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise ValueError(f"elements must have shape (n_e, 3), got {elements.shape}")
        # range-checked before the cast, which would wrap larger values
        if elements.size and (elements.min() < 0 or elements.max() >= len(nodes)):
            raise ValueError("element connectivity references nonexistent nodes")
        elements = np.ascontiguousarray(elements, dtype=np.int32)
        if np.any(signed_areas(nodes, elements) <= 0.0):
            raise ValueError("all elements must be counterclockwise with positive area")
        if boundary.size and (boundary.min() < 0 or boundary.max() >= len(nodes)):
            raise ValueError("boundary_nodes out of range")
        for arr in (nodes, elements, boundary):
            arr.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "boundary_nodes", boundary)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


class ScatterBlock(NamedTuple):
    """Node rows [a, b) of a ``ScatterPlan`` and their element window [elo, ehi)."""

    a: int
    b: int
    elo: int
    ehi: int
    indptr: npt.NDArray[np.int32]
    indices: npt.NDArray[np.int32]


@dataclass(frozen=True)
class ScatterPlan:
    """The node-row scatter precomputed from ``indt`` alone, MATLAB's
    ``accumarray`` split into blocks of ``SCATTER_BLOCK`` nodes.

    Node n's entries are its positions p = i*n_e + e in ``indt.ravel()``,
    in ascending order.  The rows [a, b) of a block reference only the
    elements of its window [elo, ehi), W = ehi - elo, so ``indices`` holds
    each position rebased to the window, i*W + e - elo: an index into the
    (3, W) local values of the window's elements.  Each block's row pointer
    is rebased to 0 too (block k's sits at ``indptr[a+k:b+k+1]``), so one
    shared array of ``ones``, as long as the largest block's entry count,
    is the CSR data of every block.  ``blocks`` holds the bounds and
    zero-copy views of both arrays per block.  When the windows together
    cover more than ``WINDOW_SLACK * n_e`` elements (elements in poor
    order), the plan is one block over all nodes, whose window is every
    element.
    """

    indptr: npt.NDArray[np.int32]
    indices: npt.NDArray[np.int32]
    ones: npt.NDArray[np.float64]
    blocks: tuple[ScatterBlock, ...]

    @property
    def window(self) -> int:
        """The largest window, W elements."""
        return max((blk.ehi - blk.elo for blk in self.blocks), default=0)


def _scatter_plan(indt: np.ndarray, n_nodes: int) -> ScatterPlan:
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
    ones = np.ones(max((hi - lo for *_, lo, hi in spans), default=0))
    for arr in (block_ptr, indices, ones):
        arr.setflags(write=False)
    blocks = tuple(ScatterBlock(a, b, elo, ehi, block_ptr[a + k:b + k + 1], indices[lo:hi])
                   for k, (a, b, elo, ehi, lo, hi) in enumerate(spans))
    return ScatterPlan(block_ptr, indices, ones, blocks)


@dataclass(frozen=True)
class IndexArrays:
    """Gather/scatter index array replacing explicit connectivity matrices.

    ``indt`` has shape (3, n_e); column e holds the global indices of
    element e's nodes, each below ``n_nodes``.  It is int32 and the
    transpose of a C-contiguous (n_e, 3) array, normally ``Mesh.elements``
    itself, so ``columns`` (= ``indt.T.ravel()``) is a view of it too.

    The element operator is, for each local row i, a CSR matrix with one
    row per element: row e holds element e's three entries ``A_e[i, :, e]``
    at the columns ``columns[3e:3e+3]``, with the row pointer ``indptr``
    (0, 3, 6, ...).  It holds element rows, not assembled ones.

    ``scatter_plan`` is the node-blocked scatter (see ``ScatterPlan``): for
    each block of node rows, the element window its entries lie in and the
    entries as positions in that window.  It holds connectivity only, no
    element values; ``operators`` sums with it.
    """

    indt: npt.NDArray[np.int32]
    n_nodes: int
    indptr: npt.NDArray[np.int32] = field(init=False, repr=False, compare=False)
    scatter_plan: ScatterPlan = field(init=False, repr=False, compare=False)

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
        n_e = indt.shape[1]
        indptr = np.arange(0, 3 * n_e + 1, 3, dtype=np.int32)
        indptr.setflags(write=False)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "scatter_plan", _scatter_plan(indt, self.n_nodes))

    @property
    def columns(self) -> npt.NDArray[np.int32]:
        """Element e's nodes at positions 3e..3e+2: a view of the connectivity."""
        return self.indt.T.reshape(-1)


def corner_blocks(elements: np.ndarray):
    """Yield (slice, corners) over consecutive blocks of ``GATHER_BLOCK`` elements.

    ``corners`` is the block's (3, B) intp copy of ``elements[slice].T``:
    row j holds the blocks' j-th nodes, ready for 1-D gathers.
    """
    for lo in range(0, len(elements), GATHER_BLOCK):
        blk = slice(lo, lo + GATHER_BLOCK)
        yield blk, elements[blk].T.astype(np.intp)


def signed_areas(nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Signed area of every triangle (positive for counterclockwise)."""
    # one 1-D gather per corner and coordinate, no (n_e, 3, 2) temporary
    x, y = nodes.T
    areas = np.empty(len(elements))
    for blk, (a, b, c) in corner_blocks(elements):
        xa, ya = x[a], y[a]
        areas[blk] = 0.5 * ((x[b] - xa) * (y[c] - ya) - (y[b] - ya) * (x[c] - xa))
    return areas


def build_grid_mesh(n: int) -> Mesh:
    """Structured mesh with ``n`` nodes per side (n >= 2), any grid size.

    Cells are visited row by row; each contributes its lower triangle
    (ll, lr, ur) followed by its upper triangle (ll, ur, ul).
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes per side, got n={n}")
    ticks = np.arange(n, dtype=np.float64) / (n - 1)
    xx, yy = np.meshgrid(ticks, ticks)  # yy varies along rows -> y-outer numbering
    nodes = np.column_stack([xx.ravel(), yy.ravel()])

    ix, iy = np.meshgrid(np.arange(n - 1), np.arange(n - 1))
    ll = (iy * n + ix).ravel()
    # written straight into the int32 layout Mesh stores
    elements = np.empty((2 * len(ll), 3), dtype=np.int32)
    elements[0::2] = np.column_stack([ll, ll + 1, ll + n + 1])
    elements[1::2] = np.column_stack([ll, ll + n + 1, ll + n])
    return Mesh(nodes, elements, _detect_boundary(nodes))


def build_unit_square_mesh(level: int) -> Mesh:
    """Structured mesh at refinement level L: (2^L+1)^2 nodes, 2*4^L triangles."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    if level > MAX_LEVEL:
        raise ValueError(f"level {level} exceeds the size guard (max {MAX_LEVEL})")
    return build_grid_mesh(2**level + 1)


def _detect_boundary(nodes: np.ndarray) -> npt.NDArray[np.int64]:
    near = np.abs(nodes) <= _BOUNDARY_TOL
    far = np.abs(nodes - 1.0) <= _BOUNDARY_TOL
    return np.flatnonzero((near | far).any(axis=1)).astype(np.int64)


def build_index_arrays(m: Mesh) -> IndexArrays:
    """Gather/scatter index array for a mesh: column e holds element e's nodes.

    ``indt`` is a view of ``m.elements``, not a copy.
    """
    return IndexArrays(m.elements.T, m.n_nodes)
