"""Structured triangular meshes of the unit square.

The generator subdivides (0,1)x(0,1) into an n-by-n grid of nodes and
splits every cell into two triangles along the diagonal running from the
lower-left to the upper-right corner.  Nodes are numbered row by row
(y outer, x inner), so node ``iy*n + ix`` sits at ``(ix/(n-1), iy/(n-1))``.
All coordinates are dyadic rationals for the level-based sizes, which keeps
midpoint refinement bit-exact.

Connectivity is held once, as int32 in C order (one node triple per row).
The element operator reads it three ways without copying: ``elements.T`` is
the (3, n_e) gather array ``indt``, ``elements.ravel()`` the column array of
the per-row element CSR matrices, and the scatter matrix is built from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt
import scipy.sparse as sp

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
    ``level`` is set by the structured generators and ``None`` for meshes
    assembled by hand (test fixtures, imported geometries).
    """

    nodes: npt.NDArray[np.float64]
    elements: npt.NDArray[np.int32]
    boundary_nodes: npt.NDArray[np.int64]
    level: int | None = None

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

    ``scatter_matrix`` is the scatter precomputed from ``indt`` alone, the
    counterpart of MATLAB's ``accumarray``: a 0/1 CSR matrix of shape
    (n_nodes, 3*n_e) whose row n lists, in ascending order, the positions
    of node n in ``indt.ravel()``.  It holds connectivity only, no element
    values.
    """

    indt: npt.NDArray[np.int32]
    n_nodes: int
    indptr: npt.NDArray[np.int32] = field(init=False, repr=False, compare=False)
    scatter_matrix: sp.csr_matrix = field(init=False, repr=False, compare=False)

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
        flat = indt.ravel()
        # COO -> CSR is a counting sort, so each row keeps its positions in
        # ascending order; int32 positions spare scipy an int64 -> int32 copy
        positions = np.arange(flat.size, dtype=np.int32)
        S = sp.csr_matrix((np.ones(flat.size), (flat, positions)),
                          shape=(self.n_nodes, flat.size))
        object.__setattr__(self, "scatter_matrix", S)

    @property
    def columns(self) -> npt.NDArray[np.int32]:
        """Element e's nodes at positions 3e..3e+2: a view of the connectivity."""
        return self.indt.T.reshape(-1)

    def scatter(self, local: np.ndarray) -> npt.NDArray[np.float64]:
        """Sum the (3, n_e) local contributions into a global vector of length n_nodes.

        Row n of the scatter matrix adds node n's contributions in the order
        they appear in ``indt.ravel()``, the order ``np.bincount`` uses, so the
        result is bitwise equal to
        ``np.bincount(indt.ravel(), local.ravel(), minlength=n_nodes)``.
        Nodes that no element references get 0.
        """
        if local.shape != self.indt.shape:
            raise ValueError(f"shape mismatch: local {local.shape} vs indt {self.indt.shape}")
        return self.scatter_matrix @ np.ravel(local)


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

    level = None
    n_cells = n - 1
    if n_cells & (n_cells - 1) == 0:  # power of two -> a refinement level
        level = int(n_cells).bit_length() - 1
    return Mesh(nodes, elements, _detect_boundary(nodes), level=level)


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


def uniform_refine(m: Mesh) -> Mesh:
    """Split every triangle into 4 congruent children via edge midpoints.

    For meshes produced by the structured generator the result is renumbered
    canonically so that it equals ``build_unit_square_mesh(level + 1)``
    elementwise: nodes sorted lexicographically by (y, x), each triple
    rotated to start at its smallest node index (orientation preserved),
    element rows sorted lexicographically.
    """
    if m.level is not None and m.level + 1 > MAX_LEVEL:
        raise ValueError(
            f"refining level {m.level} exceeds the size guard (max {MAX_LEVEL})"
        )
    if 4 * m.n_elements > 2 * 4**MAX_LEVEL:
        raise ValueError("refinement exceeds the size guard")

    tri = m.elements
    # one midpoint per geometric edge: key edges by sorted node pairs
    edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    uniq, inv = np.unique(edges, axis=0, return_inverse=True)
    mid_of_edge = m.n_nodes + inv.reshape(3, -1)  # rows: ab, bc, ca per element
    mid_coords = 0.5 * (m.nodes[uniq[:, 0]] + m.nodes[uniq[:, 1]])
    all_nodes = np.vstack([m.nodes, mid_coords])

    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab, bc, ca = mid_of_edge
    children = np.concatenate(
        [
            np.column_stack([a, ab, ca]),
            np.column_stack([ab, b, bc]),
            np.column_stack([ca, bc, c]),
            np.column_stack([ab, bc, ca]),
        ]
    )

    # canonical node numbering: lexicographic by (y, x)
    order = np.lexsort((all_nodes[:, 0], all_nodes[:, 1]))
    rank = np.empty(len(all_nodes), dtype=np.int64)
    rank[order] = np.arange(len(all_nodes))
    new_nodes = all_nodes[order]
    children = rank[children]

    # rotate each triple to its smallest index (cyclic, keeps orientation),
    # then order the rows lexicographically
    shift = np.argmin(children, axis=1)
    cols = (shift[:, None] + np.arange(3)) % 3
    children = np.take_along_axis(children, cols, axis=1)
    children = children[np.lexsort((children[:, 2], children[:, 1], children[:, 0]))]

    level = None if m.level is None else m.level + 1
    return Mesh(new_nodes, children, _detect_boundary(new_nodes), level=level)

