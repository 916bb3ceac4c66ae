"""Structured triangular meshes of the unit square.

The generator subdivides (0,1)x(0,1) into an n-by-n grid of nodes and
splits every cell into two triangles along the diagonal running from the
lower-left to the upper-right corner.  Nodes are numbered row by row
(y outer, x inner), so node ``iy*n + ix`` sits at ``(ix/(n-1), iy/(n-1))``.
All coordinates are dyadic rationals for the level-based sizes, which keeps
element areas exact.

Connectivity is held once, as int32 in C order (one node triple per row).
The element operator reads it without copying: ``operators.IndexArrays``
holds ``elements.T`` as its (3, n_e) gather array ``indt`` and builds its
scatter plan from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

# Levels above this exhaust address space long before they are useful
# (level 12 already means ~33.5M triangles).
MAX_LEVEL = 12

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
    operator, and ``operators.build_index_arrays`` shares the array rather
    than copying it.  Meshes with more nodes than int32 can index are
    rejected.
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
