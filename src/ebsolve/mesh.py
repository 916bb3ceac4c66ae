"""Structured triangular meshes of the unit square.

The generator subdivides (0,1)x(0,1) into an n-by-n grid of nodes and
splits every cell into two triangles along the diagonal running from the
lower-left to the upper-right corner.  Nodes are numbered row by row
(y outer, x inner), so node ``iy*n + ix`` sits at ``(ix/(n-1), iy/(n-1))``.
Each cell lists its upper triangle before its lower one, so that the
first and the third node of the elements never decrease: local rows 0
and 2 of the node-row layout are then in element order and take the
connectivity itself as their columns (``operators.node_rows``).
All coordinates are dyadic rationals for the level-based sizes, which keeps
element areas exact.

This module holds topology and structural checks only: shapes, index
ranges and finite coordinates.  Element geometry (areas, orientation,
degeneracy) is computed and checked in one place, the block pass of
``elements.build_element_batch``.  Connectivity is held once, as int32 in
C order (one node triple per row).  The element operator reads it without
copying: ``operators.IndexArrays`` holds the transpose of ``Mesh.elements``
as its (3, n_e) gather array ``indt``, from which ``operators.node_rows``
derives the node-row layout of A_e.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

# Levels above this exhaust address space long before they are useful
# (level 12 already means ~33.5M triangles).
MAX_LEVEL = 12

# connectivity and the node rows' pointers, columns and slots are int32
INDEX_MAX = np.iinfo(np.int32).max


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

    ``elements`` holds one node-index triple per row, as a C-contiguous
    int32 (n_e, 3) array: raveled, it lists each element's three nodes in
    turn, the column array of the element operator, and
    ``operators.build_index_arrays`` shares the array rather than copying
    it.  Non-finite coordinates, out-of-range indices and meshes with more
    nodes than int32 can index are rejected here; that every triple is
    counterclockwise with positive area is checked when
    ``build_element_batch`` computes the areas.
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
        if not np.isfinite(nodes).all():
            raise ValueError("nodes must hold finite coordinates")
        nodes = np.ascontiguousarray(nodes)
        if elements.ndim != 2 or elements.shape[1] != 3:
            raise ValueError(f"elements must have shape (n_e, 3), got {elements.shape}")
        # range-checked before the cast, which would wrap larger values
        if elements.size and (elements.min() < 0 or elements.max() >= len(nodes)):
            raise ValueError("element connectivity references nonexistent nodes")
        elements = np.ascontiguousarray(elements, dtype=np.int32)
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


def build_grid_mesh(n: int) -> Mesh:
    """Structured mesh with ``n`` nodes per side (n >= 2), any grid size.

    Cells are visited row by row; each contributes its upper triangle
    (ll, ur, ul) followed by its lower triangle (ll, lr, ur), both
    counterclockwise.  In that order the first nodes read c, c, c+1, c+1,
    ... and the third nodes c+n, c+n+1, c+n+1, c+n+2, ...: neither ever
    decreases, so local rows 0 and 2 of the node rows are in element
    order and hold no columns of their own.  The middle nodes (ur, lr)
    do decrease, and no order of the cells or rotation of the triples
    keeps all three positions in order: ur follows ll one step round the
    upper triangle but two round the lower.  Nodes and int32 connectivity
    are written straight into the layout ``Mesh`` stores, and the
    boundary is read off the grid indices; a grid whose node count int32
    cannot index is rejected before anything is allocated.
    """
    if n < 2:
        raise ValueError(f"need at least 2 nodes per side, got n={n}")
    if n * n > INDEX_MAX:  # ll + n + 1 would wrap in int32
        raise ValueError(f"{n}x{n} nodes exceed the int32 index range")
    ticks = np.arange(n, dtype=np.float64) / (n - 1)
    nodes = np.empty((n * n, 2))
    grid = nodes.reshape(n, n, 2)  # [iy, ix, coordinate]: y-outer numbering
    grid[:, :, 0] = ticks
    grid[:, :, 1] = ticks[:, None]

    m = n - 1
    elements = np.empty((2 * m * m, 3), dtype=np.int32)
    cells = elements.reshape(m, m, 2, 3)  # [iy, ix, triangle, corner]
    rows = np.arange(0, m * n, n, dtype=np.int32)  # ll of each row's first cell
    cols = np.arange(m, dtype=np.int32)
    for t, corners in enumerate(((0, n + 1, n), (0, 1, n + 1))):
        for c, offset in enumerate(corners):
            np.add(rows[:, None], cols + offset, out=cells[:, :, t, c])

    sides = np.arange(n, m * n, n)  # first node of every row but the outer two
    boundary = np.concatenate([np.arange(n), np.column_stack([sides, sides + m]).ravel(),
                               np.arange(m * n, n * n)])
    return Mesh(nodes, elements, boundary)


def build_unit_square_mesh(level: int) -> Mesh:
    """Structured mesh at refinement level L: (2^L+1)^2 nodes, 2*4^L triangles."""
    if level < 0:
        raise ValueError(f"level must be nonnegative, got {level}")
    if level > MAX_LEVEL:
        raise ValueError(f"level {level} exceeds the size guard (max {MAX_LEVEL})")
    return build_grid_mesh(2**level + 1)

