"""Batched P1 element matrices.

All local quantities are computed for every element at once and stored in
3-index arrays of shape (n_b, n_b, n_e) with n_b = 3, the layout used by
the element-by-element residual kernel.  The arrays are C-contiguous along
the element axis: entry (i, j) of every element sits in one contiguous run
of n_e values, so the kernel's local product streams nine unit-stride rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .mesh import IndexArrays, Mesh, build_index_arrays

EPS_AREA = 1e-14

# exact P1 mass pattern: M_e = area/12 * (ones + eye)
_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0


@dataclass(frozen=True)
class ElementBatch:
    """Everything the matrix-free operator needs, batched over elements.

    A_e = K_e + nu*M_e is the only resident element matrix; b_e holds the
    local load vectors (one column per element) prior to assembly and
    ``areas`` the element areas.  In a batch from ``build_element_batch``,
    b_e is a read-only broadcast view of one per-element load vector and
    ``index.indt`` a view of the mesh's connectivity.  The batch keeps no
    mesh: ``local_stiffness_batch(m)`` and ``local_mass_batch(m)`` give
    K_e and M_e for the mesh it was built from.
    """

    A_e: npt.NDArray[np.float64]
    b_e: npt.NDArray[np.float64]
    areas: npt.NDArray[np.float64]
    nu: float
    index: IndexArrays

    def __post_init__(self):
        n_e = self.index.indt.shape[1]
        if self.A_e.shape != (3, 3, n_e):
            raise ValueError(f"A_e must have shape (3, 3, {n_e}), got {self.A_e.shape}")
        if self.b_e.shape != (3, n_e):
            raise ValueError(f"b_e must have shape (3, {n_e}), got {self.b_e.shape}")
        if self.areas.shape != (n_e,):
            raise ValueError(f"areas must have shape ({n_e},), got {self.areas.shape}")
        if not (np.isfinite(self.nu) and self.nu >= 0):
            raise ValueError(f"nu must be finite and nonnegative, got {self.nu}")
        object.__setattr__(self, "A_e", np.ascontiguousarray(self.A_e, dtype=np.float64))

    @property
    def n_elements(self) -> int:
        return self.index.indt.shape[1]


def _triangle_geometry(m: Mesh):
    """Element areas and P1 basis gradients.

    Returns (areas, grads) with grads of shape (2, 3, n_e), C-contiguous:
    grads[:, j, e] is the constant gradient of the basis function attached
    to local node j of element e.
    """
    x, y = m.nodes.T[:, m.elements.T]  # each (3, n_e)
    det = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])  # 2*area
    areas = 0.5 * det
    if np.any(areas <= EPS_AREA):
        worst = int(np.argmin(areas))
        raise ValueError(
            f"degenerate element {worst}: area {areas[worst]:.3e} <= {EPS_AREA}"
        )
    grads = np.empty((2, 3, m.n_elements))
    for j in range(3):
        jn, jp = (j + 1) % 3, (j + 2) % 3
        np.divide(y[jn] - y[jp], det, out=grads[0, j])
        np.divide(x[jp] - x[jn], det, out=grads[1, j])
    return areas, grads


def _stiffness(areas, grads) -> npt.NDArray[np.float64]:
    k = np.einsum("kie,kje->ije", grads, grads)
    k *= areas
    return k


def _mass(areas) -> npt.NDArray[np.float64]:
    return _MASS_PATTERN[:, :, None] * areas


def local_stiffness_batch(m: Mesh) -> npt.NDArray[np.float64]:
    """K_e slices: area * G^T G with G the 2x3 gradient matrix (exact for P1)."""
    return _stiffness(*_triangle_geometry(m))


def local_mass_batch(m: Mesh) -> npt.NDArray[np.float64]:
    """M_e slices: area/12 * [[2,1,1],[1,2,1],[1,1,2]] (exact for P1)."""
    areas, _ = _triangle_geometry(m)
    return _mass(areas)


def _load(m: Mesh, areas, f) -> npt.NDArray[np.float64]:
    # allocated before the temporaries below: freed after it, they leave no
    # hole under a live array that the allocator would have to keep mapped
    # (~20 MB of peak RSS at level 10)
    load = np.empty(m.n_elements)
    # one 1-D gather per corner and coordinate, summed left to right and
    # divided by 3: the arithmetic of nodes[elements].mean(axis=1) without
    # its (n_e, 3, 2) temporary and slow strided reduction
    a, b, c = m.elements.T
    cx, cy = ((coord[a] + coord[b] + coord[c]) / 3.0 for coord in m.nodes.T)
    vals = np.asarray(f(cx, cy), dtype=np.float64)
    vals = np.broadcast_to(vals, (m.n_elements,))
    if not np.all(np.isfinite(vals)):
        raise ValueError("source function returned non-finite values")
    np.multiply(vals, areas, out=load)
    load /= 3.0
    return np.broadcast_to(load, (3, m.n_elements))


def build_element_batch(m: Mesh, nu: float = 0.0, f=None) -> ElementBatch:
    """Assemble the full batch for a mesh (default source f = 1).

    The triangle geometry is computed once and A_e is written in place, with
    the same arithmetic as ``local_stiffness_batch(m) + nu * local_mass_batch(m)``.
    b_e[j] = f(centroid)*area/3 by one-point quadrature; a scalar f is broadcast.
    """
    if not (np.isfinite(nu) and nu >= 0):
        raise ValueError(f"nu must be finite and nonnegative, got {nu}")
    if f is None:
        f = lambda x, y: np.ones_like(x)
    areas, grads = _triangle_geometry(m)
    A_e = _stiffness(areas, grads)
    del grads  # free before the mass and load temporaries are allocated
    if nu > 0:
        A_e += nu * _mass(areas)
    return ElementBatch(
        A_e=A_e,
        b_e=_load(m, areas, f),
        areas=areas,
        nu=float(nu),
        index=build_index_arrays(m),
    )
