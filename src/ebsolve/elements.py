"""Batched P1 element matrices.

Local quantities are indexed as 3-index arrays of shape (n_b, n_b, n_e)
with n_b = 3, and ``build_element_batch`` computes all of them in one pass
over blocks of ``GATHER_BLOCK`` elements, a few array operations per
block.  Contiguous ranges of blocks run on the residual's thread pool;
each block writes only its own slices, so the batch is bitwise the same
for any thread count.  That pass is the library's only geometry code: it
computes each element's area once and rejects, by global index, any
element that is clockwise, degenerate or of non-finite area.  The
batch's A_e is stored C-contiguous as (3, n_e, 3) and exposed as its
(3, 3, n_e) transposed view: for each local row i, the n_e triples
A_e[i, :, e] lie one after another, which is the data array of that
row's element CSR matrix (see ``IndexArrays``): the residual kernel
streams A_e once, in order, in zero-copy slices of one element window
each.
``local_stiffness_batch`` and ``local_mass_batch`` are thin wrappers over
that pass and return plain C-contiguous (3, 3, n_e) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from .mesh import Mesh
from .operators import IndexArrays, _split, build_index_arrays, check_threads, scatter

EPS_AREA = 1e-14

# Elements per block of ``build_element_batch``'s pass.  numpy converts an
# int32 index to intp before it gathers, and a block's corners, geometry
# and (3, 3, B) einsum scratch (~1.2 MB) stay in cache.  Level 10, on a
# shared 2-core host: the corner gathers, 1-D on ``x, y = nodes.T``,
# ~20 ms, against ~100 ms for the mixed index ``nodes.T[:, corners]``; the
# whole serial batch build ~0.25-0.35 s (index arrays included), against
# ~0.5 s with the mixed index and ~0.9 s for full-width geometry.
GATHER_BLOCK = 16384

# exact P1 mass pattern: M_e = area/12 * (ones + eye)
_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0


@dataclass(frozen=True)
class ElementBatch:
    """Everything the matrix-free operator needs, batched over elements.

    A_e = K_e + nu*M_e is the only resident element matrix, a (3, 3, n_e)
    view whose transpose ``A_e.transpose(0, 2, 1)`` is C-contiguous (any
    other A_e given is copied into that layout); b_e holds the
    local load vectors (one column per element) prior to assembly and
    ``areas`` the element areas.  ``b`` is the assembled load, computed
    once here by ``operators.scatter(index, b_e)`` and read-only, bitwise
    equal to ``assemble_rhs(b_e, index.indt, index.n_nodes)``: every
    residual starts from it.  In a batch from ``build_element_batch``,
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
    b: npt.NDArray[np.float64] = field(init=False, repr=False, compare=False)

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
        store = np.ascontiguousarray(self.A_e.transpose(0, 2, 1), dtype=np.float64)
        object.__setattr__(self, "A_e", store.transpose(0, 2, 1))
        b = scatter(self.index, self.b_e)
        b.setflags(write=False)
        object.__setattr__(self, "b", b)

    @property
    def n_elements(self) -> int:
        return self.index.indt.shape[1]


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


def build_element_batch(m: Mesh, nu: float = 0.0, f=None, threads: int = 1) -> ElementBatch:
    """Assemble the full batch for a mesh (default source f = 1).

    One pass over blocks of ``GATHER_BLOCK`` elements: each block's
    corners are gathered once, by 1-D gathers on the coordinate views
    ``m.nodes.T``, then give its areas and gradients, its
    A_e = area * G^T G + nu * M_e, written into the storage layout, and its
    load b_e[j] = f(centroid)*area/3 by one-point quadrature.  ``f`` is
    evaluated pointwise, one block of centroids per call; a scalar f is
    broadcast.  The index arrays are built first, while only the mesh is
    resident, and no full-width temporary is formed.

    Contiguous ranges of blocks run on ``threads`` workers of the
    long-lived pool the residual uses, the calling thread taking the first
    range; ``threads`` outside 1..``operators.MAX_THREADS`` raises
    ``ValueError`` before anything is allocated.  Each block writes only its own
    slices of the stored arrays, so the batch is bitwise independent of
    ``threads``.  With more than one thread ``f`` is called concurrently
    from worker threads, so it must be pointwise and safe to call from
    several threads at once.  A block that holds a degenerate element or a
    non-finite source value raises a ``ValueError`` naming the element by
    global index; every range finishes first, and the error raised is that
    of the lowest failing block, the one the serial pass raises.
    """
    if not (np.isfinite(nu) and nu >= 0):
        raise ValueError(f"nu must be finite and nonnegative, got {nu}")
    check_threads(threads)
    if f is None:
        f = lambda x, y: np.ones_like(x)
    index = build_index_arrays(m)
    n_e = m.n_elements
    store = np.empty((3, n_e, 3))
    areas = np.empty(n_e)
    load = np.empty(n_e)
    xs, ys = m.nodes.T
    size = GATHER_BLOCK

    def run(k0, k1):
        for lo in range(k0 * size, k1 * size, size):
            blk = slice(lo, lo + size)
            corners = m.elements[blk].T.astype(np.intp)
            x, y = xs[corners], ys[corners]  # x[j, e]: x of the block's element e's node j
            a, grads = _geometry(x, y, lo)
            k = np.einsum("kie,kje->ije", grads, grads)
            k *= a
            if nu > 0:
                k += nu * _mass(a)
            store[:, blk].transpose(0, 2, 1)[...] = k
            areas[blk] = a
            # centroids summed corner by corner and divided by 3: the arithmetic
            # of nodes[elements].mean(axis=1)
            vals = f((x[0] + x[1] + x[2]) / 3.0, (y[0] + y[1] + y[2]) / 3.0)
            vals = np.broadcast_to(np.asarray(vals, dtype=np.float64), a.shape)
            finite = np.isfinite(vals)
            if not finite.all():
                raise ValueError("source function returned a non-finite value at "
                                 f"element {lo + int(np.argmin(finite))}")
            load[blk] = vals * a / 3.0

    # each range's temporaries (~3 MB a block) are freed when it returns,
    # before ElementBatch assembles the load beside the finished arrays
    _split(run, -(-n_e // size), threads)
    return ElementBatch(
        A_e=store.transpose(0, 2, 1),
        b_e=np.broadcast_to(load, (3, n_e)),
        areas=areas,
        nu=float(nu),
        index=index,
    )


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
