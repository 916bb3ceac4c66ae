"""Assembled-matrix ground truth for verifying the matrix-free path.

Everything here builds or factorizes an explicit sparse matrix and is kept
out of the iterative solvers' path on purpose.  ``assemble_sparse``,
assembly from element-order triplets, is the independent oracle the tests
check the node-row kernels against; the CLI's ``direct`` solver and its
``--compare-direct`` error norms solve the node rows' own sum
(``operators.NodeRows``) instead.  The direct solve is SuperLU on the
reduced free-node system without its stored zeros, renumbered first by
reverse Cuthill-McKee (Cuthill & McKee 1969) and then ordered by minimum
degree on its symmetric pattern (``MMD_AT_PLUS_A``; George & Liu 1989),
so that its fill and time do not depend on how the mesh numbers its
nodes.  It is the only solve, and it factorizes beside one copy of the
system: the assembled matrix and each slice of it are dropped once the
next exists.  Its memory grows ~4x per level (1.9 GB at level 10), so
systems above ``MAX_DIRECT_UNKNOWNS`` free nodes, level 10's count, are
refused.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt
import scipy
import scipy.sparse

from .operators import DirichletData, node_count

MAX_DIRECT_UNKNOWNS = 1023**2  # the free nodes of the level-10 unit-square grid
_DENSE_EIG_LIMIT = 2000


def assemble_sparse(slices: np.ndarray, indt: np.ndarray,
                    n_nodes: int | None = None) -> scipy.sparse.csr_matrix:
    """Assemble batched local matrices into one global n_nodes x n_nodes CSR matrix.

    Every local entry (i, j, e) becomes a triplet at global position
    (indt[i,e], indt[j,e]); duplicates are consolidated by summation.  A
    node no element references gets an empty row and column; see
    ``node_count`` for the default ``n_nodes``.
    """
    if slices.ndim != 3 or slices.shape[:2] != (3, 3) or indt.shape != (3, slices.shape[2]):
        raise ValueError(
            f"inconsistent shapes: slices {slices.shape}, indt {indt.shape}"
        )
    n = node_count(indt, n_nodes)
    rows = np.broadcast_to(indt[:, None, :], slices.shape).ravel()
    cols = np.broadcast_to(indt[None, :, :], slices.shape).ravel()
    coo = scipy.sparse.coo_matrix((slices.ravel(), (rows, cols)), shape=(n, n))
    return coo.tocsr()


def solve_reference(
    A: scipy.sparse.spmatrix,
    b: np.ndarray,
    d: DirichletData,
) -> npt.NDArray[np.float64]:
    """Reference solution with constrained values eliminated exactly.

    Constrained rows/columns are removed, their known values moved to the
    right-hand side, and the reduced SPD system is solved directly.
    Prescribed values are reinserted afterwards.  ``b`` must have shape
    ``(n,)``; more than ``MAX_DIRECT_UNKNOWNS`` free nodes raise ``ValueError``.
    """
    A = A.tocsr()
    n = A.shape[0]
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"b has shape {b.shape}, but a {n}x{n} system needs shape {(n,)}")
    free = np.flatnonzero(d.free_mask(n))
    if free.size > MAX_DIRECT_UNKNOWNS:
        raise ValueError(f"{free.size} free nodes exceed the direct solve's limit "
                         f"MAX_DIRECT_UNKNOWNS = {MAX_DIRECT_UNKNOWNS} (level 10)")
    x = np.zeros(n)
    x[d.nd] = d.values
    if free.size == 0:
        return x

    # each copy is dropped as soon as the next exists, so that SuperLU's
    # factors are allocated beside Aff alone: a caller that passes A on
    # without keeping it (run_experiment) frees it here
    rhs = b[free]
    A_free = A[free]
    del A
    if d.nd.size:
        rhs = rhs - A_free[:, d.nd] @ d.values
    Aff = A_free[:, free]
    del A_free
    # Aff is a new matrix, so the caller's A keeps its stored zeros.  The
    # orderings and the factorization see only the stored pattern, and at
    # nu = 0 on the grid 28% of Aff's entries are exact zeros (the
    # hypotenuse couplings of the right triangles): at level 8, 453,137
    # stored entries become 324,105.
    Aff.eliminate_zeros()

    # reverse Cuthill-McKee, then minimum degree on the pattern of A^T + A,
    # Aff's own: at level 8 (nu = 0) 3.97 M L+U nonzeros, against 4.30 M
    # with the zeros kept, 5.22 M for minimum degree alone and 8.88 M for
    # SuperLU's default COLAMD.  At levels 9 and 10 minimum degree fills the
    # zero-free pattern more (21.5 M against 21.2 M, 110 M against 101 M,
    # where the factorization takes ~20% longer), yet a fresh --solver
    # direct process still peaks lower without the zeros: by ~30 MB at
    # level 9 and ~45 MB at level 10.
    # Minimum degree alone also depends on the numbering it starts from: on
    # a randomly renumbered level-7 grid it took ~12 s against ~50 ms in
    # grid order; after RCM both take ~40 ms.  free follows the
    # permutation, so x[free] = sol below scatters the solution back.
    # csgraph and sparse.linalg are looked up here, so that runs without a
    # reference never import them (~11 MB of resident memory).
    perm = scipy.sparse.csgraph.reverse_cuthill_mckee(Aff, symmetric_mode=True)
    Aff, rhs, free = Aff[perm][:, perm], rhs[perm], free[perm]
    # spsolve factors a CSR matrix as the CSC matrix of its transpose, which
    # is Aff, a symmetric matrix, again: no CSC copy is made
    sol = scipy.sparse.linalg.spsolve(Aff, rhs, permc_spec="MMD_AT_PLUS_A")
    if not np.all(np.isfinite(sol)):
        raise RuntimeError("factorization produced non-finite values (system not SPD?)")
    check = np.linalg.norm(Aff @ sol - rhs)
    if check > 1e-10 * max(1.0, float(np.linalg.norm(rhs))):
        raise RuntimeError(
            f"reduced solve inaccurate (residual {check:.3e}); system not SPD?"
        )
    x[free] = sol
    return x


def dense_interior_eigenvalues(
    A: scipy.sparse.spmatrix,
    d: DirichletData,
) -> npt.NDArray[np.float64]:
    """Full sorted spectrum of the free-node principal submatrix (small systems)."""
    A = A.tocsr()
    free = np.flatnonzero(d.free_mask(A.shape[0]))
    if free.size > _DENSE_EIG_LIMIT:
        raise ValueError(
            f"{free.size} free nodes exceed the dense-eigensolver guard "
            f"({_DENSE_EIG_LIMIT})"
        )
    dense = A[free][:, free].toarray()
    return scipy.linalg.eigvalsh(dense)
