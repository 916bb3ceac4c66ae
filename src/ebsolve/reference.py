"""Assembled-matrix ground truth for verifying the matrix-free path.

Everything here builds or factorizes an explicit sparse matrix and is kept
out of the iterative solvers' path on purpose: it exists so tests, the
CLI's ``direct`` solver and its ``--compare-direct`` error norms can check
the element-by-element kernels against conventional assembly.  The direct
solve is SuperLU on the reduced free-node system, with a minimum-degree
ordering of its symmetric pattern (``MMD_AT_PLUS_A``), and conjugate
gradients once that system exceeds ``_DIRECT_LIMIT`` unknowns.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .operators import DirichletData, node_count

# above this many unknowns a direct factorization stops being "small"
_DIRECT_LIMIT = 200_000
_DENSE_EIG_LIMIT = 2000
_CG_RTOL = 1e-13


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
    right-hand side, and the reduced SPD system is solved directly (or by
    conjugate gradients with a tight tolerance once it is too large for a
    factorization).  Prescribed values are reinserted afterwards.
    """
    A = A.tocsr()
    n = A.shape[0]
    d.check_nodes(n)
    x = np.zeros(n)
    x[d.nd] = d.values
    free = np.setdiff1d(np.arange(n), d.nd)
    if free.size == 0:
        return x

    rhs = np.asarray(b, dtype=np.float64)[free]
    A_free = A[free]
    if d.nd.size:
        rhs = rhs - A_free[:, d.nd] @ d.values
    Aff = A_free[:, free]

    if free.size <= _DIRECT_LIMIT:
        # minimum degree on the pattern of A^T + A, Aff's own: at level 8
        # (nu = 0) 5.22 M L+U nonzeros and ~0.52 s, against 8.88 M and
        # ~0.89 s with SuperLU's default COLAMD
        sol = scipy.sparse.linalg.spsolve(Aff.tocsc(), rhs, permc_spec="MMD_AT_PLUS_A")
    else:
        sol, info = scipy.sparse.linalg.cg(Aff, rhs, rtol=_CG_RTOL, maxiter=20 * free.size)
        if info != 0:
            raise RuntimeError(f"conjugate gradient failed to converge (info={info})")
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
    free = np.setdiff1d(np.arange(A.shape[0]), d.nd)
    if free.size > _DENSE_EIG_LIMIT:
        raise ValueError(
            f"{free.size} free nodes exceed the dense-eigensolver guard "
            f"({_DENSE_EIG_LIMIT})"
        )
    dense = A[free][:, free].toarray()
    return scipy.linalg.eigvalsh(dense)
