"""Eigenvalue bounds for the interior (free-node) operator.

For the pure stiffness system on the structured unit-square mesh the
spectrum is known in closed form: with n nodes per side there are (n-2)^2
eigenvalues

    lambda(i, j) = 4*(sin^2(i*pi/(2*(n-1))) + sin^2(j*pi/(2*(n-1)))),

i, j = 1..n-2.  The extremes sit at i = j = 1 and i = j = n-2 and are exact
complements: lambda1 + lambda2 = 8.

For nu > 0 the stiffness and mass parts are bounded separately and
combined by Weyl's inequality: lambda_min(K + nu*M) >= lambda1 + nu*m_lo and
lambda_max(K + nu*M) <= lambda2 + nu*m_hi, where [m_lo, m_hi] encloses the
free-node mass spectrum by element-wise bounds (Wathen 1987).  The interval
is guaranteed to enclose the spectrum and costs one pass over the elements.
Both cases take lambda1 and lambda2 from the closed form above, so they
assume the structured grid with n nodes per side.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .elements import ElementBatch
from .operators import DirichletData, scatter
from .solvers import SpectralBounds


def model_eigenvalues_all(n: int) -> npt.NDArray[np.float64]:
    """All (n-2)^2 interior stiffness eigenvalues for n nodes per side, sorted."""
    if n < 3:
        raise ValueError(f"need n >= 3 for an interior node, got n={n}")
    i = np.arange(1, n - 1)
    s = np.sin(i * np.pi / (2 * (n - 1))) ** 2
    lam = 4.0 * (s[:, None] + s[None, :])
    return np.sort(lam.ravel())


def model_eigen_bounds(n: int) -> SpectralBounds:
    """Exact extreme eigenvalues of the model stiffness system.

    lambda1 is evaluated from the closed form at i = j = 1; lambda2 is taken
    as 8 - lambda1, which the closed form gives exactly (the sine arguments
    at the two extremes are complementary angles).
    """
    if n < 3:
        raise ValueError(f"need n >= 3 for an interior node, got n={n}")
    lam1 = 8.0 * np.sin(np.pi / (2 * (n - 1))) ** 2
    return SpectralBounds(lambda1=float(lam1), lambda2=float(8.0 - lam1))


def mass_bounds(batch: ElementBatch, d: DirichletData) -> tuple[float, float]:
    """Element-wise enclosure of the free-node mass matrix spectrum.

    Every P1 element mass matrix is area/12 * (ones + eye), whose extreme
    eigenvalues are area/12 and area/3.  Summed over elements this gives

        diag(s)/12 <= M <= diag(s)/3,    s_i = sum of areas of elements at i,

    in the Loewner order, and every principal submatrix keeps both
    inequalities.  The free-node spectrum therefore lies in
    [min s_i / 12, max s_i / 3] over free nodes i (Wathen 1987).  The sums
    s_i add up ``batch.areas``, the areas M_e is built from, with
    ``operators.scatter``.
    """
    index = batch.index
    node_area = scatter(index, np.broadcast_to(batch.areas, index.indt.shape))
    is_free = np.ones(index.n_nodes, dtype=bool)
    is_free[d.nd] = False
    s = node_area[is_free]
    if s.size == 0:
        raise ValueError("no free nodes")
    return float(s.min()) / 12.0, float(s.max()) / 3.0


def operator_bounds(batch: ElementBatch, d: DirichletData, n: int) -> SpectralBounds:
    """Spectral bounds for the experiment operator A = K + nu*M, nu = ``batch.nu``.

    nu = 0 uses the closed-form model interval [lambda1_K, 8 - lambda1_K].
    Otherwise Weyl's inequality adds the element-wise mass bounds
    [m_lo, m_hi] of ``mass_bounds`` to it:

        [lambda1_K + nu*m_lo, (8 - lambda1_K) + nu*m_hi],

    which encloses the free-node spectrum by construction.  Both branches
    assume that the batch is the structured grid with n nodes per side.
    """
    nu = batch.nu
    base = model_eigen_bounds(n)
    if nu == 0.0:
        return base
    m_lo, m_hi = mass_bounds(batch, d)
    return SpectralBounds(lambda1=base.lambda1 + nu * m_lo,
                          lambda2=base.lambda2 + nu * m_hi)
