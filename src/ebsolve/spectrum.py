"""Eigenvalue bounds for the interior (free-node) operator.

For the pure stiffness system on the structured unit-square mesh the
spectrum is known in closed form: with n nodes per side there are (n-2)^2
eigenvalues

    lambda(i, j) = 4*(sin^2(i*pi/(2*(n-1))) + sin^2(j*pi/(2*(n-1)))),

i, j = 1..n-2.  The extremes sit at i = j = 1 and i = j = n-2 and are exact
complements: lambda1 + lambda2 = 8.

For nu > 0 the upper end adds element-wise mass bounds [m_lo, m_hi]
(Wathen 1987) by Weyl's inequality: lambda_max(K + nu*M) <= lambda2 +
nu*m_hi.  The lower end couples M and K element by element: every P1
element satisfies M_e + beta_e*K_e >= (area_e/3)*I, so with beta the
largest beta_e, K + nu*M >= (1 - nu*beta)*K + (nu/3)*diag(s) for
nu*beta <= 1, where s_i is the area of the elements at node i.  At level
8 with nu = 100 that lower end is within 4.2e-5 (relative) of the true
minimum, where Weyl's lambda1 + nu*m_lo, which pairs the smoothest
stiffness mode with the roughest mass mode, is 2.7x low; Weyl's remains
the fallback where nu*beta >= 1 and wherever it is larger.  The interval is
guaranteed to enclose the spectrum and costs one pass over the elements,
beside the beta the batch build takes.
All cases take lambda1 and lambda2 of K from the closed form above, so they
assume the structured grid; n is read from the batch's node count.
"""

from __future__ import annotations

from math import isqrt

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
    ``operators.scatter`` on a broadcast view of them, no (3, n_e) copy.
    """
    index = batch.index
    node_area = scatter(index, np.broadcast_to(batch.areas, index.indt.shape))
    s = node_area[d.free_mask(index.n_nodes)]
    if s.size == 0:
        raise ValueError("no free nodes")
    return float(s.min()) / 12.0, float(s.max()) / 3.0


# Relative round-off allowance of the nu > 0 lower end, 2**-46 = 128 units
# of 2**-53; ``operator_bounds`` gives the error budget it covers.
_ROUND_OFF = 2.0**-46


def _lower_end(batch: ElementBatch, lambda_k: float, m_lo: float) -> float:
    """Lower bound on the free-node spectrum of K + nu*M, nu = ``batch.nu`` > 0.

    ``lambda_k`` is a lower bound on the free-node spectrum of K and
    ``m_lo`` the lower mass bound of ``mass_bounds``; the result is the
    larger of Weyl's lambda_k + nu*m_lo and, where nu*beta < 1, the coupled
    (1 - nu*beta)*lambda_k + nu*4*m_lo, both rounded down by ``_ROUND_OFF``
    (see ``operator_bounds``).  beta = max_e area_e*tr(A_e)/3 is the batch's
    ``beta``, taken by its build from each element's A_e.
    """
    nu = batch.nu
    lam = lambda_k + nu * m_lo
    c = nu * (batch.beta * (1.0 + _ROUND_OFF))
    if c < 1.0:
        lam = max(lam, (1.0 - c) * lambda_k + nu * 4.0 * m_lo)
    return lam * (1.0 - _ROUND_OFF)


def operator_bounds(batch: ElementBatch, d: DirichletData) -> SpectralBounds:
    """Spectral bounds for the experiment operator A = K + nu*M, nu = ``batch.nu``.

    nu = 0 uses the closed-form model interval [lambda1_K, 8 - lambda1_K].
    Otherwise, with [m_lo, m_hi] the element-wise mass bounds of
    ``mass_bounds``, the upper end is Weyl's (8 - lambda1_K) + nu*m_hi and
    the lower end couples M and K element by element:

    * For a P1 element, M_e = area/12*(I + J) and K_e*1 = 0, so both keep
      the constant vector and its complement.  The two nonzero eigenvalues
      of K_e multiply to exactly 3/4 (each 2x2 principal minor of K_e is
      1/4), so on the complement K_e >= 3/(4*tr K_e), and with
      beta_e = area*tr(K_e)/3 the sum M_e + beta_e*K_e is >= area/3 on
      both parts.
    * Summed with beta >= every beta_e (K_e >= 0 takes up the excess),
      M + beta*K >= diag(s)/3, s_i the area of the elements at node i, and
      every principal submatrix keeps the inequality.  So for nu*beta <= 1

          lambda_min(K + nu*M) >= (1 - nu*beta)*lambda1_K + nu*min s_i/3

      over free nodes i, where min s_i/3 = 4*m_lo.  tr K_e <= tr A_e for
      nu > 0, so beta = max_e area*tr(A_e)/3 (``ElementBatch.beta``)
      needs no other element data.

    The lower end is the larger of that and Weyl's lambda1_K + nu*m_lo, or
    Weyl's alone when nu*beta >= 1.

    Round-off (u = 2**-53).  beta is rounded up by the relative allowance
    ``_ROUND_OFF`` = 128u, far more than the few u of its own evaluation
    and of the product nu*beta, so the computed c = nu*beta bounds the exact
    nu*max_e beta_e from above and 1 - c is a proven nonnegative
    coefficient, exact for c >= 1/2.  The other inputs may err upward: the
    closed-form lambda1_K by <= ~10u, min s_i, a sum of d positive areas at
    one node, by <= (d - 1)u, and the products and sum of the combination
    by <= 4u.  Both terms are nonnegative and neither exceeds the sum, so
    the computed lower end exceeds the exact one by at most (d + 14)u
    relative; multiplying it by 1 - 128u (rounded, <= u) puts it below the
    exact bound for every node in at most 100 elements (the grid has 6).
    The bounds are for K + nu*M as the element geometry defines it; the
    rounding of the stored A_e entries perturbs the operator itself by
    about u*||A||, far inside the bound's own slack on the grid (4e-5
    relative at level 8, nu = 100) but not covered by the allowance.

    All branches assume the structured grid, n = sqrt(n_nodes) nodes per
    side; a non-square node count or a constrained node beyond it raises.
    """
    n_nodes = batch.index.n_nodes
    n = isqrt(n_nodes)
    if n * n != n_nodes:
        raise ValueError(f"{n_nodes} nodes do not form a square grid")
    d.check_nodes(n_nodes)
    nu = batch.nu
    base = model_eigen_bounds(n)
    if nu == 0.0:
        return base
    m_lo, m_hi = mass_bounds(batch, d)
    return SpectralBounds(lambda1=_lower_end(batch, base.lambda1, m_lo),
                          lambda2=base.lambda2 + nu * m_hi)
