"""Richardson and Chebyshev iterations driven by the matrix-free residual.

All three methods share one loop: at one site per step, the start included,
compute the residual, zero it at the constrained nodes, record norms and
test for a stop; then advance the iterate.  The residual's own input check
is the step's one test for a non-finite iterate.  They differ only in the step
they take from the current residual:

* richardson      x += omega * r                  with omega = 2/(lam1+lam2)
* chebyshev2      x += (1/alpha_{k mod N}) * r    cycling through the N roots
                  of the shifted Chebyshev polynomial in natural order
* chebyshev3      two-term alpha/beta recurrence, the numerically stable
                  realization of the same Chebyshev polynomial

The cyclic two-level method is kept deliberately in its naive root order:
its intra-cycle amplification of round-off is a feature under study, not a
bug to fix here.

A solve allocates its working arrays once: the iterate, one residual
vector that every step's ``residual`` call overwrites (its ``out``),
cheb3's direction p and, with a reference solution, the difference whose
norm is the step's error.  Each step updates x (and p) in place, using the
residual vector as the scratch for its scaled step, with the same IEEE
operations as ``x + step * r``, so the iterates are bitwise those of the
allocating form.  The ``x`` and ``r`` a callback receives are these live
buffers: the next step overwrites them, so copy what should be kept.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .elements import ElementBatch
from .operators import DirichletData, NonFiniteError, mask_dirichlet, residual


@dataclass(frozen=True)
class SpectralBounds:
    """An interval [lambda1, lambda2] enclosing the spectrum on free nodes.

    lambda1 = 0 is admitted so that root computations on a half-open
    spectrum stay expressible; convergence guarantees need lambda1 > 0.
    """

    lambda1: float
    lambda2: float

    def __post_init__(self):
        if not (np.isfinite(self.lambda1) and np.isfinite(self.lambda2)):
            raise ValueError("spectral bounds must be finite")
        if self.lambda1 < 0 or self.lambda2 < self.lambda1 or self.lambda2 <= 0:
            raise ValueError(
                f"need 0 <= lambda1 <= lambda2, lambda2 > 0; "
                f"got [{self.lambda1}, {self.lambda2}]"
            )

    @property
    def center(self) -> float:
        return (self.lambda2 + self.lambda1) / 2.0

    @property
    def half_width(self) -> float:
        return (self.lambda2 - self.lambda1) / 2.0


@dataclass(frozen=True)
class ConvergenceHistory:
    """Per-iteration record of one solve.

    residual_norms[k] is ||r^k||_2 for k = 0..iters (one entry more than the
    number of steps, since the residual after the final update is recorded
    too).  error_norms tracks ||x^k - reference||_2 when a reference
    solution, of x0's shape, was supplied.  stop_reason says why the loop ended:
    "diverged" when the iterate or its residual norm turned non-finite
    (at step 0 too), "tol" when the last residual norm met the relative
    tolerance, otherwise "budget" (the step count ran out).
    """

    residual_norms: npt.NDArray[np.float64]
    error_norms: npt.NDArray[np.float64] | None
    wall_time: float
    stop_reason: str = "budget"

    def __post_init__(self):
        if self.stop_reason not in ("budget", "tol", "diverged"):
            raise ValueError(f"unknown stop reason {self.stop_reason!r}")

    @property
    def diverged(self) -> bool:
        return self.stop_reason == "diverged"


def chebyshev_roots(bounds: SpectralBounds, N: int) -> npt.NDArray[np.float64]:
    """Roots of the degree-N Chebyshev polynomial shifted to [lambda1, lambda2].

    Returns the read-only array alphas[k] = d + c*cos(pi*(k+1/2)/N),
    k = 0..N-1, with d the interval center and c its half-width.  N = 1
    degenerates to the single root d, so one cycle step equals Richardson's
    optimal step.
    """
    if N < 1:
        raise ValueError(f"cycle length must be positive, got N={N}")
    k = np.arange(N)
    alphas = bounds.center + bounds.half_width * np.cos(np.pi * (k + 0.5) / N)
    alphas.setflags(write=False)
    return alphas


def chebyshev_scaling_factor(bounds: SpectralBounds, k: int) -> float:
    """C_k from the three-term recurrence; equals T_k((lam1+lam2)/(lam2-lam1))."""
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if bounds.lambda1 >= bounds.lambda2:
        raise ValueError("scaling factors need lambda1 < lambda2")
    t = (bounds.lambda1 + bounds.lambda2) / (bounds.lambda2 - bounds.lambda1)
    c_prev, c_cur = 1.0, t
    if k == 0:
        return c_prev
    for _ in range(k - 1):
        c_prev, c_cur = c_cur, 2.0 * t * c_cur - c_prev
    return c_cur


def _iterate(batch, dirichlet, x0, iters, advance, *, tol, reference, callback):
    """Shared solver loop; ``advance(k, x, r)`` updates x in place and may
    overwrite r, which the next residual call refills."""
    if iters < 0:
        raise ValueError(f"iteration count must be nonnegative, got {iters}")
    if reference is not None and np.shape(reference) != np.shape(x0):
        # a broadcasting reference would make every error norm a norm of x
        raise ValueError(f"reference must have the shape of x0, {np.shape(x0)}, "
                         f"got {np.shape(reference)}")
    dirichlet.check_nodes(batch.index.n_nodes)
    x = np.array(x0, dtype=np.float64, copy=True)
    r = np.empty(batch.index.n_nodes)
    norms = []
    errors = None
    if reference is not None:
        errors, diff = [], np.empty_like(x)
    stop_reason = "budget"
    t0 = time.perf_counter()

    # a diverging iterate overflows before it turns non-finite; the tests
    # below record that as divergence, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iters + 1):
            if k > 0:
                advance(k - 1, x, r)
            try:
                r = mask_dirichlet(residual(batch, x, out=r), dirichlet)
            except NonFiniteError:
                # residual's input check is the step's one test of the
                # iterate; a non-finite x0 is the caller's error
                if k == 0:
                    raise
                norms.append(float("inf"))
                if errors is not None:
                    errors.append(float("inf"))
                stop_reason = "diverged"
                break
            norms.append(float(np.linalg.norm(r)))
            if errors is not None:
                np.subtract(x, reference, out=diff)
                errors.append(float(np.linalg.norm(diff)))
            if callback is not None:
                callback(k, x, r)
            if not np.isfinite(norms[-1]):
                stop_reason = "diverged"
                break
            if tol is not None and norms[-1] <= tol * norms[0]:
                stop_reason = "tol"
                break

    history = ConvergenceHistory(
        residual_norms=np.array(norms),
        error_norms=None if errors is None else np.array(errors),
        wall_time=time.perf_counter() - t0,
        stop_reason=stop_reason,
    )
    return x, history


def richardson(
    batch: ElementBatch,
    d: DirichletData,
    x0: np.ndarray,
    bounds: SpectralBounds,
    iters: int,
    *,
    tol: float | None = None,
    reference: np.ndarray | None = None,
    callback=None,
):
    """Damped Richardson iteration with the optimal fixed step 2/(lam1+lam2)."""
    omega = 2.0 / (bounds.lambda1 + bounds.lambda2)

    def advance(k, x, r):
        np.multiply(r, omega, out=r)
        x += r

    return _iterate(batch, d, x0, iters, advance, tol=tol, reference=reference,
                    callback=callback)


def chebyshev2(
    batch: ElementBatch,
    d: DirichletData,
    x0: np.ndarray,
    bounds: SpectralBounds,
    N: int,
    iters: int,
    *,
    tol: float | None = None,
    reference: np.ndarray | None = None,
    callback=None,
):
    """Cyclic two-level Chebyshev iteration (roots in natural order).

    After each full cycle of N steps the accumulated error polynomial is the
    optimal shifted Chebyshev polynomial; within a cycle the small-root
    steps amplify high-frequency content, which makes intermediate residuals
    grow before the cycle completes.
    """
    alphas = chebyshev_roots(bounds, N)

    def advance(k, x, r):
        np.multiply(r, 1.0 / alphas[k % N], out=r)
        x += r

    return _iterate(batch, d, x0, iters, advance, tol=tol, reference=reference,
                    callback=callback)


def chebyshev3(
    batch: ElementBatch,
    d: DirichletData,
    x0: np.ndarray,
    bounds: SpectralBounds,
    iters: int,
    *,
    tol: float | None = None,
    reference: np.ndarray | None = None,
    callback=None,
):
    """Three-level Chebyshev iteration via the stable two-term recurrence.

    First step x^1 = x^0 + (1/d) r^0; afterwards

        beta_k  = (c*alpha_{k-1})^2 / 2        for k = 1,
                  (c*alpha_{k-1}/2)^2          for k > 1,
        alpha_k = 1 / (d - beta_k/alpha_{k-1}),
        p^k     = r^k + beta_k p^{k-1},
        x^{k+1} = x^k + alpha_k p^k.

    Equivalent, step for step, to the explicit three-term form built on the
    scaling factors C_k, but free of their exponential growth.
    """
    if not bounds.lambda1 < bounds.lambda2:
        raise ValueError("chebyshev3 needs lambda1 < lambda2")
    dd = bounds.center
    cc = bounds.half_width
    alpha, p = 0.0, None

    def advance(k, x, r):
        nonlocal alpha, p
        if k == 0:
            alpha = 1.0 / dd
            p = r.copy()
        else:
            beta = 0.5 * (cc * alpha) ** 2
            if k > 1:
                beta *= 0.5
            alpha = 1.0 / (dd - beta / alpha)
            p *= beta
            p += r
        np.multiply(p, alpha, out=r)
        x += r

    return _iterate(batch, d, x0, iters, advance, tol=tol, reference=reference,
                    callback=callback)
