"""Correctness gate: decides whether one benchmark sample failed.

The first sample of every run is the reference.  It recomputes the masked
residual of each returned iterate with the assembled oracle
(``assemble_sparse``/``assemble_rhs``); every later sample of the run must
reproduce its history digest bit for bit.
"""

from __future__ import annotations

import hashlib

# |‖mask(b − A·x)‖ − last history residual| must stay below this times ‖r⁰‖.
# Scaling by ‖r⁰‖, not by the final residual: a tolerance-stopped run ends
# near round-off of the assembled product and would be rejected otherwise.
ORACLE_RTOL = 1e-10

# ‖r⁰‖ at or below this times ‖b‖ means x⁰ already solves the system
# (nu = 1 with f = g = 1 has u = 1 exactly), so no solver is exercised.
ROUNDOFF_R0 = 1e-10


def residual_gaps(runs, A, b, nd) -> dict[str, float]:
    """Per iterative run: |‖b − A·x‖ on free nodes − last recorded residual norm|."""
    import numpy as np

    gaps = {}
    for name, run in runs.items():
        if run.history is None:
            continue
        r = b - A @ run.x
        r[nd] = 0.0
        gaps[name] = abs(float(np.linalg.norm(r)) - float(run.history.residual_norms[-1]))
    return gaps


def history_digest(runs) -> str:
    """SHA-256 over every run's residual/error history and returned iterate."""
    h = hashlib.sha256()
    for name in sorted(runs):
        run = runs[name]
        h.update(name.encode())
        h.update(run.x.tobytes())
        if run.history is not None:
            h.update(run.history.residual_norms.tobytes())
            if run.history.error_norms is not None:
                h.update(run.history.error_norms.tobytes())
    return h.hexdigest()


def solver_summary(runs) -> dict[str, dict]:
    """Iterations, initial/final residual, divergence and error ratio per solver."""
    out = {}
    for name, run in runs.items():
        hist = run.history
        if hist is None:
            continue
        errors = hist.error_norms
        out[name] = {
            "iters": len(hist.residual_norms) - 1,
            "r0": float(hist.residual_norms[0]),
            "final": float(hist.residual_norms[-1]),
            "diverged": bool(hist.diverged),
            "e_ratio": (None if errors is None or errors[0] == 0
                        else float(errors[-1] / errors[0])),
        }
    return out


def failures(sample: dict, ref: dict | None, tol: float | None) -> list[str]:
    """Reasons the sample failed the gate; empty when it passed.

    ``ref`` is the run's reference sample (the one that carries ``oracle``);
    ``sample`` may be ``ref`` itself.
    """
    if sample.get("error"):
        return [f"raised {sample['error']}"]
    out = []
    rho = sample["rho"]
    for name, s in sample["solvers"].items():
        if s["diverged"]:
            out.append(f"{name} diverged")
        elif tol is not None and not s["final"] <= tol * s["r0"]:
            out.append(f"{name} hit its cap of {s['iters']} steps before tol {tol:g}")
        if name == "cheb3" and s["e_ratio"] is not None and rho is not None:
            bound = 2.0 * rho ** s["iters"]
            if not s["e_ratio"] <= bound:
                out.append(f"cheb3 e_N/e_0 {s['e_ratio']:.3e} exceeds 2*rho^N {bound:.3e}")

    oracle = None if ref is None or ref.get("error") else ref.get("oracle")
    if oracle is None:
        out.append("no reference sample to check against")
        return out
    for name, s in sample["solvers"].items():
        if s["r0"] <= ROUNDOFF_R0 * oracle["b_norm"]:
            out.append(f"{name} ||r0|| = {s['r0']:.3e} is at round-off; x0 already solves")
    if sample is ref:
        for name, gap in oracle["gaps"].items():
            r0 = sample["solvers"][name]["r0"]
            if not gap <= ORACLE_RTOL * r0:
                out.append(f"{name} residual differs from the assembled oracle by "
                           f"{gap:.3e} > {ORACLE_RTOL:g}*||r0||")
    elif sample["digest"] != ref["digest"]:
        out.append("history digest differs from the reference sample")
    return out
