"""Pure-numpy Bellman sweep kernels (fallback backend).

``jacobi_min`` has the same contract as the compiled ``_sweep_core`` kernel:
one synchronous Bellman application.  ``jacobi_argmin`` also records a
minimizing control per node; it serves Howard's policy iteration on both
backends.
"""

from __future__ import annotations

import numpy as np


def jacobi_min(
    idx: np.ndarray,      # (na, N, 4) int32 corner indices
    w: np.ndarray,        # (na, N, 4) float64 corner weights
    base: np.ndarray,     # (na, N) float64 step cost (+inf marks inadmissible)
    gamma: float,
    u: np.ndarray,        # (N,) current values
    out: np.ndarray,      # (N,) output
) -> None:
    na = idx.shape[0]
    out[:] = np.inf
    for a in range(na):
        cand = base[a] + gamma * np.einsum("nk,nk->n", w[a], u[idx[a]])
        np.minimum(out, cand, out=out)


def jacobi_argmin(idx, w, base, gamma, u, out, policy) -> None:
    """``jacobi_min`` that also writes the first minimizing control to ``policy`` (N,)."""
    na = idx.shape[0]
    out[:] = np.inf
    policy[:] = 0
    for a in range(na):
        cand = base[a] + gamma * np.einsum("nk,nk->n", w[a], u[idx[a]])
        better = cand < out
        out[better] = cand[better]
        policy[better] = a
