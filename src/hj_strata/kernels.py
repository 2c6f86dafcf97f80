"""The Bellman kernel: one synchronous semi-Lagrangian application.

An operator stores, for each control ``a`` and node ``n``, the four corner
indices ``idx[a, n]`` and bilinear weights ``w[a, n]`` of the foot point, and
the step cost ``base[a, n]`` (``+inf`` marks an inadmissible control, whose
weights are zero).  Those stencils are the rows of a sparse
``(n_controls*N) x N`` transition matrix, built by :func:`stencil_matrix`
with ``w`` and ``idx`` as its data and column arrays.  An application is then
one sparse product ``gamma * (P @ u) + base`` followed by a min (or argmin)
over controls.  scipy's CSR matvec sums each row as
``w0*u0 + w1*u1 + w2*u2 + w3*u3`` in a compiled loop, the same order as a
per-node C loop, so no extension module is needed and no build step either.
``P`` is rebuilt on every call: building it copies neither array and costs
about 6% of an application on a 25,921-node ball.

The signatures of :func:`jacobi_min` and :func:`jacobi_argmin` are fixed:
callers pass the operator's raw arrays, and the benchmark's tracer wraps
``jacobi_min`` and reads ``idx.shape`` and ``w.nbytes`` from its arguments.
``BACKEND`` names the kernel in run reports.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

BACKEND = "python"


def stencil_matrix(idx: np.ndarray, w: np.ndarray, n: int) -> sparse.csr_matrix:
    """CSR matrix whose rows are the stencils ``idx``/``w`` (shape (..., 4))
    over ``n`` nodes, in flat order of the leading axes."""
    indptr = np.arange(0, idx.size + 1, 4, dtype=idx.dtype)
    return sparse.csr_matrix((w.reshape(-1), idx.reshape(-1), indptr), shape=(idx.size // 4, n))


def _candidates(idx, w, base, gamma, u) -> np.ndarray:
    """``base + gamma * u(foot)`` for every (control, node) pair, shape (na, N)."""
    cand = stencil_matrix(idx, w, u.size) @ u
    cand *= gamma
    cand += base.reshape(-1)
    return cand.reshape(base.shape)


def jacobi_min(
    idx: np.ndarray,      # (na, N, 4) int32 corner indices
    w: np.ndarray,        # (na, N, 4) float64 corner weights
    base: np.ndarray,     # (na, N) float64 step cost (+inf marks inadmissible)
    gamma: float,
    u: np.ndarray,        # (N,) current values
    out: np.ndarray,      # (N,) output
) -> None:
    np.min(_candidates(idx, w, base, gamma, u), axis=0, out=out)


def jacobi_argmin(idx, w, base, gamma, u, out, policy) -> None:
    """``jacobi_min`` that also writes the first minimizing control to ``policy`` (N,)."""
    cand = _candidates(idx, w, base, gamma, u)
    np.argmin(cand, axis=0, out=policy)
    out[:] = cand[policy, np.arange(cand.shape[1])]


__all__ = ["jacobi_min", "jacobi_argmin", "stencil_matrix", "BACKEND"]
