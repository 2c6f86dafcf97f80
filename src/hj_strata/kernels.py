"""The Bellman kernel: one synchronous semi-Lagrangian application.

An operator holds a family of cells that share the grid and the drift.  It
stores, for each control ``a`` and node ``n``, the four corner indices
``idx[a, n]`` and bilinear weights ``w[a, n]`` of the foot point, and one
step cost per cell, ``base[a, n, c]`` (``+inf`` marks an inadmissible
control, whose weights are zero); the values ``u[c, n]`` have one row per
cell.  A single cell is a family of one, ``base`` of shape (na, N, 1); a flat
(N,) ``u`` is read as its one row and the result keeps the shape of ``u``.

The stencils are the rows of a sparse ``(n_controls*N) x N`` transition
matrix, built by :func:`stencil_matrix` with ``w`` and ``idx`` as its data
and column arrays.  An application is then one sparse product ``gamma * (P
@ U) + base`` on the (N, cells) block ``U`` followed by a min over controls,
and, when a ``policy`` output is given, the first minimizing control.
scipy's CSR products sum each row as ``w0*u0 + w1*u1 + w2*u2 + w3*u3`` in a
compiled loop, for one column or many, so every cell of a family gets bit
for bit the values it gets alone, no extension module is needed and no build
step either.  ``P`` is built once per call, copying
neither array; its cost is shared by every cell of the family.

The cell layer solves at most 32 cells as one family (``cell._FAMILY_CELLS``),
which bounds the (n_controls*N, cells) candidate array of one call.

Every Bellman application goes through :func:`jacobi_min`, whose six
positional arguments are fixed: callers pass the operator's raw arrays, and
the benchmark's tracer wraps ``jacobi_min`` and reads ``idx.shape`` and
``w.nbytes`` from them.  The greedy output ``policy`` is keyword-only, so the
tracer sees the same six arguments on every call.  ``BACKEND`` names the
kernel in run reports.
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


def jacobi_min(
    idx: np.ndarray,      # (na, N, 4) int32 corner indices
    w: np.ndarray,        # (na, N, 4) float64 corner weights
    base: np.ndarray,     # (na, N, cells) step cost (+inf marks inadmissible)
    gamma: float,
    u: np.ndarray,        # (cells, N) current values, or (N,) for one cell
    out: np.ndarray,      # output, shaped like u
    *,
    policy: np.ndarray | None = None,   # first minimizing control, shaped like u
) -> None:
    na, n = idx.shape[:2]
    cand = stencil_matrix(idx, w, n) @ u.reshape(-1, n).T
    cand *= gamma
    cand = cand.reshape(na, n, -1)
    cand += base.reshape(na, n, -1)
    if policy is None:
        out[...] = np.min(cand, axis=0).T.reshape(out.shape)
        return
    flat = cand.reshape(na, -1)
    values = flat.min(axis=0)
    # the first minimizing control, as np.argmin(flat, axis=0) finds it
    # (slower along a leading axis); its candidate is ``values`` bit for bit
    choice = np.argmax(flat == values, axis=0)
    policy[...] = choice.reshape(cand.shape[1:]).T.reshape(policy.shape)
    out[...] = values.reshape(cand.shape[1:]).T.reshape(out.shape)


__all__ = ["jacobi_min", "stencil_matrix", "BACKEND"]
