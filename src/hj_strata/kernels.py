"""The Bellman kernel: one synchronous semi-Lagrangian application.

An operator holds a family of cells that share the grid and the drift.  It
stores, for each control ``a`` and node ``n``, the four corner indices
``idx[a, n]`` and bilinear weights ``w[a, n]`` of the foot point, and one
step cost per cell, ``base[a, n, c]`` (``+inf`` marks an inadmissible
control, whose weights are zero); the values ``u[c, n]`` have one row per
cell.  A single cell is a family of one, ``base`` of shape (na, N, 1); a flat
(N,) ``u`` is read as its one row and the result keeps the shape of ``u``.

The stencils are the rows of a sparse ``(n_controls*N) x N`` transition
matrix ``P`` in CSR form: ``w`` and ``idx`` are its data and column arrays,
and its row pointers are ``0, 4, 8, ...``.  :func:`stencil_product` computes
``P @ x`` by calling scipy's compiled CSR loops, ``csr_matvec`` for one
column and ``csr_matvecs`` for several, directly on those arrays.  These are
the loops ``csr_matrix @ x`` runs, on the same arrays in the same order, so
the product is ``csr_matrix @`` bit for bit; no matrix object is built or
dispatched per call.  Both loops sum each row as ``w0*u0 + w1*u1 + w2*u2 +
w3*u3`` from zero, so every cell of a family gets bit for bit the values it
gets alone, and no extension module or build step is needed.  The row
pointers of a product are a prefix of one shared array, built again only
when a product needs more rows than any before (up to a bound, see
``_SHARED_ROWS``).  Only the sparse-LU fallback of a policy evaluation
assembles a matrix (:func:`stencil_matrix`).

An application is one product ``gamma * (P @ U) + base`` on the (N, cells)
block ``U``, followed by a min over controls and, when a ``policy`` output is
given, the first minimizing control.  The cell layer solves at most 32 cells
as one family (``cell._FAMILY_CELLS``), which bounds the (n_controls*N,
cells) candidate array of one call.

Every Bellman application goes through :func:`jacobi_min`, whose six
positional arguments are fixed: callers pass the operator's raw arrays, and
the benchmark's tracer wraps ``jacobi_min`` and reads ``idx.shape`` and
``w.nbytes`` from them.  The greedy output ``policy`` is keyword-only, so the
tracer sees the same six arguments on every call.  ``BACKEND`` names the
kernel; only the benchmark's provenance reads it.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

BACKEND = "python"

# The row pointers 0, 4, 8, ... of a product of up to _SHARED_ROWS rows are a
# prefix of one array that the process keeps.  A larger product, a full
# application on a corrector ball, builds its own (70 us for 440k rows, about
# 1% of the application), so a ball's 1.7 MB of pointers does not outlive the
# ball: kept, it raised attract_full's peak RSS by 2.7 MiB.
_SHARED_ROWS = 1 << 17
_INDPTR = np.zeros(1, dtype=np.int32)


def _indptr(rows: int) -> np.ndarray:
    global _INDPTR
    ptr = _INDPTR   # read once: another thread may replace it meanwhile
    if len(ptr) <= rows:
        ptr = np.arange(0, 4 * rows + 1, 4, dtype=np.int32)
        if rows <= _SHARED_ROWS:
            ptr.flags.writeable = False   # shared by every caller and thread
            _INDPTR = ptr
    return ptr[:rows + 1]


def stencil_product(idx: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``P @ x`` for the matrix ``P`` whose rows are the stencils ``idx``/``w``
    (shape (..., 4), int32/float64) in flat order of the leading axes.

    ``x`` of shape (N,) gives shape (rows,); ``x`` of shape (N, k) gives
    (rows, k), and a single column takes the one-column loop."""
    rows = idx.size // 4
    ptr, cols, data = _indptr(rows), idx.reshape(-1), w.reshape(-1)
    if x.ndim == 1 or x.shape[1] == 1:
        y = np.zeros(rows)
        _sparsetools.csr_matvec(rows, x.shape[0], ptr, cols, data, x.reshape(-1), y)
        return y.reshape(rows, *x.shape[1:])
    k = x.shape[1]
    y = np.zeros((rows, k))
    x = np.ascontiguousarray(x).reshape(-1)
    _sparsetools.csr_matvecs(rows, len(x) // k, k, ptr, cols, data, x, y.reshape(-1))
    return y


def stencil_matrix(idx: np.ndarray, w: np.ndarray, n: int) -> sparse.csr_matrix:
    """The CSR matrix of :func:`stencil_product` over ``n`` nodes, for a
    factorization."""
    rows = idx.size // 4
    return sparse.csr_matrix((w.reshape(-1), idx.reshape(-1), _indptr(rows)), shape=(rows, n))


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
    cand = stencil_product(idx, w, u.reshape(-1, n).T)
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


__all__ = ["jacobi_min", "stencil_product", "stencil_matrix", "BACKEND"]
