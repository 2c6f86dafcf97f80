"""Backend selection for the Bellman sweep kernels.

Prefers the compiled ``_sweep_core`` extension and falls back to the
numpy implementation when it is missing (source checkout without a build)
or when ``HJ_STRATA_PURE=1`` forces the fallback.  The backend only decides
which ``jacobi_min`` runs; both give the same synchronous application.
``jacobi_argmin``, which the discounted policy iteration uses, is numpy on
both backends.
"""

from __future__ import annotations

import os

from . import _sweep_py

if os.environ.get("HJ_STRATA_PURE", "").strip() not in ("", "0"):
    _impl = _sweep_py
    BACKEND = "python"
else:
    try:
        from . import _sweep_core as _impl  # type: ignore[attr-defined]

        BACKEND = "compiled"
    except ImportError:  # pragma: no cover - depends on build environment
        _impl = _sweep_py
        BACKEND = "python"

jacobi_min = _impl.jacobi_min
jacobi_argmin = _sweep_py.jacobi_argmin

__all__ = ["jacobi_min", "jacobi_argmin", "BACKEND"]
