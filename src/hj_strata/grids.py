"""Grids and sampled value fields.

Three grid kinds cover all solves: state-constrained boxes, periodic-in-y1
strips with a constrained vertical extent, and fully periodic tori, told
apart by their periodic axes; spacings and periods must be positive.  Nodes
are indexed ``(i, j)`` for the ``y1``/``y2`` axes with flat index
``i * n2 + j``; spacing may differ per axis (periodic axes divide the period
exactly).  The anchor is the node closest to the origin and is the
normalization point for relative value iterations.

Bilinear interpolation wraps on periodic axes and is exact on affine
functions, which doubles as the correctness test for the weight logic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GridSpec", "ValueField"]

_ALIGN_TOL = 1e-9

# Points per block of a large field reading (ValueField.__call__ and the
# one-step readings of hj_strata.correctors).  Read at once, the 300k nodes
# and feet of one certificate reading on strip_attract's 16,641-node sample
# grid peaked at 51-54 MB under tracemalloc; in blocks of this size, at 17 MB,
# most of it the feet themselves.
_BLOCK = 1 << 14


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"grid {name} must be positive, got {value}")


def _check_multiple(length: float, h: float, what: str) -> int:
    ratio = length / h
    n = round(ratio)
    if n < 1 or abs(ratio - n) > _ALIGN_TOL * max(1.0, ratio):
        raise ValueError(f"{what} ({length}) must be a positive integer multiple of h ({h})")
    return n


@dataclass(frozen=True, slots=True)
class GridSpec:
    """A rectangular grid; build with :meth:`box`, :meth:`strip`, or :meth:`torus`."""

    n1: int
    n2: int
    h1: float
    h2: float
    origin: tuple[float, float]
    periodic1: bool
    periodic2: bool

    @classmethod
    def box(cls, half_widths: float | tuple[float, float], h: float) -> "GridSpec":
        """State-constrained box ``[-L1, L1] x [-L2, L2]``; h must divide both."""
        _check_positive(h=h)
        if isinstance(half_widths, (int, float)):
            half_widths = (float(half_widths), float(half_widths))
        L1, L2 = float(half_widths[0]), float(half_widths[1])
        m1 = _check_multiple(2.0 * L1, h, "box width")
        m2 = _check_multiple(2.0 * L2, h, "box height")
        return cls(m1 + 1, m2 + 1, h, h, (-L1, -L2), False, False)

    @classmethod
    def strip(cls, period: float, rho: float, h: float) -> "GridSpec":
        """Periodic strip ``(R/T Z) x [-rho, rho]``."""
        _check_positive(period=period, h=h)
        n1 = max(2, round(period / h))
        m2 = _check_multiple(2.0 * rho, h, "strip height")
        return cls(n1, m2 + 1, period / n1, h, (0.0, -rho), True, False)

    @classmethod
    def torus(cls, periods: float | tuple[float, float], h: float) -> "GridSpec":
        """Fully periodic cell ``(R/T1 Z) x (R/T2 Z)``."""
        if isinstance(periods, (int, float)):
            periods = (float(periods), float(periods))
        T1, T2 = float(periods[0]), float(periods[1])
        _check_positive(T1=T1, T2=T2, h=h)
        n1 = max(2, round(T1 / h))
        n2 = max(2, round(T2 / h))
        return cls(n1, n2, T1 / n1, T2 / n2, (0.0, 0.0), True, True)

    @property
    def size(self) -> int:
        return self.n1 * self.n2

    def coords1(self) -> np.ndarray:
        return self.origin[0] + self.h1 * np.arange(self.n1)

    def coords2(self) -> np.ndarray:
        return self.origin[1] + self.h2 * np.arange(self.n2)

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape ``(n1 * n2, 2)`` in flat-index order."""
        c1, c2 = np.meshgrid(self.coords1(), self.coords2(), indexing="ij")
        return np.column_stack([c1.ravel(), c2.ravel()])

    def anchor_index(self) -> int:
        """Flat index of the node nearest the origin."""
        i = int(np.argmin(np.abs(self.coords1())))
        j = int(np.argmin(np.abs(self.coords2())))
        return i * self.n2 + j

    def index_of(self, points) -> int | np.ndarray:
        """Flat index of the node nearest each point: an ``int`` for one
        point of shape (2,), an array for points of shape (..., 2).
        Periodic axes wrap; constrained axes clamp to the edge node."""
        pts = np.asarray(points, dtype=float)
        near = []
        for axis, (n, h, periodic) in enumerate(
            ((self.n1, self.h1, self.periodic1), (self.n2, self.h2, self.periodic2))
        ):
            k = np.rint((pts[..., axis] - self.origin[axis]) / h).astype(np.int64)
            near.append(k % n if periodic else np.clip(k, 0, n - 1))
        flat = near[0] * self.n2 + near[1]
        return int(flat) if flat.ndim == 0 else flat

    def interp_weights(self, points: np.ndarray, *, clip: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Bilinear stencil of each point: flat corner indices (n, 4), weights (n, 4).

        Constrained axes reject points outside the grid unless ``clip``;
        periodic axes wrap.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        idx = np.empty((len(pts), 4), dtype=np.int32)
        w = np.empty((len(pts), 4))
        i0, f1 = self._axis_cell(pts[:, 0], 0, clip)
        j0, f2 = self._axis_cell(pts[:, 1], 1, clip)
        i1 = (i0 + 1) % self.n1 if self.periodic1 else i0 + 1
        j1 = (j0 + 1) % self.n2 if self.periodic2 else j0 + 1
        idx[:, 0] = i0 * self.n2 + j0
        idx[:, 1] = i1 * self.n2 + j0
        idx[:, 2] = i0 * self.n2 + j1
        idx[:, 3] = i1 * self.n2 + j1
        w[:, 0] = (1.0 - f1) * (1.0 - f2)
        w[:, 1] = f1 * (1.0 - f2)
        w[:, 2] = (1.0 - f1) * f2
        w[:, 3] = f1 * f2
        return idx, w

    def _axis_cell(self, x: np.ndarray, axis: int, clip: bool) -> tuple[np.ndarray, np.ndarray]:
        n = self.n1 if axis == 0 else self.n2
        h = self.h1 if axis == 0 else self.h2
        o = self.origin[axis]
        periodic = self.periodic1 if axis == 0 else self.periodic2
        t = (x - o) / h
        if periodic:
            base = np.floor(t)
            frac = t - base
            cell = base.astype(np.int64) % n
            return cell.astype(np.int32), frac
        if not clip:
            span = (n - 1) * h
            tol = _ALIGN_TOL * max(1.0, span / h)
            if np.any(t < -tol) or np.any(t > (n - 1) + tol):
                bad = float(x[np.argmax(np.maximum(-t, t - (n - 1)))])
                raise ValueError(
                    f"point coordinate {bad} lies outside the grid axis "
                    f"[{o}, {o + span}] (pass clip=True to clamp)"
                )
        t = np.clip(t, 0.0, float(n - 1))
        cell = np.minimum(t.astype(np.int64), n - 2).astype(np.int32)
        return cell, t - cell

    def contains(self, points: np.ndarray, *, tol: float = 1e-12) -> np.ndarray:
        """Componentwise domain membership for state-constrained axes."""
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        ok = np.ones(len(pts), dtype=bool)
        if not self.periodic1:
            lo, hi = self.origin[0], self.origin[0] + (self.n1 - 1) * self.h1
            ok &= (pts[:, 0] >= lo - tol) & (pts[:, 0] <= hi + tol)
        if not self.periodic2:
            lo, hi = self.origin[1], self.origin[1] + (self.n2 - 1) * self.h2
            ok &= (pts[:, 1] >= lo - tol) & (pts[:, 1] <= hi + tol)
        return ok


@dataclass(frozen=True, slots=True)
class ValueField:
    """Values sampled on a grid, with bilinear evaluation."""

    grid: GridSpec
    values: np.ndarray  # shape (n1, n2)

    def __post_init__(self):
        expected = (self.grid.n1, self.grid.n2)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} does not match grid {expected}")

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)

    def __call__(self, points: np.ndarray, *, clip: bool = False) -> np.ndarray:
        """Bilinear interpolation at ``points`` of shape (..., 2).

        Wraps on periodic axes; on constrained axes points outside the grid raise
        unless ``clip`` clamps them to the boundary.  Exact on affine functions.

        The points are read in blocks of ``_BLOCK``, each with its own stencils,
        so a large reading never holds all of them; every value is its point's
        own gather-and-sum, the same bits in a block as alone.
        """
        pts = np.asarray(points, dtype=float)
        shape = pts.shape[:-1]
        pts = pts.reshape(-1, 2)
        flat = self.flat()
        vals = np.empty(len(pts))
        for lo in range(0, len(pts), _BLOCK):
            idx, w = self.grid.interp_weights(pts[lo:lo + _BLOCK], clip=clip)
            vals[lo:lo + _BLOCK] = (flat[idx] * w).sum(axis=1)
        return vals.reshape(shape)
