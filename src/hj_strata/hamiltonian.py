"""Pointwise control model: regions, dynamics/cost dispatch, Hamiltonians.

The Hamiltonian is the controlled form ``H(x, y, p) = max_a (-p.f(x,y,a) -
l(x,y,a))``: convex piecewise-linear in ``p``, Lipschitz with the drift bound,
and coercive as soon as the drift values at each point hull a disc around the
origin.  Fields are evaluated by region: the fast point ``y`` falls in one of
the regions of :meth:`Scenario.regions` -- a branch's closed half-strip
``|y2| <= R0`` around its half-line, the rest of the core disc ``|y| <= R1``,
or the background -- and that region's block (:meth:`Scenario.block`) is
evaluated at ``(x, y)``.

The directional envelopes split the background control set by the sign of the
vertical drift component: ``h_down`` keeps controls with ``f2 >= 0`` (those
admissible when confined to the upper half-plane), ``h_up`` keeps ``f2 <= 0``.
Controls with ``f2 == 0`` belong to both, so ``max(h_down, h_up)`` equals the
full Hamiltonian exactly, not merely up to rounding.  A component within
rounding of zero counts as ``f2 == 0`` (see :func:`_vertical_drift`).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial import QhullError

from .scenario import (
    FieldPair,
    Scenario,
    ValidationEntry,
    ValidationReport,
)

__all__ = [
    "HamiltonianSample",
    "eval_fields",
    "eval_H",
    "eval_H_envelopes",
    "hull_inradius",
    "estimate_bounds",
    "run_assumption_checks",
]

_CHECK_SAMPLES = 400    # fast points per slow point in the assumption checks
_SEAM_TOL = 1e-8        # largest field gap a seam may show


def eval_fields(scenario: Scenario, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Region-dispatched ``(drift, cost)`` at slow point(s) x, fast point(s) y.

    ``x`` and ``y`` are broadcastable arrays of shape ``(..., 2)``; the result
    is ``drift`` of shape ``(n_controls, ..., 2)`` and ``cost`` of shape
    ``(n_controls, ...)``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    shape = np.broadcast_shapes(x.shape, y.shape)
    pts_shape = shape[:-1]
    x1 = np.broadcast_to(x[..., 0], pts_shape).ravel()
    x2 = np.broadcast_to(x[..., 1], pts_shape).ravel()
    y1 = np.broadcast_to(y[..., 0], pts_shape).ravel()
    y2 = np.broadcast_to(y[..., 1], pts_shape).ravel()
    n = x1.size
    na = len(scenario.controls)
    drift = np.empty((na, n, 2))
    cost = np.empty((na, n))
    for region, mask in scenario.regions(y1, y2).items():
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            continue
        block = scenario.block(region)
        drift[:, idx, :] = block.eval_drift(x1[idx], x2[idx], y1[idx], y2[idx])
        cost[:, idx] = block.eval_cost(x1[idx], x2[idx], y1[idx], y2[idx])
    return drift.reshape(na, *pts_shape, 2), cost.reshape(na, *pts_shape)


@dataclass(frozen=True, slots=True)
class HamiltonianSample:
    """One Hamiltonian evaluation: value, maximizing control, envelope split."""

    value: float
    argmax: int
    h_down: float
    h_up: float


def eval_H(scenario: Scenario, x, y, p) -> HamiltonianSample:
    """``H(x, y, p)`` with the maximizing control index and envelope values.

    The envelope split uses the background drift at ``x`` (the sign of its
    vertical component), so ``max(h_down, h_up) == value`` identically.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    drift, cost = eval_fields(scenario, x, y)
    values = -(drift @ p) - cost
    k = int(np.argmax(values))
    f2_bg = _vertical_drift(scenario.background.eval_drift(x[0], x[1], y[0], y[1]))
    down = values[f2_bg >= 0.0]
    up = values[f2_bg <= 0.0]
    h_down = float(np.max(down)) if down.size else -math.inf
    h_up = float(np.max(up)) if up.size else -math.inf
    return HamiltonianSample(value=float(values[k]), argmax=k, h_down=h_down, h_up=h_up)


def _vertical_drift(drift: np.ndarray) -> np.ndarray:
    """Vertical components ``f2`` of the drifts ``(n_controls, 2)``, with any
    component within 8 ulps of the drift scale set to 0: rounding residue, such
    as sin(pi) when the direction count is odd, is flat, neither rising nor
    falling."""
    f2 = drift[:, 1]
    return np.where(np.abs(f2) <= 8 * np.finfo(float).eps * np.abs(drift).max(), 0.0, f2)


def _frozen_background(scenario: Scenario, x) -> tuple[np.ndarray, np.ndarray]:
    """Background ``(drift, cost)`` of every control at the slow point ``x``
    with the fast point frozen at the origin."""
    if scenario.case == "case2":
        # Periodic backgrounds have no single control split; the envelope
        # notion needs a y-independent background drift.
        for d1, d2 in scenario.background.drift:
            if (d1.free_vars() | d2.free_vars()) & {"y1", "y2"}:
                raise ValueError(
                    "directional envelopes need a y-independent background drift; "
                    "this case2 background is periodic in y"
                )
    x = np.asarray(x, dtype=float)
    block = scenario.background
    return block.eval_drift(x[0], x[1], 0.0, 0.0), block.eval_cost(x[0], x[1], 0.0, 0.0)


def eval_H_envelopes(scenario: Scenario, x, p) -> tuple[float, float]:
    """Directional envelopes ``(h_down, h_up)`` of the background Hamiltonian.

    ``h_down`` maximizes over controls whose background drift has ``f2 >= 0``
    (trajectories that can stay in the upper half-plane), ``h_up`` over
    ``f2 <= 0``.  Raises if either restricted control set is empty.
    """
    drift, cost = _frozen_background(scenario, x)
    values = -(drift @ np.asarray(p, dtype=float)) - cost
    f2 = _vertical_drift(drift)
    down_mask = f2 >= 0.0
    up_mask = f2 <= 0.0
    if not down_mask.any():
        raise ValueError("envelope split is empty: no background control with f2 >= 0")
    if not up_mask.any():
        raise ValueError("envelope split is empty: no background control with f2 <= 0")
    return float(np.max(values[down_mask])), float(np.max(values[up_mask]))


def hull_inradius(points: np.ndarray) -> float:
    """Inradius about the origin of the convex hull of ``points`` (n, 2).

    Positive iff the origin lies strictly inside the hull; degenerate point
    sets give 0.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        return 0.0
    try:
        hull = ConvexHull(pts)
    except QhullError:
        return 0.0
    # Facet equations are n.x + b <= 0 with |n| = 1; -b is the origin-facet
    # distance, negative when the origin is on the wrong side.
    return float(np.min(-hull.equations[:, -1]))


_BOUNDS_CACHE: dict[tuple[str, int, int], dict[str, float]] = {}
_BOUNDS_CACHE_SIZE = 32
_BOUNDS_LOCK = threading.Lock()


def estimate_bounds(scenario: Scenario, *, samples: int = 400, seed: int = 0) -> dict[str, float]:
    """Sampled structural bounds: drift bound M_f, cost bound M_l, hull
    inradius r_f (worst case over sampled points), Lipschitz surrogate L_f,
    and the induced gradient window half-width p_window.

    The sampling is deterministic in ``(scenario, samples, seed)``, so results
    are cached on ``scenario.content_hash()``; every call gets its own dict.
    """
    key = (scenario.content_hash(), samples, seed)
    with _BOUNDS_LOCK:
        cached = _BOUNDS_CACHE.get(key)
    if cached is None:
        cached = _sample_bounds(scenario, samples, seed)
        with _BOUNDS_LOCK:
            if len(_BOUNDS_CACHE) >= _BOUNDS_CACHE_SIZE:
                del _BOUNDS_CACHE[next(iter(_BOUNDS_CACHE))]
            _BOUNDS_CACHE[key] = cached
    return dict(cached)


def _sample_bounds(scenario: Scenario, samples: int, seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    sched = scenario.schedules
    y_reach = max(
        max(sched.rho_list),
        max(sched.R_list),
        2.0 * scenario.R1,
        sched.box_half_width,
    ) + 1.0
    x_reach = sched.box_half_width
    n = max(16, samples)
    xs = np.concatenate([np.zeros((1, 2)), rng.uniform(-x_reach, x_reach, size=(7, 2))])
    ys = rng.uniform(-y_reach, y_reach, size=(n, 2))
    # Make sure all regions are hit.
    ys = np.concatenate([
        ys,
        rng.uniform(-scenario.R0, scenario.R0, size=(n // 4, 2)),
        np.column_stack([
            rng.uniform(-y_reach, 0.0, size=n // 4),
            rng.uniform(-scenario.R0, scenario.R0, size=n // 4),
        ]),
    ])
    m_f = 0.0
    m_l = 0.0
    r_f = math.inf
    l_f = 0.0
    eps = 1e-4
    for x in xs:
        drift, cost = eval_fields(scenario, x, ys)
        m_f = max(m_f, float(np.max(np.linalg.norm(drift, axis=-1))))
        m_l = max(m_l, float(np.max(np.abs(cost))))
        sub = ys[:: max(1, len(ys) // 48)]
        for y in sub:
            pts = eval_fields(scenario, x, y)[0]
            r_f = min(r_f, hull_inradius(pts))
        steps = rng.normal(size=ys.shape)
        steps *= eps / np.linalg.norm(steps, axis=1, keepdims=True)
        drift2, cost2 = eval_fields(scenario, x, ys + steps)
        df = np.max(np.linalg.norm(drift2 - drift, axis=-1)) / eps
        dl = np.max(np.abs(cost2 - cost)) / eps
        l_f = max(l_f, float(df), float(dl))
    p_window = m_l * (1.0 + 1.0 / r_f) if r_f > 0 else math.nan
    return {"M_f": m_f, "M_l": m_l, "r_f": r_f, "L_f": l_f, "p_window": p_window}


def _seam_gap(
    block_a: FieldPair, block_b: FieldPair, pts: np.ndarray, pts_b: np.ndarray | None = None
) -> float:
    """Largest drift/cost disagreement of ``block_a`` at points (n, 2) and
    ``block_b`` at ``pts_b`` (default: the same points)."""
    pts_b = pts if pts_b is None else pts_b
    x1 = np.zeros(len(pts))
    gaps = []
    da = block_a.eval_drift(x1, x1, pts[:, 0], pts[:, 1])
    db = block_b.eval_drift(x1, x1, pts_b[:, 0], pts_b[:, 1])
    ca = block_a.eval_cost(x1, x1, pts[:, 0], pts[:, 1])
    cb = block_b.eval_cost(x1, x1, pts_b[:, 0], pts_b[:, 1])
    gaps.append(float(np.max(np.abs(da - db))))
    gaps.append(float(np.max(np.abs(ca - cb))))
    return max(gaps)


def run_assumption_checks(scenario: Scenario, *, seed: int = 0) -> ValidationReport:
    """Backing implementation of :func:`hj_strata.scenario.validate_assumptions`."""
    rng = np.random.default_rng(seed)
    est = estimate_bounds(scenario, samples=_CHECK_SAMPLES, seed=seed)
    entries: list[ValidationEntry] = []
    entries.append(
        ValidationEntry(
            "coercivity",
            est["r_f"] > 0.0,
            f"control hull inradius r_f = {est['r_f']:.6g} (need > 0)",
            est["r_f"],
        )
    )
    entries.append(ValidationEntry("drift_bound", math.isfinite(est["M_f"]), f"M_f = {est['M_f']:.6g}", est["M_f"]))
    entries.append(ValidationEntry("cost_bound", math.isfinite(est["M_l"]), f"M_l = {est['M_l']:.6g}", est["M_l"]))
    entries.append(
        ValidationEntry("lipschitz_surrogate", math.isfinite(est["L_f"]), f"L_f = {est['L_f']:.6g}", est["L_f"])
    )

    R0, R1 = scenario.R0, scenario.R1
    n = max(32, _CHECK_SAMPLES // 4)

    def gap_entry(name: str, what: str, block_a: FieldPair, block_b: FieldPair, pts, pts_b=None) -> None:
        gap = _seam_gap(block_a, block_b, pts, pts_b)
        entries.append(ValidationEntry(name, gap <= _SEAM_TOL, f"{what} {gap:.3g} (tol {_SEAM_TOL:.1g})", gap))

    def seam_entry(name: str, block_a: FieldPair, block_b: FieldPair, pts: np.ndarray) -> None:
        gap_entry(name, "max field gap", block_a, block_b, pts)

    shift_gap = "max |field(y) - field(y + T e1)| ="
    core = scenario.block("core")
    bg = scenario.background

    if scenario.case in ("case1", "case2"):
        strip = scenario.block("main")
        if "main" in scenario.strips:
            period = strip.period or 1.0
            base = np.column_stack([
                rng.uniform(-2.0 * period, 0.0, size=n),
                rng.uniform(-R0 - 1.0, R0 + 1.0, size=n),
            ])
            shifted = base + np.array([period, 0.0])
            gap_entry("strip_periodicity", shift_gap, strip, strip, base, shifted)
            outside = np.column_stack([
                rng.uniform(-2.0 * period, 0.0, size=n),
                np.concatenate([rng.uniform(R0, R0 + 2.0, size=n // 2), rng.uniform(-R0 - 2.0, -R0, size=n - n // 2)]),
            ])
            seam_entry("strip_background_seam", strip, bg, outside)
        if scenario.strips or scenario.core is not None:
            edge = np.column_stack([np.zeros(n), rng.uniform(-R0, R0, size=n)])
            seam_entry("core_strip_seam", core, strip, edge)
            theta = rng.uniform(-math.pi / 2, math.pi / 2, size=n)
            arc = R0 * np.column_stack([np.cos(theta), np.sin(theta)])
            seam_entry("core_background_seam", core, bg, arc)
        if scenario.case == "case2":
            T1, T2 = scenario.background_periods or (1.0, 1.0)
            base = rng.uniform(-2.0, 2.0, size=(n, 2))
            moved = np.vstack([base + [T1, 0.0], base + [0.0, T2]])
            gap_entry(
                "background_periodicity", "max periodic background mismatch",
                bg, bg, np.vstack([base, base]), moved,
            )
    else:
        for key, sign in scenario.branches.items():
            strip = scenario.block(key)
            branch = f"strip_{key}"
            if key in scenario.strips:
                period = strip.period or 1.0
                base = np.column_stack([
                    sign * rng.uniform(R0, R0 + 2.0 * period, size=n),
                    rng.uniform(-R0, R0, size=n),
                ])
                shifted = base + np.array([sign * period, 0.0])
                gap_entry(f"{branch}_periodicity", shift_gap, strip, strip, base, shifted)
            # Strip edge |y2| = R0: neighbor is core inside the disc of
            # radius R1, background beyond it.
            y1_core = sign * rng.uniform(R0, math.sqrt(max(R1 * R1 - R0 * R0, R0 * R0)), size=n)
            edge_core = np.column_stack([y1_core, np.where(rng.random(n) < 0.5, R0, -R0)])
            seam_entry(f"{branch}_core_seam_edge", strip, core, edge_core)
            y1_bg = sign * rng.uniform(math.sqrt(max(R1 * R1 - R0 * R0, R0 * R0)), R1 + 2.0, size=n)
            edge_bg = np.column_stack([y1_bg, np.where(rng.random(n) < 0.5, R0, -R0)])
            seam_entry(f"{branch}_background_seam_edge", strip, bg, edge_bg)
            # Strip mouth y1 = +-R0, |y2| <= R0: neighbor is the core.
            mouth = np.column_stack([np.full(n, sign * R0), rng.uniform(-R0, R0, size=n)])
            seam_entry(f"{branch}_core_seam_mouth", strip, core, mouth)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=4 * n)
        arc = R1 * np.column_stack([np.cos(theta), np.sin(theta)])
        keep = np.abs(arc[:, 1]) > R0  # outside the strip band
        if keep.any():
            seam_entry("core_background_seam", core, bg, arc[keep])

    return ValidationReport(entries=tuple(entries), estimates=est)
