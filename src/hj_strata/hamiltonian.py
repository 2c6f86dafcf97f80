"""Pointwise control model: regions, dynamics/cost dispatch, Hamiltonians, assumption checks.

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

:func:`validate_assumptions` samples the structural bounds and the seams
where two regions' blocks meet, and reports findings instead of raising.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .scenario import FieldPair, Scenario

__all__ = [
    "HamiltonianSample",
    "eval_fields",
    "eval_H",
    "eval_H_envelopes",
    "hull_inradius",
    "estimate_bounds",
    "ValidationEntry",
    "ValidationReport",
    "validate_assumptions",
]

_CHECK_SAMPLES = 400    # fast points per slow point in the assumption checks
_SEAM_TOL = 1e-8        # largest field gap a seam may show
_SEAM_STEP = 1e-9       # step across a seam to the region beyond it


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
        d1, d2 = scenario.background.drift
        if (d1.variables | d2.variables) & {"y1", "y2"}:
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
    sets (fewer than three distinct points, or all on one line) give 0.

    The hull is Andrew's monotone chain: the points sorted by their first
    coordinate, then their second; the lower chain swept left to right and
    the upper one back, each dropping a point that does not turn left, so
    duplicates and points inside an edge fall out and the vertices come out
    counter-clockwise.  Each edge ``a -> b`` lies on the line ``n . z = n .
    a`` with outward unit normal ``n = (b2 - a2, a1 - b1) / |b - a|``, so
    ``n . a`` is the origin's distance from that line, negative when the
    origin lies beyond it; the inradius is the smallest.  A control set has
    a few dozen points at most, so the chain is a loop over Python floats.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if len(pts) < 3:
        return 0.0
    ordered = pts[np.lexsort((pts[:, 1], pts[:, 0]))].tolist()
    chain: list[list[float]] = []
    for sweep in (ordered, ordered[::-1]):
        start = len(chain)
        for p in sweep:
            while len(chain) >= start + 2:
                (o1, o2), (a1, a2) = chain[-2], chain[-1]
                if (a1 - o1) * (p[1] - o2) - (a2 - o2) * (p[0] - o1) > 0.0:
                    break
                chain.pop()
            chain.append(p)
        chain.pop()  # each chain ends where the other starts
    if len(chain) < 3:
        return 0.0
    a = np.array(chain)
    d = np.roll(a, -1, axis=0) - a
    length = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    return float(np.min(a[:, 0] * (d[:, 1] / length) - a[:, 1] * (d[:, 0] / length)))


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


def _solver_reach(scenario: Scenario) -> float:
    """Bound on ``|y1|`` and ``|y2|`` for the fast points any solve reads,
    plus a margin of 1: the largest strip truncation, ball radius, core
    double ``2 R1`` and limit-box half-width."""
    sched = scenario.schedules
    return max(max(sched.rho_list), max(sched.R_list), 2.0 * scenario.R1, sched.box_half_width) + 1.0


def _sample_bounds(scenario: Scenario, samples: int, seed: int) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    y_reach = _solver_reach(scenario)
    x_reach = scenario.schedules.box_half_width
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
    da = block_a.eval_drift(x1, x1, pts[:, 0], pts[:, 1])
    db = block_b.eval_drift(x1, x1, pts_b[:, 0], pts_b[:, 1])
    ca = block_a.eval_cost(x1, x1, pts[:, 0], pts[:, 1])
    cb = block_b.eval_cost(x1, x1, pts_b[:, 0], pts_b[:, 1])
    return max(float(np.max(np.abs(da - db))), float(np.max(np.abs(ca - cb))))


def _outside_gap(scenario: Scenario, block: FieldPair, pts: np.ndarray, step) -> float:
    """Largest gap of ``block`` at the seam points ``pts`` against the block
    of the region :meth:`Scenario.regions` puts at ``pts + step``."""
    moved = pts + step
    masks = scenario.regions(moved[:, 0], moved[:, 1])
    return max(_seam_gap(block, scenario.block(r), pts[m]) for r, m in masks.items() if m.any())


@dataclass(frozen=True, slots=True)
class ValidationEntry:
    name: str
    passed: bool
    detail: str
    value: float = math.nan


@dataclass(frozen=True, slots=True)
class ValidationReport:
    entries: tuple[ValidationEntry, ...]
    estimates: Mapping[str, float]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[ValidationEntry]:
        return [e for e in self.entries if not e.passed]


def validate_assumptions(scenario: Scenario, *, seed: int = 0) -> ValidationReport:
    """Sample the structural assumptions behind the scenario's case, seeded
    by ``seed``; findings are report entries, not exceptions.

    Besides the bounds of :func:`estimate_bounds`, each seam entry samples
    100 fast points (the core circle 400) at the slow point 0 and passes when
    two blocks' drifts and costs there differ by at most 1e-8.  Each branch of
    :attr:`Scenario.branches` is sampled on its side, ``band_start <=
    side*y1 <= r`` with ``r`` the solver reach of :func:`_solver_reach`, and
    gets the same entries, prefixed ``strip`` for the one branch of case1 and
    case2 and ``strip_<branch>`` in case3:

    * ``_periodicity``, for a declared block: the block at ``y`` against
      ``y + side*T e1`` with ``|y2| <= r``;
    * ``_background_seam``: the block against the background off the band,
      ``R0 <= |y2| <= r``, all of which a strip cell solve reads;
    * ``_mouth_seam``: the block on its mouth ``side*y1 = band_start``,
      ``|y2| <= R0``, against the region across it, toward the origin;
    * ``_edge_seam``: the block on its edges ``|y2| = R0`` against the region
      across them, with half the points where the edge runs inside the core
      disc and half beyond it, out to ``r``.

    The region just across a seam is the one :meth:`Scenario.regions` gives
    a step of 1e-9 away.  Then ``core_background_seam`` compares the core
    with the background on the circle ``|y| = R1`` off the branches, and
    case2's ``background_periodicity`` shifts the background by each period.
    """
    rng = np.random.default_rng(seed)
    est = estimate_bounds(scenario, samples=_CHECK_SAMPLES, seed=seed)
    r_f = est["r_f"]
    entries = [ValidationEntry("coercivity", r_f > 0.0, f"control hull inradius r_f = {r_f:.6g} (need > 0)", r_f)]
    for name, key in (("drift_bound", "M_f"), ("cost_bound", "M_l"), ("lipschitz_surrogate", "L_f")):
        entries.append(ValidationEntry(name, math.isfinite(est[key]), f"{key} = {est[key]:.6g}", est[key]))

    def seam(name: str, gap: float, what: str = "max field gap") -> None:
        entries.append(ValidationEntry(name, gap <= _SEAM_TOL, f"{what} {gap:.3g} (tol {_SEAM_TOL:.1g})", gap))

    R0, R1, start = scenario.R0, scenario.R1, scenario.band_start
    reach = _solver_reach(scenario)
    inner = math.sqrt(max(R1 * R1 - R0 * R0, start * start))  # where an edge leaves the core disc
    n = max(32, _CHECK_SAMPLES // 4)
    bg = scenario.background

    def signs() -> np.ndarray:
        return np.where(rng.random(n) < 0.5, 1.0, -1.0)

    for key, side in scenario.branches.items():
        strip = scenario.block(key)
        name = "strip" if key == "main" else f"strip_{key}"
        if key in scenario.strips:
            base = np.column_stack([side * rng.uniform(start, reach, n), rng.uniform(-reach, reach, n)])
            shift = _seam_gap(strip, strip, base, base + [side * strip.period, 0.0])
            seam(f"{name}_periodicity", shift, "max |field(y) - field(y + T e1)| =")
        off_band = np.column_stack([side * rng.uniform(start, reach, n), signs() * rng.uniform(R0, reach, n)])
        seam(f"{name}_background_seam", _seam_gap(strip, bg, off_band))
        mouth = np.column_stack([np.full(n, side * start), rng.uniform(-R0, R0, n)])
        seam(f"{name}_mouth_seam", _outside_gap(scenario, strip, mouth, [-side * _SEAM_STEP, 0.0]))
        along = np.concatenate([rng.uniform(start, inner, n // 2), rng.uniform(inner, reach, n - n // 2)])
        up = signs()
        edge = np.column_stack([side * along, up * R0])
        step = np.column_stack([np.zeros(n), up * _SEAM_STEP])
        seam(f"{name}_edge_seam", _outside_gap(scenario, strip, edge, step))

    theta = rng.uniform(0.0, 2.0 * math.pi, size=4 * n)
    circle = R1 * np.column_stack([np.cos(theta), np.sin(theta)])
    masks = scenario.regions(circle[:, 0], circle[:, 1])
    off_bands = ~np.logical_or.reduce([masks[b] for b in scenario.branches])
    seam("core_background_seam", _seam_gap(scenario.block("core"), bg, circle[off_bands]))
    if scenario.case == "case2":
        T1, T2 = scenario.background_periods
        base = rng.uniform(-2.0, 2.0, size=(n, 2))
        moved = np.vstack([base + [T1, 0.0], base + [0.0, T2]])
        seam("background_periodicity", _seam_gap(bg, bg, np.vstack([base, base]), moved),
             "max periodic background mismatch")

    return ValidationReport(entries=tuple(entries), estimates=est)
