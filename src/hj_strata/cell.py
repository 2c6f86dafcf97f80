"""Cell problems: strip/ball/torus ergodic constants and effective tables.

Conventions.  Every ergodic solve reports the *constant* in the Hamiltonian
normalization: it equals minus the optimal long-run average cost of the
underlying control problem.  The tangential constant of a strip problem with
momentum shift ``p1`` uses the shifted running cost ``l + p1 * f1`` (an exact
reformulation, not a discretization), so the resulting table is a pointwise
minimum of affine functions of ``p1`` up to solver tolerance — in particular
convex.

Each constant is computed twice: by a vanishing-discount continuation
(Richardson-extrapolated anchor values) and by relative value iteration (the
value recorded in the tables).  Relative VI starts from the continuation's last
discounted field, which is close to a corrector and saves most of its
applications.  The start does not carry the continuation's rate into the VI
constant: the bracket ``(min(T0[u] - u), max(T0[u] - u)) / delta`` holds the
true rate for every ``u``, so the VI constant is span-certified to ``tol``
whatever it starts from.  The two rates are still computed independently, and
``method_gap`` records their disagreement; entries whose gap exceeds twice the
requested tolerance are flagged as failed rather than papered over.

Truncation families: strips grow in the half-height ``rho``, the compact-core
constant ``E`` comes from boxes ``[-R, R]^2`` (an exhausting family with the
same monotone limit as discs), both with state constraints at the cut
boundaries.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .bellman import (
    SLOperator,
    ergodic_continuation,
    solve_ergodic_relative,
)
from .grids import GridSpec, ValueField
from .hamiltonian import _frozen_background, _vertical_drift, estimate_bounds, eval_fields
from .scenario import Scenario

_X0 = np.zeros(2)       # the frozen slow point of every cell problem: the origin
_MAX_ITER = 500_000     # application budget of each ergodic solver
_SLOPE_TOL = 5e-2       # corrector-slope fit vs window, in verify_corrector_slopes

__all__ = [
    "ErgodicEstimate",
    "TangentialResult",
    "DirichletResult",
    "SlopeCheck",
    "EffectiveTables",
    "TableRangeError",
    "strip_ergodic",
    "tangential_hamiltonian",
    "ball_ergodic",
    "dirichlet_datum",
    "torus_effective",
    "slopes",
    "verify_corrector_slopes",
    "tabulate_effective",
]


class TableRangeError(ValueError):
    """A table lookup outside the tabulated momentum window."""


def _check_window(p, lo: float, hi: float) -> None:
    """Raise :class:`TableRangeError` naming the momentum farthest outside
    ``[lo, hi]``, if any lies outside."""
    p = np.asarray(p, dtype=float).ravel()
    excess = np.maximum(lo - p, p - hi)
    if np.any(excess > 1e-12):
        worst = float(p[np.argmax(excess)])
        raise TableRangeError(f"momentum {worst:.6g} outside the tabulated window [{lo:.6g}, {hi:.6g}]")


@dataclass(frozen=True, slots=True)
class ErgodicEstimate:
    """One cell-problem solve: constant, corrector, and method diagnostics."""

    kind: str                # "strip" | "ball" | "torus"
    branch: str | None
    p: tuple[float, float]   # momentum shift entering the running cost
    truncation: float        # rho (strip) or R (ball); 0 for torus cells
    constant: float          # ergodic constant = -(average cost), from relative VI
    continuation_constant: float
    method_gap: float
    corrector: ValueField    # relative value field, 0 at the anchor node
    lambda_history: tuple[tuple[float, float], ...]
    converged: bool
    residual: float
    iterations: int
    delta: float


def _relative_and_continuation(
    op: SLOperator,
    scn: Scenario,
    *,
    tol: float,
    kind: str,
    branch: str | None,
    p: tuple[float, float],
    truncation: float,
) -> ErgodicEstimate:
    sched = scn.schedules
    cont = ergodic_continuation(
        op, lambda0=sched.lambda0, factor=sched.lambda_factor, tol=tol, max_iter=_MAX_ITER
    )
    vi = solve_ergodic_relative(op, tol=tol, max_iter=_MAX_ITER, u0=cont.field.flat())
    vi_constant = -vi.rate
    cont_constant = -cont.rate
    gap = abs(vi_constant - cont_constant)
    return ErgodicEstimate(
        kind=kind,
        branch=branch,
        p=p,
        truncation=truncation,
        constant=vi_constant,
        continuation_constant=cont_constant,
        method_gap=gap,
        corrector=vi.field,
        lambda_history=cont.history,
        converged=bool(vi.converged and cont.converged and gap <= 2.0 * tol),
        residual=vi.residual,
        iterations=vi.iterations,
        delta=op.delta,
    )


def strip_operator(
    scn: Scenario,
    p1: float,
    *,
    branch: str = "main",
    rho: float,
    h: float | None = None,
    delta: float | None = None,
) -> SLOperator:
    """Build the shifted-cost Bellman operator of one truncated strip.

    ``delta`` overrides the scheduled time step.  The default ``sqrt(h)``
    balances the step and interpolation errors of the *constant*; corrector
    *profiles* want the linear step ``delta = h`` instead.
    """
    sched = scn.schedules
    h = sched.cell_h if h is None else h
    if branch not in scn.branches:
        raise ValueError(f"{scn.case} strip branches are {list(scn.branches)}, got {branch!r}")
    block = scn.block(branch)
    period = block.period or 1.0
    grid = GridSpec.strip(period, rho, h)
    pts = grid.nodes()
    drift = block.eval_drift(*_X0, pts[:, 0], pts[:, 1])
    cost = block.eval_cost(*_X0, pts[:, 0], pts[:, 1])
    cost = cost + p1 * drift[..., 0]
    return SLOperator(grid, drift, cost, sched.delta(h) if delta is None else delta)


def strip_ergodic(
    scn: Scenario,
    p1: float,
    *,
    branch: str = "main",
    rho: float,
    h: float | None = None,
    tol: float | None = None,
    delta: float | None = None,
) -> ErgodicEstimate:
    """Ergodic constant/corrector of one truncated strip at momentum ``p1``."""
    tol = scn.schedules.tol_ergodic if tol is None else tol
    op = strip_operator(scn, p1, branch=branch, rho=rho, h=h, delta=delta)
    return _relative_and_continuation(
        op, scn, tol=tol, kind="strip", branch=branch, p=(p1, 0.0), truncation=rho
    )


def _walk_truncations(solve: Callable[[float], ErgodicEstimate], truncations, tol: float):
    """Solve along ``truncations`` until two consecutive constants agree within
    ``tol``; converged only then, and only if every solve converged."""
    estimates: list[ErgodicEstimate] = []
    for t in truncations:
        estimates.append(solve(t))
        if len(estimates) >= 2 and abs(estimates[-1].constant - estimates[-2].constant) <= tol:
            return tuple(estimates), all(e.converged for e in estimates)
    return tuple(estimates), False


@dataclass(frozen=True, slots=True)
class TangentialResult:
    """Strip constants along the truncation schedule; ``value`` is the last."""

    value: float
    estimates: tuple[ErgodicEstimate, ...]
    converged: bool


def tangential_hamiltonian(
    scn: Scenario,
    p1: float,
    *,
    branch: str = "main",
    tol: float | None = None,
) -> TangentialResult:
    """Tangential effective Hamiltonian at ``p1``: strip constants run along
    the scheduled ``rho_list`` until two consecutive values agree within
    ``tol``; if the schedule is exhausted first the result is flagged
    unconverged."""
    sched = scn.schedules
    tol = sched.tol_ergodic if tol is None else tol
    estimates, converged = _walk_truncations(
        lambda rho: strip_ergodic(scn, p1, branch=branch, rho=rho, tol=tol), sched.rho_list, tol
    )
    return TangentialResult(estimates[-1].constant, estimates, converged)


def ball_operator(
    scn: Scenario,
    R: float,
    *,
    h: float | None = None,
    delta: float | None = None,
) -> SLOperator:
    """State-constrained operator on the box [-R, R]^2 with the full region
    dispatch (strips, core, background) frozen at the slow point x = 0."""
    sched = scn.schedules
    h = sched.cell_h if h is None else h
    grid = GridSpec.box(R, h)
    pts = grid.nodes()
    drift, cost = eval_fields(scn, _X0, pts)
    return SLOperator(grid, drift, cost, sched.delta(h) if delta is None else delta)


def ball_ergodic(
    scn: Scenario,
    R: float,
    *,
    h: float | None = None,
    tol: float | None = None,
    delta: float | None = None,
) -> ErgodicEstimate:
    """Compact-core ergodic constant on the box truncation of radius ``R``."""
    tol = scn.schedules.tol_ergodic if tol is None else tol
    op = ball_operator(scn, R, h=h, delta=delta)
    return _relative_and_continuation(
        op, scn, tol=tol, kind="ball", branch=None, p=(0.0, 0.0), truncation=R
    )


@dataclass(frozen=True, slots=True)
class DirichletResult:
    """Limit constant E with its truncation history and the final corrector."""

    E: float
    corrector: ValueField
    estimates: tuple[ErgodicEstimate, ...]
    converged: bool


def dirichlet_datum(
    scn: Scenario,
    *,
    R_list: Sequence[float] | None = None,
    tol: float | None = None,
) -> DirichletResult:
    """Origin datum ``E``: ball constants along ``R_list``, last value kept,
    converged when two consecutive truncations agree within ``tol``."""
    sched = scn.schedules
    Rs = tuple(R_list) if R_list is not None else sched.R_list
    tol = sched.tol_ergodic if tol is None else tol
    estimates, converged = _walk_truncations(lambda R: ball_ergodic(scn, R, tol=tol), Rs, tol)
    return DirichletResult(estimates[-1].constant, estimates[-1].corrector, estimates, converged)


def torus_operator(
    scn: Scenario,
    p: tuple[float, float],
    *,
    h: float | None = None,
    delta: float | None = None,
) -> SLOperator:
    if scn.case != "case2":
        raise ValueError("torus cell problems belong to case2 (periodic background)")
    sched = scn.schedules
    h = sched.cell_h if h is None else h
    periods = scn.background_periods or (1.0, 1.0)
    grid = GridSpec.torus(periods, h)
    pts = grid.nodes()
    block = scn.background
    drift = block.eval_drift(*_X0, pts[:, 0], pts[:, 1])
    cost = block.eval_cost(*_X0, pts[:, 0], pts[:, 1])
    cost = cost + p[0] * drift[..., 0] + p[1] * drift[..., 1]
    return SLOperator(grid, drift, cost, sched.delta(h) if delta is None else delta)


def torus_effective(
    scn: Scenario,
    p: tuple[float, float],
    *,
    h: float | None = None,
    tol: float | None = None,
    delta: float | None = None,
) -> ErgodicEstimate:
    """Periodic-background effective Hamiltonian value at momentum ``p``."""
    tol = scn.schedules.tol_ergodic if tol is None else tol
    op = torus_operator(scn, p, h=h, delta=delta)
    return _relative_and_continuation(
        op, scn, tol=tol, kind="torus", branch=None, p=(float(p[0]), float(p[1])), truncation=0.0
    )


def _background_lines(scn: Scenario, p1: float) -> tuple[np.ndarray, np.ndarray]:
    """Intercepts ``a`` and slopes ``f2`` of the lines ``a - q * f2`` whose
    maximum is the background Hamiltonian at ``(p1, q)``; raises when no
    control has ``f2 > 0`` or none ``f2 < 0``, so that an envelope is flat."""
    drift, cost = _frozen_background(scn, _X0)
    f2 = _vertical_drift(drift)
    if not ((f2 > 0.0).any() and (f2 < 0.0).any()):
        raise ValueError("envelope is flat in q: the background needs controls with f2 > 0 and with f2 < 0")
    return -p1 * drift[:, 0] - cost, f2


def background_min_over_q(scn: Scenario, p1: float) -> float:
    """min over q of the background Hamiltonian at (p1, q): the floor every
    tangential constant must dominate.  The minimum of a maximum of lines is
    the highest flat line or the highest crossing of a falling line
    (``f2 > 0``) with a rising one (``f2 < 0``)."""
    a, f2 = _background_lines(scn, p1)
    fall, rise = f2 > 0.0, f2 < 0.0
    fi, ai = f2[fall, None], a[fall, None]
    crossings = (a[rise] * fi - ai * f2[rise]) / (fi - f2[rise])
    return float(max(crossings.max(), a[f2 == 0.0].max(initial=-math.inf)))


def slopes(scn: Scenario, p1: float, level: float) -> tuple[float, float]:
    """Vertical slope window ``(pi_lower, pi_upper)`` at the given level.

    ``pi_upper`` is the largest ``q`` with ``h_up(p1, q) <= level`` and
    ``pi_lower`` the smallest ``q`` with ``h_down(p1, q) <= level``.  The
    envelopes are maxima of lines ``a_k - q * f2_k``, so ``pi_lower`` is the
    largest root ``(a_k - level) / f2_k`` over the controls with ``f2_k > 0``
    and ``pi_upper`` the smallest over ``f2_k < 0``.  Raises with the gap when
    the level sits below the envelope minimum, the highest flat line.
    """
    a, f2 = _background_lines(scn, p1)
    env_min = float(a[f2 == 0.0].max(initial=-math.inf))
    if level < env_min - 1e-12:
        raise ValueError(
            f"slope level {level:.6g} lies below the envelope minimum "
            f"{env_min:.6g} (gap {env_min - level:.3g})"
        )
    fall, rise = f2 > 0.0, f2 < 0.0
    return float(np.max((a[fall] - level) / f2[fall])), float(np.min((a[rise] - level) / f2[rise]))


@dataclass(frozen=True, slots=True)
class SlopeCheck:
    fit_lower: float
    fit_upper: float
    target_lower: float
    target_upper: float
    active: bool       # regime check: tangential constant above the background floor
    passed: bool
    detail: str


def verify_corrector_slopes(
    scn: Scenario,
    estimate: ErgodicEstimate,
    *,
    level: float | None = None,
) -> SlopeCheck:
    """Check the linear growth of a strip corrector against the slope window.

    Fits the mean vertical slope over the outer quarter of the strip (minus a
    one-step boundary layer where the state constraint bends the corrector)
    and compares with (pi_lower, pi_upper) at the tangential level, each
    within ``_SLOPE_TOL``.  The
    comparison is only binding in the regime where the tangential constant
    exceeds the background floor; otherwise the corrector stays bounded and
    the check passes vacuously.
    """
    if estimate.kind != "strip":
        raise ValueError("slope verification applies to strip correctors")
    p1 = estimate.p[0]
    level = estimate.constant if level is None else level
    floor = background_min_over_q(scn, p1)
    active = level > floor + 1e-3
    pi_lo, pi_hi = slopes(scn, p1, max(level, floor))
    grid = estimate.corrector.grid
    vals = estimate.corrector.values
    rho = -grid.origin[1]
    bounds = estimate_bounds(scn, samples=64, seed=0)
    layer = max(2.0 * grid.h2, 1.5 * estimate.delta * bounds["M_f"])
    lo_y, hi_y = rho / 2.0, rho - layer
    c2 = grid.coords2()
    top = np.nonzero((c2 >= lo_y) & (c2 <= hi_y))[0]
    bot = np.nonzero((c2 <= -lo_y) & (c2 >= -hi_y))[0]
    if len(top) < 3 or len(bot) < 3:
        return SlopeCheck(math.nan, math.nan, pi_lo, pi_hi, active, not active,
                          "strip too shallow to fit boundary slopes")
    row_mean = vals.mean(axis=0)
    fit_upper = float(np.polyfit(c2[top], row_mean[top], 1)[0])
    fit_lower = float(np.polyfit(c2[bot], row_mean[bot], 1)[0])
    if active:
        passed = abs(fit_upper - pi_hi) <= _SLOPE_TOL and abs(fit_lower - pi_lo) <= _SLOPE_TOL
        detail = (
            f"fit ({fit_lower:.4f}, {fit_upper:.4f}) vs window ({pi_lo:.4f}, {pi_hi:.4f}), "
            f"tol {_SLOPE_TOL:g}"
        )
    else:
        passed = True
        detail = "tangential constant at the background floor; corrector growth unconstrained"
    return SlopeCheck(fit_lower, fit_upper, pi_lo, pi_hi, active, passed, detail)


@dataclass(frozen=True, slots=True)
class EffectiveTables:
    """Tabulated effective Hamiltonian data at a frozen slow point.

    ``h1t[branch]`` samples the tangential Hamiltonian on ``p1_grid``;
    ``pi_lower/pi_upper`` the slope windows at the tangential level; ``E`` is
    the origin datum.  For periodic backgrounds (case2), ``hbar`` holds the
    full effective Hamiltonian on the momentum grid ``p_grid x p_grid``.
    ``flags`` maps entry labels to failure notes; an empty dict means every
    solve converged and cross-checked.
    """

    x0: tuple[float, float]
    p1_grid: np.ndarray
    h1t: Mapping[str, np.ndarray]
    pi_lower: Mapping[str, np.ndarray]
    pi_upper: Mapping[str, np.ndarray]
    E: float
    E_history: tuple[tuple[float, float], ...]   # (R, E^R)
    method_gaps: Mapping[str, np.ndarray]
    p_grid: np.ndarray | None
    hbar: np.ndarray | None
    flags: Mapping[str, str]
    provenance: Mapping[str, Any] = field(default_factory=dict)

    def branches(self) -> list[str]:
        return sorted(self.h1t)

    def h1t_at(self, p1, branch: str = "main", *, clip: bool = False):
        """Tangential table lookup; ``clip`` clamps into the window instead of
        raising (transient scheme iterates may overshoot; solutions may not)."""
        p1a = np.asarray(p1, dtype=float)
        if not clip:
            _check_window(p1a, self.p1_grid[0], self.p1_grid[-1])
        return np.interp(p1a, self.p1_grid, self.h1t[branch])

    def slopes_at(self, p1: float, branch: str = "main") -> tuple[float, float]:
        _check_window(p1, self.p1_grid[0], self.p1_grid[-1])
        return (
            float(np.interp(p1, self.p1_grid, self.pi_lower[branch])),
            float(np.interp(p1, self.p1_grid, self.pi_upper[branch])),
        )

    def hbar_at(self, p, *, clip: bool = False) -> float | np.ndarray:
        if self.hbar is None or self.p_grid is None:
            raise ValueError("this scenario has no periodic-background table")
        p = np.asarray(p, dtype=float)
        p1 = np.atleast_1d(p[..., 0]).ravel()
        p2 = np.atleast_1d(p[..., 1]).ravel()
        g = self.p_grid
        if clip:
            p1 = np.clip(p1, g[0], g[-1])
            p2 = np.clip(p2, g[0], g[-1])
        else:
            _check_window(np.concatenate([p1, p2]), g[0], g[-1])
        i = np.clip(np.searchsorted(g, p1) - 1, 0, len(g) - 2)
        j = np.clip(np.searchsorted(g, p2) - 1, 0, len(g) - 2)
        t = (p1 - g[i]) / (g[i + 1] - g[i])
        s = (p2 - g[j]) / (g[j + 1] - g[j])
        v = (
            (1 - t) * (1 - s) * self.hbar[i, j]
            + t * (1 - s) * self.hbar[i + 1, j]
            + (1 - t) * s * self.hbar[i, j + 1]
            + t * s * self.hbar[i + 1, j + 1]
        )
        out = v.reshape(p[..., 0].shape) if p.ndim > 1 else float(v[0])
        return out

    def tangential_slope_bound(self, branch: str = "main") -> float:
        d = np.diff(self.h1t[branch]) / np.diff(self.p1_grid)
        return float(np.max(np.abs(d)))

    def midpoint_convexity_violation(self) -> float:
        """Worst excess of a tabulated midpoint over its chord (0 = convex)."""
        worst = 0.0
        for branch, vals in self.h1t.items():
            v = np.asarray(vals)
            worst = max(worst, float(np.max(v[1:-1] - 0.5 * (v[:-2] + v[2:]))))
        if self.hbar is not None:
            v = self.hbar
            worst = max(worst, float(np.max(v[1:-1, :] - 0.5 * (v[:-2, :] + v[2:, :]))))
            worst = max(worst, float(np.max(v[:, 1:-1] - 0.5 * (v[:, :-2] + v[:, 2:]))))
        return max(worst, 0.0)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "x0": list(self.x0),
            "p1_grid": self.p1_grid.tolist(),
            "h1t": {k: v.tolist() for k, v in self.h1t.items()},
            "pi_lower": {k: v.tolist() for k, v in self.pi_lower.items()},
            "pi_upper": {k: v.tolist() for k, v in self.pi_upper.items()},
            "E": self.E,
            "E_history": [list(x) for x in self.E_history],
            "method_gaps": {k: v.tolist() for k, v in self.method_gaps.items()},
            "p_grid": None if self.p_grid is None else self.p_grid.tolist(),
            "hbar": None if self.hbar is None else self.hbar.tolist(),
            "flags": dict(self.flags),
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "EffectiveTables":
        return cls(
            x0=tuple(data["x0"]),
            p1_grid=np.asarray(data["p1_grid"], dtype=float),
            h1t={k: np.asarray(v, dtype=float) for k, v in data["h1t"].items()},
            pi_lower={k: np.asarray(v, dtype=float) for k, v in data["pi_lower"].items()},
            pi_upper={k: np.asarray(v, dtype=float) for k, v in data["pi_upper"].items()},
            E=float(data["E"]),
            E_history=tuple(tuple(x) for x in data["E_history"]),
            method_gaps={k: np.asarray(v, dtype=float) for k, v in data["method_gaps"].items()},
            p_grid=None if data["p_grid"] is None else np.asarray(data["p_grid"], dtype=float),
            hbar=None if data["hbar"] is None else np.asarray(data["hbar"], dtype=float),
            flags=dict(data["flags"]),
            provenance=dict(data.get("provenance", {})),
        )

    def to_csv(self, path) -> None:
        """Human-readable CSV blocks with provenance comment headers."""
        from pathlib import Path

        lines = ["# hj-strata effective tables"]
        for k, v in sorted(self.provenance.items()):
            lines.append(f"# {k}={v}")
        lines.append(f"# E={self.E!r}")
        for R, ER in self.E_history:
            lines.append(f"# E_R,{R!r},{ER!r}")
        lines.append("block,branch,p1,value,pi_lower,pi_upper")
        for branch in self.branches():
            for i, p1 in enumerate(self.p1_grid):
                lines.append(
                    f"h1t,{branch},{p1!r},{self.h1t[branch][i]!r},"
                    f"{self.pi_lower[branch][i]!r},{self.pi_upper[branch][i]!r}"
                )
        if self.hbar is not None and self.p_grid is not None:
            lines.append("block,p1,p2,value")
            for i, a in enumerate(self.p_grid):
                for j, b in enumerate(self.p_grid):
                    lines.append(f"hbar,{a!r},{b!r},{self.hbar[i, j]!r}")
        Path(path).write_text("\n".join(lines) + "\n")


def tabulate_effective(
    scn: Scenario,
    *,
    tol: float | None = None,
    threads: int = 1,
    p1_grid: Sequence[float] | None = None,
    p_grid: Sequence[float] | None = None,
) -> EffectiveTables:
    """Batch-solve every table the junction scheme needs.

    Independent entries run in a thread pool (``threads``); assembly order is
    fixed, so results are deterministic regardless of the pool width.
    Failures (non-converged solves, method-gap violations, slope errors) are
    recorded per entry in ``flags`` instead of aborting the batch.
    """
    sched = scn.schedules
    tol = sched.tol_ergodic if tol is None else tol
    bounds = estimate_bounds(scn, samples=200, seed=0)
    if not math.isfinite(bounds["p_window"]):
        raise ValueError("cannot size the momentum window: control hull is degenerate (r_f <= 0)")
    window = 1.05 * bounds["p_window"]
    p1s = (
        np.asarray(list(p1_grid), dtype=float)
        if p1_grid is not None
        else np.linspace(-window, window, sched.p1_points)
    )
    branches = list(scn.branches)
    flags: dict[str, str] = {}

    def solve_h1t(branch: str, p1: float) -> TangentialResult:
        return tangential_hamiltonian(scn, p1, branch=branch, tol=tol)

    h1t: dict[str, np.ndarray] = {}
    gaps: dict[str, np.ndarray] = {}
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        futures = {
            (branch, i): pool.submit(solve_h1t, branch, float(p1))
            for branch in branches
            for i, p1 in enumerate(p1s)
        }
        e_future = pool.submit(dirichlet_datum, scn, tol=tol)
        torus_futures = None
        ps = None
        if scn.case == "case2":
            ps = (
                np.asarray(list(p_grid), dtype=float)
                if p_grid is not None
                else np.linspace(-window, window, 17)
            )
            torus_futures = {
                (i, j): pool.submit(torus_effective, scn, (float(a), float(b)), tol=tol)
                for i, a in enumerate(ps)
                for j, b in enumerate(ps)
            }
        for branch in branches:
            vals = np.empty(len(p1s))
            gap_row = np.empty(len(p1s))
            for i in range(len(p1s)):
                result = futures[(branch, i)].result()
                vals[i] = result.value
                gap_row[i] = max(e.method_gap for e in result.estimates)
                if not result.converged:
                    flags[f"h1t/{branch}/{i}"] = "truncation schedule exhausted or solver not converged"
            h1t[branch] = vals
            gaps[branch] = gap_row
        dirichlet = e_future.result()
        if not dirichlet.converged:
            flags["E"] = "truncation schedule exhausted or solver not converged"
        hbar = None
        if torus_futures is not None and ps is not None:
            hbar = np.empty((len(ps), len(ps)))
            for (i, j), fut in sorted(torus_futures.items()):
                est = fut.result()
                hbar[i, j] = est.constant
                if not est.converged:
                    flags[f"hbar/{i}/{j}"] = "torus solve not converged"

    pi_lower: dict[str, np.ndarray] = {}
    pi_upper: dict[str, np.ndarray] = {}
    for branch in branches:
        lo = np.full(len(p1s), math.nan)
        hi = np.full(len(p1s), math.nan)
        for i, p1 in enumerate(p1s):
            try:
                floor = background_min_over_q(scn, float(p1))
                lo[i], hi[i] = slopes(scn, float(p1), max(h1t[branch][i], floor))
            except ValueError as exc:
                flags[f"slopes/{branch}/{i}"] = str(exc)
        pi_lower[branch] = lo
        pi_upper[branch] = hi

    provenance = {
        "scenario": scn.label,
        "scenario_hash": scn.content_hash(),
        "tol_ergodic": tol,
        "cell_h": sched.cell_h,
        "rho_list": list(sched.rho_list),
        "R_list": list(sched.R_list),
        "p_window": window,
    }
    return EffectiveTables(
        x0=(0.0, 0.0),
        p1_grid=p1s,
        h1t=h1t,
        pi_lower=pi_lower,
        pi_upper=pi_upper,
        E=dirichlet.E,
        E_history=tuple((e.truncation, e.constant) for e in dirichlet.estimates),
        method_gaps=gaps,
        p_grid=ps if scn.case == "case2" else None,
        hbar=hbar,
        flags=flags,
        provenance=provenance,
    )
