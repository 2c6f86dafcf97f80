"""Limit problems on the flat stratification: plane, defect line, origin.

The discounted limit equation holds in three flavors depending on where a
node sits:

* generic plane nodes solve ``alpha u + Hbar(x, Du) = 0`` in control form
  (semi-Lagrangian, time step ``SolverSchedules.limit_delta``): on the
  background dynamics when the background is y-independent, and when it
  was homogenized over a torus on the planes ``z = g . p + b`` of the
  tabulated H̄'s lower convex hull (velocity ``-g``, running cost ``-b``);
* nodes on the defect line additionally see a tangential one-dimensional
  equation driven by the tabulated line Hamiltonian, and the node value is
  the minimum of the candidate updates (the line can only lower the value);
* the origin additionally sees the constant candidate ``-E/alpha`` from the
  compact-defect datum.

Every candidate update is monotone in the stencil values and a sup-norm
contraction, so plain Jacobi sweeps converge; the fixed point satisfies the
one-sided (sub/supersolution) residual checks of :func:`scheme_residuals`.
The sweeps start from the plane solution, which one Howard solve
(:func:`hj_strata.bellman.solve_discounted`) finds exactly rather than by
sweeping.

Every solve runs on the limit box of the scenario's schedules,
``[-box_half_width, box_half_width]^2`` at spacing ``grid_h``: the box whose
slow points :func:`~hj_strata.hamiltonian.estimate_bounds` samples, so the
bounds, the tables' window and :func:`scheme_residuals` all hold on it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import bellman
from .bellman import SLOperator
from .cell import EffectiveTables
from .grids import GridSpec, ValueField
from .hamiltonian import _unusable_bound, estimate_bounds
from .scenario import Scenario, ScenarioError

__all__ = [
    "StratifiedScheme",
    "build_scheme",
    "scheme_residuals",
    "solve_scheme",
    "solve_unstratified",
    "StratifiedReport",
]

_MAX_SWEEPS = 200_000   # junction sweeps


def _background_operator(scn: Scenario, grid: GridSpec) -> SLOperator:
    """Control-form operator for the limit equation: background fields at the
    slow variable (the fast variable homogenized away), time step
    ``SolverSchedules.limit_delta``."""
    pts = grid.nodes()
    block = scn.background
    drift = block.eval_drift(pts[:, 0], pts[:, 1], 0.0, 0.0)
    cost = block.eval_cost(pts[:, 0], pts[:, 1], 0.0, 0.0)
    return SLOperator(grid, drift, cost, scn.schedules.limit_delta)


@dataclass(frozen=True, slots=True)
class StratifiedScheme:
    """Grid, tables, and node classes for one stratified solve."""

    scn: Scenario
    tables: EffectiveTables
    grid: GridSpec
    operator: SLOperator                 # the plane in control form
    theta_t: Mapping[str, float]         # tangential dissipation per branch
    m1_rows: Mapping[str, np.ndarray]    # branch -> flat indices, ascending x1
    origin: int


def _limit_grid(scn: Scenario) -> GridSpec:
    """The scheduled limit box.  Raises ``ScenarioError`` naming
    ``schedules.grid_h`` unless ``grid_h`` cuts the box into an even number
    of cells, so that the origin is a node."""
    sched = scn.schedules
    try:
        grid = GridSpec.box(sched.box_half_width, sched.grid_h)
    except ValueError as err:
        raise ScenarioError(f"schedules.grid_h: {err}") from None
    if grid.n1 % 2 == 0:
        raise ScenarioError(f"schedules.grid_h: {grid.n1 - 1} cells per side; the origin must be a grid node")
    return grid


def build_scheme(scn: Scenario, tables: EffectiveTables) -> StratifiedScheme:
    """Assemble the node classes and per-class update parameters.

    The grid is the scheduled limit box (``box_half_width``, ``grid_h``),
    with the origin and the line x2 = 0 on nodes.  The plane operator reads
    the background fields in case1/case3 and the ``hbar`` table's hull planes
    over ``[-B, B]^2`` in case2, where ``B = M_l / r_f`` bounds the
    solution's gradients, which ``p1_grid`` and ``p_grid`` must cover.
    """
    grid = _limit_grid(scn)
    origin = grid.index_of((0.0, 0.0))
    j0 = origin % grid.n2

    bounds = estimate_bounds(scn, samples=200, seed=0)
    if cause := _unusable_bound(bounds):
        raise ValueError(f"cannot bound the scheme's gradients: {cause}")
    if scn.case == "case2" and tables.hbar is None:
        raise ValueError("case2 schemes need the tabulated plane Hamiltonian")
    grad_bound = bounds["M_l"] / bounds["r_f"]
    for name, window in (("p1", tables.p1_grid), ("p", tables.p_grid)):   # p_grid: case2 only
        if window is not None and (window[-1] < grad_bound - 1e-9 or window[0] > -grad_bound + 1e-9):
            raise ValueError(
                f"tables cover {name} in [{window[0]:.4g}, {window[-1]:.4g}] "
                f"but the scheme's gradient bound is {grad_bound:.4g}"
            )

    if scn.alpha * scn.schedules.limit_delta >= 1.0:
        raise ValueError("alpha*delta >= 1: shrink the time step or the grid spacing")

    coords1 = grid.coords1()
    n2 = grid.n2
    flat_axis = np.arange(grid.n1) * n2 + j0
    m1 = {branch: flat_axis[side * coords1 > 1e-12] for branch, side in scn.branches.items()}
    missing = set(m1) - set(tables.branches())
    if missing:
        raise ValueError(f"tables lack tangential branch(es) {sorted(missing)}")

    theta_t = {b: max(tables.tangential_slope_bound(b), 1e-3) for b in m1}
    if scn.case == "case2":   # one control per hull plane z = g . p + b: velocity -g, running cost -b
        g, b = tables.hull_planes(grad_bound)
        drift = np.broadcast_to(-g[:, None, :], (len(b), grid.size, 2))
        operator = SLOperator(grid, drift, np.broadcast_to(-b[:, None], drift.shape[:2]), scn.schedules.limit_delta)
    else:
        operator = _background_operator(scn, grid)
    return StratifiedScheme(
        scn=scn,
        tables=tables,
        grid=grid,
        operator=operator,
        theta_t=theta_t,
        m1_rows=m1,
        origin=origin,
    )


def _line_neighbors(
    scheme: StratifiedScheme, u: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) values along the defect line, reflected at the box edge."""
    grid = scheme.grid
    left = rows - grid.n2
    right = rows + grid.n2
    uL = np.where(left >= 0, u[np.maximum(left, 0)], u[rows])
    uR = np.where(right < grid.size, u[np.minimum(right, grid.size - 1)], u[rows])
    return uL, uR


def _line_candidates(scheme: StratifiedScheme, u: np.ndarray, *, clip: bool = True) -> dict[str, np.ndarray]:
    """Tangential candidate of every branch at its line nodes: the monotone
    1D Lax-Friedrichs update of the tabulated line Hamiltonian.  Lookups are
    clipped because transient iterates can overshoot the solution's gradient
    bound; :func:`solve_scheme` reads the solution's strictly."""
    h = scheme.grid.h1
    out = {}
    for branch, rows in scheme.m1_rows.items():
        th = scheme.theta_t[branch]
        uL, uR = _line_neighbors(scheme, u, rows)
        g = scheme.tables.h1t_at((uR - uL) / (2 * h), branch, clip=clip)
        out[branch] = (-g + (th / h) * (uL + uR)) / (scheme.scn.alpha + 2 * th / h)
    return out


def _junction_minima(
    scheme: StratifiedScheme, plane: np.ndarray, lines: Mapping[str, np.ndarray]
) -> np.ndarray:
    """The node values the candidates compose to: the plane candidate, lowered
    by each branch's line candidate on its half-line and by ``-E/alpha`` at
    the origin."""
    new = plane.copy()
    for branch, rows in scheme.m1_rows.items():
        new[rows] = np.minimum(new[rows], lines[branch])
    o = scheme.origin
    new[o] = min(new[o], -scheme.tables.E / scheme.scn.alpha)
    return new


def _sweep(scheme: StratifiedScheme, u: np.ndarray) -> np.ndarray:
    """One Jacobi sweep: every candidate at ``u``, composed to the junction minima."""
    return _junction_minima(scheme, scheme.operator.apply(u, scheme.scn.alpha), _line_candidates(scheme, u))


def _fixed_point(
    step, u: np.ndarray, *, tol: float, max_iter: int, what: str
) -> tuple[np.ndarray, int, float]:
    """Iterate ``u <- step(u)`` until a step moves no node by more than ``tol``.

    Returns ``(u, iterations, residual)``; raises ``RuntimeError`` naming
    ``what`` when ``max_iter`` steps fall short.
    """
    residual = math.inf
    for it in range(1, max_iter + 1):
        new = step(u)
        residual = float(np.max(np.abs(new - u)))
        u = new
        if residual <= tol:
            return u, it, residual
    raise RuntimeError(
        f"{what} stalled: residual {residual:.3e} > tol {tol:.3e} after {max_iter} sweeps"
    )


def _control_plane(operator: SLOperator, alpha: float, *, tol: float) -> np.ndarray:
    """Plane solution in control form: one Howard solve at discount ``alpha``."""
    (field,), (info,) = bellman.solve_discounted(operator, alpha, tol=tol)
    if not info.converged:
        raise RuntimeError(
            f"plane start stalled: residual {info.residual:.3e} > tol {tol:.3e} "
            f"after {info.iterations} Bellman applications"
        )
    return field.flat()


def solve_scheme(scheme: StratifiedScheme, *, tol: float = 1e-8) -> tuple[ValueField, int, float]:
    """Iterate the junction scheme to its fixed point.

    The iteration starts from the plane solution, which dominates the
    stratified one (the extra candidates only lower values), so the sweeps
    descend monotonically.  That start is exact: one Howard solve of the
    plane operator to residual ``tol``.  Returns ``(field, iterations,
    residual)``, counting junction sweeps only.  The Howard solve gets
    :mod:`hj_strata.bellman`'s budget of applications and the sweeps
    ``_MAX_SWEEPS``; running out of either raises (every candidate is a
    contraction, so that is a budget problem, not a scheme problem).  Raises
    ``ValueError`` unless ``tol > 0``.
    """
    bellman._check_tol(tol)
    u = _control_plane(scheme.operator, scheme.scn.alpha, tol=tol)
    u, it, residual = _fixed_point(
        functools.partial(_sweep, scheme), u, tol=tol, max_iter=_MAX_SWEEPS, what="stratified solve"
    )
    # sweeps clip transient lookups; read the solution's own strictly, so an
    # out-of-window solution raises TableRangeError instead of passing
    _line_candidates(scheme, u, clip=False)
    return ValueField(scheme.grid, u.reshape(scheme.grid.n1, scheme.grid.n2)), it, residual


def solve_unstratified(
    scn: Scenario, tables: EffectiveTables | None = None, *, tol: float = 1e-8
) -> ValueField:
    """Baseline without the defect line: ``alpha u + Hbar(x, Du) = 0`` on the limit box.

    One Howard solve to residual ``tol`` of :func:`build_scheme`'s plane
    operator, which needs ``tables`` for periodic backgrounds only.  Raises
    ``ValueError`` unless ``tol > 0``.
    """
    bellman._check_tol(tol)
    grid = _limit_grid(scn)
    if scn.case in ("case1", "case3"):
        operator = _background_operator(scn, grid)
    else:
        if tables is None or tables.hbar is None:
            raise ValueError("periodic backgrounds need tabulated plane Hamiltonian values")
        operator = build_scheme(scn, tables).operator
    u = _control_plane(operator, scn.alpha, tol=tol)
    return ValueField(grid, u.reshape(grid.n1, grid.n2))


@dataclass(frozen=True, slots=True)
class StratifiedReport:
    """One-sided residuals of a candidate fixed point, most binding first."""

    iteration_residual: float       # sup |sweep(u) - u|
    origin_clamp: float             # alpha u(0) + E, must be <= tol
    m1_subsolution: Mapping[str, float]  # per branch: max alpha u + H1T_godunov
    supersolution_margin: float     # min over nodes of max-candidate residual
    value_bound_excess: float       # alpha ||u||_inf - M_l, must be <= tol

    def worst(self) -> float:
        vals = [self.iteration_residual, self.origin_clamp, self.value_bound_excess,
                -self.supersolution_margin]
        vals.extend(self.m1_subsolution.values())
        return max(vals)


def scheme_residuals(scheme: StratifiedScheme, field: ValueField) -> StratifiedReport:
    """Measure the stratified optimality conditions on a candidate solution.

    The subsolution numbers use the Godunov (upwind) evaluation of the
    tabulated tangential Hamiltonian
    (:meth:`~hj_strata.cell.EffectiveTables.tangential_upwind`), so they are
    scheme-independent; the supersolution margin reads the scheme's own
    candidates, the ones the iteration residual composes (at the fixed point
    the achieving candidate has residual 0, so the margin sits at 0 up to
    iteration slack).
    """
    u = field.flat()
    grid = scheme.grid
    h = grid.h1
    alpha = scheme.scn.alpha
    plane = scheme.operator.apply(u, alpha)
    lines = _line_candidates(scheme, u)
    iteration_residual = float(np.max(np.abs(_junction_minima(scheme, plane, lines) - u)))

    origin_clamp = float(alpha * u[scheme.origin] + scheme.tables.E)

    m1_sub: dict[str, float] = {}
    for branch, rows in scheme.m1_rows.items():
        uL, uR = _line_neighbors(scheme, u, rows)
        d_minus = (u[rows] - uL) / h
        d_plus = (uR - u[rows]) / h
        g = scheme.tables.tangential_upwind(branch, d_minus, d_plus)
        m1_sub[branch] = float(np.max(alpha * u[rows] + g)) if len(rows) else -math.inf

    # scaled candidate residuals: (u - update) * stiffness ~ alpha u + H_num
    margin = (u - plane) / scheme.operator.delta
    for branch, rows in scheme.m1_rows.items():
        scale = alpha + 2 * scheme.theta_t[branch] / h
        margin[rows] = np.maximum(margin[rows], (u[rows] - lines[branch]) * scale)
    o = scheme.origin
    margin[o] = max(margin[o], alpha * u[o] + scheme.tables.E)
    supersolution_margin = float(np.min(margin))

    bounds = estimate_bounds(scheme.scn, samples=200, seed=0)
    value_bound_excess = float(alpha * np.max(np.abs(u)) - bounds["M_l"])
    return StratifiedReport(
        iteration_residual=iteration_residual,
        origin_clamp=origin_clamp,
        m1_subsolution=m1_sub,
        supersolution_margin=supersolution_margin,
        value_bound_excess=value_bound_excess,
    )
