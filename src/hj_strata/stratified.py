"""Limit problems on the flat stratification: plane, defect line, origin.

The discounted limit equation holds in three flavors depending on where a
node sits:

* generic plane nodes solve ``alpha u + Hbar(x, Du) = 0`` -- in control form
  (semi-Lagrangian on the background dynamics, time step = grid spacing)
  when the background is y-independent, or as a monotone Lax-Friedrichs
  iteration on the tabulated effective Hamiltonian when it had to be
  homogenized over a torus;
* nodes on the defect line additionally see a tangential one-dimensional
  equation driven by the tabulated line Hamiltonian, and the node value is
  the minimum of the candidate updates (the line can only lower the value);
* the origin additionally sees the constant candidate ``-E/alpha`` from the
  compact-defect datum.

Every candidate update is monotone in the stencil values and a sup-norm
contraction, so plain Jacobi sweeps converge; the fixed point satisfies the
one-sided (sub/supersolution) residual checks of :func:`scheme_residuals`.

The sweeps start from the plane solution, which is found exactly rather than
by sweeping: in control form by one Howard solve
(:func:`hj_strata.bellman.solve_discounted`); on the tabulated plane it is the
constant ``-Hbar(0)/alpha``, because the table is frozen at one slow point,
so the Lax-Friedrichs update does not depend on x and maps that constant to
itself.
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
from .grids import _ALIGN_TOL, GridSpec, ValueField
from .hamiltonian import estimate_bounds
from .scenario import Scenario

__all__ = [
    "StratifiedScheme",
    "build_scheme",
    "scheme_residuals",
    "solve_effective",
    "solve_scheme",
    "solve_unstratified",
    "StratifiedReport",
]

_MAX_SWEEPS = 200_000   # junction sweeps


def _background_operator(scn: Scenario, grid: GridSpec, delta: float) -> SLOperator:
    """Control-form operator for the limit equation: background fields at the
    slow variable (the fast variable homogenized away)."""
    pts = grid.nodes()
    block = scn.background
    drift = block.eval_drift(pts[:, 0], pts[:, 1], 0.0, 0.0)
    cost = block.eval_cost(pts[:, 0], pts[:, 1], 0.0, 0.0)
    return SLOperator(grid, drift, cost, delta)


@dataclass(frozen=True, slots=True)
class StratifiedScheme:
    """Grid, tables, and node classes for one stratified solve."""

    scn: Scenario
    tables: EffectiveTables
    grid: GridSpec
    operator: SLOperator | None          # case1/case3 control-form backbone
    theta_lf: float | None               # case2 plane dissipation (= M_f)
    theta_t: Mapping[str, float]         # tangential dissipation per branch
    m1_rows: Mapping[str, np.ndarray]    # branch -> flat indices, ascending x1
    origin: int


def build_scheme(
    scn: Scenario,
    tables: EffectiveTables,
    grid: GridSpec | None = None,
) -> StratifiedScheme:
    """Assemble the node classes and per-class update parameters.

    The grid (by default the scheduled box) must be a centered box with the
    origin and the line x2 = 0 on nodes; the tables must cover the gradient
    range the coercivity bound allows for the solution.  The control-form
    time step is ``SolverSchedules.limit_delta`` of the grid spacing.
    """
    sched = scn.schedules
    if grid is None:
        grid = GridSpec.box(sched.box_half_width, sched.grid_h)
    if grid.periodic1 or grid.periodic2:
        raise ValueError("stratified solves need a plain box grid")
    if abs(grid.h1 - grid.h2) > 1e-12:
        raise ValueError("stratified solves need square cells (h1 == h2)")
    origin = grid.index_of((0.0, 0.0))
    i0, j0 = divmod(origin, grid.n2)
    if max(abs(grid.coords1()[i0]), abs(grid.coords2()[j0])) > _ALIGN_TOL * grid.h1:
        raise ValueError("the origin must be a grid node")

    bounds = estimate_bounds(scn, samples=200, seed=0)
    if bounds["r_f"] <= 0:
        raise ValueError("degenerate control hull: the limit problem loses coercivity")
    grad_bound = bounds["M_l"] / bounds["r_f"]
    if tables.p1_grid[-1] < grad_bound - 1e-9 or tables.p1_grid[0] > -grad_bound + 1e-9:
        raise ValueError(
            f"tables cover p1 in [{tables.p1_grid[0]:.4g}, {tables.p1_grid[-1]:.4g}] "
            f"but the scheme's gradient bound is {grad_bound:.4g}"
        )

    delta = sched.limit_delta(grid.h1)
    if scn.alpha * delta >= 1.0:
        raise ValueError("alpha*delta >= 1: shrink the time step or the grid spacing")

    coords1 = grid.coords1()
    n2 = grid.n2
    flat_axis = np.arange(grid.n1) * n2 + j0
    m1 = {branch: flat_axis[side * coords1 > 1e-12] for branch, side in scn.branches.items()}
    missing = set(m1) - set(tables.branches())
    if missing:
        raise ValueError(f"tables lack tangential branch(es) {sorted(missing)}")

    theta_t = {b: max(tables.tangential_slope_bound(b), 1e-3) for b in m1}
    operator = None
    theta_lf = None
    if scn.case == "case2":
        if tables.hbar is None:
            raise ValueError("case2 schemes need the tabulated plane Hamiltonian")
        theta_lf = max(bounds["M_f"], 1e-3)
    else:
        operator = _background_operator(scn, grid, delta)
    return StratifiedScheme(
        scn=scn,
        tables=tables,
        grid=grid,
        operator=operator,
        theta_lf=theta_lf,
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


def _plane_update(scheme: StratifiedScheme, u: np.ndarray, *, clip: bool = True) -> np.ndarray:
    """Plane candidate at every node of the flat field ``u``.

    The control-form Bellman step when the scheme has a background operator;
    otherwise the monotone Lax-Friedrichs update of the tabulated plane
    equation.  There, missing neighbors at the box edge are reflected (zero
    one-sided slope), the standard monotone closure; callers keep comparison
    windows away from the frame.  Table lookups are clipped into the
    tabulated window because transient iterates can overshoot the solution's
    gradient bound; :func:`solve_scheme` reads the converged field's lookups
    again with ``clip=False``, which raises ``TableRangeError`` outside it.
    """
    if scheme.operator is not None:
        return scheme.operator.apply(u, scheme.scn.alpha)
    h = scheme.grid.h1
    th = scheme.theta_lf
    n1, n2 = scheme.grid.n1, scheme.grid.n2
    # the field with one reflected layer of nodes around it (corners unused),
    # filled by hand: np.pad costs more than the update's arithmetic here
    pad = np.empty((n1 + 2, n2 + 2))
    pad[1:-1, 1:-1] = u.reshape(n1, n2)
    pad[0, 1:-1], pad[-1, 1:-1] = pad[1, 1:-1], pad[-2, 1:-1]
    pad[1:-1, 0], pad[1:-1, -1] = pad[1:-1, 1], pad[1:-1, -2]
    uW, uE, uS, uN = pad[:-2, 1:-1], pad[2:, 1:-1], pad[1:-1, :-2], pad[1:-1, 2:]
    p = np.stack([(uE - uW) / (2 * h), (uN - uS) / (2 * h)], axis=-1)
    g = scheme.tables.hbar_at(p, clip=clip)
    return ((-g + (th / h) * (uE + uW + uN + uS)) / (scheme.scn.alpha + 4 * th / h)).reshape(-1)


def _line_candidates(scheme: StratifiedScheme, u: np.ndarray, *, clip: bool = True) -> dict[str, np.ndarray]:
    """Tangential candidate of every branch at its line nodes: the monotone
    1D Lax-Friedrichs update of the tabulated line Hamiltonian.  Lookups are
    clipped as in :func:`_plane_update`."""
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
    return _junction_minima(scheme, _plane_update(scheme, u), _line_candidates(scheme, u))


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


def _tabulated_plane(scheme: StratifiedScheme, *, tol: float) -> np.ndarray:
    """Plane solution of the tabulated equation: the constant ``-Hbar(0)/alpha``.

    The table is frozen at one slow point, so the Lax-Friedrichs update does
    not depend on x, and a constant field has zero central differences under
    reflected edges; the update is a contraction, so that constant is its
    only fixed point.  One update certifies it: raises ``RuntimeError`` if it moves a node by more
    than ``tol``.
    """
    u = np.full(scheme.grid.size, -float(scheme.tables.hbar_at((0.0, 0.0))) / scheme.scn.alpha)
    residual = float(np.max(np.abs(_plane_update(scheme, u) - u)))
    if residual > tol:
        raise RuntimeError(
            f"plane start -Hbar(0)/alpha is not a fixed point of the plane update: "
            f"residual {residual:.3e} > tol {tol:.3e}"
        )
    return u


def solve_scheme(scheme: StratifiedScheme, *, tol: float = 1e-8) -> tuple[ValueField, int, float]:
    """Iterate the junction scheme to its fixed point.

    The iteration starts from the plane solution, which dominates the
    stratified one (the extra candidates only lower values), so the sweeps
    descend monotonically.  That start is exact: one Howard solve to residual
    ``tol`` in control form, the constant ``-Hbar(0)/alpha`` certified by one
    plane update on the tabulated plane.  Returns ``(field, iterations,
    residual)``, counting junction sweeps only.  The Howard solve gets
    :mod:`hj_strata.bellman`'s budget of applications and the sweeps
    ``_MAX_SWEEPS``; running out of either raises (every candidate is a
    contraction, so that is a budget problem, not a scheme problem).
    """
    if scheme.operator is not None:
        u = _control_plane(scheme.operator, scheme.scn.alpha, tol=tol)
    else:
        u = _tabulated_plane(scheme, tol=tol)
    u, it, residual = _fixed_point(
        functools.partial(_sweep, scheme), u, tol=tol, max_iter=_MAX_SWEEPS, what="stratified solve"
    )
    # sweeps clip transient lookups; read the solution's own strictly, so an
    # out-of-window solution raises TableRangeError instead of passing
    _line_candidates(scheme, u, clip=False)
    if scheme.operator is None:
        _plane_update(scheme, u, clip=False)
    return ValueField(scheme.grid, u.reshape(scheme.grid.n1, scheme.grid.n2)), it, residual


def solve_effective(
    scn: Scenario,
    tables: EffectiveTables,
    grid: GridSpec | None = None,
    *,
    tol: float = 1e-8,
) -> ValueField:
    """Solve the full stratified limit problem on a centered box."""
    scheme = build_scheme(scn, tables, grid)
    field, _, _ = solve_scheme(scheme, tol=tol)
    return field


def solve_unstratified(
    scn: Scenario,
    tables: EffectiveTables | None = None,
    grid: GridSpec | None = None,
    *,
    tol: float = 1e-8,
) -> ValueField:
    """Baseline without the defect line: ``alpha u + Hbar(x, Du) = 0``.

    For y-independent backgrounds, one Howard solve in control form, with
    the limit time step of ``SolverSchedules.limit_delta``, to residual
    ``tol``; for periodic ones (``tables`` required then) the constant
    ``-Hbar(0)/alpha`` of the tabulated plane, certified by one
    Lax-Friedrichs update.
    """
    sched = scn.schedules
    if grid is None:
        grid = GridSpec.box(sched.box_half_width, sched.grid_h)
    if scn.case in ("case1", "case3"):
        op = _background_operator(scn, grid, sched.limit_delta(grid.h1))
        u = _control_plane(op, scn.alpha, tol=tol)
    else:
        if tables is None or tables.hbar is None:
            raise ValueError("periodic backgrounds need tabulated plane Hamiltonian values")
        u = _tabulated_plane(build_scheme(scn, tables, grid), tol=tol)
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
    plane = _plane_update(scheme, u)
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
    if scheme.operator is not None:
        margin = (u - plane) / scheme.operator.delta
    else:
        margin = (u - plane) * (alpha + 4 * scheme.theta_lf / h)
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
