"""Limit problems on the flat stratification: plane, defect line, origin.

The discounted limit equation holds in three flavors depending on where a
node sits:

* generic plane nodes solve ``alpha u + Hbar(x, Du) = 0`` -- in control form
  (semi-Lagrangian on the background dynamics) when the background is
  y-independent, or as a monotone Lax-Friedrichs iteration on the tabulated
  effective Hamiltonian when it had to be homogenized over a torus;
* nodes on the defect line additionally see a tangential one-dimensional
  equation driven by the tabulated line Hamiltonian, and the node value is
  the minimum of the candidate updates (the line can only lower the value);
* the origin additionally sees the constant candidate ``-E/alpha`` from the
  compact-defect datum.

Every candidate update is monotone in the stencil values and a sup-norm
contraction, so plain Jacobi sweeps converge; the fixed point satisfies the
one-sided (sub/supersolution) residual checks of :func:`scheme_residuals`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .bellman import SLOperator
from .cell import EffectiveTables
from .grids import GridSpec, ValueField
from .hamiltonian import estimate_bounds
from .scenario import Scenario

__all__ = [
    "StratifiedScheme",
    "build_scheme",
    "junction_update",
    "scheme_residuals",
    "solve_effective",
    "solve_scheme",
    "solve_unstratified",
    "StratifiedReport",
]

_MAX_SWEEPS = 200_000   # sweep budget of every plane and stratified solve


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
    delta: float
    operator: SLOperator | None          # case1/case3 control-form backbone
    theta_lf: float | None               # case2 plane dissipation (= M_f)
    theta_t: Mapping[str, float]         # tangential dissipation per branch
    m1_rows: Mapping[str, np.ndarray]    # branch -> flat indices, ascending x1
    origin: int
    alpha: float


def build_scheme(
    scn: Scenario,
    tables: EffectiveTables,
    grid: GridSpec | None = None,
) -> StratifiedScheme:
    """Assemble the node classes and per-class update parameters.

    The grid (by default the scheduled box) must be a centered box with the
    origin and the line x2 = 0 on nodes; the tables must cover the gradient
    range the coercivity bound allows for the solution.
    """
    sched = scn.schedules
    if grid is None:
        grid = GridSpec.box(sched.box_half_width, sched.grid_h)
    if grid.kind != "box" or grid.periodic1 or grid.periodic2:
        raise ValueError("stratified solves need a plain box grid")
    if abs(grid.h1 - grid.h2) > 1e-12:
        raise ValueError("stratified solves need square cells (h1 == h2)")
    try:
        origin = grid.index_of((0.0, 0.0))
    except (ValueError, KeyError):
        raise ValueError("the origin must be a grid node") from None

    bounds = estimate_bounds(scn, samples=200, seed=0)
    if bounds["r_f"] <= 0:
        raise ValueError("degenerate control hull: the limit problem loses coercivity")
    grad_bound = bounds["M_l"] / bounds["r_f"]
    if tables.p1_grid[-1] < grad_bound - 1e-9 or tables.p1_grid[0] > -grad_bound + 1e-9:
        raise ValueError(
            f"tables cover p1 in [{tables.p1_grid[0]:.4g}, {tables.p1_grid[-1]:.4g}] "
            f"but the scheme's gradient bound is {grad_bound:.4g}"
        )

    delta = sched.delta(grid.h1)
    if scn.alpha * delta >= 1.0:
        raise ValueError("alpha*delta >= 1: shrink the time step or the grid spacing")

    coords1 = grid.coords1()
    j0 = int(round(-grid.origin[1] / grid.h2))
    n2 = grid.n2
    flat_axis = np.arange(grid.n1) * n2 + j0
    m1 = {branch: flat_axis[side * coords1 > 1e-12] for branch, side in scn.branches.items()}
    missing = set(m1) - set(tables.h1t)
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
        delta=delta,
        operator=operator,
        theta_lf=theta_lf,
        theta_t=theta_t,
        m1_rows=m1,
        origin=origin,
        alpha=scn.alpha,
    )


def _plane_neighbors(u2: np.ndarray) -> tuple[np.ndarray, ...]:
    """(W, E, S, N) neighbor values with reflected box edges."""
    uW = np.vstack([u2[:1, :], u2[:-1, :]])
    uE = np.vstack([u2[1:, :], u2[-1:, :]])
    uS = np.hstack([u2[:, :1], u2[:, :-1]])
    uN = np.hstack([u2[:, 1:], u2[:, -1:]])
    return uW, uE, uS, uN


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


def _plane_update(scheme: StratifiedScheme, u: np.ndarray) -> np.ndarray:
    """Plane candidate at every node of the flat field ``u``.

    The control-form Bellman step when the scheme has a background operator;
    otherwise the monotone Lax-Friedrichs update of the tabulated plane
    equation.  There, missing neighbors at the box edge are reflected (zero
    one-sided slope), the standard monotone closure; callers keep comparison
    windows away from the frame.  Table lookups are clipped into the
    tabulated window because transient iterates can overshoot the solution's
    gradient bound; the converged field is re-checked strictly by
    :func:`solve_scheme`.
    """
    if scheme.operator is not None:
        return scheme.operator.apply(u, scheme.alpha)
    h = scheme.grid.h1
    th = scheme.theta_lf
    uW, uE, uS, uN = _plane_neighbors(u.reshape(scheme.grid.n1, scheme.grid.n2))
    p = np.stack([(uE - uW) / (2 * h), (uN - uS) / (2 * h)], axis=-1)
    g = scheme.tables.hbar_at(p, clip=True)
    return ((-g + (th / h) * (uE + uW + uN + uS)) / (scheme.alpha + 4 * th / h)).reshape(-1)


def _tangential_update(
    scheme: StratifiedScheme, u: np.ndarray, rows: np.ndarray, branch: str
) -> np.ndarray:
    """Monotone 1D Lax-Friedrichs update along the defect line.

    Lookups are clipped into the tabulated window (transients may overshoot);
    :func:`solve_scheme` re-checks the converged field strictly.
    """
    grid = scheme.grid
    h = grid.h1
    th = scheme.theta_t[branch]
    uL, uR = _line_neighbors(scheme, u, rows)
    p1 = (uR - uL) / (2 * h)
    g = scheme.tables.h1t_at(p1, branch, clip=True)
    return (-g + (th / h) * (uL + uR)) / (scheme.alpha + 2 * th / h)


def _sweep(scheme: StratifiedScheme, u: np.ndarray) -> np.ndarray:
    """One Jacobi sweep: plane update everywhere, then the junction minima."""
    new = _plane_update(scheme, u)
    for branch, rows in scheme.m1_rows.items():
        upd = _tangential_update(scheme, u, rows, branch)
        new[rows] = np.minimum(new[rows], upd)
    o = scheme.origin
    new[o] = min(new[o], -scheme.tables.E / scheme.alpha)
    return new


def junction_update(scheme: StratifiedScheme, node: int, u: np.ndarray) -> float:
    """Candidate minimum at one defect-line node (reference implementation).

    ``node`` must lie on the defect line or be the origin; the value is the
    minimum of the plane update, the tangential update of the node's branch,
    and (at the origin) the compact-defect constant.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    branch = None
    for b, rows in scheme.m1_rows.items():
        if node in rows:
            branch = b
            break
    if branch is None and node != scheme.origin:
        raise ValueError(f"node {node} is not on the defect line")
    value = float(_plane_update(scheme, u)[node])
    if branch is not None:
        tang = _tangential_update(scheme, u, np.array([node]), branch)
        value = min(value, float(tang[0]))
    if node == scheme.origin:
        value = min(value, -scheme.tables.E / scheme.alpha)
    return value


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


def _verify_table_range(scheme: StratifiedScheme, u: np.ndarray) -> None:
    """Strict window check on a converged field's central slopes.

    Sweeps clip transient lookups, so an out-of-window *solution* would
    otherwise pass silently; this re-raises ``TableRangeError`` for it.
    """
    h = scheme.grid.h1
    for branch, rows in scheme.m1_rows.items():
        uL, uR = _line_neighbors(scheme, u, rows)
        scheme.tables.h1t_at((uR - uL) / (2 * h), branch)
    if scheme.operator is None:
        uW, uE, uS, uN = _plane_neighbors(u.reshape(scheme.grid.n1, scheme.grid.n2))
        p = np.stack([(uE - uW) / (2 * h), (uN - uS) / (2 * h)], axis=-1)
        scheme.tables.hbar_at(p)


def solve_scheme(
    scheme: StratifiedScheme,
    *,
    tol: float = 1e-8,
    max_iter: int = _MAX_SWEEPS,
    u0: np.ndarray | None = None,
) -> tuple[ValueField, int, float]:
    """Iterate the junction scheme to its fixed point.

    Without ``u0`` the iteration starts from the plane solution, which
    dominates the stratified one (the extra candidates only lower values), so
    the sweeps descend monotonically.  Returns ``(field, iterations,
    residual)``; raises on non-convergence (every candidate is a contraction,
    so this indicates a budget problem, not a scheme problem).
    """
    if u0 is None:
        u, _, _ = _fixed_point(
            functools.partial(_plane_update, scheme), np.zeros(scheme.grid.size),
            tol=tol, max_iter=max_iter, what="plane solve",
        )
    else:
        u = np.array(u0, dtype=float).reshape(-1)
    u, it, residual = _fixed_point(
        functools.partial(_sweep, scheme), u, tol=tol, max_iter=max_iter, what="stratified solve"
    )
    _verify_table_range(scheme, u)
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

    Control form for y-independent backgrounds; tabulated Lax-Friedrichs for
    periodic ones (``tables`` required then).
    """
    sched = scn.schedules
    if grid is None:
        grid = GridSpec.box(sched.box_half_width, sched.grid_h)
    if scn.case in ("case1", "case3"):
        op = _background_operator(scn, grid, sched.delta(grid.h1))
        step = functools.partial(op.apply, discount=scn.alpha)
    else:
        if tables is None or tables.hbar is None:
            raise ValueError("periodic backgrounds need tabulated plane Hamiltonian values")
        scheme = build_scheme(scn, tables, grid)
        step = functools.partial(_plane_update, scheme)
    u, _, _ = _fixed_point(step, np.zeros(grid.size), tol=tol, max_iter=_MAX_SWEEPS, what="plane solve")
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


def _godunov_1d(table_p: np.ndarray, table_v: np.ndarray, d_minus: np.ndarray,
                d_plus: np.ndarray) -> np.ndarray:
    """Godunov numerical Hamiltonian of a convex tabulated function.

    ``max(H(max(d-, p*)), H(min(d+, p*)))`` with ``p*`` the table argmin --
    the exact upwind value for convex H.
    """
    p_star = table_p[int(np.argmin(table_v))]
    lo = np.interp(np.maximum(d_minus, p_star), table_p, table_v)
    hi = np.interp(np.minimum(d_plus, p_star), table_p, table_v)
    return np.maximum(lo, hi)


def scheme_residuals(scheme: StratifiedScheme, field: ValueField) -> StratifiedReport:
    """Measure the stratified optimality conditions on a candidate solution.

    The subsolution numbers use the Godunov (upwind) evaluation of the
    tabulated tangential Hamiltonian, so they are scheme-independent; the
    supersolution margin uses the scheme's own candidates (at the fixed point
    the achieving candidate has residual 0, so the margin sits at 0 up to
    iteration slack).
    """
    u = field.flat()
    grid = scheme.grid
    h = grid.h1
    alpha = scheme.alpha
    new = _sweep(scheme, u)
    iteration_residual = float(np.max(np.abs(new - u)))

    origin_clamp = float(alpha * u[scheme.origin] + scheme.tables.E)

    m1_sub: dict[str, float] = {}
    for branch, rows in scheme.m1_rows.items():
        uL, uR = _line_neighbors(scheme, u, rows)
        d_minus = (u[rows] - uL) / h
        d_plus = (uR - u[rows]) / h
        g = _godunov_1d(scheme.tables.p1_grid, np.asarray(scheme.tables.h1t[branch]),
                        d_minus, d_plus)
        m1_sub[branch] = float(np.max(alpha * u[rows] + g)) if len(rows) else -math.inf

    # scaled candidate residuals: (u - update) * stiffness ~ alpha u + H_num
    plane = _plane_update(scheme, u)
    if scheme.operator is not None:
        margin = (u - plane) / scheme.delta
    else:
        margin = (u - plane) * (alpha + 4 * scheme.theta_lf / h)
    for branch, rows in scheme.m1_rows.items():
        upd = _tangential_update(scheme, u, rows, branch)
        scale = alpha + 2 * scheme.theta_t[branch] / h
        margin[rows] = np.maximum(margin[rows], (u[rows] - upd) * scale)
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
