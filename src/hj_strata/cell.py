"""Cell problems: strip/ball/torus ergodic constants and effective tables.

Conventions.  Every ergodic solve reports the *constant* in the Hamiltonian
normalization: it equals minus the optimal long-run average cost of the
underlying control problem.  The tangential constant of a strip problem with
momentum shift ``p1`` uses the shifted running cost ``l + p1 * f1`` (an exact
reformulation, not a discretization).  The optimal average cost is then a
pointwise minimum over policies of affine functions of ``p1``, hence
concave, and the table, minus that cost, is a pointwise maximum of affine
functions of ``p1`` up to solver tolerance — in particular convex.

Each constant is computed twice: by a vanishing-discount continuation
(Richardson-extrapolated anchor values) and by relative value iteration (the
value recorded in the tables).  Whichever runs second starts from what the
first found, which saves most of its work: at ``delta = sqrt(h)`` (the
tables) relative VI starts from the continuation's last discounted field; at
``delta = h`` (the correctors) relative VI runs first and the continuation
starts from VI's field and rate.  No start carries one rate into the other:
the bracket ``(min(T0[u] - u), max(T0[u] - u)) / delta`` holds the true
rate for every ``u``, and every continuation stage stops on its own Howard
residual, so both constants are certified to ``tol`` whatever they start
from.  ``method_gap`` records their disagreement; entries whose gap exceeds
twice the requested tolerance are flagged as failed rather than papered
over.

Truncation families: strips grow in the half-height ``rho``, the compact-core
constant ``E`` comes from boxes ``[-R, R]^2`` (an exhausting family with the
same monotone limit as discs), both with state constraints at the cut
boundaries.  A walk along a truncation schedule starts each solve after the
first from the cell's estimate at the truncation before: its corrector, and
at ``delta > cell_h`` also the optimal policy of its continuation's first
stage, both read node by node on the larger grid.

Cell families: the cells of one table that share a grid and a drift differ
only in the cost shift ``p . f`` (the strips of one branch at one ``rho``,
the torus cells of the ``hbar`` table).  Every cell solve is a family solve
(see :mod:`hj_strata.bellman`), a single cell being a family of one: one
operator build per family, every solver step in lockstep over it, and one
result per cell, bit for bit what the cell gets alone.
``tangential_hamiltonian`` walks a family along ``rho``: every momentum at
the first truncation, every one at the second, then only those whose last
two constants disagree.

Ambient Hamiltonian: H̄ at the frozen slow point has three readers, each the
only place that tells case2's ``hbar`` table from the closed form of a
case1/case3 background.  :func:`ambient_level` gives H̄(0, p),
:func:`ambient_floor` its minimum over q at a given ``p1``, and
:func:`ambient_window` both roots q of a level.  The tables' slope windows
and the subsolution drafts of :mod:`hj_strata.correctors` read H̄ only
through them.

Resolution: every cell problem reads its grid spacing ``cell_h``, its time
step ``SolverSchedules.delta`` and its tolerance ``tol_ergodic`` from
``scn.schedules``, and nothing else, as the limit problem reads its box; the
iteration budget of every solve and the continuation's discount schedule are
:mod:`hj_strata.bellman`'s own.  To solve at another resolution, pass the
scenario with replaced schedules (:meth:`Scenario.with_schedules`), as
``tabulate_effective`` does for its ``tol`` and
``correctors.build_corrector_set`` for its ``h`` and ``tol``.
Replaced schedules are validated where they are built, the truncations
against ``cell_h`` by ``tabulate_effective`` and the limit box by the limit
solves, so a value no solver can run with raises ``ScenarioError`` before
the solve that reads it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import kernels
from .bellman import (
    ContinuationResult,
    ErgodicRelativeResult,
    Family,
    SLOperator,
    ergodic_continuation,
    solve_ergodic_relative,
)
from .grids import GridSpec, ValueField, _check_multiple
from .hamiltonian import _frozen_background, _unusable_bound, _vertical_drift, estimate_bounds, eval_fields
from .scenario import FieldPair, Scenario, ScenarioError

_X0 = np.zeros(2)       # the frozen slow point of every cell problem: the origin

# Cells solved as one family.  Larger families pay off less and less while
# their step costs (copied each time cells leave the lockstep) and their
# (n_controls*N, cells) kernel candidates grow with them.  Measured on a shared
# 2-core machine, tabulate_effective on the default checkerboard preset (4.9-
# 5.5 s and 81 MiB peak RSS with every cell solved alone, 3.4-4.1 s of it in
# the 289 torus cells): families of 8 cells 3.7 s (torus cells 2.6 s), 16 cells
# 3.0 s (1.7 s), 32 cells 2.8 s (1.8 s), 64 cells 2.9 s (1.7 s), one family
# 2.9 s (1.4 s), at a peak RSS of 81, 82, 86, 99 and 184 MiB.  The bench's
# tables (21 strips per truncation, 25 torus cells) fit one family of 32.
_FAMILY_CELLS = 32

__all__ = [
    "ErgodicEstimate",
    "TruncationWalk",
    "BracketError",
    "EffectiveTables",
    "TableRangeError",
    "strip_ergodic",
    "tangential_hamiltonian",
    "ball_ergodic",
    "dirichlet_datum",
    "torus_effective",
    "slopes",
    "tabulate_effective",
]


class TableRangeError(ValueError):
    """A table lookup outside the tabulated momentum window."""


class BracketError(ValueError):
    """A momentum root is not bracketed inside the tabulated window."""


def _check_window(p, lo: float, hi: float) -> None:
    """Raise :class:`TableRangeError` naming the momentum farthest outside
    ``[lo, hi]``, if any lies outside or is NaN (named first)."""
    p = np.asarray(p, dtype=float).ravel()
    excess = np.maximum(lo - p, p - hi)
    if not np.all(excess <= 1e-12):
        worst = float(p[np.argmax(excess)])
        raise TableRangeError(f"momentum {worst:.6g} outside the tabulated window [{lo:.6g}, {hi:.6g}]")


def _grid_root(grid: np.ndarray, vals: np.ndarray, level: float, side: str, what: str, axis: str) -> float:
    """Piecewise-linear root of a convex table at ``level`` on one flank.

    ``side`` is ``"right"`` (root above the argmin) or ``"left"``.  Exact for
    tables that are linear between knots; raises :class:`BracketError` with
    the bounding table row, named by its ``axis`` coordinate, when the level
    never reaches the window edge.
    """
    k = int(np.argmin(vals))
    if level < vals[k] - 1e-12:
        raise BracketError(
            f"{what}: level {level:.6g} lies below the table minimum "
            f"{vals[k]:.6g} at {axis}={grid[k]:.6g}"
        )
    step, edge = (1, len(grid) - 1) if side == "right" else (-1, 0)
    if vals[edge] < level - 1e-12:
        raise BracketError(
            f"{what}: level {level:.6g} is not reached on the {side} flank; "
            f"window ends at row {axis}={grid[edge]:.6g}, value {vals[edge]:.6g}"
        )
    # walk away from the argmin: the first segment whose far end reaches the
    # level holds the root, since its near end is the argmin or lies below
    for a in range(k, edge, step):
        b = a + step
        if vals[b] >= level - 1e-12:
            dv = vals[b] - vals[a]
            if abs(dv) < 1e-15:
                return float(grid[b])
            t = (level - vals[a]) / dv
            return float(grid[a] + t * (grid[b] - grid[a]))
    # the argmin sits on this flank's window edge
    raise BracketError(f"{what}: no table segment brackets level {level:.6g} on the {side} flank")


@dataclass(frozen=True, slots=True)
class ErgodicEstimate:
    """One cell-problem solve: the records of its two methods and their verdict.

    ``relative`` is the relative VI result, which gives the constant and the
    corrector; ``continuation`` is the vanishing-discount result, whose
    first-stage policy starts the next truncation of a walk.  ``converged``
    holds when both converged and their constants agree within twice the
    tolerance the cell was solved to.
    """

    truncation: float        # rho (strip) or R (ball); 0 for torus cells
    delta: float
    converged: bool
    relative: ErgodicRelativeResult
    continuation: ContinuationResult

    @property
    def constant(self) -> float:
        """Ergodic constant, minus the average cost of relative VI."""
        return -self.relative.rate

    @property
    def corrector(self) -> ValueField:
        """Relative value field, 0 at the anchor node."""
        return self.relative.field

    @property
    def method_gap(self) -> float:
        """Disagreement of the two methods' constants."""
        return abs(-self.relative.rate - -self.continuation.rate)


def _solve_cells(
    scn: Scenario,
    build: Callable[[np.ndarray], SLOperator],
    momenta: np.ndarray,
    *,
    truncation: float,
    previous: Sequence[ErgodicEstimate] | None = None,
) -> tuple[ErgodicEstimate, ...]:
    """One estimate per row of ``momenta`` (shape (cells, 2)), solved in
    families of at most ``_FAMILY_CELLS`` cells; ``build(rows)`` builds the
    operator of a family.  ``previous`` holds each cell's estimate at the
    last truncation of a walk (None for a first solve); its corrector, read
    on the new grid with edge values beyond the old one, starts this solve.

    The order of the two methods follows the time step.  At ``delta <=
    cell_h`` relative VI runs first (cold, or from the previous corrector)
    and the continuation starts from VI's field and rate (``start``, whose
    Laurent point :func:`~hj_strata.bellman.ergodic_continuation` forms).
    At larger steps the continuation runs first and relative VI starts from
    its last discounted field.  The continuation starts cold at a walk's
    first truncation; at a later one it starts from the previous
    corrector and constant and from the previous estimate's first-stage
    policy, read on the new grid by :func:`_read_policy`.  A start moves the
    iteration counts, and the constants only within ``tol``: both
    certificates hold from every start."""
    sched = scn.schedules
    tol = sched.tol_ergodic
    out = []
    for lo in range(0, len(momenta), _FAMILY_CELLS):
        family = build(momenta[lo:lo + _FAMILY_CELLS])
        last = None if previous is None else previous[lo:lo + _FAMILY_CELLS]
        prior = None
        if last is not None:
            nodes = family.grid.nodes()
            prior = np.stack([e.corrector(nodes, clip=True) for e in last])
        # The order is measured.  At delta = h cold relative VI is cheap
        # (0.09 s on attract_full's corrector ball), while a cold first
        # continuation stage took 29 of that ball's 35 Howard iterations.  At
        # delta = sqrt(h) cold VI takes 14-41 applications a cell: running it
        # first there too took checkerboard_tables from 0.62-0.70 to
        # 0.88-1.05 s, about 40% more.
        if family.delta <= sched.cell_h:
            vis = solve_ergodic_relative(family, tol=tol, u0=prior)
            start = (np.stack([vi.field.flat() for vi in vis]), [vi.rate for vi in vis])
            conts = ergodic_continuation(family, tol=tol, start=start)
        else:
            start = policy0 = None
            if last is not None:
                start = (prior, [-e.constant for e in last])
                policies = np.stack([e.continuation.policy for e in last])
                policy0 = _read_policy(family, last[0].corrector.grid, policies)
            conts = ergodic_continuation(family, tol=tol, start=start, policy0=policy0)
            vis = solve_ergodic_relative(family, tol=tol, u0=np.stack([c.field.flat() for c in conts]))
        for cont, vi in zip(conts, vis):
            est = ErgodicEstimate(truncation, family.delta, vi.converged and cont.converged, vi, cont)
            out.append(est if est.method_gap <= 2.0 * tol else replace(est, converged=False))
    return tuple(out)


def _read_policy(op: SLOperator, grid: GridSpec, policies: np.ndarray) -> np.ndarray:
    """The policies ``policies`` (one row per cell of ``op``, on ``grid``)
    read on ``op``'s grid: each node takes the control of the nearest node
    of ``grid`` (:meth:`GridSpec.index_of`: periodic axes wrap, constrained
    axes clamp), or, where that control is inadmissible on ``op``, the
    cell's cheapest admissible control at the node.  Returns one row per
    cell."""
    read = np.asarray(policies, dtype=np.intp)[:, grid.index_of(op.grid.nodes())]
    step = np.take_along_axis(op.base, read.T[None], axis=0)[0]   # (N, cells)
    return np.where(np.isinf(step), np.argmin(op.base, axis=0), read.T).T


def _shifted_operator(scn: Scenario, block: FieldPair, grid: GridSpec, p) -> SLOperator:
    """Operator of the family of cells on ``grid`` with the fields of
    ``block`` frozen at the slow point, one cell per momentum ``p`` (one of
    shape (2,), or the rows of one of shape (cells, 2)), its running cost
    shifted by ``p . f``."""
    pts = grid.nodes()
    drift = block.eval_drift(*_X0, pts[:, 0], pts[:, 1])
    cost = block.eval_cost(*_X0, pts[:, 0], pts[:, 1])
    q = np.atleast_2d(np.asarray(p, dtype=float))
    cost = cost[..., None] + q[:, 0] * drift[..., 0, None] + q[:, 1] * drift[..., 1, None]
    return SLOperator(grid, drift, cost, scn.schedules.delta)


def strip_operator(scn: Scenario, p1, *, branch: str = "main", rho: float) -> SLOperator:
    """Build the shifted-cost Bellman operator of the family of truncated
    strips at the momenta ``p1`` (a scalar or a 1-D array)."""
    if branch not in scn.branches:
        raise ValueError(f"{scn.case} strip branches are {list(scn.branches)}, got {branch!r}")
    block = scn.block(branch)
    grid = GridSpec.strip(block.period or 1.0, rho, scn.schedules.cell_h)
    p1s = np.atleast_1d(np.asarray(p1, dtype=float))
    return _shifted_operator(scn, block, grid, np.column_stack([p1s, np.zeros_like(p1s)]))


def strip_ergodic(
    scn: Scenario,
    p1,
    *,
    branch: str = "main",
    rho: float,
    _previous: Sequence[ErgodicEstimate] | None = None,
) -> tuple[ErgodicEstimate, ...]:
    """Ergodic constants/correctors of the truncated strips at the momenta
    ``p1`` (a scalar or a 1-D array), solved as one family: one estimate
    per momentum.  ``_previous`` is the truncation walk's: each momentum's
    estimate at the last ``rho``, which starts its solve (see
    :func:`_solve_cells`)."""
    p1s = np.atleast_1d(np.asarray(p1, dtype=float))
    return _solve_cells(
        scn,
        lambda rows: strip_operator(scn, rows[:, 0], branch=branch, rho=rho),
        np.column_stack([p1s, np.zeros_like(p1s)]),
        truncation=rho, previous=_previous,
    )


@dataclass(frozen=True, slots=True)
class TruncationWalk:
    """Cell estimates along a truncation schedule."""

    estimates: tuple[ErgodicEstimate, ...]
    converged: bool

    @property
    def value(self) -> float:
        """The constant at the last truncation walked."""
        return self.estimates[-1].constant


def _walk_truncations(scn: Scenario, solve, truncations, cells: int) -> list[TruncationWalk]:
    """Walk ``cells`` cells along ``truncations``: ``solve(t, walking,
    previous)`` solves the cells still walking at truncation ``t`` as one
    family, each starting from its estimate at the last truncation in
    ``previous`` (None at the first, which starts cold).  A cell stops once
    two consecutive constants agree within the scheduled ``tol_ergodic``,
    converged only then and only if every one of its solves converged.
    Returns one :class:`TruncationWalk` per cell."""
    tol = scn.schedules.tol_ergodic
    estimates: list[list[ErgodicEstimate]] = [[] for _ in range(cells)]
    walking = list(range(cells))
    agreed = [False] * cells
    previous = None
    for t in truncations:
        for c, est in zip(walking, solve(t, walking, previous)):
            estimates[c].append(est)
            agreed[c] = len(estimates[c]) >= 2 and abs(est.constant - estimates[c][-2].constant) <= tol
        walking = [c for c in walking if not agreed[c]]
        if not walking:
            break
        previous = [estimates[c][-1] for c in walking]
    return [
        TruncationWalk(tuple(e), a and all(x.converged for x in e))
        for e, a in zip(estimates, agreed)
    ]


def tangential_hamiltonian(scn: Scenario, p1, *, branch: str = "main") -> Family:
    """Tangential effective Hamiltonian at the momenta ``p1`` (a scalar or a
    1-D array): strip constants run along the scheduled ``rho_list`` until
    two consecutive values agree within ``tol_ergodic``; if the schedule is
    exhausted first the result is flagged unconverged.

    The strips walk as a family: every momentum at the first ``rho``, every
    one at the second, then only those whose last two constants disagree.
    The first ``rho`` starts cold; each later one starts from the momentum's
    corrector and constant at the one before, the corrector read on the
    taller strip with its edge rows carried outward.
    Returns a :class:`Family` with one result per momentum."""
    p1s = np.atleast_1d(np.asarray(p1, dtype=float))
    def solve(rho: float, cells: list[int], previous) -> tuple[ErgodicEstimate, ...]:
        return strip_ergodic(scn, p1s[cells], branch=branch, rho=rho, _previous=previous)

    return Family(_walk_truncations(scn, solve, scn.schedules.rho_list, len(p1s)))


def ball_operator(scn: Scenario, R: float) -> SLOperator:
    """State-constrained operator on the box [-R, R]^2 with the full region
    dispatch (strips, core, background) frozen at the slow point x = 0."""
    grid = GridSpec.box(R, scn.schedules.cell_h)
    drift, cost = eval_fields(scn, _X0, grid.nodes())
    return SLOperator(grid, drift, cost, scn.schedules.delta)


def ball_ergodic(
    scn: Scenario, R: float, *, _previous: Sequence[ErgodicEstimate] | None = None
) -> tuple[ErgodicEstimate]:
    """Compact-core ergodic constant on the box truncation of radius ``R``:
    one estimate.  ``_previous`` is the truncation walk's: the estimate at
    the last ``R``, which starts the solve (see :func:`_solve_cells`)."""
    return _solve_cells(
        scn, lambda rows: ball_operator(scn, R), np.zeros((1, 2)), truncation=R, previous=_previous
    )


def dirichlet_datum(scn: Scenario) -> TruncationWalk:
    """Origin datum ``E``: ball constants along the scheduled ``R_list``,
    last value kept, converged when two consecutive truncations agree within
    ``tol_ergodic``.  The first box starts cold; each later one starts from
    the corrector and constant of the box before, the corrector read on the
    larger box with its edge values carried outward.  ``E`` is the walk's
    ``value``; its last estimate carries the corrector."""
    [walk] = _walk_truncations(
        scn, lambda R, cells, previous: ball_ergodic(scn, R, _previous=previous), scn.schedules.R_list, 1
    )
    return walk


def torus_operator(scn: Scenario, p) -> SLOperator:
    """Operator of the family of periodic background cells at the momenta
    ``p``: one of shape (2,), or the rows of one of shape (cells, 2)."""
    if scn.case != "case2":
        raise ValueError("torus cell problems belong to case2 (periodic background)")
    grid = GridSpec.torus(scn.background_periods or (1.0, 1.0), scn.schedules.cell_h)
    return _shifted_operator(scn, scn.background, grid, p)


def torus_effective(scn: Scenario, p) -> tuple[ErgodicEstimate, ...]:
    """Periodic-background effective Hamiltonian values at the momenta ``p``
    (one of shape (2,), or the rows of one of shape (cells, 2)), solved as
    one family: one estimate per momentum."""
    momenta = np.atleast_2d(np.asarray(p, dtype=float))
    return _solve_cells(scn, lambda rows: torus_operator(scn, rows), momenta, truncation=0.0)


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
    """min over q of the background Hamiltonian at (p1, q), case1/case3 only:
    the floor every tangential constant must dominate.  The minimum of a
    maximum of lines is the highest flat line or the highest crossing of a
    falling line (``f2 > 0``) with a rising one (``f2 < 0``)."""
    a, f2 = _background_lines(scn, p1)
    fall, rise = f2 > 0.0, f2 < 0.0
    fi, ai = f2[fall, None], a[fall, None]
    crossings = (a[rise] * fi - ai * f2[rise]) / (fi - f2[rise])
    return float(max(crossings.max(), a[f2 == 0.0].max(initial=-math.inf)))


def slopes(scn: Scenario, p1: float, level: float) -> tuple[float, float]:
    """Vertical slope window ``(pi_lower, pi_upper)`` at the given level of a
    case1/case3 background (:func:`ambient_window` reads case2's table).

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


def ambient_level(scn: Scenario, tables: EffectiveTables, p) -> float:
    """Ambient effective value H̄(0, p) at the frozen slow point: the ``hbar``
    table in case2, else the highest background line at ``(p1, p2)``."""
    if scn.case == "case2":
        return float(tables.hbar_at(p))
    a, f2 = _background_lines(scn, p[0])
    return float(np.max(a - p[1] * f2))


def ambient_floor(scn: Scenario, tables: EffectiveTables, p1: float) -> float:
    """min over q of H̄(0, (p1, q)): the least value of the ``hbar`` section
    in case2, else :func:`background_min_over_q`."""
    if scn.case == "case2":
        return float(tables._section(p1).min())
    return background_min_over_q(scn, p1)


def ambient_window(scn: Scenario, tables: EffectiveTables, p1: float, level: float) -> tuple[float, float]:
    """Both roots q of H̄(0, (p1, q)) = level, lower then upper: case2's
    :meth:`EffectiveTables.section_roots`, else :func:`slopes`.  Each raises
    ``ValueError`` where ``level`` lies below what it brackets."""
    if scn.case == "case2":
        return tables.section_roots(p1, level)
    return slopes(scn, p1, level)


@dataclass(frozen=True, slots=True)
class EffectiveTables:
    """Tabulated effective Hamiltonian data at a frozen slow point.

    ``h1t[branch]`` samples the tangential Hamiltonian on ``p1_grid``;
    ``pi_lower/pi_upper`` hold, at each ``p1``, :func:`ambient_window` at the
    tangential level lifted to :func:`ambient_floor`.  In case2 ``hbar``
    holds the full effective Hamiltonian on ``p_grid x p_grid``, which those
    readers read.
    ``E`` is the origin datum.  ``flags`` maps entry labels to failure
    notes; an empty dict means every solve converged and cross-checked.

    The tables are piecewise linear between their knots, and these methods
    are the only readers of that format: the lookups :meth:`h1t_at` and
    :meth:`hbar_at`, the lower convex hull :meth:`hull_planes`, the flank
    root :meth:`tangential_root`, the section :meth:`_section` and its roots
    :meth:`section_roots`, the difference quotients
    :meth:`one_sided_quotients` and :meth:`tangential_slope_bound`, the
    minimizer :meth:`tangential_argmin` and the upwind value
    :meth:`tangential_upwind`.
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

    def hbar_at(self, p) -> float | np.ndarray:
        """Bilinear lookup of ``hbar`` at the momenta ``p`` (shape (..., 2)):
        a float for one momentum, else an array of shape ``p.shape[:-1]``.
        Raises :class:`TableRangeError` outside the window; without ``hbar``
        (case1/case3) it raises ``ValueError``."""
        if self.hbar is None or self.p_grid is None:
            raise ValueError("this scenario has no periodic-background table")
        p = np.asarray(p, dtype=float)
        q, g = p.reshape(-1, 2).T.copy(), self.p_grid   # (2, n), each component contiguous
        _check_window(q, g[0], g[-1])
        # the cell [g[k], g[k+1]] of each component, clamped to the end cells:
        # clip(searchsorted(g, q) - 1, 0, m - 2) in one search
        k = np.searchsorted(g[1:-1], q)
        t, s = (q - g[k]) / (g[k + 1] - g[k])
        m = self.hbar.shape[1]
        c = (k[0] * m + k[1]).astype(np.int32)   # flat index of the corner hbar[k1, k2]
        w = np.column_stack([(1 - t) * (1 - s), t * (1 - s), (1 - t) * s, t * s])
        v = kernels.stencil_product(np.column_stack([c, c + m, c + 1, c + m + 1]), w, self.hbar.reshape(-1))
        return v.reshape(p.shape[:-1]) if p.ndim > 1 else float(v[0])

    def hull_planes(self, bound: float) -> tuple[np.ndarray, np.ndarray]:
        """The lower convex hull of ``hbar`` as planes ``z = g . p + b``, ``(g, b)``
        of shapes (n, 2) and (n,): each passes through three table nodes and
        lies on or below every node (to a relative 1e-12), so their maximum is
        the hull (Lucet, Numer. Algorithms 16 (1997)).  A plane is kept once,
        when the triangle of its nodes meets ``[-bound, bound]^2``, where the
        kept planes have the maximum of all.  Every triple of nodes is a
        candidate, one chunk per first node, tested on a 5 x 5 lattice of
        probe nodes before all nodes.  Without ``hbar`` it raises ``ValueError``."""
        if self.hbar is None or self.p_grid is None:
            raise ValueError("this scenario has no periodic-background table")
        m, z = len(self.p_grid), self.hbar.reshape(-1)
        p = np.stack(np.meshgrid(self.p_grid, self.p_grid, indexing="ij"), axis=-1).reshape(-1, 2)
        lattice = np.linspace(0, m - 1, min(m, 5)).round().astype(int)   # distinct
        probes = (lattice[:, None] * m + lattice).reshape(-1)
        slack = 1e-12 * (1.0 + np.max(np.abs(z)))
        pairs = np.triu_indices(len(z), k=1)   # (j, k) with j < k, ascending in j
        planes = []
        for a, start in enumerate(np.searchsorted(pairs[0], np.arange(len(z)), side="right")):
            j, k = pairs[0][start:], pairs[1][start:]
            e1, e2 = p[j] - p[a], p[k] - p[a]
            det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
            ok = np.abs(det) > 1e-9 * (p[-1, 0] - p[0, 0]) ** 2   # not collinear
            j, k, e1, e2, dz1, dz2 = j[ok], k[ok], e1[ok], e2[ok], z[j[ok]] - z[a], z[k[ok]] - z[a]
            g = np.column_stack([dz1 * e2[:, 1] - dz2 * e1[:, 1], e1[:, 0] * dz2 - e2[:, 0] * dz1])
            g /= det[ok, None]
            for nodes in (probes, slice(None)):
                ok = np.all(z[nodes] - z[a] - g @ (p[nodes] - p[a]).T >= -slack, axis=1)
                j, k, g = j[ok], k[ok], g[ok]
            tri = np.stack([np.broadcast_to(p[a], p[j].shape), p[j], p[k]], axis=1)   # (t, 3, 2)
            ok = np.all((tri.min(axis=1) <= bound) & (tri.max(axis=1) >= -bound), axis=1)
            for e in range(3):   # nor does an edge normal separate the triangle from the box
                normal = (tri[:, (e + 1) % 3] - tri[:, e]) @ np.array([[0, 1], [-1, 0]])
                proj, reach = np.einsum("tvi,ti->tv", tri, normal), bound * np.abs(normal).sum(axis=1)
                ok &= (proj.min(axis=1) <= reach) & (proj.max(axis=1) >= -reach)
            planes.append(np.column_stack([g[ok], z[a] - g[ok] @ p[a]]))
        planes = np.concatenate(planes)
        planes = planes[np.sort(np.unique(planes.round(9), axis=0, return_index=True)[1])]
        return planes[:, :2], planes[:, 2]

    def tangential_root(self, branch: str, level: float, side: str) -> float:
        """Root of ``h1t[branch] = level`` on the ``side`` flank of its argmin
        (``"right"`` or ``"left"``); see :func:`_grid_root`."""
        return _grid_root(self.p1_grid, self.h1t[branch], level, side, f"{branch} tangential table", "p1")

    def _section(self, p1: float) -> np.ndarray:
        """``hbar_at((p1, q))`` at every ``p_grid`` node ``q``, in one lookup."""
        return self.hbar_at(np.column_stack([np.full_like(self.p_grid, p1), self.p_grid]))

    def section_roots(self, p1: float, level: float) -> tuple[float, float]:
        """Both roots ``q`` of ``hbar_at((p1, q)) = level``, lower then upper,
        on the section :meth:`_section`."""
        q_grid, section = self.p_grid, self._section(p1)
        what = f"ambient section at p1={p1:.6g}"
        lower = _grid_root(q_grid, section, level, "left", f"{what}, lower slope", "q")
        upper = _grid_root(q_grid, section, level, "right", f"{what}, upper slope", "q")
        return lower, upper

    def _quotients(self, branch: str) -> np.ndarray:
        """Slope of every segment of ``h1t[branch]``."""
        return np.diff(self.h1t[branch]) / np.diff(self.p1_grid)

    def one_sided_quotients(self, branch: str, p1: float) -> tuple[float, float]:
        """Left/right difference quotients of ``h1t[branch]`` at ``p1``: the
        slopes of the segments ending and starting there, one segment's slope
        on both sides inside it."""
        quotients = self._quotients(branch)
        grid = self.p1_grid
        ends = np.searchsorted(grid, p1, side="left"), np.searchsorted(grid, p1, side="right")
        left, right = quotients[np.clip(np.subtract(ends, 1), 0, len(quotients) - 1)]
        return float(left), float(right)

    def tangential_slope_bound(self, branch: str) -> float:
        return float(np.max(np.abs(self._quotients(branch))))

    def tangential_argmin(self, branch: str) -> float:
        """The first knot where ``h1t[branch]`` is least."""
        return self.p1_grid[int(np.argmin(self.h1t[branch]))]

    def tangential_upwind(self, branch: str, d_minus, d_plus) -> np.ndarray:
        """Godunov upwind value ``max(H(max(d-, p*)), H(min(d+, p*)))`` of the
        convex table ``H = h1t[branch]`` with argmin ``p*``: the exact upwind
        value for convex H, read with clipped lookups."""
        p_star = self.tangential_argmin(branch)
        lo = self.h1t_at(np.maximum(d_minus, p_star), branch, clip=True)
        hi = self.h1t_at(np.minimum(d_plus, p_star), branch, clip=True)
        return np.maximum(lo, hi)

    def midpoint_convexity_violation(self) -> float:
        """Worst excess of a tabulated midpoint over its chord (0 = convex)."""
        tables = [(np.asarray(v), 0) for v in self.h1t.values()]
        if self.hbar is not None:
            tables += [(self.hbar, 0), (self.hbar, 1)]
        worst = 0.0
        for v, axis in tables:
            if v.shape[axis] < 3:  # no interior midpoint along this axis
                continue
            v = np.moveaxis(v, axis, 0)
            worst = max(worst, float(np.max(v[1:-1] - 0.5 * (v[:-2] + v[2:]))))
        return worst

    def to_json_dict(self) -> dict[str, Any]:
        """Every field as plain JSON data: arrays and tuples become lists."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "EffectiveTables":
        """Inverse of :meth:`to_json_dict`; ``provenance`` may be absent."""
        def array(v):
            return None if v is None else np.asarray(v, dtype=float)

        def arrays(d):
            return {k: array(v) for k, v in d.items()}

        convert = {"x0": tuple, "p1_grid": array, "h1t": arrays, "pi_lower": arrays, "pi_upper": arrays,
                   "E": float, "E_history": lambda h: tuple(map(tuple, h)), "method_gaps": arrays,
                   "p_grid": array, "hbar": array, "flags": dict, "provenance": dict}
        return cls(**{f.name: convert[f.name](data[f.name]) for f in fields(cls) if f.name in data})


def _plain(value):
    """``value`` as JSON data: arrays and tuples become lists, mappings dicts."""
    if isinstance(value, Mapping):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def _failure_cause(estimates: Sequence[ErgodicEstimate], tol: float) -> str:
    """Why an entry built from ``estimates`` is not converged: a method gap
    above ``2 * tol``, else a solver that did not converge, else (every
    solve passed) a truncation walk that ended before two constants agreed."""
    gap = max(e.method_gap for e in estimates)
    if gap > 2.0 * tol:
        return f"method gap {gap:.2e} > 2·tol ({2.0 * tol:.0e})"
    if not all(e.converged for e in estimates):
        return "relative VI or continuation not converged"
    return "truncation schedule exhausted"


def _momentum_grid(values: Sequence[float], name: str, least: int) -> np.ndarray:
    """``values`` as a momentum grid, or a ``ValueError`` naming ``name``
    unless they are at least ``least`` finite, strictly increasing numbers."""
    grid = np.asarray(list(values), dtype=float)
    if not (grid.ndim == 1 and grid.size >= least and np.isfinite(grid).all() and (np.diff(grid) > 0).all()):
        raise ValueError(
            f"{name}: expected {least} or more finite, strictly increasing momenta, got {grid.tolist()}"
        )
    return grid


def tabulate_effective(
    scn: Scenario,
    *,
    tol: float | None = None,
    threads: int = 1,
    p1_grid: Sequence[float] | None = None,
    p_grid: Sequence[float] | None = None,
) -> EffectiveTables:
    """Batch-solve every table the junction scheme needs.

    The pool (``threads`` workers, a positive integer, else ``ValueError``)
    runs families, not entries: the tangential walk of each branch, the
    ``E`` walk and, in case2, the torus cells of ``hbar``.  Assembly order is
    fixed and a cell's estimate does not depend on its family, so results
    are deterministic regardless of the pool width.
    Failures (method-gap violations, non-converged solves, exhausted
    truncation schedules, slope errors) are recorded per entry in ``flags``,
    each with its cause, instead of aborting the batch.

    Every cell solves at the scheduled resolution with ``tol`` (default: the
    scheduled ``tol_ergodic``) in place of the scheduled tolerance.
    ``p1_grid`` sets the tangential momenta: finite and strictly increasing,
    one point or more.  ``p_grid`` sets the momentum grid of ``hbar``: finite
    and strictly increasing, two points or more, since each lookup
    interpolates in a grid cell; it raises ``ValueError`` outside case2,
    which has no ``hbar``.
    """
    if isinstance(threads, bool) or not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads!r}")
    sched = scn.schedules
    tol = sched.tol_ergodic if tol is None else tol
    cell_scn = scn.with_schedules(tol_ergodic=tol)
    for name, what in (("rho_list", "strip height"), ("R_list", "box width")):
        for t in getattr(sched, name):   # 2t spans the walk's grid at cell_h
            try:
                _check_multiple(2.0 * t, sched.cell_h, what)
            except ValueError as exc:
                raise ScenarioError(f"schedules.{name}: {exc}") from None
    if p_grid is not None and scn.case != "case2":
        raise ValueError(f"p_grid samples the periodic background of case2; a {scn.case} scenario has none")
    if p1_grid is not None:
        p1_grid = _momentum_grid(p1_grid, "p1_grid", 1)
    if p_grid is not None:
        p_grid = _momentum_grid(p_grid, "p_grid", 2)
    bounds = estimate_bounds(scn, samples=200, seed=0)
    if cause := _unusable_bound(bounds):
        raise ValueError(f"cannot size the momentum window: {cause}")
    window = 1.05 * bounds["p_window"]
    p1s = p1_grid if p1_grid is not None else np.linspace(-window, window, sched.p1_points)
    branches = list(scn.branches)
    flags: dict[str, str] = {}
    h1t: dict[str, np.ndarray] = {}
    gaps: dict[str, np.ndarray] = {}
    ps = None
    hbar = None
    with ThreadPoolExecutor(max_workers=threads) as pool:
        tangential = {
            branch: pool.submit(tangential_hamiltonian, cell_scn, p1s, branch=branch)
            for branch in branches
        }
        e_future = pool.submit(dirichlet_datum, cell_scn)
        if scn.case == "case2":
            ps = p_grid if p_grid is not None else np.linspace(-window, window, 17)
            momenta = np.stack(np.meshgrid(ps, ps, indexing="ij"), axis=-1).reshape(-1, 2)
            torus_future = pool.submit(torus_effective, cell_scn, momenta)
        for branch in branches:
            results = tangential[branch].result()
            h1t[branch] = np.array([r.value for r in results])
            gaps[branch] = np.array([max(e.method_gap for e in r.estimates) for r in results])
            for i, result in enumerate(results):
                if not result.converged:
                    flags[f"h1t/{branch}/{i}"] = _failure_cause(result.estimates, tol)
        dirichlet = e_future.result()
        if not dirichlet.converged:
            flags["E"] = _failure_cause(dirichlet.estimates, tol)
        if ps is not None:
            cells = torus_future.result()
            hbar = np.array([est.constant for est in cells]).reshape(len(ps), len(ps))
            for n, est in enumerate(cells):
                if not est.converged:
                    flags[f"hbar/{n // len(ps)}/{n % len(ps)}"] = _failure_cause((est,), tol)

    provenance = {
        "scenario": scn.label,
        "scenario_hash": scn.content_hash(),
        "tol_ergodic": tol,
        "cell_h": sched.cell_h,
        "rho_list": list(sched.rho_list),
        "R_list": list(sched.R_list),
        "p_window": window,
    }
    tables = EffectiveTables(
        x0=(0.0, 0.0),
        p1_grid=p1s,
        h1t=h1t,
        pi_lower={},
        pi_upper={},
        E=dirichlet.value,
        E_history=tuple((e.truncation, e.constant) for e in dirichlet.estimates),
        method_gaps=gaps,
        p_grid=ps,
        hbar=hbar,
        flags=flags,
        provenance=provenance,
    )
    # slope windows at the tangential levels lifted to the ambient minimum over q;
    # case2's ambient Hamiltonian is the hbar table just built
    pi_lower: dict[str, np.ndarray] = {}
    pi_upper: dict[str, np.ndarray] = {}
    for branch in branches:
        ends = np.full((2, len(p1s)), math.nan)
        for i, p1 in enumerate(map(float, p1s)):
            try:
                ends[:, i] = ambient_window(scn, tables, p1, max(h1t[branch][i], ambient_floor(scn, tables, p1)))
            except ValueError as exc:
                flags[f"slopes/{branch}/{i}"] = str(exc)
        pi_lower[branch], pi_upper[branch] = ends
    return replace(tables, pi_lower=pi_lower, pi_upper=pi_upper)
