"""Semi-Lagrangian Bellman operator and its fixed-point solvers.

One application of the operator at a node is

    T[u](y) = min_a { delta * l(y, a) + (1 - discount*delta) * u(y + delta f(y, a)) }

with bilinear interpolation of ``u`` at the foot point.  On state-constrained
axes a control is admissible only when its foot stays inside the grid, and a
node with no admissible control is a construction error.  The interpolation
stencils, weights, and step costs are precomputed once per operator.  The
stencils are the rows of a sparse transition matrix, so an application is
one stencil product and a min over controls, and a fixed policy's transition
matrix is a row selection of the same stencils (see :mod:`hj_strata.kernels`).

An operator holds a *family* of cells: cells on one grid with one drift
whose running costs differ (the momentum shift ``p . f`` of a table).  The
stencils are built once and each cell keeps its own step cost.  The solvers
run every cell of a family in lockstep over a (cells, N) array, and each cell
stops, damps, falls back to LU or takes its next stage on its own, with the
arithmetic it would do alone: a family's results equal its cells' results
when each is solved as a family of one, bit for bit.  A single cell is a
family of one, and every solver returns a :class:`Family`, one result per
cell.

Three solvers share the operator:

* :func:`solve_discounted` — Howard policy iteration at a ``discount > 0``
  passed beside the operator: the greedy control of a synchronous application
  fixes a policy, whose value is one sparse linear solve; the iteration count
  does not grow as the discount vanishes.  Howard's algorithm is a semismooth
  Newton method, so each policy evaluation is a Newton linear solve, and it
  is solved inexactly (Dembo, Eisenstat & Steihaug): only as far as the
  current Bellman residual warrants, matrix-free, to ``tol / 2`` once the
  policy settles.  A solve may start from a policy as well as a value: its
  first step is then that policy's evaluation at ``tol / 2``.  Each solve
  returns its cells' final greedy policies.
* :func:`solve_ergodic_relative` — relative value iteration at zero discount
  with policy steps (modified policy iteration): between two full
  applications the iterate takes one step of the last greedy policy's
  operator per control, each costing one stencil per node.  The returned
  ``rate`` is the optimal long-run average cost, certified by the span of
  ``T0[u] - u`` read from full applications only (the true rate lies between
  the extreme nodal growth rates for every ``u``, so the policy steps move
  the path to the certificate, not the certificate).
* :func:`ergodic_continuation` — small-discount limit ``discount -> 0`` with
  warm starts and Richardson extrapolation of the anchor value; an independent
  estimate of the same average cost, used as a cross-check.  It owns its
  whole discount schedule (first discount, ratio, floor and stage cap) and
  forms its own Laurent start from a relative field and a rate.  Each stage
  starts from the last stage's field and optimal policy, and every stage
  stops on its own Bellman residual, so the starts move the Howard
  iterations and never the certificate.

Every solve owns the same budget of ``_MAX_APPLICATIONS`` full applications
(per discounted solve, per continuation stage, per relative VI solve); a
solve that exhausts it returns its best iterate flagged unconverged.
"""

from __future__ import annotations

import copy
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import kernels
from .grids import GridSpec, ValueField

__all__ = [
    "SLOperator",
    "SolveInfo",
    "ErgodicRelativeResult",
    "ContinuationResult",
    "Family",
    "solve_discounted",
    "solve_ergodic_relative",
    "ergodic_continuation",
]


# BiCGSTAB steps before a policy evaluation falls back to sparse LU.  Warm
# started from the previous iterate and stopped at the forcing tolerance or
# at tol / 2, one evaluation in the benchmark's four pipelines (seeds 0 and
# 11) takes at most 300 steps: the tight first evaluation of the carried
# policy at the second continuation stage of case3_mirror's 7,200-node strip
# correctors (262 at seed 11).  Its 50,625-node ball takes at most 139,
# strip_attract's 25,921-node corrector ball 112 and every table cell 39;
# none falls back.  At seed 33 one such evaluation on those strips breaks
# down after 200 steps, where a larger budget would not help; BiCGSTAB
# restarts it once from that iterate, which converges without LU.  Only a
# cell that breaks down twice or runs out of budget falls back.
# Krylov comes first because SuperLU's work arrays (~14 MB each on a
# 16k-node ball) are mmapped, and freeing them raises glibc's mmap and trim
# thresholds for the rest of the process, so the heap stops shrinking.  The
# fallback imports ``splu`` when it first runs: no benchmark pipeline takes
# it, and importing ``scipy.sparse.linalg`` (with ``scipy.linalg``) costs a
# fresh process 7.9 MiB and 0.11-0.14 s on a 2-core machine.
_KRYLOV_MAX_ITER = 1000

# Full Bellman applications of one solve: a discounted solve, a continuation
# stage or a relative VI solve.  A solve that runs out returns its best
# iterate flagged unconverged.
_MAX_APPLICATIONS = 500_000

# Continuation schedule: first discount, ratio, most stages, smallest discount.
_LAMBDA0 = 0.5
_LAMBDA_RATIO = 0.5
_MAX_STAGES = 60
_LAMBDA_FLOOR = 1e-7

# Smallest |rho| and |omega| BiCGSTAB accepts before it reports a breakdown.
_BREAKDOWN = np.finfo(float).eps ** 2

# Relative VI switches a cell to damped updates after this many applications
# if its span fell by less than 2% over the last _STALL_WINDOW of them.
_STALL_START = 300
_STALL_WINDOW = 200


class Family(tuple):
    """Per-cell results of one family solve, in cell order.

    The counts a run report reads once per solve are totals over the cells:
    ``iterations`` and ``stages`` sum, ``estimates`` concatenates.
    """

    @property
    def iterations(self) -> int:
        return sum(r.iterations for r in self)

    @property
    def stages(self) -> int:
        return sum(r.stages for r in self)

    @property
    def estimates(self) -> tuple:
        return tuple(e for r in self for e in r.estimates)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Inner products of matching rows by numpy's pairwise summation rather
    than BLAS, so their summation order, and with it every bit of a solve,
    depends neither on the BLAS thread count nor on the other rows."""
    return np.add.reduce(x * y, axis=-1)


def _rows(keep: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    return [a[keep] for a in arrays]


def _block_diagonal(idx: np.ndarray) -> np.ndarray:
    """Column indices of one block-diagonal transition matrix for the
    per-cell stencils ``idx`` of shape (cells, N, 4): block ``c`` maps row
    ``c`` of a flattened (cells, N) array, and each of its rows sums its four
    terms as a lone cell's matrix does."""
    cells, n = idx.shape[:2]
    return idx + (np.arange(cells, dtype=idx.dtype) * n)[:, None, None]


def bicgstab(system, rhs, *, x0, atol, maxiter):
    """Unpreconditioned BiCGSTAB (van der Vorst), one system per row.

    ``system(x, rows)`` is the matrix-vector product of the systems ``rows``
    (indices into ``rhs``) on the matching rows of ``x``.  Each row iterates
    from its row of ``x0``, in lockstep with the others and with the
    arithmetic of a lone solve, until its residual's 2-norm is at most its
    entry of ``atol``; then it drops out.  Returns ``(x, info, steps)`` with
    one ``info`` per row: 0 on convergence, ``maxiter`` when the budget runs
    out and negative on a breakdown; ``steps`` counts the full iterations each
    row took, 0 for a row that stops within its first.  A caller restarts a
    broken-down row by calling again from the returned iterate, which draws a
    fresh shadow residual; :meth:`SLOperator.policy_value` does so once before
    it falls back to LU (see ``_KRYLOV_MAX_ITER``).

    Each inner product is its own :func:`_dot`: the solve's cost is memory
    traffic, and fused reductions or preallocated buffers measured no faster.
    """
    x = np.array(x0, dtype=float)
    out = x.copy()
    info = np.full(len(x), maxiter)
    steps = np.zeros(len(x), dtype=int)
    rows = np.arange(len(x))
    r = rhs - system(x, rows)
    r_hat = r.copy()
    p = np.zeros_like(r)
    v = np.zeros_like(r)
    rho_prev, alpha, omega, rv = np.ones((4, len(x)))
    atol = np.broadcast_to(np.asarray(atol, dtype=float), len(x))

    def retire(done, codes) -> bool:
        """Settle the rows ``done`` with their ``codes`` and drop them from
        every per-row array; True when no row is left."""
        nonlocal rows, x, r, r_hat, p, v, rho, rho_prev, alpha, omega, rv, atol
        out[rows[done]] = x[done]
        info[rows[done]] = codes
        rows, x, r, r_hat, p, v, rho, rho_prev, alpha, omega, rv, atol = _rows(
            ~done, rows, x, r, r_hat, p, v, rho, rho_prev, alpha, omega, rv, atol
        )
        return not rows.size

    for _ in range(maxiter):
        rr, rho = _dot(r, r), _dot(r_hat, r)
        converged = np.sqrt(rr) <= atol
        done = converged | (np.abs(rho) < _BREAKDOWN) | (np.abs(omega) < _BREAKDOWN)
        if done.any() and retire(done, np.where(converged, 0, -10)[done]):
            return out, info, steps
        p -= omega[:, None] * v
        p *= ((rho / rho_prev) * (alpha / omega))[:, None]
        p += r
        v = system(p, rows)
        rv = _dot(r_hat, v)
        done = rv == 0.0
        if done.any() and retire(done, -11):
            return out, info, steps
        alpha = rho / rv
        x += alpha[:, None] * p
        r -= alpha[:, None] * v
        done = np.sqrt(_dot(r, r)) <= atol
        if done.any() and retire(done, 0):
            return out, info, steps
        t = system(r, rows)
        tr, tt = _dot(t, r), _dot(t, t)
        omega = tr / tt
        x += omega[:, None] * r
        r -= omega[:, None] * t
        rho_prev = rho
        steps[rows] += 1
    out[rows] = x
    return out, info, steps


class SLOperator:
    """Precomputed Bellman operator on every node of ``grid``.

    ``drift`` has shape (n_controls, grid.size, 2), with nodes in flat order.
    ``cost`` has shape (n_controls, grid.size, cells) for a family of cells
    that share the grid and the drift; a (n_controls, grid.size) cost is one
    cell.  ``base`` always has shape (n_controls, grid.size, cells).  Feet,
    stencils and admissibility are computed once for the whole family, one
    control at a time into the kept arrays, so a build allocates little
    beyond what the operator keeps.  Methods take and return one row of
    values per cell, shape (cells, N).  A drift or cost that is not finite
    raises ``ValueError`` naming the field, the control and the node: no
    solver's stop rule holds at a NaN, and ``+inf`` in ``base`` marks an
    inadmissible control.
    """

    def __init__(self, grid: GridSpec, drift: np.ndarray, cost: np.ndarray, delta: float):
        if delta <= 0:
            raise ValueError("time step delta must be positive")
        self.grid = grid
        self.delta = float(delta)
        n = grid.size
        nodes = grid.nodes()
        drift = np.asarray(drift, dtype=float)
        cost = np.asarray(cost, dtype=float)
        na = drift.shape[0]
        if drift.shape != (na, n, 2) or cost.shape[:2] != (na, n) or cost.ndim not in (2, 3):
            raise ValueError("drift/cost shapes do not match the grid")
        for name, values in (("drift", drift), ("cost", cost)):
            if not np.isfinite(values).all():
                a, k = np.argwhere(~np.isfinite(values))[0][:2]
                raise ValueError(
                    f"{name} of control {a} is not finite at node ({nodes[k][0]:.6g}, {nodes[k][1]:.6g})"
                )
        self.idx = np.empty((na, n, 4), dtype=np.int32)
        self.w = np.empty((na, n, 4))
        self.base = np.empty((na, n, 1 if cost.ndim == 2 else cost.shape[2]))
        admissible = np.empty((na, n), dtype=bool)
        for a in range(na):
            feet = nodes + self.delta * drift[a]
            admissible[a] = grid.contains(feet, tol=1e-9 * self.delta)
            self.idx[a], self.w[a] = grid.interp_weights(feet, clip=True)
            np.multiply(self.delta, cost[a].reshape(n, -1), out=self.base[a])
            bad = ~admissible[a]
            self.base[a, bad] = np.inf
            self.w[a, bad] = 0.0
            self.idx[a, bad] = 0
        no_control = ~admissible.any(axis=0)
        if no_control.any():
            k = int(np.argmax(no_control))
            y = nodes[k]
            raise ValueError(
                f"node at ({y[0]:.6g}, {y[1]:.6g}) has no admissible control for "
                f"delta={self.delta:.6g}; shrink the step or enlarge the domain"
            )

    @property
    def cells(self) -> int:
        return self.base.shape[2]

    def family(self, cells) -> "SLOperator":
        """This operator on the subset ``cells`` (indices or a mask) of its
        cells.  The stencils are shared; the step costs are copied once, so
        that each application reads them contiguously."""
        sub = copy.copy(self)
        sub.base = np.ascontiguousarray(self.base[:, :, cells])
        return sub

    def gamma(self, discount: float) -> float:
        g = 1.0 - discount * self.delta
        if not (0.0 < g <= 1.0):
            raise ValueError(f"discount*delta = {discount * self.delta:.6g} must lie in [0, 1)")
        return g

    def apply(self, u: np.ndarray, discount: float) -> np.ndarray:
        """One synchronous Bellman application."""
        out = np.empty(u.shape)
        kernels.jacobi_min(self.idx, self.w, self.base, self.gamma(discount), u, out)
        return out

    def greedy(self, u: np.ndarray, discount: float) -> tuple[np.ndarray, np.ndarray]:
        """One synchronous application and, per node, the index of a minimizing control."""
        out = np.empty(u.shape)
        policy = np.empty(u.shape, dtype=np.intp)
        kernels.jacobi_min(self.idx, self.w, self.base, self.gamma(discount), u, out, policy=policy)
        return out, policy

    def policy_stencils(
        self, policy: np.ndarray, subset: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stencils ``idx``/``w`` of shape (cells, N, 4) and step costs of shape
        (cells, N) of the control that ``policy`` picks at each node of each
        cell.  With ``subset`` (cell indices), ``policy`` has one row per
        listed cell, whose step costs are read from this operator's ``base``."""
        n = self.grid.size
        cells = np.arange(self.cells) if subset is None else np.asarray(subset)
        at = policy.reshape(len(cells), n) * n + np.arange(n)   # flat (control, node) index
        idx = np.take(self.idx.reshape(-1, 4), at, axis=0)
        w = np.take(self.w.reshape(-1, 4), at, axis=0)
        base = np.take(self.base, at * self.cells + cells[:, None])
        return idx, w, base

    def policy_value(
        self, policy: np.ndarray, discount: float, *, guess: np.ndarray, atol,
        subset: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value of a stationary policy per cell: the solution of ``(I - gamma
        P) u = base``, where row ``n`` of ``P`` is the stencil of node ``n``'s
        control.

        BiCGSTAB from ``guess`` runs until the residual's 2-norm, which bounds
        its sup norm, is at most ``atol`` (one per cell); since ``||(I - gamma
        P)^-1||_inf = 1 / (1 - gamma)``, the value is then within ``atol / (1
        - gamma)`` of the policy's exact value in the sup norm.  BiCGSTAB sees
        the cells' systems matrix-free, as one block-diagonal product ``x -
        gamma * (P @ x)``.  A cell whose solve breaks down is restarted once
        from where it stopped, with a fresh shadow residual.  For a cell
        whose restart breaks down too, or whose budget runs out, its ``I -
        gamma P`` is assembled for one sparse LU solve, whose factor is
        dropped on return.  ``subset`` evaluates only the listed cells, as
        :meth:`policy_stencils` reads them.  Returns the values, the BiCGSTAB
        iterations taken and whether the LU fallback ran, one row or entry per
        evaluated cell.
        """
        n = self.grid.size
        gamma = self.gamma(discount)
        idx, w, rhs = self.policy_stencils(policy, subset)
        cells = len(rhs)
        atol = np.broadcast_to(np.asarray(atol, dtype=float), cells)

        def krylov(solve: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            """BiCGSTAB on the systems of the cells ``solve`` from ``x0``."""
            blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}

            def system(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
                # rows only shrink during one solve, so their count names them
                if rows.size not in blocks:
                    blocks.clear()
                    sel = solve[rows]
                    blocks[rows.size] = (_block_diagonal(idx[sel]), w[sel])
                y = kernels.stencil_product(*blocks[rows.size], x.reshape(-1)).reshape(x.shape)
                y *= -gamma
                y += x
                return y

            return bicgstab(system, rhs[solve], x0=x0, atol=atol[solve], maxiter=_KRYLOV_MAX_ITER)

        value, info, steps = krylov(np.arange(cells), np.reshape(guess, (cells, n)))
        broke = np.flatnonzero(info < 0)
        if broke.size:
            # one restart from where it stopped, with a fresh shadow residual
            value[broke], info[broke], restart = krylov(broke, value[broke])
            steps[broke] += restart
        fell_back = info != 0
        for c in np.flatnonzero(fell_back):
            from scipy.sparse.linalg import splu  # see _KRYLOV_MAX_ITER
            transition = kernels.stencil_matrix(idx[c], w[c], n)
            assembled = sparse.identity(n, format="csr") - gamma * transition
            value[c] = splu(assembled.tocsc()).solve(rhs[c])
        return value, steps, fell_back


@dataclass(frozen=True, slots=True)
class SolveInfo:
    iterations: int           # synchronous Bellman applications
    residual: float           # max |T u - u| of the returned field's application
    converged: bool
    policy_evaluations: int   # linear solves for a policy's value
    krylov_iterations: int    # BiCGSTAB iterations over all policy evaluations
    lu_fallbacks: int         # evaluations handed to sparse LU
    # greedy control per node of the returned field's application, in the
    # smallest unsigned type that holds the operator's control indices
    policy: np.ndarray = field(repr=False, compare=False)


def _check_tol(tol: float) -> None:
    """Refuse a stopping tolerance no residual meets: zero, negative or NaN."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")


def _fields(grid: GridSpec, values: np.ndarray) -> tuple[ValueField, ...]:
    """One field per row, each owning its values, so a field that outlives
    its family keeps no other cell's values alive."""
    return tuple(ValueField(grid, v.reshape(grid.n1, grid.n2).copy()) for v in values)


def solve_discounted(
    operator: SLOperator,
    discount: float,
    *,
    tol: float,
    u0: np.ndarray | None = None,
    policy0: np.ndarray | None = None,
):
    """Fixed point of ``operator`` at ``discount`` to residual ``tol`` (sup
    norm); raises unless ``tol > 0``, ``discount > 0`` and ``discount * delta
    < 1``.

    Howard's algorithm: each step applies the operator once, stops if
    ``max |T u - u| <= tol`` (returning ``T u``), and otherwise replaces
    ``u`` by the value of the greedy policy.  That value is solved only to
    the forcing tolerance ``atol = max(tol / 2, (1 - gamma) ||T u - u||_2)``,
    with ``1 - gamma = discount * delta``: by the bound in
    :meth:`SLOperator.policy_value` its sup-norm error then stays below
    ``||T u - u||_2``, the current Bellman residual, which is all a Newton
    step needs far from the fixed point, and the tolerance tightens to
    ``tol / 2`` as the residual falls.  When the greedy policy repeats after
    a loose solve, the same policy is solved again at ``tol / 2``; when it
    repeats after a solve at ``tol / 2``, a new solve would return ``u``
    again, so the step keeps ``T u`` instead.  The stopping rule reads ``T u`` alone, so the solve
    tolerance moves the step count, never the certificate ``max |T u - u| <=
    tol``.  Returns the iterate with the smallest residual and
    ``converged=False`` when ``_MAX_APPLICATIONS`` applications are exhausted.

    ``u0`` (one row per cell; zero when omitted) starts the iterate.
    ``policy0`` (one row of admissible controls per cell) starts Howard from
    a policy: the first step is then that policy's evaluation at ``tol / 2``
    from ``u0``, in place of the first greedy application and its loose
    solve, and the policy counts as solved tight, so when it is still greedy
    at its value the next step keeps ``T u``.  Started from its own optimal
    policy near its value, a solve takes one evaluation and one application.
    Like ``u0``, ``policy0`` moves where Howard starts, never the stopping
    rule or the certificate.  Each info's ``policy`` is the cell's greedy
    policy at the returned field's application, ready to start a nearby
    problem.

    Every cell of a family takes these steps on its own, in lockstep with the
    others.  Returns ``(fields, infos)``: a tuple of fields and a
    :class:`Family` of infos, one per cell.
    """
    _check_tol(tol)
    if discount <= 0:
        raise ValueError("discounted problems need discount > 0")
    operator.gamma(discount)  # validates the range
    grid = operator.grid
    k, n = operator.cells, grid.size
    u = np.zeros((k, n)) if u0 is None else np.array(u0, dtype=float).reshape(k, n)
    forcing = discount * operator.delta  # 1 - gamma
    tight = 0.5 * tol
    compact = np.min_scalar_type(operator.idx.shape[0] - 1)   # the policies' stored type
    policy = np.zeros((k, n), dtype=np.intp)
    solved = np.zeros(k, dtype=bool)   # a policy has been evaluated
    loose = np.zeros(k, dtype=bool)    # ... and only to the forcing tolerance
    evaluations, krylov, fallbacks = np.zeros((3, k), dtype=int)
    if policy0 is not None:
        policy[:] = np.reshape(policy0, (k, n))
        u, steps, fell_back = operator.policy_value(policy, discount, guess=u, atol=tight)
        evaluations += 1
        krylov += steps
        fallbacks += fell_back
        solved[:] = True
    best, best_u, best_policy = np.full(k, math.inf), u.copy(), policy.copy()
    values = np.empty((k, n))
    infos: list[SolveInfo | None] = [None] * k

    def settle(c: int, tu: np.ndarray, greedy: np.ndarray, residual: float, converged: bool) -> None:
        values[c] = tu
        infos[c] = SolveInfo(
            it, float(residual), converged, int(evaluations[c]), int(krylov[c]), int(fallbacks[c]),
            greedy.astype(compact),
        )

    def cells(subset: np.ndarray) -> SLOperator:
        # A proper subset's application takes its step costs from a copy made
        # for one call: Howard applies the operator a few times per solve, so
        # the copies cost less than keeping one alive beside the caller's step
        # costs.  Policy evaluations read the subset's costs in place.
        return operator if subset.size == k else operator.family(subset)

    rows = np.arange(k)
    it = 0
    while rows.size and it < _MAX_APPLICATIONS:
        tu, greedy = cells(rows).greedy(u, discount)
        it += 1
        step = tu - u
        residual = np.max(np.abs(step), axis=1)
        done = residual <= tol
        for j in np.flatnonzero(done):
            settle(rows[j], tu[j], greedy[j], residual[j], True)
        better = ~done & (residual < best[rows])
        best[rows[better]] = residual[better]
        best_u[rows[better]] = tu[better]
        best_policy[rows[better]] = greedy[better]
        repeated = solved[rows] & (greedy == policy[rows]).all(axis=1)
        evaluate = ~done & ~(repeated & ~loose[rows])
        if evaluate.any():
            sub = rows[evaluate]
            atol = np.where(
                repeated[evaluate], tight,
                np.maximum(tight, forcing * np.sqrt(_dot(step[evaluate], step[evaluate]))),
            )
            policy[sub] = greedy[evaluate]
            solved[sub] = True
            loose[sub] = atol > tight
            tu[evaluate], steps, fell_back = operator.policy_value(
                greedy[evaluate], discount, guess=u[evaluate], atol=atol, subset=sub
            )
            evaluations[sub] += 1
            krylov[sub] += steps
            fallbacks[sub] += fell_back
        rows, u = _rows(~done, rows, tu)
    for c in rows:
        settle(c, best_u[c], best_policy[c], best[c], False)
    return _fields(grid, values), Family(infos)


@dataclass(frozen=True, slots=True)
class ErgodicRelativeResult:
    field: ValueField          # relative values, 0 at the anchor node
    rate: float                # optimal long-run average cost
    residual: float            # certified half-span of T0[u] - u
    rate_bounds: tuple[float, float]
    iterations: int            # full Bellman applications
    policy_steps: int          # applications of a greedy policy's operator
    converged: bool
    span_history: tuple[float, ...] = field(repr=False, default=())


def solve_ergodic_relative(
    operator: SLOperator,
    *,
    tol: float,
    u0: np.ndarray | None = None,
):
    """Relative value iteration with policy steps for the zero-discount
    (ergodic) problem.

    ``tol`` (positive) bounds the error of the returned average-cost
    ``rate``: iteration stops once ``span(T0[u] - u) / (2 delta) <= tol``,
    and the true rate lies inside ``rate_bounds`` by the monotone growth
    estimate.  That bracket ``(min(T0[u] - u), max(T0[u] - u)) / delta``
    holds for every ``u``, so the start ``u0`` (zero by default) moves the
    iteration count, not the certificate.  The relative field is normalized
    to 0 at the grid anchor.

    Each full application ``T0`` also yields its greedy policy ``pi``.  Before
    the next full application the iterate takes one policy step ``u <- base_pi
    + P_pi u`` per control, each renormalized at the anchor (modified policy
    iteration, Puterman & Shin 1978).  A policy step reads one stencil per
    node where a full application reads one per control, so it costs about
    one control's share of a full application.  Stopping, ``rate``,
    ``rate_bounds`` and ``residual`` are read only from full applications:
    since the bracket holds for every ``u``, the policy steps move the path to
    the certificate, not the certificate.  ``iterations`` counts full
    applications, at most ``_MAX_APPLICATIONS``; ``policy_steps`` counts the
    policy steps.

    On stall (periodic optimal policies) a cell switches to damped averaging,
    in its full applications and its policy steps, which restores
    convergence at half speed; non-convergence within the budget returns the
    flagged best iterate with its span history.

    Synchronous applications only: at zero discount the operator has no
    fixed point (values grow by rate*delta per application), and in-place
    sweeps smear that growth across the sweep order, poisoning the span.
    Howard's exact policy evaluation does not apply either, since ``I - P``
    is singular; a policy step is one application of ``P``, never a solve.

    The cells of a family iterate in lockstep, each stopping and damping on
    its own.  Returns a :class:`Family` of results, one per cell.
    """
    _check_tol(tol)
    family = operator
    grid = family.grid
    k, n = family.cells, grid.size
    anchor = grid.anchor_index()
    steps = family.idx.shape[0]   # policy steps between full applications
    u = np.zeros((k, n)) if u0 is None else np.array(u0, dtype=float).reshape(k, n)
    u -= u[:, [anchor]]
    spans: deque[np.ndarray] = deque(maxlen=_STALL_WINDOW)  # per application, one span per cell
    damped = np.zeros(k, dtype=bool)
    best = np.full(k, math.inf)
    best_rate, best_lo, best_hi = np.zeros((3, k))
    best_rel = np.zeros((k, n))
    policy_steps = np.zeros(k, dtype=int)
    results: list[ErgodicRelativeResult | None] = [None] * k

    def settle(c: int, rel: np.ndarray, rate, span, lo, hi, converged: bool) -> None:
        history = tuple(float(s[c]) for s in list(spans)[-50:])
        results[c] = ErgodicRelativeResult(
            ValueField(grid, rel.reshape(grid.n1, grid.n2).copy()), float(rate), float(span) / 2.0,
            (float(lo), float(hi)), it, int(policy_steps[c]), converged, history,
        )

    rows = np.arange(k)
    it = 0
    while rows.size and it < _MAX_APPLICATIONS:
        tu, policy = family.greedy(u, 0.0)
        it += 1
        d = tu - u
        dmax = np.max(d, axis=1)
        dmin = np.min(d, axis=1)
        span = dmax - dmin
        rate = 0.5 * (dmax + dmin) / family.delta
        lo, hi = dmin / family.delta, dmax / family.delta
        spans.append(np.full(k, math.nan))
        spans[-1][rows] = span
        better = span < best[rows]   # u is 0 at the anchor: the relative field
        sub = rows[better]
        best[sub], best_rate[sub], best_rel[sub] = span[better], rate[better], u[better]
        best_lo[sub], best_hi[sub] = lo[better], hi[better]
        done = span <= 2.0 * tol * family.delta
        for j in np.flatnonzero(done):
            settle(rows[j], u[j], rate[j], span[j], lo[j], hi[j], True)
        damp = damped[rows]
        tu[damp] = 0.5 * (u[damp] + tu[damp])
        u = tu
        u -= u[:, [anchor]]
        if it > _STALL_START:
            damped[rows[span > 0.98 * spans[0][rows]]] = True
        if done.any():
            rows, u, policy = _rows(~done, rows, u, policy)
            if rows.size:
                family = family.family(~done)
        if rows.size and it < _MAX_APPLICATIONS:
            u = _policy_steps(family, policy, u, damped[rows], anchor, steps)
            policy_steps[rows] += steps
    for c in rows:
        settle(c, best_rel[c], best_rate[c], best[c], best_lo[c], best_hi[c], False)
    return Family(results)


def _policy_steps(
    family: SLOperator, policy: np.ndarray, u: np.ndarray, damp: np.ndarray, anchor: int, steps: int
) -> np.ndarray:
    """``steps`` applications of the zero-discount operator of ``policy`` to
    the (cells, N) iterate ``u``, each renormalized at ``anchor``; the cells
    in ``damp`` average every step with their previous iterate."""
    idx, w, base = family.policy_stencils(policy)
    idx = _block_diagonal(idx)
    for _ in range(steps):
        v = kernels.stencil_product(idx, w, u.reshape(-1)).reshape(u.shape)
        v += base
        v[damp] = 0.5 * (u[damp] + v[damp])
        v -= v[:, [anchor]]
        u = v
    return u


@dataclass(frozen=True, slots=True)
class ContinuationResult:
    rate: float                               # extrapolated average cost
    history: tuple[tuple[float, float], ...]  # (discount, anchor value) pairs
    field: ValueField                         # last discounted solution
    converged: bool
    solves: tuple[SolveInfo, ...] = field(repr=False)  # one per stage

    @property
    def stages(self) -> int:
        return len(self.solves)

    @property
    def policy(self) -> np.ndarray:
        """The first stage's final greedy policy."""
        return self.solves[0].policy


def ergodic_continuation(
    operator: SLOperator,
    *,
    tol: float,
    start: tuple[np.ndarray, list[float]] | None = None,
    policy0: np.ndarray | None = None,
):
    """Vanishing-discount estimate of the average cost.

    Runs discounted solves along ``_LAMBDA0 * _LAMBDA_RATIO**k`` (0.5, 0.25,
    ...), the first from the Laurent point of ``start`` (zero when omitted)
    and ``policy0`` (one row of admissible controls per cell; a greedy start
    when omitted), each later one from the last stage's field (shifted by the
    estimated rate times the change of ``1/lambda``) and its final greedy
    policy, records ``(lambda, anchor value)`` pairs, and
    Richardson-extrapolates ``lambda * anchor`` to ``lambda = 0``; stops when
    three successive extrapolations agree, both of their differences within
    ``0.5 * tol``, so that one chance agreement on a plateau does not end the
    walk (unconverged after ``_MAX_STAGES`` = 60 stages or once the discount
    falls below ``_LAMBDA_FLOOR`` = 1e-7).  Inner solves run to residual
    ``0.1 * tol * delta`` so their contribution to the rate error stays below
    ``0.1 * tol``; each stage's :class:`SolveInfo` is kept in ``solves``.

    ``start = (h, rate)`` is a relative field (one row per cell), such as a
    corrector, and its average cost (one per cell); the first stage starts at
    their Laurent point ``u_lambda = rate / lambda + h + O(lambda)`` (Puterman
    1994, section 8.2) at ``_LAMBDA0``, formed in a new array as the shift
    between stages forms it.  A good ``policy0`` is one that was optimal on a
    nearby problem at ``_LAMBDA0``, such as the first-stage policy of a
    smaller truncation.  Howard is a Newton method on policies, and the small change
    of discount between stages mostly keeps the last stage's optimal policy
    optimal, so a stage started from it takes one evaluation and one
    application when it still is: over the benchmark's pipelines at seed 0
    such stages average 1.7-3.2 applications, against 3.7-4.8 from a greedy
    start.  The starts move the Howard iterations, not the certificate: each
    stage stops on its own residual ``max |T u - u| <= 0.1 * tol * delta``,
    which reads ``T u`` alone, and the extrapolation reads only the anchor
    values of those certified fields, so the rate error bound holds from
    every start.  Each result's ``policy`` is the cell's first-stage policy,
    which starts the next truncation of a walk.

    The cells of a family share the discount schedule: each stage is one
    family solve of the cells whose extrapolations still disagree.  Returns a
    :class:`Family` of results, one per cell.  Raises unless ``tol > 0``.
    """
    _check_tol(tol)
    family = operator
    k = family.cells
    anchor = family.grid.anchor_index()
    inner_tol = 0.1 * tol * family.delta
    lam, policy = _LAMBDA0, policy0
    u = None if start is None else start[0] + np.asarray(start[1])[:, None] / lam
    history: list[list[tuple[float, float]]] = [[] for _ in range(k)]
    extrapolations: list[list[float]] = [[] for _ in range(k)]
    solves: list[list[SolveInfo]] = [[] for _ in range(k)]
    last: list[ValueField | None] = [None] * k
    converged = np.zeros(k, dtype=bool)
    results: list[ContinuationResult | None] = [None] * k
    rows = np.arange(k)
    stage = 0

    def estimate(c: int) -> float:
        # the latest extrapolation, else the latest lambda * anchor value
        lam_c, a_c = history[c][-1]
        return extrapolations[c][-1] if extrapolations[c] else lam_c * a_c

    def settle(c: int) -> None:
        assert last[c] is not None
        results[c] = ContinuationResult(
            estimate(c), tuple(history[c]), last[c], bool(converged[c]), tuple(solves[c])
        )

    while rows.size and stage < _MAX_STAGES and lam >= _LAMBDA_FLOOR:
        fields, infos = solve_discounted(family, lam, tol=inner_tol, u0=u, policy0=policy)
        stage += 1
        u = np.stack([f.flat() for f in fields])
        policy = np.stack([info.policy for info in infos])
        done = np.zeros(len(rows), dtype=bool)
        for j, c in enumerate(rows):
            solves[c].append(infos[j])
            last[c] = fields[j]
            a_val = float(u[j, anchor])
            history[c].append((lam, a_val))
            if len(history[c]) >= 2:
                (l_prev, a_prev) = history[c][-2]
                ext = extrapolations[c]
                ext.append((l_prev * (lam * a_val) - lam * (l_prev * a_prev)) / (l_prev - lam))
                if len(ext) >= 3 and max(abs(ext[-1] - ext[-2]), abs(ext[-2] - ext[-3])) <= 0.5 * tol:
                    converged[c] = infos[j].converged
                    done[j] = True
                    settle(c)
        next_lam = lam * _LAMBDA_RATIO
        c_est = np.array([estimate(c) for c in rows])
        u = u + c_est[:, None] * (1.0 / next_lam - 1.0 / lam)
        lam = next_lam
        if done.any():
            rows, u, policy = _rows(~done, rows, u, policy)
            if rows.size:
                family = family.family(~done)
    for c in rows:
        settle(c)
    return Family(results)
