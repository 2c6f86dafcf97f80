"""Semi-Lagrangian Bellman operator and its fixed-point solvers.

One application of the operator at a node is

    T[u](y) = min_a { delta * l(y, a) + (1 - discount*delta) * u(y + delta f(y, a)) }

with bilinear interpolation of ``u`` at the foot point.  On state-constrained
axes a control is admissible only when its foot stays inside the grid, and a
node with no admissible control is a construction error.  The interpolation
stencils, weights, and step costs are precomputed once per operator.  The
stencils are the rows of a sparse transition matrix, so an application is
one sparse product and a min over controls, and a fixed policy's transition
matrix is a row selection of the same stencils (see :mod:`hj_strata.kernels`).

Three solvers share the operator:

* :func:`solve_discounted` — Howard policy iteration for ``discount > 0``:
  the greedy control of a synchronous application fixes a policy, whose
  value is one sparse linear solve; the iteration count does not grow as the
  discount vanishes.  Howard's algorithm is a semismooth Newton method, so
  each policy evaluation is a Newton linear solve, and it is solved inexactly
  (Dembo, Eisenstat & Steihaug): only as far as the current Bellman residual
  warrants, matrix-free, to ``tol / 2`` once the policy settles.
* :func:`solve_ergodic_relative` — relative value iteration at zero discount;
  the returned ``rate`` is the optimal long-run average cost, certified by the
  span of ``T0[u] - u`` (the true rate always lies between the extreme nodal
  growth rates).
* :func:`ergodic_continuation` — small-discount limit ``discount -> 0`` with
  warm starts and Richardson extrapolation of the anchor value; an independent
  estimate of the same average cost, used as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, bicgstab, splu

from . import kernels
from .grids import GridSpec, ValueField

__all__ = [
    "SLOperator",
    "DiscountedProblem",
    "SolveInfo",
    "ErgodicRelativeResult",
    "ContinuationResult",
    "solve_discounted",
    "solve_ergodic_relative",
    "ergodic_continuation",
]


# BiCGSTAB steps before a policy evaluation falls back to sparse LU.  Warm
# started from the previous iterate and stopped at the forcing tolerance, one
# evaluation in the benchmark's four pipelines (seeds 0 and 11) takes at most
# 132 steps (on case3_mirror; 102 on strip_attract's 25,921-node corrector
# ball).
# Krylov comes first because SuperLU's work arrays (~14 MB each on a
# 16k-node ball) are mmapped, and freeing them raises glibc's mmap and trim
# thresholds for the rest of the process, so the heap stops shrinking.
_KRYLOV_MAX_ITER = 1000

# Continuation stages, and the smallest discount a stage may take.
_MAX_STAGES = 60
_LAMBDA_FLOOR = 1e-7


class SLOperator:
    """Precomputed Bellman operator on every node of ``grid``.

    ``drift`` has shape (n_controls, grid.size, 2) and ``cost`` (n_controls,
    grid.size), with nodes in flat order.
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
        if drift.shape != (na, n, 2) or cost.shape != (na, n):
            raise ValueError("drift/cost shapes do not match the grid")
        feet = nodes[None, :, :] + self.delta * drift
        flat_feet = feet.reshape(-1, 2)
        admissible = grid.contains(flat_feet, tol=1e-9 * self.delta).reshape(na, n)
        idx, w = grid.interp_weights(flat_feet, clip=True)
        self.idx = np.ascontiguousarray(idx.reshape(na, n, 4), dtype=np.int32)
        self.w = np.ascontiguousarray(w.reshape(na, n, 4))
        self.base = np.ascontiguousarray(self.delta * cost)
        bad = ~admissible
        if bad.any():
            self.base[bad] = np.inf
            self.w[bad] = 0.0
            self.idx[bad] = 0
        no_control = ~admissible.any(axis=0)
        if no_control.any():
            k = int(np.argmax(no_control))
            y = nodes[k]
            raise ValueError(
                f"node at ({y[0]:.6g}, {y[1]:.6g}) has no admissible control for "
                f"delta={self.delta:.6g}; shrink the step or enlarge the domain"
            )

    def gamma(self, discount: float) -> float:
        g = 1.0 - discount * self.delta
        if not (0.0 < g <= 1.0):
            raise ValueError(f"discount*delta = {discount * self.delta:.6g} must lie in [0, 1)")
        return g

    def apply(self, u: np.ndarray, discount: float) -> np.ndarray:
        """One synchronous Bellman application."""
        out = np.empty(self.grid.size)
        kernels.jacobi_min(self.idx, self.w, self.base, self.gamma(discount), u, out)
        return out

    def greedy(self, u: np.ndarray, discount: float) -> tuple[np.ndarray, np.ndarray]:
        """One synchronous application and, per node, the index of a minimizing control."""
        out = np.empty(self.grid.size)
        policy = np.empty(self.grid.size, dtype=np.intp)
        kernels.jacobi_argmin(self.idx, self.w, self.base, self.gamma(discount), u, out, policy)
        return out, policy

    def policy_value(
        self, policy: np.ndarray, discount: float, *, guess: np.ndarray, atol: float
    ) -> tuple[np.ndarray, int, bool]:
        """Value of a stationary policy: the solution of ``(I - gamma P) u =
        base``, where row ``n`` of ``P`` is the stencil of node ``n``'s control.

        BiCGSTAB from ``guess`` runs until the residual's 2-norm, which bounds
        its sup norm, is at most ``atol``; since ``||(I - gamma P)^-1||_inf =
        1 / (1 - gamma)``, the value is then within ``atol / (1 - gamma)`` of
        the policy's exact value in the sup norm.  BiCGSTAB sees the system
        matrix-free, as ``x - gamma * (P @ x)``.  If it breaks down or stalls,
        ``I - gamma P`` is assembled for one sparse LU solve, whose factor is
        dropped on return.  Returns the value, the BiCGSTAB iterations taken
        and whether the LU fallback ran.
        """
        n = self.grid.size
        rows = np.arange(n)
        transition = kernels.stencil_matrix(self.idx[policy, rows], self.w[policy, rows], n)
        gamma = self.gamma(discount)

        def matvec(x: np.ndarray) -> np.ndarray:
            y = transition @ x
            y *= -gamma
            y += x
            return y

        steps = 0

        def count(_x: np.ndarray) -> None:
            nonlocal steps
            steps += 1

        rhs = self.base[policy, rows]
        system = LinearOperator((n, n), matvec=matvec, dtype=float)
        value, info = bicgstab(
            system, rhs, x0=guess, rtol=0.0, atol=atol, maxiter=_KRYLOV_MAX_ITER, callback=count
        )
        if info != 0:
            assembled = sparse.identity(n, format="csr") - gamma * transition
            value = splu(assembled.tocsc()).solve(rhs)
        return value, steps, info != 0


@dataclass(frozen=True, slots=True)
class DiscountedProblem:
    """An operator paired with a positive discount, ``discount*delta < 1``."""

    operator: SLOperator
    discount: float

    def __post_init__(self):
        if self.discount <= 0:
            raise ValueError("discounted problems need discount > 0")
        self.operator.gamma(self.discount)  # validates the range


@dataclass(frozen=True, slots=True)
class SolveInfo:
    iterations: int           # synchronous Bellman applications
    residual: float           # max |T u - u| of the returned field's application
    converged: bool
    policy_evaluations: int   # linear solves for a policy's value
    stop: str                 # "residual" or "max_iter"
    krylov_iterations: int    # BiCGSTAB iterations over all policy evaluations
    lu_fallbacks: int         # evaluations handed to sparse LU
    method: str = "howard"


def solve_discounted(
    problem: DiscountedProblem,
    *,
    tol: float = 1e-9,
    max_iter: int = 200_000,
    u0: np.ndarray | None = None,
) -> tuple[ValueField, SolveInfo]:
    """Fixed point of the discounted operator to residual ``tol`` (sup norm).

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
    ``converged=False`` when ``max_iter`` applications are exhausted.
    """
    op = problem.operator
    grid = op.grid
    u = np.zeros(grid.size) if u0 is None else np.array(u0, dtype=float).reshape(-1).copy()
    forcing = problem.discount * op.delta  # 1 - gamma
    tight = 0.5 * tol
    policy: np.ndarray | None = None
    loose = False
    best: tuple[float, np.ndarray] | None = None
    evaluations = krylov = fallbacks = 0
    it = 0
    while it < max_iter:
        tu, greedy = op.greedy(u, problem.discount)
        it += 1
        step = tu - u
        residual = float(np.max(np.abs(step)))
        if residual <= tol:
            return (
                ValueField(grid, tu.reshape(grid.n1, grid.n2)),
                SolveInfo(it, residual, True, evaluations, "residual", krylov, fallbacks),
            )
        if best is None or residual < best[0]:
            best = (residual, tu)
        repeated = policy is not None and np.array_equal(greedy, policy)
        if repeated and not loose:
            u = tu
            continue
        policy = greedy
        atol = tight if repeated else max(tight, forcing * float(np.linalg.norm(step)))
        loose = atol > tight
        u, steps, fell_back = op.policy_value(policy, problem.discount, guess=u, atol=atol)
        evaluations += 1
        krylov += steps
        fallbacks += fell_back
    residual, tu = best if best is not None else (math.inf, u)
    return (
        ValueField(grid, tu.reshape(grid.n1, grid.n2)),
        SolveInfo(it, residual, False, evaluations, "max_iter", krylov, fallbacks),
    )


@dataclass(frozen=True, slots=True)
class ErgodicRelativeResult:
    field: ValueField          # relative values, 0 at the anchor node
    rate: float                # optimal long-run average cost
    residual: float            # certified half-span of T0[u] - u
    rate_bounds: tuple[float, float]
    iterations: int
    converged: bool
    span_history: tuple[float, ...] = field(repr=False, default=())


def solve_ergodic_relative(
    operator: SLOperator,
    *,
    tol: float = 1e-6,
    max_iter: int = 500_000,
    u0: np.ndarray | None = None,
) -> ErgodicRelativeResult:
    """Relative value iteration for the zero-discount (ergodic) problem.

    ``tol`` bounds the error of the returned average-cost ``rate``: iteration
    stops once ``span(T0[u] - u) / (2 delta) <= tol``, and the true rate lies
    inside ``rate_bounds`` by the monotone growth estimate.  That bracket
    ``(min(T0[u] - u), max(T0[u] - u)) / delta`` holds for every ``u``, so the
    start ``u0`` (zero by default) moves the iteration count, not the
    certificate.  The relative field is normalized to 0 at the grid anchor.
    On stall (periodic optimal
    policies) the update switches to damped averaging, which restores
    convergence at half speed; non-convergence within ``max_iter`` returns the
    flagged best iterate with its span history.

    Synchronous applications only: at zero discount the operator has no
    fixed point (values grow by rate*delta per application), and in-place
    sweeps smear that growth across the sweep order, poisoning the span.
    Policy iteration does not apply either, since ``I - P`` is singular.
    """
    op = operator
    anchor = op.grid.anchor_index()
    u = np.zeros(op.grid.size) if u0 is None else np.array(u0, dtype=float).reshape(-1)
    u -= u[anchor]
    spans: list[float] = []
    damped = False
    it = 0
    best: tuple[float, float, np.ndarray, tuple[float, float]] | None = None
    while it < max_iter:
        tu = op.apply(u, 0.0)
        it += 1
        d = tu - u
        dmax = float(np.max(d))
        dmin = float(np.min(d))
        span = dmax - dmin
        rate = 0.5 * (dmax + dmin) / op.delta
        bounds = (dmin / op.delta, dmax / op.delta)
        spans.append(span)
        if best is None or span < best[0]:
            best = (span, rate, u - u[anchor], bounds)
        if span <= 2.0 * tol * op.delta:
            rel = u - u[anchor]
            return ErgodicRelativeResult(
                ValueField(op.grid, rel.reshape(op.grid.n1, op.grid.n2)),
                rate,
                span / 2.0,
                bounds,
                it,
                True,
                tuple(spans[-50:]),
            )
        if damped:
            u = 0.5 * (u + tu)
        else:
            u = tu
        u -= u[anchor]
        if not damped and len(spans) > 300 and span > 0.98 * spans[-200]:
            damped = True
    span, rate, rel, bounds = best
    return ErgodicRelativeResult(
        ValueField(op.grid, rel.reshape(op.grid.n1, op.grid.n2)),
        rate,
        span / 2.0,
        bounds,
        it,
        False,
        tuple(spans[-50:]),
    )


@dataclass(frozen=True, slots=True)
class ContinuationResult:
    rate: float                               # extrapolated average cost
    history: tuple[tuple[float, float], ...]  # (discount, anchor value) pairs
    field: ValueField                         # last discounted solution
    converged: bool
    stages: int
    solves: tuple[SolveInfo, ...] = field(repr=False, default=())  # one per stage


def ergodic_continuation(
    operator: SLOperator,
    *,
    lambda0: float,
    factor: float,
    tol: float,
    max_iter: int = 400_000,
) -> ContinuationResult:
    """Vanishing-discount estimate of the average cost.

    Runs discounted solves along ``lambda0 * factor**k`` with warm starts
    (shifting by the estimated rate times the change of ``1/lambda``), records
    ``(lambda, anchor value)`` pairs, and Richardson-extrapolates
    ``lambda * anchor`` to ``lambda = 0``; stops when two successive
    extrapolations agree within ``0.5 * tol`` (unconverged after 60 stages
    or once the discount falls below 1e-7).  Inner solves run to residual
    ``0.1 * tol * delta`` so their contribution to the rate error stays below
    ``0.1 * tol``; each stage's :class:`SolveInfo` is kept in ``solves``.
    """
    op = operator
    anchor = op.grid.anchor_index()
    inner_tol = 0.1 * tol * op.delta
    lam = lambda0
    u: np.ndarray | None = None
    history: list[tuple[float, float]] = []
    extrapolations: list[float] = []
    rates: list[float] = []
    solves: list[SolveInfo] = []
    converged = False
    stage = 0
    fieldv: ValueField | None = None
    while stage < _MAX_STAGES and lam >= _LAMBDA_FLOOR:
        fieldv, info = solve_discounted(
            DiscountedProblem(op, lam), tol=inner_tol, max_iter=max_iter, u0=u
        )
        solves.append(info)
        u = fieldv.flat().copy()
        a_val = float(u[anchor])
        history.append((lam, a_val))
        rates.append(lam * a_val)
        if len(history) >= 2:
            (l_prev, a_prev) = history[-2]
            c_prev = l_prev * a_prev
            c_curr = rates[-1]
            extrapolations.append((l_prev * c_curr - lam * c_prev) / (l_prev - lam))
            if len(extrapolations) >= 2 and abs(extrapolations[-1] - extrapolations[-2]) <= 0.5 * tol:
                converged = info.converged
                stage += 1
                break
        next_lam = lam * factor
        c_est = extrapolations[-1] if extrapolations else rates[-1]
        u = u + c_est * (1.0 / next_lam - 1.0 / lam)
        lam = next_lam
        stage += 1
    rate = extrapolations[-1] if extrapolations else (rates[-1] if rates else math.nan)
    assert fieldv is not None
    return ContinuationResult(rate, tuple(history), fieldv, converged, stage, tuple(solves))
