import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from hj_strata import kernels
from hj_strata.bellman import (
    Family,
    SLOperator,
    ergodic_continuation,
    solve_discounted,
    solve_ergodic_relative,
)
from hj_strata.grids import GridSpec
from hj_strata.hamiltonian import eval_fields
from hj_strata.scenario import load_preset
from hj_strata.cell import ball_ergodic, ball_operator, strip_ergodic, strip_operator

COS16 = math.cos(math.pi / 16)


def _torus_operator(h=0.25, delta=None, cost_fn=None):
    """Constant-coefficient operator on a unit torus: no state constraints."""
    scn = load_preset("eikonal")
    grid = GridSpec.torus(1.0, h)
    pts = grid.nodes()
    a = np.asarray(scn.controls)
    drift = np.broadcast_to(a[:, None, :], (len(a), grid.size, 2)).copy()
    if cost_fn is None:
        cost = np.ones((len(a), grid.size))
    else:
        cost = np.broadcast_to(cost_fn(pts), (len(a), grid.size)).copy()
    return SLOperator(grid, drift, cost, math.sqrt(h) if delta is None else delta)


def test_operator_shapes_and_base():
    op = _torus_operator()
    assert op.idx.shape == (17, op.grid.size, 4)
    assert op.w.shape == op.idx.shape
    assert op.base.shape == (17, op.grid.size, 1)  # one cell is a family of one
    assert np.all(np.isfinite(op.base))  # torus: every control admissible
    assert np.allclose(op.w.sum(axis=-1), 1.0)
    # a (n_controls, N) cost and its one-cell stacking build the same operator
    a = np.asarray(load_preset("eikonal").controls)
    drift = np.broadcast_to(a[:, None, :], (len(a), op.grid.size, 2))
    cost = 1.0 + np.sin(np.arange(len(a) * op.grid.size)).reshape(len(a), -1)
    flat = SLOperator(op.grid, drift, cost, op.delta)
    stacked = SLOperator(op.grid, drift, cost[..., None], op.delta)
    assert flat.base.shape == stacked.base.shape == (17, op.grid.size, 1)
    assert flat.base.tobytes() == stacked.base.tobytes()


def _one_shot_build(grid, drift, cost, delta):
    """The operator's arrays built for every control at once: feet,
    admissibility, stencils and step costs, inadmissible controls masked."""
    na, n = drift.shape[:2]
    feet = (grid.nodes()[None, :, :] + delta * drift).reshape(-1, 2)
    admissible = grid.contains(feet, tol=1e-9 * delta).reshape(na, n)
    idx, w = grid.interp_weights(feet, clip=True)
    idx, w = idx.reshape(na, n, 4), w.reshape(na, n, 4)
    base = delta * cost.reshape(na, n, -1)
    base[~admissible], w[~admissible], idx[~admissible] = np.inf, 0.0, 0
    return admissible, idx, w, base


@pytest.mark.parametrize(
    "grid", [GridSpec.box(1.0, 1 / 16), GridSpec.strip(1.0, 1.0, 1 / 16)], ids=["box", "strip"]
)
def test_operator_build_equals_a_one_shot_build_bit_for_bit(grid):
    # drift_defect's fields vary in space; the strip wraps in y1 and holds a
    # family of three cells
    scn = load_preset("drift_defect")
    drift, cost = eval_fields(scn, np.zeros(2), grid.nodes())
    if grid.periodic1:
        cost = cost[..., None] + np.array([-0.5, 0.0, 0.75]) * drift[..., :1]
    op = SLOperator(grid, drift, cost, 0.25)
    admissible, idx, w, base = _one_shot_build(grid, drift, cost, 0.25)
    assert 0 < admissible.sum() < admissible.size   # state constraints bite
    assert np.array_equal(np.isfinite(op.base), np.broadcast_to(admissible[..., None], op.base.shape))
    assert op.idx.dtype == np.int32 and op.idx.tobytes() == idx.astype(np.int32).tobytes()
    assert op.w.tobytes() == w.tobytes()
    assert op.base.shape == base.shape and op.base.tobytes() == base.tobytes()


def test_operator_build_allocates_little_beyond_what_it_keeps():
    # the strip_attract corrector ball (25,921 nodes, 17 controls): built
    # for every control at once, its feet and stencils took about 25 MB of
    # temporaries beside the 24.7 MB the operator keeps
    scn = load_preset("strip_attract").with_schedules(cell_h=1 / 32, sl_step=1 / 32)
    grid = GridSpec.box(2.5, 1 / 32)
    drift, cost = eval_fields(scn, np.zeros(2), grid.nodes())
    tracemalloc.start()
    try:
        op = SLOperator(grid, drift, cost, 1 / 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = op.idx.nbytes + op.w.nbytes + op.base.nbytes
    assert grid.size == 25_921 and kept > 24e6
    assert peak - kept <= kept / 4


def test_state_constraints_drop_exiting_controls():
    scn = load_preset("eikonal")
    op = ball_operator(scn, 1.0)
    # at the box corner, controls pointing outward are inadmissible
    assert np.isinf(op.base).any()
    # but every node keeps at least one admissible control (zero control)
    assert np.all(np.isfinite(op.base).any(axis=0))


def test_no_admissible_control_raises():
    grid = GridSpec.box(0.5, 0.25)
    n = grid.size
    drift = np.ones((1, n, 2))  # single control always exits near the corner
    cost = np.ones((1, n))
    with pytest.raises(ValueError, match="no admissible control"):
        SLOperator(grid, drift, cost, 10.0)


def test_gamma_validation():
    op = _torus_operator()
    assert op.gamma(0.0) == 1.0
    with pytest.raises(ValueError):
        op.gamma(-1.0)
    with pytest.raises(ValueError):
        op.gamma(1.0 / op.delta + 1.0)


def test_apply_is_monotone():
    """u <= v pointwise implies T u <= T v: the scheme is monotone."""
    op = _torus_operator()
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.normal(size=op.grid.size)
        v = u + rng.uniform(0.0, 1.0, size=op.grid.size)
        tu = op.apply(u, 0.5)
        tv = op.apply(v, 0.5)
        assert np.all(tu <= tv + 1e-12)


def test_apply_commutes_with_constants():
    # T(u + c) = T(u) + gamma c: used by the span certificate
    op = _torus_operator()
    rng = np.random.default_rng(1)
    u = rng.normal(size=op.grid.size)
    for disc in (0.0, 0.5, 1.0):
        g = op.gamma(disc)
        assert np.allclose(op.apply(u + 3.0, disc), op.apply(u, disc) + g * 3.0, atol=1e-12)


def test_discounted_constant_cost_oracle():
    # constant cost 1, discount alpha: the value is exactly 1/alpha everywhere
    for alpha in (1.0, 0.5, 1.5):
        op = _torus_operator()
        (field,), (info,) = solve_discounted(op, alpha, tol=1e-12)
        assert info.converged
        assert np.allclose(field.values, 1.0 / alpha, atol=1e-9)


def _value_iteration(op, discount, tol):
    """Plain synchronous value iteration: the reference for Howard's algorithm."""
    u = np.zeros(op.grid.size)
    while True:
        tu = op.apply(u, discount)
        if np.max(np.abs(tu - u)) <= tol:
            return tu
        u = tu


@pytest.mark.parametrize("lam", [0.5, 0.05, 0.005])
def test_howard_matches_value_iteration(lam):
    # an iterate with residual r lies within gamma*r/(lam*delta) of the fixed
    # point; Howard runs to 1e-3*tol, so the two together stay below
    # tol/(lam*delta) for every lam*delta >= 1e-3
    op = strip_operator(load_preset("strip_attract"), 0.3, rho=2.0)
    tol = 1e-7
    (field,), (info,) = solve_discounted(op, lam, tol=1e-3 * tol)
    assert info.converged
    vi = _value_iteration(op, lam, tol)
    assert np.max(np.abs(field.flat() - vi)) <= tol / (lam * op.delta)


def test_howard_iterations_do_not_grow_as_discount_vanishes():
    op = strip_operator(load_preset("strip_attract"), 0.3, rho=2.0)
    _, (info,) = solve_discounted(op, 0.005, tol=1e-9)
    assert info.converged
    assert 1 <= info.policy_evaluations <= 20


def _stalled_krylov(system, rhs, **kw):
    """A BiCGSTAB stand-in whose every row (one per cell) stalls at once."""
    return np.zeros_like(rhs), np.ones(len(rhs), dtype=int), np.zeros(len(rhs), dtype=int)


def test_policy_value_falls_back_to_lu(monkeypatch):
    from hj_strata import bellman

    op = strip_operator(load_preset("strip_attract"), 0.3, rho=2.0)
    (krylov,), _ = solve_discounted(op, 0.05, tol=1e-9)
    # a Krylov solve that stalls hands the evaluation to sparse LU
    monkeypatch.setattr(bellman, "bicgstab", _stalled_krylov)
    (lu,), (info,) = solve_discounted(op, 0.05, tol=1e-9)
    assert info.converged and info.policy_evaluations <= 20
    assert np.max(np.abs(lu.flat() - krylov.flat())) <= 1e-9 / (0.05 * op.delta)


def _run_fresh(code: str, **env: str) -> bytes:
    """Run ``code`` in a fresh interpreter that imports this checkout's
    ``hj_strata``, with ``env`` added to the environment; returns its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


_LU_IN_A_FRESH_PROCESS = """
import sys
import numpy as np
from hj_strata import bellman
from hj_strata.cell import strip_operator
from hj_strata.scenario import load_preset

op = strip_operator(load_preset("strip_attract"), 0.3, rho=2.0)
(krylov,), _ = bellman.solve_discounted(op, 0.05, tol=1e-9)
assert "scipy.sparse" not in sys.modules
# a Krylov solve that stalls on every cell, as _stalled_krylov does
bellman.bicgstab = lambda system, rhs, **kw: (
    np.zeros_like(rhs), np.ones(len(rhs), dtype=int), np.zeros(len(rhs), dtype=int)
)
(lu,), (info,) = bellman.solve_discounted(op, 0.05, tol=1e-9)
assert info.converged and info.policy_evaluations <= 20 and info.lu_fallbacks > 0
assert np.max(np.abs(lu.flat() - krylov.flat())) <= 1e-9 / (0.05 * op.delta)
assert "scipy.sparse" in sys.modules
"""


def test_lu_fallback_imports_scipy_sparse_where_it_runs():
    # the pipeline never imports the scipy.sparse package (see kernels), so
    # the LU fallback and stencil_matrix import it themselves; this test
    # module has imported it, so only a fresh process can tell
    _run_fresh(_LU_IN_A_FRESH_PROCESS)


def test_policy_value_restarts_a_breakdown_once_before_lu(monkeypatch):
    from hj_strata import bellman

    op = strip_operator(load_preset("strip_attract"), np.array([0.0, 0.3]), rho=2.0)
    discount, atol = 0.05, 1e-10
    u = np.zeros((2, op.grid.size))
    _, policy = op.greedy(u, discount)
    expected, steps, fell_back = op.policy_value(policy, discount, guess=u, atol=atol)
    assert not fell_back.any()
    bicgstab, calls = bellman.bicgstab, []

    def breaks_first(system, rhs, *, x0, **kw):
        x, info, steps = bicgstab(system, rhs, x0=x0, **kw)
        calls.append(len(rhs))
        if len(calls) == 1:   # cell 1 reports a breakdown where it started
            x[1], info[1] = x0[1], -10
        return x, info, steps

    monkeypatch.setattr(bellman, "bicgstab", breaks_first)
    value, restarted, fell_back = op.policy_value(policy, discount, guess=u, atol=atol)
    # only cell 1 is solved again, alone, from the same start: the lone
    # solve of a family cell, bit for bit, with both solves' steps counted
    assert calls == [2, 1] and not fell_back.any()
    assert value.tobytes() == expected.tobytes()
    assert restarted.tolist() == [steps[0], 2 * steps[1]]
    # a cell that breaks down again goes to sparse LU
    calls.clear()
    broken = lambda system, rhs, **kw: (np.zeros_like(rhs), np.full(len(rhs), -10), np.zeros(len(rhs), dtype=int))
    monkeypatch.setattr(bellman, "bicgstab", broken)
    value, _, fell_back = op.policy_value(policy, discount, guess=u, atol=atol)
    assert fell_back.all()
    assert np.max(np.abs(value - expected)) <= atol / (discount * op.delta)


def test_solve_info_reports_krylov_work_and_lu_fallbacks(monkeypatch):
    from hj_strata import bellman

    op = strip_operator(load_preset("strip_attract"), 0.3, rho=2.0)
    (field,), (info,) = solve_discounted(op, 0.05, tol=1e-9)
    assert info.converged
    assert info.krylov_iterations >= info.policy_evaluations >= 1
    assert info.lu_fallbacks == 0
    monkeypatch.setattr(bellman, "bicgstab", _stalled_krylov)
    _, (stalled,) = solve_discounted(op, 0.05, tol=1e-9)
    assert stalled.converged and stalled.krylov_iterations == 0
    assert stalled.lu_fallbacks == stalled.policy_evaluations >= 1
    # a constant shift keeps the optimal policy greedy, so one LU solve lands
    # on the fixed point
    _, (warm,) = solve_discounted(op, 0.05, tol=1e-9, u0=field.flat() + 1e-3)
    assert warm.converged
    assert (warm.policy_evaluations, warm.lu_fallbacks, warm.krylov_iterations) == (1, 1, 0)


def _random_policy(op, seed):
    """A random admissible control per node."""
    rng = np.random.default_rng(seed)
    base = op.base[..., 0]
    keys = np.where(np.isfinite(base), rng.random(base.shape), -1.0)
    return np.argmax(keys, axis=0)


def _assembled_value(op, policy, gamma):
    """The policy's value by sparse LU on ``I - gamma P``, with ``P`` built
    entry by entry from the stored stencils."""
    n = op.grid.size
    nodes = np.arange(n)
    p = sparse.coo_matrix(
        (op.w[policy, nodes].ravel(), (np.repeat(nodes, 4), op.idx[policy, nodes].ravel())),
        shape=(n, n),
    )
    system = (sparse.identity(n) - gamma * p).tocsc()
    return splu(system).solve(op.base[policy, nodes, 0])


@pytest.mark.parametrize("kind", ["strip", "ball", "torus"])
def test_matrix_free_policy_value_solves_the_assembled_system(kind):
    if kind == "strip":
        op = strip_operator(load_preset("strip_attract"), 0.3, rho=2.0)
    elif kind == "ball":
        # the corrector ball at 2h
        op = ball_operator(load_preset("strip_attract").with_schedules(cell_h=1 / 16), 2.5)
    else:
        op = _torus_operator(h=1 / 16, cost_fn=lambda p: 1.0 + 0.4 * np.sin(2 * np.pi * p[:, 0]))
    atol = 1e-10
    for seed, discount in enumerate((0.5, 0.05)):
        policy = _random_policy(op, seed)
        gamma = op.gamma(discount)
        (value,), (steps,), (fell_back,) = op.policy_value(
            policy, discount, guess=np.zeros(op.grid.size), atol=atol
        )
        assert steps >= 1 and not fell_back
        reference = _assembled_value(op, policy, gamma)
        assert np.max(np.abs(value - reference)) <= atol / (1.0 - gamma)


@pytest.mark.parametrize("kind", ["strip", "ball"])
def test_policy_start_from_any_admissible_policy_converges(kind):
    # the start moves Howard's path, not the certificate: from a random
    # admissible policy every solve stops on its residual, and its field lies
    # within tol / (discount * delta) of the solve started greedy
    if kind == "strip":
        op = strip_operator(load_preset("strip_attract"), 0.3, rho=2.0)
    else:  # state-constrained on both axes
        op = ball_operator(load_preset("strip_attract").with_schedules(cell_h=1 / 16), 1.5)
    tol = 1e-9
    for seed, discount in enumerate((0.5, 0.05, 0.005)):
        (greedy,), _ = solve_discounted(op, discount, tol=tol)
        policy0 = _random_policy(op, seed)
        start = policy0.copy()
        (field,), (info,) = solve_discounted(op, discount, tol=tol, policy0=policy0)
        assert info.converged and info.residual <= tol
        assert np.max(np.abs(field.flat() - greedy.flat())) <= tol / (discount * op.delta)
        assert np.array_equal(start, policy0)  # the caller's start is not modified


def test_policy_start_from_its_own_optimal_policy_takes_one_step():
    # Howard's first step evaluates the policy at tol / 2, and the optimal
    # policy's value is the fixed point: one application certifies it
    op = strip_operator(load_preset("strip_attract"), 0.3, rho=2.0)
    for discount in (0.5, 0.005):
        (field,), (info,) = solve_discounted(op, discount, tol=1e-9)
        assert info.converged and info.iterations > 1
        assert info.policy.dtype == np.uint8 and info.policy.shape == (op.grid.size,)
        for u0 in (None, field.flat()):
            (again,), (warm,) = solve_discounted(op, discount, tol=1e-9, u0=u0, policy0=info.policy)
            assert warm.converged and (warm.iterations, warm.policy_evaluations) == (1, 1)
            assert np.max(np.abs(again.flat() - field.flat())) <= 1e-9 / (discount * op.delta)


def test_repeated_policy_after_a_loose_solve_is_solved_again_tight(monkeypatch):
    # the first policy evaluation is cut short and returns its start, so the
    # next greedy step sees the same iterate and repeats the loosely solved
    # policy; that policy must then be solved again at tol / 2
    from hj_strata import bellman

    op = strip_operator(load_preset("strip_attract"), 0.3, rho=2.0)
    tol = 1e-9
    events = []
    greedy, krylov = SLOperator.greedy, bellman.bicgstab

    def logged_greedy(self, u, discount):
        tu, policy = greedy(self, u, discount)
        events.append(("greedy", policy.copy(), float(np.max(np.abs(tu - u)))))
        return tu, policy

    def logged_bicgstab(system, rhs, **kw):
        (atol,) = kw["atol"]  # one tolerance per cell, and one cell here
        events.append(("solve", float(atol)))
        if len(events) == 2:
            return np.array(kw["x0"]), np.zeros(len(rhs), dtype=int), np.zeros(len(rhs), dtype=int)
        return krylov(system, rhs, **kw)

    monkeypatch.setattr(SLOperator, "greedy", logged_greedy)
    monkeypatch.setattr(bellman, "bicgstab", logged_bicgstab)
    _, (info,) = solve_discounted(op, 0.5, tol=tol)
    assert info.converged
    assert [e[0] for e in events[::2]] == ["greedy"] * len(events[::2])
    (_, first, _), (_, loose), (_, again, residual), (_, tight) = events[:4]
    assert loose > 0.5 * tol and residual > tol
    assert np.array_equal(again, first)
    assert tight == 0.5 * tol
    checked = 0
    for k in range(1, len(events) - 2, 2):
        # events[k] solved the policy of events[k - 1]; events[k + 1] is the next greedy step
        loose = events[k][1] > 0.5 * tol
        _, policy, residual = events[k + 1]
        if loose and residual > tol and np.array_equal(policy, events[k - 1][1]):
            assert events[k + 2] == ("solve", 0.5 * tol)
            checked += 1
    assert checked >= 1


@pytest.mark.parametrize("preset", ["drift_defect", "strip_attract"])
def test_inexact_evaluations_stay_few_at_every_discount(preset):
    op = strip_operator(load_preset(preset), 0.3, rho=2.0)
    for discount in (0.5, 0.05, 0.005):
        _, (info,) = solve_discounted(op, discount, tol=1e-9)
        assert info.converged
        assert 1 <= info.policy_evaluations <= 20


def test_operator_refuses_a_non_positive_step_and_mismatched_shapes():
    grid = GridSpec.box(1.0, 0.5)
    drift, cost = np.zeros((2, grid.size, 2)), np.ones((2, grid.size))
    for delta in (0.0, -0.25):
        with pytest.raises(ValueError, match="time step delta must be positive"):
            SLOperator(grid, drift, cost, delta)
    for bad_drift, bad_cost in (
        (np.zeros((2, grid.size, 3)), cost),          # a 3-vector drift
        (np.zeros((2, grid.size + 1, 2)), cost),      # one node too many
        (drift, np.ones((3, grid.size))),             # a control too many
        (drift, np.ones((2, grid.size, 1, 1))),       # a 4-D cost
    ):
        with pytest.raises(ValueError, match="drift/cost shapes do not match the grid"):
            SLOperator(grid, bad_drift, bad_cost, 0.25)


def test_operator_refuses_a_field_that_is_not_finite():
    # a NaN meets no stop rule, so a solve would run out its whole budget,
    # and +inf is the operator's own mark of an inadmissible control
    grid = GridSpec.box(1.0, 0.5)
    node = 3                                  # (-1, 0.5) in flat order
    for name, value, control in (("cost", math.nan, 1), ("cost", math.inf, 0), ("drift", math.nan, 1)):
        drift, cost = np.zeros((2, grid.size, 2)), np.ones((2, grid.size, 3))
        {"drift": drift, "cost": cost}[name][control, node, -1] = value
        with pytest.raises(ValueError, match=rf"^{name} of control {control} is not finite at node \(-1, 0.5\)$"):
            SLOperator(grid, drift, cost, 0.25)


def test_discounted_max_iter_returns_flagged_best_iterate(monkeypatch):
    from hj_strata import bellman

    op = strip_operator(load_preset("strip_attract"), 0.3, rho=2.0)
    monkeypatch.setattr(bellman, "_MAX_APPLICATIONS", 3)
    (field,), (info,) = solve_discounted(op, 0.005, tol=1e-30)
    assert not info.converged
    assert info.iterations == 3
    assert np.all(np.isfinite(field.values))
    assert 0.0 < info.residual < math.inf


def test_discounted_solve_refuses_a_discount_out_of_range(monkeypatch):
    # discount <= 0 and discount * delta >= 1 are refused before any Bellman
    # application, also when the budget allows none
    from hj_strata import bellman

    op = _torus_operator()
    assert op.delta == 0.5
    applications = []
    monkeypatch.setattr(kernels, "jacobi_min", lambda *args, **kw: applications.append(args))
    for discount, match in ((0.0, "discount > 0"), (-0.5, "discount > 0"), (2.0, "must lie in"), (6.0, "must lie in")):
        for budget in (10, 0):
            monkeypatch.setattr(bellman, "_MAX_APPLICATIONS", budget)
            with pytest.raises(ValueError, match=match):
                solve_discounted(op, discount, tol=1e-9)
    assert applications == []


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_solvers_refuse_a_tolerance_no_residual_meets(monkeypatch, tol):
    # a zero, negative or NaN tol would spin through the whole budget; each
    # solver refuses it before any Bellman application
    applications = []
    monkeypatch.setattr(kernels, "jacobi_min", lambda *args, **kw: applications.append(args))
    op = strip_operator(load_preset("strip_attract"), 0.3, rho=1.0)
    for solve in (
        lambda: solve_discounted(op, 0.5, tol=tol),
        lambda: solve_ergodic_relative(op, tol=tol),
        lambda: ergodic_continuation(op, tol=tol),
    ):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve()
    assert applications == []


def test_bicgstab_returns_once_every_row_breaks_down_on_rv():
    # a skew-symmetric system makes r_hat . (A p) vanish exactly at the first
    # step of every row: each row stops at its start with code -11
    from hj_strata.bellman import bicgstab

    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    x0 = np.array([[0.0, 0.0], [0.5, -0.25]])
    rhs = np.array([[1.0, 2.0], [3.0, -1.0]])
    x, info, steps = bicgstab(lambda x, rows: x @ skew.T, rhs, x0=x0, atol=1e-12, maxiter=10)
    assert info.tolist() == [-11, -11] and steps.tolist() == [0, 0]
    assert np.array_equal(x, x0)


def test_ergodic_relative_constant_cost():
    # flat cost: average rate is exactly 1, corrector is 0
    op = _torus_operator()
    (res,) = solve_ergodic_relative(op, tol=1e-10)
    assert res.converged
    assert res.rate == pytest.approx(1.0, abs=1e-9)
    assert res.rate_bounds[0] <= res.rate <= res.rate_bounds[1] + 1e-15
    assert np.allclose(res.field.values, 0.0, atol=1e-8)


def test_ergodic_relative_certificate_brackets_rate():
    op = _torus_operator(cost_fn=lambda p: 1.0 + 0.4 * np.sin(2 * np.pi * p[:, 0]))
    (res,) = solve_ergodic_relative(op, tol=1e-8)
    assert res.converged
    lo, hi = res.rate_bounds
    assert hi - lo <= 2e-8 + 1e-12
    assert lo - 1e-15 <= res.rate <= hi + 1e-15


def test_ergodic_strip_no_defect_oracle():
    """Translation-invariant strip: rate = 1 - |p1| cos(pi/16) exactly.

    The minimizing relaxed control mixes the two directions closest to e1,
    which is realizable on the grid, so the semi-Lagrangian value is exact.
    """
    scn = load_preset("eikonal")
    for p1 in (0.5, -0.5, 0.25):
        op = strip_operator(scn, p1, rho=1.0)
        (res,) = solve_ergodic_relative(op, tol=1e-9)
        assert res.converged
        assert res.rate == pytest.approx(1.0 - abs(p1) * COS16, abs=1e-9)


def test_continuation_matches_relative_vi():
    scn = load_preset("strip_attract")
    op = strip_operator(scn, 0.3, rho=2.0)
    (vi,) = solve_ergodic_relative(op, tol=1e-7)
    (cont,) = ergodic_continuation(op, tol=1e-7)
    assert vi.converged and cont.converged
    assert vi.rate == pytest.approx(cont.rate, abs=2e-7)
    # the discount history decreases geometrically
    lams = [lam for lam, _ in cont.history]
    assert all(b < a for a, b in zip(lams, lams[1:]))


def _box_operator(controls, h=0.125):
    """State-constrained operator on [-1, 1]^2: controls leaving the box at
    edge nodes are inadmissible (``inf`` step cost)."""
    grid = GridSpec.box(1.0, h)
    pts = grid.nodes()
    a = np.asarray(controls)
    drift = np.broadcast_to(a[:, None, :], (len(a), grid.size, 2)).copy()
    cost = 1.0 + 0.5 * np.sin(3.0 * pts[:, 0] + a[:, :1]) * np.cos(2.0 * pts[:, 1] - a[:, 1:])
    return SLOperator(grid, drift, cost, 0.3)


def _reference_min(op, gamma, u):
    """Per-control loop over the stored stencils: the reference application."""
    best = np.full(op.grid.size, np.inf)
    for a in range(op.idx.shape[0]):
        cand = op.base[a, :, 0] + gamma * np.sum(op.w[a] * u[op.idx[a]], axis=1)
        best = np.minimum(best, cand)
    return best


@pytest.mark.parametrize("gamma", [0.97, 1.0])
def test_jacobi_min_matches_reference_loop(gamma):
    rng = np.random.default_rng(7)
    box = _box_operator(load_preset("eikonal").controls)
    assert np.isinf(box.base).any()
    torus = _torus_operator(cost_fn=lambda p: 1.0 + 0.3 * np.cos(2 * np.pi * p[:, 1]))
    for op in (box, torus):
        u = rng.normal(size=op.grid.size)
        out = np.empty(op.grid.size)
        kernels.jacobi_min(op.idx, op.w, op.base, gamma, u, out)
        assert np.allclose(out, _reference_min(op, gamma, u), rtol=0, atol=1e-13)


def _csr_product(idx, w, x):
    """``csr_matrix @ x`` for the stencil rows ``idx``/``w``, the matrix built
    from scratch."""
    rows = idx.size // 4
    indptr = np.arange(0, 4 * rows + 1, 4)
    return sparse.csr_matrix((w.ravel(), idx.ravel(), indptr), shape=(rows, x.shape[0])) @ x


def test_stencil_product_is_the_csr_product_bit_for_bit():
    # the kernel calls scipy's compiled CSR loops directly, so a change of
    # their private signatures fails here
    from hj_strata.bellman import _block_diagonal

    op = _box_operator(load_preset("eikonal").controls)   # inadmissible rows carry zero weights
    n = op.grid.size
    rng = np.random.default_rng(5)
    columns = (
        rng.normal(size=n), rng.normal(size=(n, 1)), rng.normal(size=(1, n)).T,
        rng.normal(size=(n, 3)), rng.normal(size=(3, n)).T,
    )
    for x in columns:
        got, want = kernels.stencil_product(op.idx, op.w, x), _csr_product(op.idx, op.w, x)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # a block-diagonal family of policy stencils, before and after a cell drops
    nodes = np.arange(n)
    policies = [_random_policy(op, seed) for seed in range(3)]
    idx = np.stack([op.idx[pol, nodes] for pol in policies])
    w = np.stack([op.w[pol, nodes] for pol in policies])
    x = rng.normal(size=(3, n))
    for rows in (np.arange(3), np.array([0, 2])):
        block = _block_diagonal(idx[rows])
        got = kernels.stencil_product(block, w[rows], x[rows].reshape(-1))
        assert got.tobytes() == _csr_product(block, w[rows], x[rows].reshape(-1)).tobytes()
        for row, c in zip(got.reshape(len(rows), n), rows):
            assert row.tobytes() == _csr_product(idx[c], w[c], x[c]).tobytes()


_KERNEL_LOAD = {
    "kernels first": "from hj_strata import kernels\nassert 'scipy.sparse' not in sys.modules\n",
    "scipy.sparse first": "import scipy.sparse\nfrom hj_strata import kernels\n",
    # no extension file beside scipy's sources: the package import runs
    "no lone spec": (
        "import importlib.machinery\n"
        "class FileFinder(importlib.machinery.FileFinder):\n"
        "    def find_spec(self, fullname, target=None): return None\n"
        "importlib.machinery.FileFinder = FileFinder\n"
        "from hj_strata import kernels\n"
        "assert 'scipy.sparse' in sys.modules\n"
    ),
}

_KERNEL_PARITY = """
import numpy as np
from scipy import sparse

# one extension object, whichever import ran first
assert kernels._sparsetools is sys.modules["scipy.sparse._sparsetools"]
rng = np.random.default_rng(7)
n, rows = 50, 120
idx = rng.integers(0, n, size=(rows, 4)).astype(np.int32)
w = rng.random((rows, 4))
matrix = sparse.csr_matrix((w.ravel(), idx.ravel(), np.arange(0, 4 * rows + 1, 4)), shape=(rows, n))
for x in (rng.normal(size=n), rng.normal(size=(n, 1)), rng.normal(size=(n, 3))):
    assert kernels.stencil_product(idx, w, x).tobytes() == (matrix @ x).tobytes()
"""


@pytest.mark.parametrize("load", sorted(_KERNEL_LOAD))
def test_kernel_loads_one_sparsetools_in_any_import_order(load):
    # kernels loads scipy's CSR extension without the scipy.sparse package;
    # a later or earlier package import shares the one module object, and
    # without a lone spec the package import gives the same products
    _run_fresh("import sys\n" + _KERNEL_LOAD[load] + _KERNEL_PARITY)


def test_stencil_products_on_threads_share_their_row_pointers_safely(monkeypatch):
    # the row pointers are one array shared by the cell pool's threads; each
    # thread's products of growing and shrinking row counts stay exact
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(kernels, "_INDPTR", np.zeros(1, dtype=np.int32))   # grown by the threads
    op = _box_operator(load_preset("eikonal").controls)
    n = op.grid.size
    x = np.random.default_rng(9).normal(size=n)
    controls = [op.idx.shape[0] - k for k in range(8)]
    expected = {na: _csr_product(op.idx[:na], op.w[:na], x).tobytes() for na in controls}

    def products(seed):
        order = np.random.default_rng(seed).permutation(controls * 5)
        return all(kernels.stencil_product(op.idx[:na], op.w[:na], x).tobytes() == expected[na] for na in order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert all(pool.map(products, range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert not kernels._INDPTR.flags.writeable


def test_jacobi_argmin_returns_first_minimizer():
    controls = np.asarray(load_preset("eikonal").controls)
    na = len(controls)
    op = _box_operator(np.concatenate([controls, controls]))  # control a + na duplicates a
    assert np.array_equal(op.base[:na], op.base[na:]) and np.isinf(op.base).any()
    rng = np.random.default_rng(3)
    one = (op.base, rng.normal(size=op.grid.size))
    # a family of three cells: one stencil, a step cost and a value row per cell
    family = (np.concatenate([op.base, op.base + 0.25, 1.5 * op.base], axis=2), rng.normal(size=(3, op.grid.size)))
    nodes = np.arange(op.grid.size)
    for (base, u), gamma in itertools.product((one, family), (0.97, 1.0)):
        out = np.empty(u.shape)
        policy = np.empty(u.shape, dtype=np.intp)
        kernels.jacobi_min(op.idx, op.w, base, gamma, u, out, policy=policy)
        tu = np.empty(u.shape)
        kernels.jacobi_min(op.idx, op.w, base, gamma, u, tu)
        assert np.array_equal(out, tu)
        assert np.all(policy < na)  # ties go to the lower index
        for c, (u_c, policy_c, out_c) in enumerate(zip(*map(np.atleast_2d, (u, policy, out)))):
            assert np.all(np.isfinite(base[policy_c, nodes, c]))  # never an inadmissible control
            reach = np.sum(op.w[policy_c, nodes] * u_c[op.idx[policy_c, nodes]], axis=1)
            chosen = base[policy_c, nodes, c] + gamma * reach
            assert np.allclose(out_c, chosen, rtol=0, atol=1e-13)  # the policy attains the minimum


def test_every_full_application_is_one_jacobi_min_call(monkeypatch):
    # a wrapper of kernels.jacobi_min, as the benchmark's tracer installs one,
    # sees every Bellman application of Howard and of relative VI, each with
    # the kernel's six positional arguments; policy evaluations and policy
    # steps do not go through the kernel
    calls = []
    jacobi_min = kernels.jacobi_min

    def counted(*args, **kw):
        calls.append(len(args))
        return jacobi_min(*args, **kw)

    monkeypatch.setattr(kernels, "jacobi_min", counted)
    op = strip_operator(load_preset("strip_attract"), 0.3, rho=2.0)
    _, (info,) = solve_discounted(op, 0.5, tol=1e-9)
    assert info.iterations > 1 and calls == [6] * info.iterations
    calls.clear()
    (res,) = solve_ergodic_relative(op, tol=1e-7)
    assert res.iterations > 1 and res.policy_steps > 0 and calls == [6] * res.iterations


def test_ergodic_relative_from_any_start_keeps_its_certificate():
    op = _torus_operator(cost_fn=lambda p: 1.0 + 0.4 * np.sin(2 * np.pi * p[:, 0]))
    tol = 1e-8
    (cold,) = solve_ergodic_relative(op, tol=tol)
    u0 = np.random.default_rng(11).normal(scale=3.0, size=op.grid.size)
    start = u0.copy()
    (warm,) = solve_ergodic_relative(op, tol=tol, u0=start)
    assert cold.converged and warm.converged
    lo, hi = warm.rate_bounds
    assert hi - lo <= 2 * tol + 1e-12
    assert lo - 1e-15 <= warm.rate <= hi + 1e-15
    assert warm.rate == pytest.approx(cold.rate, abs=tol)
    assert warm.field.values.flat[op.grid.anchor_index()] == 0.0
    assert np.array_equal(start, u0)  # the caller's start is not modified


def test_ergodic_relative_warm_start_from_continuation_saves_applications():
    op = strip_operator(load_preset("checkerboard"), -0.5, rho=1.0)
    tol = 5e-4
    (cold,) = solve_ergodic_relative(op, tol=tol)
    (cont,) = ergodic_continuation(op, tol=tol)
    (warm,) = solve_ergodic_relative(op, tol=tol, u0=cont.field.flat())
    assert cold.converged and warm.converged
    assert (cold.iterations, warm.iterations) == (21, 2)
    assert warm.iterations < cold.iterations / 2
    assert warm.rate == pytest.approx(cold.rate, abs=tol)


@pytest.mark.parametrize("cell", ["strip", "ball"])
def test_continuation_from_any_start_keeps_its_certificate(cell):
    # two starts of the first stage, each a corrector and its rate: relative
    # VI's field and rate, and the last truncation's corrector read on the
    # larger grid with its rate; each moves that stage's Howard iterations,
    # while every stage still stops on its own residual, the stages are as
    # many and the rate is the cold one within tol
    tol = 5e-4
    if cell == "strip":   # delta = sqrt(h)
        scn = load_preset("strip_attract").with_schedules(tol_ergodic=tol)
        op = strip_operator(scn, 0.25, rho=2.0)
        (last,) = strip_ergodic(scn, 0.25, rho=1.0)
    else:                 # delta = h
        scn = load_preset("strip_attract").with_schedules(cell_h=1 / 16, sl_step=1 / 16, tol_ergodic=tol)
        op = ball_operator(scn, 1.5)
        (last,) = ball_ergodic(scn, 0.75)
    (vi,) = solve_ergodic_relative(op, tol=tol)
    starts = [
        (vi.field.flat()[None], [vi.rate]),
        (last.corrector(op.grid.nodes(), clip=True)[None], [-last.constant]),
    ]
    (cold,) = ergodic_continuation(op, tol=tol)
    assert cold.converged
    for h, rate in starts:
        given = h.copy()
        (warm,) = ergodic_continuation(op, tol=tol, start=(h, rate))
        assert warm.converged and warm.stages == cold.stages
        assert warm.rate == pytest.approx(cold.rate, abs=tol)
        assert all(info.converged and info.residual <= 0.1 * tol * op.delta for info in warm.solves)
        assert warm.solves[0].iterations < cold.solves[0].iterations
        assert np.array_equal(h, given)  # the caller's field is not modified


def test_continuation_starts_at_the_laurent_point_of_its_start(monkeypatch):
    # start=(h, rate) starts the first stage at h + rate / lambda0 with
    # lambda0 = 0.5, one row per cell, in a new array
    from hj_strata import bellman

    op = strip_operator(load_preset("strip_attract"), np.array([0.25, -0.3]), rho=1.0)
    vis = solve_ergodic_relative(op, tol=5e-4)
    h = np.stack([vi.field.flat() for vi in vis])
    rate = [vi.rate for vi in vis]
    given = h.copy()
    starts = []
    solve = bellman.solve_discounted
    monkeypatch.setattr(
        bellman, "solve_discounted", lambda op, lam, **kw: starts.append((lam, kw["u0"])) or solve(op, lam, **kw)
    )
    ergodic_continuation(op, tol=5e-4, start=(h, rate))
    lam, u0 = starts[0]
    assert lam == 0.5
    assert u0.tobytes() == (h + 2.0 * np.array(rate)[:, None]).tobytes()
    assert u0 is not h and np.array_equal(h, given)


def test_best_iterate_fallback_reports_not_converged(monkeypatch):
    from hj_strata import bellman

    op = _torus_operator(cost_fn=lambda p: 1.0 + 0.4 * np.sin(2 * np.pi * p[:, 0]))
    monkeypatch.setattr(bellman, "_MAX_APPLICATIONS", 2)
    (res,) = solve_ergodic_relative(op, tol=1e-13)
    assert not res.converged
    assert math.isfinite(res.rate)
    assert res.rate_bounds[0] <= res.rate_bounds[1]


def test_corrector_ball_policy_steps_keep_the_span_certificate():
    # the strip_attract corrector ball (25,921 nodes, 17 controls) as
    # build_corrector_set solves it: relative VI warm-started from the
    # continuation; without policy steps it took 110 full applications
    scn = load_preset("strip_attract").with_schedules(cell_h=1 / 32, sl_step=1 / 32)
    op = ball_operator(scn, 2.5)
    tol = 5e-4
    (cont,) = ergodic_continuation(op, tol=tol)
    (vi,) = solve_ergodic_relative(op, tol=tol, u0=cont.field.flat())
    assert vi.converged and cont.converged
    lo, hi = vi.rate_bounds
    assert lo <= vi.rate <= hi
    assert hi - lo <= 2 * tol
    assert vi.rate == pytest.approx(cont.rate, abs=tol)
    assert (vi.iterations, vi.policy_steps) == (7, 6 * 17)


_BALL_SOLVE = """
import sys
from hj_strata.bellman import solve_discounted
from hj_strata.cell import ball_operator
from hj_strata.scenario import load_preset

op = ball_operator(load_preset("strip_attract").with_schedules(cell_h=1 / 32, sl_step=1 / 32), 2.5)
(field,), (info,) = solve_discounted(op, 0.5, tol=1e-9)
assert info.converged and info.krylov_iterations > 0
sys.stdout.buffer.write(field.values.tobytes())
"""


def test_discounted_solve_does_not_depend_on_the_blas_thread_count():
    # one Howard solve on the 25,921-node corrector ball, in fresh processes
    # with one and two BLAS threads, must return the same bytes
    outputs = [_run_fresh(_BALL_SOLVE, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2")]
    assert len(outputs[0]) == 8 * 161 * 161
    assert outputs[0] == outputs[1]


def _torus_family(controls, costs, h=1 / 8, delta=None):
    """A family of torus cells sharing ``controls`` as constant drifts, one
    cell per cost function, and the one-cell operator of each cell."""
    grid = GridSpec.torus(1.0, h)
    pts = grid.nodes()
    a = np.asarray(controls, dtype=float)
    drift = np.broadcast_to(a[:, None, :], (len(a), grid.size, 2)).copy()
    cost = np.stack([np.broadcast_to(c(pts), (len(a), grid.size)) for c in costs], axis=-1)
    delta = math.sqrt(h) if delta is None else delta
    family = SLOperator(grid, drift, cost, delta)
    return family, [SLOperator(grid, drift, cost[..., c].copy(), delta) for c in range(len(costs))]


def _assert_same_results(family, lone):
    """Family results equal the one-cell results field by field, arrays bit
    for bit; a one-cell solve returns a Family of one result."""
    assert len(family) == len(lone)
    for a, single in zip(family, lone):
        assert isinstance(single, Family) and len(single) == 1
        (b,) = single
        assert a.field.values.tobytes() == b.field.values.tobytes()
        assert dataclasses.replace(a, field=None) == dataclasses.replace(b, field=None)


def _flat(p):
    return np.ones(len(p))


def _wave(p):
    return 1.0 + 0.4 * np.sin(2 * np.pi * p[:, 0])


def _rows(p):
    return _wave(p) + 0.3 * np.cos(2 * np.pi * p[:, 1])


def test_family_relative_vi_equals_lone_solves_bit_for_bit(monkeypatch):
    # transport along e1 at one node or three quarters of a node per step: the
    # flat cell stops at the first check, the wave cell converges after 173
    # undamped applications, and the rows cell, whose rows grow at different
    # rates, stalls, switches to damped updates and policy steps and runs out
    # of applications
    from hj_strata import bellman

    family, lone = _torus_family([(1.0, 0.0), (0.75, 0.0)], [_flat, _wave, _rows], delta=1 / 8)
    damped = []
    policy_steps = bellman._policy_steps

    def spy(family, policy, u, damp, anchor, steps):
        damped.append(damp.tolist())
        return policy_steps(family, policy, u, damp, anchor, steps)

    monkeypatch.setattr(bellman, "_policy_steps", spy)
    monkeypatch.setattr(bellman, "_MAX_APPLICATIONS", 1000)
    batch = solve_ergodic_relative(family, tol=1e-8)
    assert [(r.iterations, r.converged) for r in batch] == [(1, True), (173, True), (1000, False)]
    assert batch.iterations == 1174
    # two policy steps (one per control) after every full application but the last
    assert [r.policy_steps for r in batch] == [0, 2 * 172, 2 * 999]
    assert sum(r.policy_steps for r in batch) == 2342
    assert damped[0] == [False, False] and damped[-1] == [True]
    _assert_same_results(batch, [solve_ergodic_relative(op, tol=1e-8) for op in lone])
    monkeypatch.setattr(bellman, "_STALL_START", 1000)  # the rows cell never damps
    (undamped,) = solve_ergodic_relative(lone[2], tol=1e-8)
    assert undamped.field.values.tobytes() != batch[2].field.values.tobytes()


def test_family_howard_and_continuation_equal_lone_solves_bit_for_bit(monkeypatch):
    from hj_strata import bellman

    controls = load_preset("eikonal").controls
    family, lone = _torus_family(controls, [_wave, _flat, _rows])
    krylov = bellman.bicgstab

    def stalls_on_flat_rows(system, rhs, **kw):
        # the flat cell's policy evaluations all fall back to LU
        x, info, steps = krylov(system, rhs, **kw)
        return x, np.where(np.ptp(rhs, axis=1) == 0.0, 1, info), steps

    monkeypatch.setattr(bellman, "bicgstab", stalls_on_flat_rows)
    full = bellman._MAX_APPLICATIONS
    for budget in (full, 2):
        monkeypatch.setattr(bellman, "_MAX_APPLICATIONS", budget)
        fields, infos = solve_discounted(family, 0.5, tol=1e-9)
        alone = [solve_discounted(op, 0.5, tol=1e-9) for op in lone]
        assert all(len(f) == 1 and isinstance(i, Family) and len(i) == 1 for f, i in alone)
        for field, info, ((field_1,), (info_1,)) in zip(fields, infos, alone):
            assert field.values.tobytes() == field_1.values.tobytes()
            assert info == info_1 and info.policy.tobytes() == info_1.policy.tobytes()
        assert infos.iterations == sum(info.iterations for _, info in alone)
    # with two applications only the flat cell converges, on its LU solve
    assert [(i.converged, i.lu_fallbacks) for i in infos] == [(False, 0), (True, 1), (False, 0)]
    monkeypatch.setattr(bellman, "_MAX_APPLICATIONS", full)
    # a policy start, one row per cell, keeps the cells apart as well
    policy0 = np.stack([i.policy for i in infos])
    fields, infos = solve_discounted(family, 0.25, tol=1e-9, policy0=policy0)
    for op, start, field, info in zip(lone, policy0, fields, infos):
        (field_1,), (info_1,) = solve_discounted(op, 0.25, tol=1e-9, policy0=start)
        assert field.values.tobytes() == field_1.values.tobytes()
        assert info == info_1 and info.policy.tobytes() == info_1.policy.tobytes()
    batch = ergodic_continuation(family, tol=1e-6)
    lone_batches = [ergodic_continuation(op, tol=1e-6) for op in lone]
    _assert_same_results(batch, lone_batches)
    for a, (b,) in zip(batch, lone_batches):
        assert a.policy.tobytes() == b.policy.tobytes()
        assert [i.policy.tobytes() for i in a.solves] == [i.policy.tobytes() for i in b.solves]
    assert len({r.stages for r in batch}) > 1  # the cells leave the family at different stages
    assert batch.stages == sum(r.stages for r in batch)


def _stacked_system(matrices):
    """``system(x, rows)`` of :func:`bicgstab` for one matrix per row."""
    mats = np.asarray(matrices, dtype=float)
    return lambda x, rows: np.einsum("kij,kj->ki", mats[rows], x)


def test_bicgstab_breakdown_leaves_the_other_rows_running():
    from hj_strata.bellman import bicgstab

    # r·Ar = 0 for a skew matrix, so the first step of row 0 has no alpha
    skew, spd = [[0.0, 1.0], [-1.0, 0.0]], [[2.0, 0.5], [0.5, 3.0]]
    rhs = np.array([[1.0, 2.0], [1.0, 2.0]])
    x, info, _ = bicgstab(_stacked_system([skew, spd]), rhs, x0=np.zeros((2, 2)), atol=1e-12, maxiter=50)
    assert info.tolist() == [-11, 0]
    assert x[0].tolist() == [0.0, 0.0]
    assert np.allclose(np.asarray(spd) @ x[1], rhs[1], atol=1e-12)


def test_bicgstab_steps_count_each_rows_full_iterations():
    from hj_strata.bellman import bicgstab

    # row 0 converges after two full iterations, row 1 half-way through its
    # second, and the skew row 2 breaks down (r_hat . A p = 0) at its start
    mats = [[[4.0, 1.0, 0.0], [0.5, 3.0, 1.0], [0.0, 2.0, 2.0]],
            [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]],
            [[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]]]
    rhs = np.array([[1.0, 2.0, 3.0]] * 3)
    x, info, steps = bicgstab(_stacked_system(mats), rhs, x0=np.zeros((3, 3)), atol=1e-12, maxiter=50)
    assert info.tolist() == [0, 0, -11] and steps.tolist() == [2, 1, 0]
    # a lone solve takes one product for its start and two per full iteration,
    # plus one where it stops half-way
    for k, mat in enumerate(mats):
        products = []

        def counted(x, rows, system=_stacked_system([mat])):
            products.append(rows)
            return system(x, rows)

        lone, _, lone_steps = bicgstab(counted, rhs[k:k + 1], x0=np.zeros((1, 3)), atol=1e-12, maxiter=50)
        assert lone.tobytes() == x[k:k + 1].tobytes()
        assert lone_steps.tolist() == [steps[k]] == [(len(products) - 1) // 2]


def test_bicgstab_budget_exhaustion_returns_the_last_iterate():
    from hj_strata.bellman import bicgstab

    a = np.array([[4.0, 1.0, 0.0], [0.5, 3.0, 1.0], [0.0, 2.0, 2.0]])
    b = np.array([1.0, 2.0, 3.0])
    x, info, steps = bicgstab(_stacked_system([a]), b[None], x0=np.zeros((1, 3)), atol=1e-12, maxiter=1)
    assert info.tolist() == [1] and steps.tolist() == [1]
    # one textbook BiCGSTAB step from x0 = 0
    r = b.copy()
    v = a @ r
    alpha = (r @ r) / (r @ v)
    s = r - alpha * v
    t = a @ s
    omega = (t @ s) / (t @ t)
    assert np.allclose(x[0], alpha * r + omega * s, rtol=0, atol=1e-14)
    assert np.linalg.norm(b - a @ x[0]) > 1e-12


def test_continuation_out_of_stages_reports_unconverged_finite_rates(monkeypatch):
    from hj_strata import bellman

    monkeypatch.setattr(bellman, "_MAX_STAGES", 2)
    op = strip_operator(load_preset("strip_attract"), np.array([0.0, 0.3]), rho=1.0)
    results = ergodic_continuation(op, tol=1e-7)
    assert len(results) == 2
    for res in results:
        assert not res.converged and res.stages == 2 and len(res.solves) == 2
        assert math.isfinite(res.rate)
