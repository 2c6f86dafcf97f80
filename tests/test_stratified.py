import dataclasses
import functools
import math

import numpy as np
import pytest

from hj_strata import bellman, stratified
from hj_strata.bellman import SLOperator, solve_discounted
from hj_strata.cell import TableRangeError, tabulate_effective
from hj_strata.grids import GridSpec
from hj_strata.hamiltonian import eval_fields
from hj_strata.scenario import load_preset, parse_scenario
from hj_strata.stratified import (
    _MAX_SWEEPS,
    StratifiedReport,
    _fixed_point,
    _plane_update,
    _sweep,
    build_scheme,
    scheme_residuals,
    solve_effective,
    solve_scheme,
    solve_unstratified,
)

WIDE_P1 = np.linspace(-2.2, 2.2, 9)


@functools.lru_cache(maxsize=None)
def cached_tables(preset: str, tol: float = 1e-8):
    return tabulate_effective(load_preset(preset), tol=tol, threads=2, p1_grid=WIDE_P1)


def box_grid(h: float = 1 / 16) -> GridSpec:
    return GridSpec.box(2.0, h)


def line_indices(grid: GridSpec) -> tuple[np.ndarray, int]:
    """(flat indices of the x2 = 0 grid row, axis column j0)."""
    j0 = int(round(-grid.origin[1] / grid.h2))
    return np.arange(grid.n1) * grid.n2 + j0, j0


def test_no_defect_solution_is_constant_both_routes():
    # cost 1 everywhere, so u = 1/alpha exactly; the line candidates must not
    # perturb that
    scn = load_preset("eikonal")
    tables = cached_tables("eikonal")
    grid = box_grid()
    u_plain = solve_unstratified(scn, grid=grid, tol=1e-10)
    u_strat = solve_effective(scn, tables, grid, tol=1e-10)
    assert np.max(np.abs(u_plain.values - 1.0 / scn.alpha)) <= 1e-8
    assert np.max(np.abs(u_strat.values - u_plain.values)) <= 1e-8


def test_no_defect_report_is_clean():
    scn = load_preset("eikonal")
    tables = cached_tables("eikonal")
    grid = box_grid()
    scheme = build_scheme(scn, tables, grid)
    field, _, _ = solve_scheme(scheme, tol=1e-10)
    rep = scheme_residuals(scheme, field)
    assert isinstance(rep, StratifiedReport)
    assert rep.iteration_residual <= 1e-9
    assert rep.origin_clamp <= 1e-9
    assert rep.m1_subsolution["main"] <= 1e-8
    assert -1e-8 <= rep.supersolution_margin <= 1e-9
    assert rep.value_bound_excess <= 1e-9
    assert rep.worst() <= 1e-8


def disc_scenario():
    # zero-cost disc of radius 0.5 with a smooth rim, axis-aligned controls
    return parse_scenario(
        {
            "case": "case1",
            "alpha": 1.0,
            "R0": 0.5,
            "controls": [[1, 0], [-1, 0], [0, 1], [0, -1], [0, 0]],
            "background": {
                "drift": ["{a1}", "{a2}"],
                "cost": "smoothstep(0.5, 0.625, sqrt(x1*x1 + x2*x2))",
            },
            "schedules": {"sl_step": 0.25},
        },
        label="disc",
    )


def rim_cost(r: float) -> float:
    t = min(max((r - 0.5) / 0.125, 0.0), 1.0)
    return t * t * (3 - 2 * t)


def test_disc_value_matches_straight_run_exactly():
    # with h = 1/16 the scenario's time step 0.25 = sqrt(h) lands on grid nodes, so the
    # discrete optimum -- run straight at the disc, then sit inside at zero
    # cost -- is interpolation-free and the solver must reproduce its value
    # to round-off on the axes
    scn = disc_scenario()
    h = 1 / 16
    delta = math.sqrt(h)
    grid = box_grid(h)
    u = solve_unstratified(scn, grid=grid, tol=1e-12)
    c1, c2 = grid.coords1(), grid.coords2()
    j0 = int(np.argmin(np.abs(c2)))
    i0 = int(np.argmin(np.abs(c1)))

    def straight_run(d: float) -> float:
        val, k = 0.0, 0
        while d - k * delta > 0.5:
            val += delta * (1 - scn.alpha * delta) ** k * rim_cost(d - k * delta)
            k += 1
        return val

    assert u.values[i0, j0] == pytest.approx(0.0, abs=1e-12)
    for d in (0.75, 1.0, 1.25, 1.5):
        expected = straight_run(d)
        i_plus = int(np.argmin(np.abs(c1 - d)))
        i_minus = int(np.argmin(np.abs(c1 + d)))
        j_up = int(np.argmin(np.abs(c2 - d)))
        assert u.values[i_plus, j0] == pytest.approx(expected, abs=1e-10)
        assert u.values[i_minus, j0] == pytest.approx(expected, abs=1e-10)
        assert u.values[i0, j_up] == pytest.approx(expected, abs=1e-10)


def test_attractive_line_pins_value():
    # tangential Hamiltonian has floor -0.5 at p1 = 0, so flat line data with
    # alpha u = 0.5 is an exact fixed point of the tangential update; the
    # compact-defect clamp agrees (E = -0.5)
    scn = load_preset("strip_attract")
    tables = cached_tables("strip_attract")
    grid = box_grid()
    scheme = build_scheme(scn, tables, grid)
    field, _, _ = solve_scheme(scheme, tol=1e-10)
    u = field.flat()
    line, j0 = line_indices(grid)
    on_defect = line[grid.coords1() < -1e-12]
    assert np.max(np.abs(u[on_defect] - 0.5)) <= 1e-7
    assert scn.alpha * u[scheme.origin] + tables.E == pytest.approx(0.0, abs=1e-9)
    # far from the line the background value 1 must reassert itself
    top = field.values[int(np.argmin(np.abs(grid.coords1()))), -1]
    assert top > 0.85

    u_plain = solve_unstratified(scn, grid=grid, tol=1e-10)
    assert np.all(field.values <= u_plain.values + 1e-9)
    assert field.values.min() >= 0.5 - 1e-7  # nothing undercut the defect floor


def test_attractive_line_matches_closed_form_off_the_line():
    """strip_attract has the exact solution u = 1 - e^(-d)/2, d the distance
    to the half-line x1 <= 0: the background is the unit eikonal cone and the
    line and the origin both hold 0.5."""
    scn = load_preset("strip_attract")
    tables = cached_tables("strip_attract")
    grid = box_grid()
    field, _, _ = solve_scheme(build_scheme(scn, tables, grid), tol=1e-10)
    probes = np.array([[0.25, 0.0], [-0.5, 1.0]])
    exact = 1.0 - 0.5 * np.exp(-np.array([0.25, 1.0]))
    assert np.max(np.abs(field(probes) - exact)) <= 0.02


def test_attractive_line_report_signs():
    scn = load_preset("strip_attract")
    tables = cached_tables("strip_attract")
    grid = box_grid()
    scheme = build_scheme(scn, tables, grid)
    field, _, _ = solve_scheme(scheme, tol=1e-10)
    rep = scheme_residuals(scheme, field)
    assert rep.origin_clamp == pytest.approx(0.0, abs=1e-9)
    assert rep.m1_subsolution["main"] <= 1e-6
    assert rep.supersolution_margin >= -1e-6
    assert rep.value_bound_excess <= 0.0


def test_two_sided_starts_share_the_fixed_point():
    scn = load_preset("strip_attract")
    tables = cached_tables("strip_attract")
    grid = box_grid(1 / 8)
    scheme = build_scheme(scn, tables, grid)
    from_plane, _, _ = solve_scheme(scheme, tol=1e-10)
    sweep = functools.partial(_sweep, scheme)
    for start in (np.zeros(grid.size), np.full(grid.size, 1.2)):   # below and above
        other, _, _ = _fixed_point(sweep, start, tol=1e-10, max_iter=_MAX_SWEEPS, what="stratified solve")
        assert np.max(np.abs(other - from_plane.flat())) <= 1e-7


def test_sweep_takes_the_junction_minima_worked_by_hand():
    # on a constant field c every stencil reads c: the plane update of the
    # unit-cost background is delta + (1 - alpha delta) c, a line node also
    # takes the tangential update (-h1t(0) + (2 theta/h) c) / (alpha + 2 theta/h),
    # and the origin also takes -E/alpha.  At the line node the tangential
    # update wins at c = 0.3 and 0.8, the plane at c = 2; at the origin the
    # plane wins at c = 0.3, -E/alpha at c = 0.8 and 2
    scn = load_preset("strip_attract")
    tables = cached_tables("strip_attract")
    grid = box_grid(1 / 8)
    scheme = build_scheme(scn, tables, grid)
    alpha, delta, h = scn.alpha, scheme.operator.delta, grid.h1
    k = 2 * scheme.theta_t["main"] / h
    node = grid.index_of((-1.0, 0.0))
    assert node in scheme.m1_rows["main"]
    for c in (0.3, 0.8, 2.0):
        swept = _sweep(scheme, np.full(grid.size, c))
        plane = delta + (1 - alpha * delta) * c
        line = (-float(tables.h1t_at(0.0)) + k * c) / (alpha + k)
        assert swept[node] == pytest.approx(min(plane, line), abs=1e-12)
        assert swept[scheme.origin] == pytest.approx(min(plane, -tables.E / alpha), abs=1e-12)


def test_narrow_tables_rejected_at_build():
    scn = load_preset("strip_attract")
    narrow = tabulate_effective(scn, tol=1e-4, p1_grid=[-0.5, 0.0, 0.5])
    with pytest.raises(ValueError, match="gradient bound"):
        build_scheme(scn, narrow, box_grid(1 / 8))


def test_origin_off_the_grid_rejected_at_build():
    # nodes at +-0.25 and +-0.75: the nearest node to the origin is not it
    scn = load_preset("strip_attract")
    with pytest.raises(ValueError, match="origin must be a grid node"):
        build_scheme(scn, cached_tables("strip_attract"), GridSpec.box(0.75, 0.5))


def test_out_of_window_solution_rejected(monkeypatch):
    # sweeps clip transient lookups, but a returned field whose slopes leave
    # the tabulated window must still raise; a steep ramp survives one sweep
    # (the contraction shrinks it by 1 - alpha*delta, far from enough)
    scn = load_preset("strip_attract")
    tables = cached_tables("strip_attract")
    grid = box_grid(1 / 8)
    scheme = build_scheme(scn, tables, grid)
    ramp = 5.0 * grid.nodes()[:, 0]
    monkeypatch.setattr(stratified, "_control_plane", lambda *args, **kwargs: ramp)
    with pytest.raises(TableRangeError):
        solve_scheme(scheme, tol=1e9)


def test_budget_exhaustion_raises(monkeypatch):
    scn = load_preset("strip_attract")
    tables = cached_tables("strip_attract")
    scheme = build_scheme(scn, tables, box_grid(1 / 8))
    monkeypatch.setattr(stratified, "_control_plane", lambda *args, **kwargs: np.zeros(scheme.grid.size))
    monkeypatch.setattr(stratified, "_MAX_SWEEPS", 2)
    with pytest.raises(RuntimeError, match="stalled"):
        solve_scheme(scheme, tol=1e-14)


def test_mirrored_scenario_solution_is_even():
    scn = load_preset("case3_mirror")
    tables = tabulate_effective(
        scn, tol=1e-6, threads=2, p1_grid=np.linspace(-1.15, 1.15, 5)
    )
    grid = box_grid()
    scheme = build_scheme(scn, tables, grid)
    assert list(scheme.m1_rows) == list(scn.branches) == ["plus", "minus"]
    # each branch's nodes sit on the defect line, on its own side of the origin
    pts = grid.nodes()
    for branch, side in scn.branches.items():
        line = pts[scheme.m1_rows[branch]]
        assert len(line) == (grid.n1 - 1) // 2
        assert np.all(line[:, 1] == 0.0) and np.all(side * line[:, 0] > 0.0)
    field, _, _ = solve_scheme(scheme, tol=1e-9)
    v = field.values
    assert np.max(np.abs(v - v[::-1, :])) <= 1e-8
    rep = scheme_residuals(scheme, field)
    assert rep.origin_clamp <= 1e-8
    assert rep.supersolution_margin >= -1e-6
    assert max(rep.m1_subsolution.values()) <= 1e-4


def test_periodic_background_constant_plane_value():
    # x-independent periodic background: the plane equation's solution is the
    # constant -Hbar(0)/alpha; the defect line then pins its nodes at the
    # tangential floor -H1T(0)/alpha
    scn = load_preset("checkerboard")
    tables = tabulate_effective(
        scn,
        tol=1e-4,
        threads=4,
        p1_grid=np.linspace(-1.6, 1.6, 5),
        p_grid=np.linspace(-1.6, 1.6, 5),
    )
    grid = box_grid(1 / 8)
    u_plain = solve_unstratified(scn, tables, grid, tol=1e-9)
    level = -float(tables.hbar_at((0.0, 0.0))) / scn.alpha
    assert np.max(np.abs(u_plain.values - level)) <= 1e-6

    scheme = build_scheme(scn, tables, grid)
    field, _, _ = solve_scheme(scheme, tol=1e-9)
    line, _ = line_indices(grid)
    deep = line[grid.coords1() < -0.5]
    pinned = min(level, -float(tables.h1t_at(0.0)) / scn.alpha)
    assert np.max(np.abs(field.flat()[deep] - pinned)) <= 1e-5
    rep = scheme_residuals(scheme, field)
    assert rep.supersolution_margin >= -1e-5
    assert rep.origin_clamp <= 1e-6


@pytest.mark.parametrize("preset", ["strip_attract", "eikonal"])
def test_control_plane_start_is_the_swept_plane_solution(preset):
    # one Howard solve and Jacobi sweeps from zero both stop at a step of
    # at most tol, so each lies within tol / (alpha delta) of the fixed point
    scn = load_preset(preset)
    grid = box_grid(1 / 8)
    scheme = build_scheme(scn, cached_tables(preset), grid)
    tol = 1e-10
    swept, _, _ = _fixed_point(
        functools.partial(_plane_update, scheme), np.zeros(grid.size),
        tol=tol, max_iter=_MAX_SWEEPS, what="plane sweeps",
    )
    plane = solve_unstratified(scn, grid=grid, tol=tol).flat()
    assert np.max(np.abs(plane - swept)) <= 2 * tol / (scn.alpha * scheme.operator.delta)
    # solve_scheme starts its junction sweeps from that plane solution
    field, sweeps, _ = solve_scheme(scheme, tol=tol)
    restarted, sweeps_u0, _ = _fixed_point(
        functools.partial(_sweep, scheme), plane, tol=tol, max_iter=_MAX_SWEEPS, what="from the plane",
    )
    assert sweeps == sweeps_u0 and np.array_equal(field.flat(), restarted)


@functools.lru_cache(maxsize=None)
def checkerboard_tables():
    window = np.linspace(-1.6, 1.6, 3)
    return tabulate_effective(load_preset("checkerboard"), tol=1e-4, threads=2,
                              p1_grid=window, p_grid=window)


def test_periodic_plane_start_is_the_exact_constant():
    scn = load_preset("checkerboard")
    tables = checkerboard_tables()
    u_plain = solve_unstratified(scn, tables, box_grid(1 / 8), tol=1e-9)
    level = -float(tables.hbar_at((0.0, 0.0))) / scn.alpha
    assert np.max(np.abs(u_plain.values - level)) <= 1e-12


def test_plane_start_that_is_not_a_fixed_point_raises(monkeypatch):
    scn = load_preset("checkerboard")
    tables = checkerboard_tables()
    grid = box_grid(1 / 8)
    scheme = build_scheme(scn, tables, grid)
    monkeypatch.setattr(stratified, "_plane_update", lambda scheme, u, **kw: _plane_update(scheme, u, **kw) + 1e-6)
    with pytest.raises(RuntimeError, match="plane start"):
        solve_unstratified(scn, tables, grid, tol=1e-7)
    with pytest.raises(RuntimeError, match="plane start"):
        solve_scheme(scheme, tol=1e-7)
    # the same offset inside the tolerance certifies
    solve_scheme(scheme, tol=1e-5)


def test_control_plane_start_that_stalls_raises(monkeypatch):
    scn = load_preset("strip_attract")
    scheme = build_scheme(scn, cached_tables("strip_attract"), box_grid(1 / 8))
    monkeypatch.setattr(bellman, "_MAX_APPLICATIONS", 1)
    with pytest.raises(RuntimeError, match="plane start stalled"):
        solve_scheme(scheme, tol=1e-10)


@pytest.mark.parametrize(
    "entry, preset, scn_over, tables_over, grid, match",
    [
        (build_scheme, "strip_attract", {}, {}, GridSpec.torus(2.0, 1 / 8), "plain box grid"),
        (build_scheme, "strip_attract", {}, {}, GridSpec(33, 17, 1 / 8, 1 / 4, (-2.0, -2.0), False, False),
         "square cells"),
        (build_scheme, "strip_attract", {"alpha": 8.0}, {}, box_grid(1 / 8), r"alpha\*delta >= 1"),
        (build_scheme, "strip_attract", {}, {"h1t": {}}, box_grid(1 / 8), r"lack tangential branch\(es\) \['main'\]"),
        (build_scheme, "checkerboard", {}, {"hbar": None}, box_grid(1 / 8), "case2 schemes need the tabulated plane"),
        (solve_unstratified, "checkerboard", {}, None, box_grid(1 / 8), "periodic backgrounds need tabulated"),
    ],
    ids=["periodic-grid", "non-square-cells", "alpha-delta", "missing-branch", "case2-without-hbar",
         "case2-without-tables"],
)
def test_scheme_refuses_what_it_cannot_solve(entry, preset, scn_over, tables_over, grid, match):
    # at 1/8 the limit step is 1/8, so alpha = 8 puts alpha * delta at 1
    scn = dataclasses.replace(load_preset(preset), **scn_over)
    tables = checkerboard_tables() if preset == "checkerboard" else cached_tables(preset)
    with pytest.raises(ValueError, match=match):
        entry(scn, None if tables_over is None else dataclasses.replace(tables, **tables_over), grid)


def test_scheme_refuses_a_degenerate_control_hull():
    # two controls span a segment that misses the origin: r_f = 0, and the
    # limit problem has no gradient bound
    scn = parse_scenario(
        {"case": "case1", "alpha": 1.0, "R0": 0.5, "controls": [[1.0, 0.0], [0.0, 1.0]],
         "background": {"drift": ["{a1}", "{a2}"], "cost": "1"}},
        label="t",
    )
    with pytest.raises(ValueError, match="degenerate control hull: the limit problem loses coercivity"):
        build_scheme(scn, cached_tables("strip_attract"), box_grid(1 / 8))


def _epsilon_error(scn, eps, limit):
    """sup over |x|_inf <= 1 of |u^eps - limit|, where u^eps solves the
    oscillating problem alpha u + H(x, x/eps, Du) = 0 on the scheduled box,
    semi-Lagrangian with spacing and time step eps/8, by one Howard solve."""
    grid = GridSpec.box(scn.schedules.box_half_width, eps / 8)
    x = grid.nodes()
    drift, cost = eval_fields(scn, x, x / eps)
    op = SLOperator(grid, drift, cost, grid.h1)
    (field,), (info,) = solve_discounted(op, scn.alpha, tol=1e-8)
    assert info.converged
    inner = np.max(np.abs(x), axis=1) <= 1.0 + 1e-12
    return float(np.max(np.abs(field.flat()[inner] - limit(x[inner]))))


def _attract_exact(x):
    # 1 - e^(-d)/2, d the distance to the half-line x1 <= 0 (see above)
    d = np.where(x[:, 0] <= 0.0, np.abs(x[:, 1]), np.hypot(x[:, 0], x[:, 1]))
    return 1.0 - 0.5 * np.exp(-d)


def _solved_limit(scn):
    tables = tabulate_effective(scn, tol=5e-4)
    return solve_effective(scn, tables, GridSpec.box(scn.schedules.box_half_width, 1 / 32))


_CASE2_LIMIT_FAILS = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="the case2 limit's Lax-Friedrichs plane is first order in h: sup errors 0.124, 0.087, 0.066 "
           "at eps = 1/2, 1/4, 1/8 fall 1.43x and 1.32x, short of the 1.6x bar, and end above 0.03",
)


@pytest.mark.parametrize(
    "preset",
    ["strip_attract", "case3_mirror", "cost_bump", "core_repulse",
     pytest.param("checkerboard", marks=_CASE2_LIMIT_FAILS)],
)
def test_oscillating_problem_converges_to_the_stratified_limit(preset):
    # the homogenization theorem end to end: u^eps -> u as eps -> 0, at first
    # order in eps.  Measured sup errors at eps = 1/2, 1/4, 1/8: strip_attract
    # 0.070, 0.037, 0.019 against its closed form; against the solved limit
    # case3_mirror 0.072, 0.038, 0.020, cost_bump 0.0837, 0.0465, 0.0267 and
    # core_repulse 0.0513, 0.0260, 0.0131.  drift_defect and eikonal cannot
    # serve: their u^eps equals the limit, so the error reads 0 at every eps.
    # checkerboard, the one case2 preset, fails both bars; strict xfail makes
    # the row fail once its limit passes, so the marker goes with the fault.
    scn = load_preset(preset)
    limit = _attract_exact if preset == "strip_attract" else _solved_limit(scn)
    errors = [_epsilon_error(scn, eps, limit) for eps in (1 / 2, 1 / 4, 1 / 8)]
    assert all(a >= 1.6 * b for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] <= 0.03, errors
