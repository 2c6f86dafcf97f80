import dataclasses
import json
import math

import numpy as np
import pytest

from hj_strata.cell import (
    EffectiveTables,
    ErgodicEstimate,
    TableRangeError,
    _failure_cause,
    background_min_over_q,
    ball_ergodic,
    ball_operator,
    dirichlet_datum,
    slopes,
    strip_ergodic,
    strip_operator,
    tabulate_effective,
    tangential_hamiltonian,
    torus_effective,
    torus_operator,
)
from hj_strata.bellman import (
    ContinuationResult,
    ErgodicRelativeResult,
    Family,
    ergodic_continuation,
    solve_ergodic_relative,
)
from hj_strata.hamiltonian import estimate_bounds, eval_H, eval_H_envelopes
from hj_strata.scenario import load_preset, parse_scenario, preset_names

COS16 = math.cos(math.pi / 16)


def test_strip_no_defect_lambda_is_exact():
    """lambda(p1) = -(1 - |p1| cos(pi/16)) on the translation-invariant strip."""
    scn = load_preset("eikonal").with_schedules(tol_ergodic=1e-9)
    for p1 in (0.0, 0.5, -0.75):
        (est,) = strip_ergodic(scn, p1, rho=1.0)
        assert est.converged
        assert est.constant == pytest.approx(-(1.0 - abs(p1) * COS16), abs=1e-8)
        assert est.method_gap <= 2e-9


def test_strip_constant_monotone_in_truncation():
    # enlarging the strip can only help the optimizer: lambda_rho nondecreasing
    scn = load_preset("strip_attract").with_schedules(tol_ergodic=1e-6)
    consts = [strip_ergodic(scn, 0.25, rho=r)[0].constant for r in (1.0, 2.0, 4.0)]
    for a, b in zip(consts, consts[1:]):
        assert b >= a - 1e-6


def test_tangential_attractive_strip_oracle():
    # the dip floor 0.5 is reachable and sittable: H1T(0) = -0.5
    scn = load_preset("strip_attract").with_schedules(tol_ergodic=1e-6)
    (res,) = tangential_hamiltonian(scn, 0.0)
    assert res.converged
    assert res.value == pytest.approx(-0.5, abs=1e-5)


def test_ball_flat_bottom_oracle():
    # cost_bump: flat-bottom node with cost 0.5, zero control admissible
    scn = load_preset("cost_bump").with_schedules(tol_ergodic=1e-7)
    (est,) = ball_ergodic(scn, 1.0)
    assert est.converged
    assert est.constant == pytest.approx(-0.5, abs=1e-6)


def test_ball_repulsive_core_oracle():
    # core_repulse: cheapest reachable cost is the background 1 => E = -1
    scn = load_preset("core_repulse").with_schedules(tol_ergodic=1e-7)
    (est,) = ball_ergodic(scn, 1.0)
    assert est.converged
    assert est.constant == pytest.approx(-1.0, abs=1e-6)


def test_dirichlet_datum_walks_truncations():
    scn = load_preset("cost_bump").with_schedules(R_list=(1.0, 2.0), tol_ergodic=1e-6)
    res = dirichlet_datum(scn)
    assert res.converged
    assert res.value == pytest.approx(-0.5, abs=1e-5)
    assert len(res.estimates) == 2
    corrector = res.estimates[-1].corrector
    assert corrector.flat()[corrector.grid.anchor_index()] == 0.0


def test_torus_effective_checkerboard_oracle():
    # cost 1 + 0.4 sin(2pi y1) sin(2pi y2) has a sittable grid minimum of 0.6
    scn = load_preset("checkerboard").with_schedules(tol_ergodic=1e-7)
    (est,) = torus_effective(scn, (0.0, 0.0))
    assert est.converged
    assert est.constant == pytest.approx(-0.6, abs=1e-6)


def test_cell_solves_read_their_resolution_from_the_schedules():
    attract = load_preset("strip_attract").with_schedules(cell_h=1 / 8, sl_step=0.2)
    checkerboard = load_preset("checkerboard").with_schedules(cell_h=1 / 8, sl_step=0.2)
    ops = [
        strip_operator(attract, 0.3, rho=1.0),
        ball_operator(attract, 1.0),
        torus_operator(checkerboard, (0.3, 0.0)),
    ]
    for op in ops:
        assert op.grid.h2 == 1 / 8
        assert op.delta == 0.2


@pytest.mark.parametrize("name", ["strip_attract", "case3_mirror"])
def test_p_grid_outside_case2_raises(name):
    scn = load_preset(name)
    with pytest.raises(ValueError, match=f"p_grid .* {scn.case} scenario has none"):
        tabulate_effective(scn, p1_grid=[0.0], p_grid=[-0.5, 0.5])


def test_operators_refuse_cells_the_scenario_lacks():
    # core and background are regions, not strip branches
    scn = load_preset("strip_attract")
    for branch in ("core", "background", "plus"):
        with pytest.raises(ValueError, match=rf"case1 strip branches are \['main'\], got '{branch}'"):
            strip_operator(scn, 0.3, branch=branch, rho=1.0)
    with pytest.raises(ValueError, match="torus cell problems belong to case2"):
        torus_operator(scn, (0.0, 0.0))


def test_degenerate_control_hull_cannot_size_the_window():
    # two controls span a segment that misses the origin: r_f = 0
    scn = parse_scenario(
        {"case": "case1", "alpha": 1.0, "R0": 0.5, "controls": [[1.0, 0.0], [0.0, 1.0]],
         "background": {"drift": ["{a1}", "{a2}"], "cost": "1"}},
        label="t",
    )
    with pytest.raises(ValueError, match=r"control hull is degenerate \(r_f <= 0\)"):
        tabulate_effective(scn, p1_grid=[0.0])


def test_a_nan_bound_cannot_size_the_window():
    # sqrt(y2) is NaN on the band's lower half, so the bound of the field it
    # enters reads NaN, and the refusal names that bound, not the control
    # hull (a NaN drift also leaves r_f NaN)
    for drift, cost, bound in ((["{a1}", "{a2}"], "sqrt(y2)", "M_l"), (["{a1}", "{a2}*sqrt(y2)"], "1", "M_f")):
        scn = parse_scenario(
            {"case": "case1", "alpha": 1.0, "R0": 0.5, "controls": {"directions": 8, "speed": 1.0},
             "background": {"drift": ["{a1}", "{a2}"], "cost": "1"},
             "strip_defect": {"period": 1.0, "drift": drift, "cost": cost}},
            label="t",
        )
        message = rf"^cannot size the momentum window: the sampled bound {bound} is nan$"
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
            tabulate_effective(scn)


def test_background_min_over_q():
    scn = load_preset("eikonal")
    # background H(p1, q) = |p| cos(pi/16) - 1 up to the direction quantization;
    # minimum over q sits at q = 0
    v0 = background_min_over_q(scn, 0.0)
    assert v0 == pytest.approx(-1.0, abs=1e-9)
    v1 = background_min_over_q(scn, 0.5)
    assert v1 == pytest.approx(eval_h_eik(0.5, 0.0), abs=1e-6)


def eval_h_eik(p1, q):
    from hj_strata.hamiltonian import eval_H

    scn = load_preset("eikonal")
    return eval_H(scn, np.zeros(2), np.array([2.0, 2.0]), np.array([p1, q])).value


def test_slopes_symmetric_window():
    scn = load_preset("strip_attract")
    lo, hi = slopes(scn, 0.0, -0.5)
    assert hi == pytest.approx(0.5 / COS16, abs=1e-3)
    assert lo == pytest.approx(-hi, abs=1e-9)
    # a level below the background floor has no slope window
    with pytest.raises(ValueError):
        slopes(scn, 0.0, -1.5)


def _table_momenta(scn, n=5):
    window = 1.05 * estimate_bounds(scn, samples=200, seed=0)["p_window"]
    return np.linspace(-window, window, n)


# presets whose ambient Hamiltonian is the background's closed form; case2's
# is the hbar table (see test_case2_slope_windows_read_the_hbar_sections)
CLOSED_FORM_PRESETS = [name for name in preset_names() if load_preset(name).case != "case2"]


@pytest.mark.parametrize("name", CLOSED_FORM_PRESETS)
def test_slope_window_ends_sit_on_the_level(name):
    """The closed-form window ends solve h_down(pi_lower) = h_up(pi_upper) = level."""
    scn = load_preset(name)
    for p1 in _table_momenta(scn):
        floor = background_min_over_q(scn, p1)
        for level in (floor, floor + 0.1, floor + 1.0):
            lo, hi = slopes(scn, p1, level)
            assert lo <= hi + 1e-12
            assert eval_H_envelopes(scn, np.zeros(2), (p1, lo))[0] == pytest.approx(level, abs=1e-12)
            assert eval_H_envelopes(scn, np.zeros(2), (p1, hi))[1] == pytest.approx(level, abs=1e-12)


@pytest.mark.parametrize("name", CLOSED_FORM_PRESETS)
def test_background_floor_is_attained(name):
    """H(p1, .) attains the closed-form floor at pi_lower(floor) and stays above it."""
    scn = load_preset(name)
    y = (4.0, 4.0)  # a background point
    assert scn.regions(*y)["background"]
    for p1 in _table_momenta(scn, 3):
        floor = background_min_over_q(scn, p1)
        q_star = slopes(scn, p1, floor)[0]
        assert eval_H(scn, np.zeros(2), y, (p1, q_star)).value == pytest.approx(floor, abs=1e-12)
        qs = np.concatenate([np.linspace(q_star - 3.0, q_star + 3.0, 101), q_star + np.linspace(-1e-3, 1e-3, 21)])
        assert min(eval_H(scn, np.zeros(2), y, (p1, q)).value for q in qs) >= floor - 1e-12


def test_rounding_level_vertical_drift_counts_as_flat():
    # with 5 directions one control points along -e1 with f2 = sin(pi) ~ 1e-16;
    # read as a falling line it would pin pi_lower far from the window
    scn = parse_scenario(
        {
            "case": "case1",
            "alpha": 1.0,
            "R0": 0.5,
            "controls": {"directions": 5, "speed": 1.0, "include_zero": True},
            "background": {"drift": ["{a1}", "{a2}"], "cost": "1"},
        },
        label="t",
    )
    for p1 in (0.3, 0.5):
        floor = background_min_over_q(scn, p1)
        assert floor == pytest.approx(p1 - 1.0, abs=1e-12)
        lo, hi = slopes(scn, p1, floor)
        assert lo == pytest.approx(-hi, abs=1e-12)
        assert eval_H_envelopes(scn, np.zeros(2), (p1, lo))[0] == pytest.approx(floor, abs=1e-12)
        with pytest.raises(ValueError, match="below the envelope minimum"):
            slopes(scn, p1, floor - 0.1)


def _y_drift_case2():
    """A case2 scenario whose background drift depends on y."""
    return parse_scenario(
        {
            "case": "case2",
            "alpha": 1.0,
            "R0": 0.5,
            "controls": {"directions": 8, "speed": 1.0, "include_zero": True},
            "background": {
                "drift": ["{a1}", "{a2}*(1 + 0.5*sin(6.283185307179586*y1))"],
                "cost": "1",
                "periods": [1.0, 1.0],
            },
        },
        label="t",
    )


def test_envelope_algebra_rejects_a_y_dependent_case2_drift():
    # every case2 background is refused, a y-dependent cost (checkerboard) as
    # much as a y-dependent drift: frozen at y = 0 it is not the ambient
    # Hamiltonian
    for scn in (_y_drift_case2(), load_preset("checkerboard")):
        with pytest.raises(ValueError, match="periodic in y"):
            slopes(scn, 0.0, 0.0)
        with pytest.raises(ValueError, match="periodic in y"):
            background_min_over_q(scn, 0.0)
        with pytest.raises(ValueError, match="periodic in y"):
            eval_H_envelopes(scn, np.zeros(2), (0.0, 0.0))


def test_a_y_dependent_case2_drift_tabulates_its_slope_windows():
    # its windows read the hbar sections; the closed form refuses this background
    scn = _y_drift_case2()
    grid = _table_momenta(scn)
    tab = tabulate_effective(scn, tol=1e-3, p1_grid=grid, p_grid=grid)
    assert [key for key in tab.flags if key.startswith("slopes/")] == []
    # with no strip defect h1t is the section minimum: each window closes on q = 0
    assert (tab.pi_lower["main"] <= tab.pi_upper["main"]).all()
    assert np.abs([tab.pi_lower["main"], tab.pi_upper["main"]]).max() <= 1e-12


def test_checkerboard_strip_entry_converges_past_a_plateau():
    # at this momentum the first two Richardson extrapolations agree within
    # 0.5*tol after 3 stages, on a plateau about 4e-3 from the constant -0.1;
    # the third does not, so the continuation runs on and meets relative VI
    scn = load_preset("checkerboard")
    p1, tol = -0.29445461807420503, 5e-4
    (est,) = strip_ergodic(scn.with_schedules(tol_ergodic=tol), p1, rho=1.0)
    assert est.constant == pytest.approx(-0.1, abs=tol)
    assert -est.continuation.rate == pytest.approx(-0.1, abs=tol)
    assert est.method_gap <= 2 * tol
    assert len(est.continuation.history) > 3
    assert est.converged
    # with a tighter tolerance the continuation runs on and meets VI at -0.1
    (tight,) = strip_ergodic(scn.with_schedules(tol_ergodic=1e-6), p1, rho=1.0)
    assert -tight.continuation.rate == pytest.approx(-0.1, abs=1e-5)
    assert tight.constant == pytest.approx(-0.1, abs=1e-5)
    assert tight.converged


def _estimate(gap, converged):
    """A hand-made strip estimate with the given method gap and verdict."""
    relative = ErgodicRelativeResult(
        field=None, rate=0.1, residual=0.0, rate_bounds=(0.1, 0.1), iterations=1, policy_steps=0,
        converged=converged,
    )
    continuation = ContinuationResult(rate=0.1 + gap, history=(), field=None, converged=converged, solves=())
    return ErgodicEstimate(
        truncation=1.0, delta=0.25, converged=converged, relative=relative, continuation=continuation
    )


def test_failure_cause_names_the_first_failed_check():
    tol = 5e-4
    gap = [_estimate(1e-4, True), _estimate(4.47e-3, False)]
    assert _failure_cause(gap, tol) == "method gap 4.47e-03 > 2·tol (1e-03)"
    solver = [_estimate(1e-4, True), _estimate(2e-4, False)]
    assert _failure_cause(solver, tol) == "relative VI or continuation not converged"
    walk = [_estimate(1e-4, True), _estimate(2e-4, True)]
    assert _failure_cause(walk, tol) == "truncation schedule exhausted"


def test_one_truncation_flags_the_origin_datum():
    scn = load_preset("strip_attract")
    one_R = scn.with_schedules(R_list=(1.0,))
    tab = tabulate_effective(one_R, tol=1e-4, p1_grid=[0.0])
    assert tab.flags == {"E": "truncation schedule exhausted"}
    assert len(tab.E_history) == 1 and tab.E == tab.E_history[0][1]
    # one strip width: every tangential entry is flagged, though each solve passes
    one_rho = scn.with_schedules(rho_list=scn.schedules.rho_list[:1])
    tab = tabulate_effective(one_rho, tol=1e-4, p1_grid=[0.0, 0.5])
    assert tab.flags == {f"h1t/main/{i}": "truncation schedule exhausted" for i in range(2)}
    assert tab.method_gaps["main"].max() <= 2e-4


@pytest.mark.parametrize(
    "preset, grids, name",
    [
        ("strip_attract", {"p1_grid": []}, "p1_grid"),
        ("strip_attract", {"p1_grid": [0.5, 0.0, -0.5]}, "p1_grid"),
        ("strip_attract", {"p1_grid": [0.0, 0.0]}, "p1_grid"),
        ("strip_attract", {"p1_grid": [0.0, math.nan]}, "p1_grid"),
        ("strip_attract", {"p1_grid": [-math.inf, 0.0]}, "p1_grid"),
        ("checkerboard", {"p1_grid": [0.0], "p_grid": [0.0]}, "p_grid"),
        ("checkerboard", {"p1_grid": [0.0], "p_grid": [0.5, 0.0, -0.5]}, "p_grid"),
        ("checkerboard", {"p1_grid": [0.0], "p_grid": [0.0, math.inf]}, "p_grid"),
    ],
)
def test_tables_refuse_momentum_grids_their_lookups_cannot_read(preset, grids, name, monkeypatch):
    # a decreasing p1 grid would tabulate and then misreport its window, and a
    # one-point p_grid would tabulate and then fail every hbar lookup
    from hj_strata.bellman import SLOperator

    built = []
    monkeypatch.setattr(SLOperator, "__init__", lambda self, *args: built.append(args))
    with pytest.raises(ValueError, match=f"^{name}: expected"):
        tabulate_effective(load_preset(preset), tol=1e-3, **grids)
    assert built == []


def test_unconverged_torus_cell_flags_its_hbar_entry(monkeypatch):
    from hj_strata import cell

    def torus(scn, momenta):
        return Family(_estimate(1e-4, n != 3) for n in range(len(momenta)))

    monkeypatch.setattr(cell, "torus_effective", torus)
    scn = load_preset("checkerboard")
    tab = tabulate_effective(scn, tol=1e-3, p1_grid=[0.0], p_grid=[-0.5, 0.5])
    # the slope window reads this flat table's section, which never reaches
    # the tangential level above it
    assert tab.flags == {
        "hbar/1/1": "relative VI or continuation not converged",
        "slopes/main/0": "ambient section at p1=0, lower slope: level -0.0997699 is not reached on the "
                         "left flank; window ends at row q=-0.5, value -0.1",
    }
    assert tab.hbar.tolist() == [[-0.1, -0.1], [-0.1, -0.1]]


def test_slope_failure_flags_its_entry(monkeypatch):
    from hj_strata import cell

    def slopes_failing_at_half(scn, p1, level):
        if p1 == 0.5:
            raise ValueError("no root on this flank")
        return slopes(scn, p1, level)

    monkeypatch.setattr(cell, "slopes", slopes_failing_at_half)
    tab = tabulate_effective(load_preset("strip_attract"), tol=1e-4, p1_grid=[-0.5, 0.0, 0.5])
    assert tab.flags == {"slopes/main/2": "no root on this flank"}
    assert math.isnan(tab.pi_lower["main"][2]) and math.isnan(tab.pi_upper["main"][2])
    assert np.isfinite(tab.pi_lower["main"][:2]).all()


def test_case2_slope_windows_read_the_hbar_sections():
    # each window is the section's roots at the tangential level, lifted to
    # the section's minimum over the p_grid knots (it is linear between them)
    scn = load_preset("checkerboard")
    ps = _table_momenta(scn)   # the bench's checkerboard_tables p_grid
    tab = tabulate_effective(scn, tol=5e-4, p_grid=ps)
    assert tab.flags == {}
    for i, p1 in enumerate(map(float, tab.p1_grid)):
        section = tab.hbar_at(np.column_stack([np.full_like(ps, p1), ps]))
        level = max(tab.h1t["main"][i], section.min())
        assert (tab.pi_lower["main"][i], tab.pi_upper["main"][i]) == tab.section_roots(p1, level)
    # at p1 = 0 (the background frozen at y = 0 gives +-0.9176)
    centre = len(tab.p1_grid) // 2
    assert tab.p1_grid[centre] == pytest.approx(0.0, abs=1e-12)
    assert tab.pi_lower["main"][centre] == pytest.approx(-0.6716, abs=1e-4)
    assert tab.pi_upper["main"][centre] == pytest.approx(0.6716, abs=1e-4)


def _hbar_two_index(tables, p):
    """Bilinear lookup of ``tables.hbar`` at the clipped momenta ``p`` (k, 2),
    each corner read by its 2-D index."""
    g, hbar = tables.p_grid, tables.hbar
    p1, p2 = np.clip(p[:, 0], g[0], g[-1]), np.clip(p[:, 1], g[0], g[-1])
    i = np.clip(np.searchsorted(g, p1) - 1, 0, len(g) - 2)
    j = np.clip(np.searchsorted(g, p2) - 1, 0, len(g) - 2)
    t = (p1 - g[i]) / (g[i + 1] - g[i])
    s = (p2 - g[j]) / (g[j + 1] - g[j])
    return (
        (1 - t) * (1 - s) * hbar[i, j]
        + t * (1 - s) * hbar[i + 1, j]
        + (1 - t) * s * hbar[i, j + 1]
        + t * s * hbar[i + 1, j + 1]
    )


def test_hbar_lookup_equals_the_two_index_formula_bit_for_bit():
    g = np.array([-1.0, -0.6, -0.1, 0.0, 0.35, 1.2])   # non-uniform momentum grid
    rng = np.random.default_rng(11)
    tables = EffectiveTables(
        x0=(0.0, 0.0), p1_grid=g, h1t={}, pi_lower={}, pi_upper={}, E=0.0, E_history=(),
        method_gaps={}, p_grid=g, hbar=rng.normal(size=(6, 6)), flags={},
    )
    inside = rng.uniform(-1.0, 1.2, size=(200, 2))
    nodes = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)   # exact nodes and edges
    outside = rng.uniform(-3.0, 3.0, size=(200, 2))   # mostly clipped
    for p, clip in ((inside, False), (nodes, False), (outside, True)):
        got = tables.hbar_at(p.reshape(4, -1, 2), clip=clip)
        assert got.shape == (4, len(p) // 4)
        assert got.tobytes() == _hbar_two_index(tables, p).tobytes()
    assert tables.hbar_at(nodes[7]) == tables.hbar.reshape(-1)[7]
    assert tables.hbar_at((5.0, -5.0), clip=True) == tables.hbar[-1, 0]


def test_tangential_upwind_equals_the_godunov_formula_bit_for_bit():
    # max(H(max(d-, p*)), H(min(d+, p*))) with p* the table argmin, each H
    # read by np.interp, which clamps slopes outside the window to its ends
    g = np.array([-1.0, -0.6, -0.1, 0.0, 0.35, 1.2])   # non-uniform momentum grid
    convex = {"minus": (g - 0.3) ** 2 - 0.5, "plus": np.abs(g + 0.2) + 0.1 * g}
    tables = EffectiveTables(
        x0=(0.0, 0.0), p1_grid=g, h1t=convex, pi_lower={}, pi_upper={}, E=0.0, E_history=(),
        method_gaps={}, p_grid=None, hbar=None, flags={},
    )
    rng = np.random.default_rng(5)
    d_minus, d_plus = rng.uniform(-3.0, 3.0, size=(2, 400))
    assert ((d_minus < g[0]) | (d_minus > g[-1])).any() and ((g[0] < d_plus) & (d_plus < g[-1])).any()
    for branch, vals in convex.items():
        p_star = g[int(np.argmin(vals))]
        expected = np.maximum(
            np.interp(np.maximum(d_minus, p_star), g, vals), np.interp(np.minimum(d_plus, p_star), g, vals)
        )
        assert tables.tangential_argmin(branch) == p_star
        assert tables.tangential_upwind(branch, d_minus, d_plus).tobytes() == expected.tobytes()


def test_hbar_lookup_refuses_tables_without_a_plane_table():
    g = np.linspace(-1.0, 1.0, 3)
    for p_grid, hbar in ((None, None), (g, None), (None, np.zeros((3, 3)))):
        tables = EffectiveTables(
            x0=(0.0, 0.0), p1_grid=g, h1t={}, pi_lower={}, pi_upper={}, E=0.0, E_history=(),
            method_gaps={}, p_grid=p_grid, hbar=hbar, flags={},
        )
        with pytest.raises(ValueError, match="this scenario has no periodic-background table"):
            tables.hbar_at((0.0, 0.0))


def test_effective_tables_small_batch():
    scn = load_preset("strip_attract")
    tab = tabulate_effective(scn, tol=1e-5, threads=2, p1_grid=[-0.5, 0.0, 0.5])
    assert tab.flags == {}
    assert tab.branches() == ["main"]
    # symmetric scenario: even table
    assert tab.h1t["main"][0] == pytest.approx(tab.h1t["main"][2], abs=1e-4)
    assert tab.h1t_at(0.0) == pytest.approx(-0.5, abs=1e-4)
    lo, hi = tab.pi_lower["main"][1], tab.pi_upper["main"][1]   # at p1_grid[1] = 0
    assert lo < 0 < hi
    assert tab.E == pytest.approx(-0.5, abs=1e-4)
    assert tab.midpoint_convexity_violation() <= 1e-4
    with pytest.raises(TableRangeError):
        tab.h1t_at(99.0)
    with pytest.raises(TableRangeError):
        tab.h1t_at(-99.0)
    # an asymmetric window: the error names the momentum that lies outside,
    # not the one of largest magnitude
    skew = dataclasses.replace(
        tab, p1_grid=np.array([-0.5, 0.0, 1.0]), p_grid=np.array([-0.5, 0.0, 1.0]), hbar=np.zeros((3, 3))
    )
    with pytest.raises(TableRangeError, match="momentum -0.6 outside"):
        skew.h1t_at([-0.6, 0.9])
    with pytest.raises(TableRangeError, match="momentum -0.6 outside"):
        skew.hbar_at([[-0.6, 0.0], [0.9, 0.0]])
    with pytest.raises(TableRangeError, match="momentum -0.6 outside"):
        skew.hbar_at([0.9, -0.6])


def _tables(h1t, hbar=None):
    """Hand-made tables: ``h1t`` on an even p1 grid, ``hbar`` on an even p grid."""
    h1t = np.asarray(h1t, dtype=float)
    p1_grid = np.linspace(-1.0, 1.0, len(h1t))
    zeros = np.zeros_like(h1t)
    return EffectiveTables(
        x0=(0.0, 0.0), p1_grid=p1_grid, h1t={"main": h1t}, pi_lower={"main": zeros},
        pi_upper={"main": zeros}, E=0.0, E_history=(), method_gaps={"main": zeros},
        p_grid=None if hbar is None else np.linspace(-1.0, 1.0, len(hbar)),
        hbar=None if hbar is None else np.asarray(hbar, dtype=float), flags={},
    )


@pytest.mark.parametrize("lookup, p", [("h1t_at", math.nan), ("hbar_at", (0.0, math.nan))])
def test_strict_lookups_refuse_a_nan_momentum(lookup, p):
    tables = _tables([1.0, 0.0, 1.0], hbar=np.zeros((3, 3)))
    with pytest.raises(TableRangeError, match=r"^momentum nan outside the tabulated window \[-1, 1\]$"):
        getattr(tables, lookup)(p)


def test_midpoint_convexity_of_a_two_point_p1_table_is_zero():
    assert _tables([1.0, -3.0]).midpoint_convexity_violation() == 0.0
    # the axes that have a midpoint are still read
    assert _tables([1.0, -3.0], hbar=[[0.0, 0.0, 0.0], [1.0, 2.0, 1.0]]).midpoint_convexity_violation() == 1.0


def test_midpoint_convexity_of_a_two_point_p_table_is_zero():
    assert _tables([1.0, 0.0, 1.0], hbar=[[0.0, 5.0], [-2.0, 1.0]]).midpoint_convexity_violation() == 0.0
    assert _tables([0.0, 0.5, 0.0], hbar=[[0.0, 5.0], [-2.0, 1.0]]).midpoint_convexity_violation() == 0.5


def test_hand_made_tables_round_trip_through_json_field_by_field():
    base = _tables([1.0, -0.25, 0.5], hbar=[[0.1, 0.2, 0.3], [0.4, -0.5, 0.6], [0.7, 0.8, 0.9]])
    tab = dataclasses.replace(
        base,
        h1t={"minus": base.h1t["main"], "plus": np.array([0.5, -1 / 3, 1.0])},
        pi_lower={"minus": np.array([-1.0, -0.5, -0.25]), "plus": np.array([-2.0, -1.5, -0.1])},
        pi_upper={"minus": np.array([1.0, 0.5, 0.25]), "plus": np.array([2.0, 1.5, 0.1])},
        E=-0.123456789,
        E_history=((2.0, -0.1), (4.0, -0.12)),
        method_gaps={"minus": np.array([1e-5, 2e-5, 3e-5]), "plus": np.array([0.0, 1e-7, 4e-6])},
        flags={"h1t/plus/1": "solver not converged", "hbar/0/2": "torus solve not converged"},
        provenance={"scenario_hash": "abc123", "tol": 5e-4},
    )
    back = EffectiveTables.from_json_dict(json.loads(json.dumps(tab.to_json_dict())))

    def same(a, b):
        if isinstance(a, np.ndarray):
            return isinstance(b, np.ndarray) and a.shape == b.shape and np.array_equal(a, b)
        if isinstance(a, dict):
            return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
        return a == b and type(a) is type(b)

    for f in dataclasses.fields(EffectiveTables):
        assert same(getattr(tab, f.name), getattr(back, f.name)), f.name


def test_effective_tables_json_round_trip():
    scn = load_preset("strip_attract")
    tab = tabulate_effective(scn, tol=3e-5, threads=2, p1_grid=[-0.4, 0.0, 0.4])
    blob = json.dumps(tab.to_json_dict())
    back = EffectiveTables.from_json_dict(json.loads(blob))
    assert np.array_equal(back.p1_grid, tab.p1_grid)
    assert np.array_equal(back.h1t["main"], tab.h1t["main"])
    assert back.E == tab.E
    assert back.provenance["scenario_hash"] == tab.provenance["scenario_hash"]


def test_case3_tables_have_two_branches():
    scn = load_preset("case3_mirror")
    tab = tabulate_effective(scn, tol=1e-4, threads=2, p1_grid=[0.0])
    assert tab.branches() == ["minus", "plus"]
    # mirror-symmetric preset: the two branch tables coincide
    assert tab.h1t["plus"][0] == pytest.approx(tab.h1t["minus"][0], abs=1e-6)


def _same_estimates(family, lone):
    """Estimates equal field by field, the records' fields and policies bit for bit."""
    assert len(family) == len(lone)
    for a, b in zip(family, lone):
        assert a.corrector.values.tobytes() == b.corrector.values.tobytes()
        assert a.continuation.field.values.tobytes() == b.continuation.field.values.tobytes()
        assert [i.policy.tobytes() for i in a.continuation.solves] == [
            i.policy.tobytes() for i in b.continuation.solves
        ]
        assert _without_fields(a) == _without_fields(b)


def _without_fields(est):
    """``est`` with the value fields of its records dropped, for ``==``."""
    return dataclasses.replace(
        est,
        relative=dataclasses.replace(est.relative, field=None),
        continuation=dataclasses.replace(est.continuation, field=None),
    )


def test_strip_family_walk_equals_lone_walks_bit_for_bit():
    # a slow, cheap lane at |y2| >= 2 beats the line when |p1| is small: those
    # momenta read new constants at rho = 2 and walk on to rho = 4, while the
    # line wins at |p1| = 1 and those stop at rho = 2
    scn = parse_scenario(
        {
            "case": "case1",
            "alpha": 1.0,
            "R0": 0.5,
            "controls": {"directions": 8, "speed": 1.0, "include_zero": True},
            "background": {"drift": ["{a1}", "{a2}"], "cost": "1"},
            "strip_defect": {
                "period": 1.0,
                "drift": ["{a1}*(1 - 0.9*smoothstep(1.25, 2, abs(y2)))", "{a2}"],
                "cost": "1 - 0.5*smoothstep(0.5, 0.25, abs(y2)) - 0.8*smoothstep(1.25, 2, abs(y2))",
            },
            "schedules": {"cell_h": 0.125},
        },
        label="far_lane",
    ).with_schedules(tol_ergodic=1e-3)
    p1s = np.array([-1.0, 0.0, 0.25, 1.0])
    family = tangential_hamiltonian(scn, p1s)
    assert [len(r.estimates) for r in family] == [2, 3, 3, 2]
    assert len(family.estimates) == 10
    for result, p1 in zip(family, p1s):
        single = tangential_hamiltonian(scn, float(p1))
        assert isinstance(single, Family) and len(single) == 1
        (alone,) = single
        assert (result.value, result.converged) == (alone.value, alone.converged)
        _same_estimates(result.estimates, alone.estimates)
    assert [r.converged for r in family] == [True, True, False, True]


def _continuation(scn, op, start=None):
    return ergodic_continuation(op, tol=scn.schedules.tol_ergodic, start=start)


def test_delta_h_ball_runs_relative_vi_first():
    # at delta = h cold relative VI gives the corrector, and the continuation
    # starts from its field and rate (their Laurent point): the first stage takes
    # 4 Howard iterations against 15 from zero (4 against 29 on the
    # benchmark's corrector ball at h = 1/32, R = 2.5)
    scn = load_preset("strip_attract").with_schedules(cell_h=1 / 16, sl_step=1 / 16, tol_ergodic=5e-4)
    (est,) = ball_ergodic(scn, 1.5)
    op = ball_operator(scn, 1.5)
    (vi,) = solve_ergodic_relative(op, tol=5e-4)
    assert est.corrector.values.tobytes() == vi.field.values.tobytes()
    assert est.constant == -vi.rate
    assert (est.relative.iterations, est.relative.residual) == (vi.iterations, vi.residual)
    (warm,) = _continuation(scn, op, (vi.field.flat()[None], [vi.rate]))
    (cold,) = _continuation(scn, op)
    assert (est.continuation.rate, est.continuation.history) == (warm.rate, warm.history)
    assert (warm.solves[0].iterations, cold.solves[0].iterations) == (4, 15)
    assert warm.stages == cold.stages == 4


def test_sqrt_h_strips_run_the_continuation_first():
    # at delta = sqrt(h) the continuation runs first, cold at a walk's first
    # truncation, and relative VI starts from its last discounted fields
    scn = load_preset("strip_attract").with_schedules(tol_ergodic=5e-4)
    p1s = np.array([-0.5, 0.25])
    estimates = strip_ergodic(scn, p1s, rho=1.0)
    op = strip_operator(scn, p1s, rho=1.0)
    conts = _continuation(scn, op)
    vis = solve_ergodic_relative(op, tol=5e-4, u0=np.stack([c.field.flat() for c in conts]))
    assert [e.relative.iterations for e in estimates] == [vi.iterations for vi in vis]
    assert [e.constant for e in estimates] == [-vi.rate for vi in vis]
    assert [e.continuation.history for e in estimates] == [c.history for c in conts]
    for e, vi in zip(estimates, vis):
        assert e.corrector.values.tobytes() == vi.field.values.tobytes()


def test_truncation_walk_starts_each_rho_from_the_last(monkeypatch):
    # the first rho starts cold, as a lone strip_ergodic call does; the second
    # starts from each momentum's corrector at the first, which saves Howard
    # iterations and keeps the constants of a cold solve within tol
    from hj_strata import cell

    scn = load_preset("strip_attract").with_schedules(tol_ergodic=5e-4)
    rho1, rho2 = scn.schedules.rho_list[:2]
    p1s = np.array([-0.5, 0.0, 0.25])
    howard, first_stage = [], []
    continuation = cell.ergodic_continuation

    def counted(*args, **kwargs):
        results = continuation(*args, **kwargs)
        howard.append(sum(info.iterations for r in results for info in r.solves))
        first_stage.append([r.solves[0].iterations for r in results])
        return results

    monkeypatch.setattr(cell, "ergodic_continuation", counted)
    walk = tangential_hamiltonian(scn, p1s)
    walked = howard[1]
    # the first stage at the second rho starts from each momentum's
    # first-stage policy at the first: 8-9 applications a cell from the
    # corrector alone
    assert first_stage[1] == [4, 1, 1]
    _same_estimates([r.estimates[0] for r in walk], strip_ergodic(scn, p1s, rho=rho1))
    howard.clear()
    cold = strip_ergodic(scn, p1s, rho=rho2)
    assert walked < howard[0]
    for r, c in zip(walk, cold):
        warm = r.estimates[1]
        assert warm.truncation == c.truncation == rho2 and warm.converged and c.converged
        assert warm.constant == pytest.approx(c.constant, abs=5e-4)
        assert warm.continuation.rate == pytest.approx(c.continuation.rate, abs=5e-4)


# A cheap lane along the strip's edges at |y2| >= 1, and beyond it a drift
# that pushes outward: on the rho = 1 strip the lane's optimal controls run
# along the edge, and read on the outer rows of the rho = 2 strip they leave it.
_OUTWARD_PUSH = {
    "case": "case1",
    "alpha": 1.0,
    "R0": 0.5,
    "controls": {"directions": 8, "speed": 1.0, "include_zero": True},
    "background": {"drift": ["{a1}", "{a2}"], "cost": "1"},
    "strip_defect": {
        "period": 1.0,
        "drift": ["{a1}", "{a2} + 0.6*smoothstep(1, 2, y2) - 0.6*smoothstep(-1, -2, y2)"],
        "cost": "1 - 0.8*smoothstep(0.75, 1, abs(y2))",
    },
    "schedules": {"cell_h": 0.125, "rho_list": [1.0, 2.0], "R_list": [1.0, 2.0]},
}


@pytest.mark.parametrize("kind", ["strip", "box"])
def test_first_stage_policy_read_on_a_larger_grid(kind):
    # each node takes the control of the nearest node of the smaller grid;
    # every read control is admissible, and only on the new outer rows may
    # the cell's cheapest admissible control replace one that is not
    from hj_strata import cell

    scn = parse_scenario(_OUTWARD_PUSH, label="outward_push").with_schedules(tol_ergodic=1e-3)
    p1s = np.array([-0.5, 0.25])
    if kind == "strip":
        old, op = strip_ergodic(scn, p1s, rho=1.0), strip_operator(scn, p1s, rho=2.0)
    else:
        old, op = ball_ergodic(scn, 1.0), ball_operator(scn, 2.0)
    grid = old[0].corrector.grid
    policies = np.stack([e.continuation.policy for e in old])
    read = cell._read_policy(op, grid, policies)
    nodes = op.grid.nodes()
    raw = policies[:, grid.index_of(nodes)]
    outer = np.max(np.abs(nodes[:, 1:] if kind == "strip" else nodes), axis=1) > 1.0 + 1e-9
    every = np.arange(op.grid.size)
    for c in range(op.cells):
        assert np.all(np.isfinite(op.base[read[c], every, c]))
        moved = read[c] != raw[c]
        assert not moved[~outer].any()
        assert np.array_equal(read[c, moved], np.argmin(op.base[:, moved, c], axis=0))
        if kind == "strip":  # the lane's edge controls leave the taller strip
            assert moved.any() and not np.all(np.isfinite(op.base[raw[c], every, c]))
    if kind == "strip":  # and the walk's second strip starts from the read policy
        walk = tangential_hamiltonian(scn, p1s)
        assert all(len(r.estimates) == 2 and all(e.converged for e in r.estimates) for r in walk)


def test_policy_read_wraps_the_periodic_axis():
    # a policy on a strip of period 1 read on one of period 2: the second
    # period repeats the first
    from hj_strata import cell
    from hj_strata.bellman import SLOperator
    from hj_strata.grids import GridSpec

    h = 0.125
    small, large = GridSpec.strip(1.0, 1.0, h), GridSpec.strip(2.0, 1.0, h)
    a = np.asarray(load_preset("eikonal").controls)
    drift = np.broadcast_to(a[:, None, :], (len(a), large.size, 2))
    op = SLOperator(large, drift, np.ones((len(a), large.size)), math.sqrt(h))
    policies = np.random.default_rng(5).integers(0, len(a), size=(1, small.size))
    read = cell._read_policy(op, small, policies).reshape(large.n1, large.n2)
    assert np.array_equal(read[small.n1:], read[:small.n1])


def test_torus_family_equals_lone_cells_bit_for_bit():
    scn = load_preset("checkerboard").with_schedules(tol_ergodic=1e-4)
    momenta = np.array([[0.0, 0.0], [0.8, -0.4], [-1.2, 0.6]])
    family = torus_effective(scn, momenta)
    singles = [torus_effective(scn, tuple(p)) for p in momenta]
    assert all(isinstance(single, tuple) and len(single) == 1 for single in singles)
    _same_estimates(family, [est for (est,) in singles])


def test_tables_do_not_depend_on_the_pool_width():
    scn = load_preset("checkerboard")
    # p_grid brackets every slope window, so no entry is NaN (NaN != NaN)
    grids = dict(p1_grid=[-0.8, 0.0, 0.5], p_grid=[-1.0, 0.0, 1.0])
    one = tabulate_effective(scn, tol=1e-3, threads=1, **grids)
    three = tabulate_effective(scn, tol=1e-3, threads=3, **grids)
    assert one.flags == {}
    assert one.to_json_dict() == three.to_json_dict()


@pytest.mark.parametrize("threads", [0, -3, True, 1.5, "2"])
def test_tables_refuse_a_pool_width_that_is_not_a_positive_integer(threads):
    # refused before any solve, where max(1, threads) once ran one worker
    with pytest.raises(ValueError, match=f"^threads must be a positive integer, got {threads!r}$"):
        tabulate_effective(load_preset("eikonal"), threads=threads)
