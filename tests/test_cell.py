import dataclasses
import json
import math

import numpy as np
import pytest

from hj_strata.cell import (
    EffectiveTables,
    TableRangeError,
    background_min_over_q,
    ball_ergodic,
    dirichlet_datum,
    slopes,
    strip_ergodic,
    tabulate_effective,
    tangential_hamiltonian,
    torus_effective,
    verify_corrector_slopes,
)
from hj_strata.hamiltonian import estimate_bounds, eval_H, eval_H_envelopes
from hj_strata.scenario import load_preset, parse_scenario, preset_names

COS16 = math.cos(math.pi / 16)


def test_strip_no_defect_lambda_is_exact():
    """lambda(p1) = -(1 - |p1| cos(pi/16)) on the translation-invariant strip."""
    scn = load_preset("eikonal")
    for p1 in (0.0, 0.5, -0.75):
        est = strip_ergodic(scn, p1, rho=1.0, tol=1e-9)
        assert est.converged
        assert est.constant == pytest.approx(-(1.0 - abs(p1) * COS16), abs=1e-8)
        assert est.method_gap <= 2e-9


def test_strip_constant_monotone_in_truncation():
    # enlarging the strip can only help the optimizer: lambda_rho nondecreasing
    scn = load_preset("strip_attract")
    consts = [strip_ergodic(scn, 0.25, rho=r, tol=1e-6).constant for r in (1.0, 2.0, 4.0)]
    for a, b in zip(consts, consts[1:]):
        assert b >= a - 1e-6


def test_tangential_attractive_strip_oracle():
    # the dip floor 0.5 is reachable and sittable: H1T(0) = -0.5
    scn = load_preset("strip_attract")
    res = tangential_hamiltonian(scn, 0.0, tol=1e-6)
    assert res.converged
    assert res.value == pytest.approx(-0.5, abs=1e-5)


def test_ball_flat_bottom_oracle():
    # cost_bump: flat-bottom node with cost 0.5, zero control admissible
    scn = load_preset("cost_bump")
    est = ball_ergodic(scn, 1.0, tol=1e-7)
    assert est.converged
    assert est.constant == pytest.approx(-0.5, abs=1e-6)


def test_ball_repulsive_core_oracle():
    # core_repulse: cheapest reachable cost is the background 1 => E = -1
    scn = load_preset("core_repulse")
    est = ball_ergodic(scn, 1.0, tol=1e-7)
    assert est.converged
    assert est.constant == pytest.approx(-1.0, abs=1e-6)


def test_dirichlet_datum_walks_truncations():
    scn = load_preset("cost_bump")
    res = dirichlet_datum(scn, R_list=(1.0, 2.0), tol=1e-6)
    assert res.converged
    assert res.E == pytest.approx(-0.5, abs=1e-5)
    assert len(res.estimates) == 2
    assert res.corrector.anchor_value() == 0.0


def test_torus_effective_checkerboard_oracle():
    # cost 1 + 0.4 sin(2pi y1) sin(2pi y2) has a sittable grid minimum of 0.6
    scn = load_preset("checkerboard")
    est = torus_effective(scn, (0.0, 0.0), tol=1e-7)
    assert est.converged
    assert est.constant == pytest.approx(-0.6, abs=1e-6)


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


@pytest.mark.parametrize("name", preset_names())
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


@pytest.mark.parametrize("name", preset_names())
def test_background_floor_is_attained(name):
    """H(p1, .) attains the closed-form floor at pi_lower(floor) and stays above it."""
    scn = load_preset(name)
    y = (4.0, 4.0)  # a background point; periodic backgrounds repeat the origin here
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


def test_envelope_algebra_rejects_a_y_dependent_case2_drift():
    scn = parse_scenario(
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
    with pytest.raises(ValueError, match="periodic in y"):
        slopes(scn, 0.0, 0.0)
    with pytest.raises(ValueError, match="periodic in y"):
        background_min_over_q(scn, 0.0)


def test_checkerboard_strip_gap_is_the_continuation_stopping_early():
    # at this momentum the continuation stops after 3 stages on two Richardson
    # extrapolations that agree within 0.5*tol about 4e-3 from the constant;
    # relative VI, warm-started from its field, still reads the constant -0.1
    # within tol, and the entry stays flagged
    scn = load_preset("checkerboard")
    p1, tol = -0.29445461807420503, 5e-4
    est = strip_ergodic(scn, p1, rho=1.0, tol=tol)
    assert est.constant == pytest.approx(-0.1, abs=tol)
    assert est.method_gap > 2 * tol
    assert len(est.lambda_history) == 3
    assert not est.converged
    # with a tighter tolerance the continuation runs on and meets VI at -0.1
    tight = strip_ergodic(scn, p1, rho=1.0, tol=1e-6)
    assert tight.continuation_constant == pytest.approx(-0.1, abs=1e-5)
    assert tight.constant == pytest.approx(-0.1, abs=1e-5)
    assert tight.converged


def test_verify_corrector_slopes_attractive():
    scn = load_preset("strip_attract")
    est = strip_ergodic(scn, 0.0, rho=4.0, tol=1e-7)
    check = verify_corrector_slopes(scn, est, level=-0.5)
    assert check.passed, check.detail


def test_verify_corrector_slopes_fails_off_the_level():
    # the corrector grows at the level-(-0.5) slopes, about +-0.51, while the
    # window at level -0.3 is about +-0.71: the check is binding and fails
    scn = load_preset("strip_attract")
    est = strip_ergodic(scn, 0.0, rho=4.0, tol=1e-7)
    check = verify_corrector_slopes(scn, est, level=-0.3)
    assert check.active
    assert not check.passed, check.detail
    assert check.target_upper - check.fit_upper > 0.05
    assert check.fit_lower - check.target_lower > 0.05


def test_effective_tables_small_batch():
    scn = load_preset("strip_attract")
    tab = tabulate_effective(scn, tol=1e-5, threads=2, p1_grid=[-0.5, 0.0, 0.5])
    assert tab.flags == {}
    assert tab.branches() == ["main"]
    # symmetric scenario: even table
    assert tab.h1t["main"][0] == pytest.approx(tab.h1t["main"][2], abs=1e-4)
    assert tab.h1t_at(0.0) == pytest.approx(-0.5, abs=1e-4)
    lo, hi = tab.slopes_at(0.0)
    assert lo < 0 < hi
    assert tab.E == pytest.approx(-0.5, abs=1e-4)
    assert tab.midpoint_convexity_violation() <= 1e-4
    with pytest.raises(TableRangeError):
        tab.h1t_at(99.0)
    with pytest.raises(TableRangeError):
        tab.slopes_at(-99.0)
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


def test_effective_tables_json_round_trip():
    scn = load_preset("strip_attract")
    tab = tabulate_effective(scn, tol=3e-5, threads=2, p1_grid=[-0.4, 0.0, 0.4])
    blob = json.dumps(tab.to_json_dict())
    back = EffectiveTables.from_json_dict(json.loads(blob))
    assert np.array_equal(back.p1_grid, tab.p1_grid)
    assert np.array_equal(back.h1t["main"], tab.h1t["main"])
    assert back.E == tab.E
    assert back.provenance["scenario_hash"] == tab.provenance["scenario_hash"]


def test_effective_tables_csv(tmp_path):
    scn = load_preset("strip_attract")
    tab = tabulate_effective(scn, tol=3e-5, p1_grid=[0.0])
    p = tmp_path / "tables.csv"
    tab.to_csv(p)
    text = p.read_text()
    assert text.startswith("# hj-strata effective tables")
    assert "block,branch,p1,value,pi_lower,pi_upper" in text
    assert "h1t,main," in text


def test_case3_tables_have_two_branches():
    scn = load_preset("case3_mirror")
    tab = tabulate_effective(scn, tol=1e-4, threads=2, p1_grid=[0.0])
    assert tab.branches() == ["minus", "plus"]
    # mirror-symmetric preset: the two branch tables coincide
    assert tab.h1t["plus"][0] == pytest.approx(tab.h1t["minus"][0], abs=1e-6)
