import math

import numpy as np
import pytest

from hj_strata.cell import background_min_over_q, slopes
from hj_strata.hamiltonian import (
    estimate_bounds,
    eval_H,
    eval_H_envelopes,
    eval_fields,
    hull_inradius,
    validate_assumptions,
)
from hj_strata.scenario import load_preset, parse_scenario, preset_names

X0 = np.zeros(2)


def _random_cloud(rng, n=400, scale=2.0):
    return rng.uniform(-scale, scale, size=(n, 2))


@pytest.mark.parametrize("name", preset_names())
def test_regions_partition_the_plane(name):
    """Every fast point lies in exactly one region: a branch's closed
    half-strip, the rest of the core disc, or the background."""
    scn = load_preset(name)
    rng = np.random.default_rng(0)
    R0, R1 = scn.R0, scn.R1
    grid = np.arange(-3.0, 3.0 + 1e-9, R0 / 4)
    pts = np.vstack([_random_cloud(rng), np.array(np.meshgrid(grid, grid)).reshape(2, -1).T])
    y1, y2 = pts[:, 0], pts[:, 1]
    masks = scn.regions(y1, y2)
    assert list(masks) == [*scn.branches, "core", "background"]
    assert np.all(sum(m.astype(int) for m in masks.values()) == 1)
    start = R0 if scn.case == "case3" else 0.0
    for branch, side in scn.branches.items():
        assert np.array_equal(masks[branch], (side * y1 >= start) & (np.abs(y2) <= R0))
    core = masks["core"]
    assert np.all(np.hypot(y1[core], y2[core]) <= R1 + 1e-12)
    assert np.all(np.hypot(y1[masks["background"]], y2[masks["background"]]) > R0)
    if scn.case != "case3":
        assert np.all(y1[core] > 0)


@pytest.mark.parametrize(
    "name, point, region",
    [
        ("strip_attract", (-1.0, 0.9), "background"),
        ("strip_attract", (0.3, 0.2), "core"),
        ("strip_attract", (-0.3, 0.2), "main"),
        ("case3_mirror", (0.6, 0.1), "plus"),
        ("case3_mirror", (-0.6, -0.1), "minus"),
        ("case3_mirror", (0.2, 0.6), "core"),
        ("case3_mirror", (0.6, 0.6), "background"),
    ],
)
def test_region_of_fixed_points_and_its_fields(name, point, region):
    scn = load_preset(name)
    masks = scn.regions(np.array([point[0]]), np.array([point[1]]))
    assert [r for r, m in masks.items() if m[0]] == [region]
    drift, cost = eval_fields(scn, X0, np.array(point))
    block = scn.block(region)
    assert np.array_equal(drift, block.eval_drift(0.0, 0.0, *point))
    assert np.array_equal(cost, block.eval_cost(0.0, 0.0, *point))


@pytest.mark.parametrize("name", preset_names())
def test_strips_equal_the_background_beside_the_band(name):
    """On its side of the origin and beside its band (``|y2| > R0``) every
    strip block equals the background bitwise, so dispatching those points
    to the background changes no number."""
    scn = load_preset(name)
    ys = np.arange(0.0, 4.0 + 1e-12, 1.0 / 32.0)
    y1, y2 = (a.ravel() for a in np.meshgrid(ys, np.concatenate([-ys, ys])))
    y1, y2 = y1[np.abs(y2) > scn.R0], y2[np.abs(y2) > scn.R0]
    x = np.zeros_like(y1)
    bg = scn.background
    for branch in scn.strips:
        y1_side = scn.branches[branch] * y1
        strip = scn.block(branch)
        assert np.array_equal(strip.eval_drift(x, x, y1_side, y2), bg.eval_drift(x, x, y1_side, y2)), branch
        assert np.array_equal(strip.eval_cost(x, x, y1_side, y2), bg.eval_cost(x, x, y1_side, y2)), branch


def test_undeclared_defects_fall_back_to_the_background():
    scn = load_preset("eikonal")
    assert scn.block("main") is scn.background
    assert scn.block("core") is scn.background


def test_eval_fields_dispatches_blocks():
    scn = load_preset("strip_attract")
    # on the strip axis the attractive dip halves the cost
    _, cost_strip = eval_fields(scn, X0, np.array([-1.0, 0.0]))
    _, cost_bg = eval_fields(scn, X0, np.array([-1.0, 1.5]))
    assert cost_strip.min() == pytest.approx(0.5)
    assert cost_bg.min() == pytest.approx(1.0)
    drift, cost = eval_fields(scn, X0, np.array([3.0, 3.0]))
    assert drift.shape == (len(scn.controls), 2)
    assert cost.shape == (len(scn.controls),)


def test_eval_H_is_control_max():
    rng = np.random.default_rng(3)
    scn = load_preset("drift_defect")
    for _ in range(40):
        y = rng.uniform(-1.5, 1.5, 2)
        p = rng.uniform(-2, 2, 2)
        s = eval_H(scn, X0, y, p)
        drift, cost = eval_fields(scn, X0, y)
        brute = np.max(-(drift @ p) - cost)
        assert s.value == pytest.approx(brute, abs=0)
        assert s.value >= s.h_down and s.value >= s.h_up


def test_envelope_max_identity_is_exact():
    """max(h_down, h_up) equals H bit-for-bit: the split covers the control set."""
    rng = np.random.default_rng(4)
    for name in ("eikonal", "strip_attract", "core_repulse"):
        scn = load_preset(name)
        for _ in range(200):
            p = rng.uniform(-3, 3, 2)
            h_down, h_up = eval_H_envelopes(scn, X0, p)
            s = eval_H(scn, X0, rng.uniform(2.0, 3.0, 2), p)  # background point
            assert max(h_down, h_up) == s.value


def test_envelopes_count_a_rounding_level_vertical_drift_as_flat():
    # 5 directions: the control along -e1 has f2 = sin(pi) ~ 1e-16, a flat line
    # that both envelopes keep, so each bottoms out at the background floor
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
    p1 = 0.5
    floor = background_min_over_q(scn, p1)
    assert floor == pytest.approx(-0.5, abs=1e-12)
    qs = np.linspace(-50.0, 50.0, 201)
    h_down, h_up = np.array([eval_H_envelopes(scn, X0, (p1, q)) for q in qs]).T
    assert h_down.min() == pytest.approx(floor, abs=1e-12)
    assert h_up.min() == pytest.approx(floor, abs=1e-12)
    samples = [eval_H(scn, X0, np.array([2.0, 2.0]), (p1, q)) for q in qs]
    assert min(s.h_down for s in samples) == pytest.approx(floor, abs=1e-12)
    assert min(s.h_up for s in samples) == pytest.approx(floor, abs=1e-12)


@pytest.mark.parametrize(
    "controls, empty",
    [
        ([[1.0, 0.5], [-1.0, 0.5], [0.0, 1.0]], "f2 <= 0"),
        ([[1.0, -0.5], [-1.0, -0.5], [0.0, -1.0]], "f2 >= 0"),
    ],
    ids=["all-rising", "all-falling"],
)
def test_envelopes_refuse_controls_that_all_rise_or_all_fall(controls, empty):
    scn = parse_scenario(
        {"case": "case1", "alpha": 1.0, "R0": 0.5, "controls": controls,
         "background": {"drift": ["{a1}", "{a2}"], "cost": "1"}},
        label="t",
    )
    with pytest.raises(ValueError, match=f"envelope split is empty: no background control with {empty}"):
        eval_H_envelopes(scn, X0, (0.3, 0.0))
    # the envelope algebra of the tables needs lines of both slopes too
    with pytest.raises(ValueError, match="envelope is flat in q"):
        background_min_over_q(scn, 0.3)
    with pytest.raises(ValueError, match="envelope is flat in q"):
        slopes(scn, 0.3, 1.0)


def test_eval_H_64_direction_oracle():
    # background eikonal with 64 directions: H((2,0)) = 2 cos(pi/64) - 1
    scn = parse_scenario(
        {
            "case": "case1",
            "alpha": 1.0,
            "R0": 0.5,
            "controls": {"directions": 64, "speed": 1.0, "include_zero": True},
            "background": {"drift": ["{a1}", "{a2}"], "cost": "1"},
        },
        label="t",
    )
    s = eval_H(scn, X0, np.array([2.0, 2.0]), np.array([2.0, 0.0]))
    assert s.value == pytest.approx(2 * math.cos(math.pi / 64) - 1, abs=1e-14)


def test_coercivity_lower_bound():
    scn = load_preset("eikonal")
    r_f = math.cos(math.pi / 16)
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = rng.uniform(-4, 4, 2)
        y = rng.uniform(-2, 2, 2)
        s = eval_H(scn, X0, y, p)
        assert s.value >= r_f * np.hypot(*p) - 1.0 - 1e-12


def test_hull_inradius():
    sq = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    assert hull_inradius(sq) == pytest.approx(1.0)
    assert hull_inradius(sq + 5.0) < 0  # origin outside
    assert hull_inradius(np.array([[1.0, 0.0], [2.0, 0.0]])) == 0.0
    # collinear cloud degenerates
    line = np.column_stack([np.linspace(-1, 1, 9), np.zeros(9)])
    assert hull_inradius(line) == 0.0


def test_hull_inradius_of_the_sixteen_directions_is_cos_pi_over_16():
    # 16 unit directions at odd multiples of pi/16, plus the zero control
    controls = np.asarray(load_preset("eikonal").controls)
    assert len(controls) == 17
    r = math.cos(math.pi / 16)
    assert abs(hull_inradius(controls) - r) <= 2 * np.spacing(r)
    assert abs(hull_inradius(controls[::-1]) - r) <= 2 * np.spacing(r)


@pytest.mark.parametrize("points", [
    [],
    [[0.5, 0.5]],
    [[1.0, 0.0], [-1.0, 0.0]],
    [[1.0, 1.0]] * 5,
    [[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]],   # duplicates on a line
    [[-1.0, -1.0], [0.0, 0.0], [2.0, 2.0], [0.5, 0.5], [-1.0, -1.0]],
    [[0.0, -3.0], [0.0, 1.0], [0.0, 2.0]],                 # a vertical line
])
def test_hull_inradius_of_a_degenerate_set_is_zero(points):
    assert hull_inradius(np.array(points, dtype=float).reshape(-1, 2)) == 0.0


def test_hull_inradius_ignores_duplicates_and_edge_points():
    sq = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
    extra = np.array([[0.0, 1.0], [1.0, 0.25], [0.0, 0.0], [-1.0, -1.0], [1.0, 1.0]])
    assert hull_inradius(np.vstack([sq, extra, sq])) == 1.0


def test_hull_inradius_outside_the_hull_is_the_signed_facet_distance():
    # the square [4, 6]^2: the facets x = 4 and y = 4 face away from the origin
    sq = np.array([[4.0, 4.0], [6.0, 4.0], [6.0, 6.0], [4.0, 6.0]])
    assert hull_inradius(sq) == -4.0
    assert hull_inradius(sq - [5.0, 0.0]) == -4.0   # x in [-1, 1]: the facet y = 4


def test_hull_inradius_matches_qhull_on_random_sets():
    from scipy.spatial import ConvexHull, QhullError

    rng = np.random.default_rng(7)
    for k in range(2000):
        pts = rng.uniform(-1.0, 1.0, size=(int(rng.integers(3, 34)), 2)) + rng.uniform(-0.5, 0.5, 2)
        if k % 3 == 0:   # on a lattice: duplicates, collinear runs, the origin on an edge
            pts = np.round(4.0 * pts) / 4.0
        try:
            expected = float(np.min(-ConvexHull(pts).equations[:, -1]))
        except QhullError:
            expected = 0.0
        assert hull_inradius(pts) == pytest.approx(expected, abs=1e-12), pts


# The bounds (M_f, M_l, r_f, L_f, p_window) at (samples, seed) = (200, 0), as
# the tables and the stratified scheme size their windows, and at (400, 23);
# the (200, 0) p_window is the value the Qhull hull gave
_BOUNDS = {
    "case3_mirror": {
        (200, 0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.f6297cff75cafp-1",
                   "0x1.7ef0ce7179af8p+1", "0x1.0281f68be5d2ap+1"),
        (400, 23): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.f6297cff75cafp-1",
                    "0x1.7fc209a06132cp+1", "0x1.0281f68be5d2ap+1"),
    },
    "checkerboard": {
        (200, 0): ("0x1.0000000000000p+0", "0x1.665b9d9846a04p+0", "0x1.f6297cff75cafp-1",
                   "0x1.3338a8d1daccdp+2", "0x1.69de421dbfcecp+1"),
        (400, 23): ("0x1.0000000000000p+0", "0x1.65e88ccd95968p+0", "0x1.f6297cff75cafp-1",
                    "0x1.3295826f39642p+2", "0x1.696a10c7323b9p+1"),
    },
    "core_repulse": {
        (200, 0): ("0x1.0000000000000p+0", "0x1.8000000000000p+0", "0x1.f6297cff75cafp-1",
                   "0x1.3ff94fe8f45acp+2", "0x1.83c2f1d1d8bbfp+1"),
        (400, 23): ("0x1.0000000000000p+0", "0x1.8000000000000p+0", "0x1.f6297cff75cafp-1",
                    "0x1.3c87629b65014p+2", "0x1.83c2f1d1d8bbfp+1"),
    },
    "cost_bump": {
        (200, 0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.f6297cff75cafp-1",
                   "0x1.3ff94fe8f4a8ep+2", "0x1.0281f68be5d2ap+1"),
        (400, 23): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.f6297cff75cafp-1",
                    "0x1.3c87629b65014p+2", "0x1.0281f68be5d2ap+1"),
    },
    "drift_defect": {
        (200, 0): ("0x1.97c04f98b3b6dp+0", "0x1.0000000000000p+0", "0x1.85ec9398852fap-2",
                   "0x1.7ef0b1105a94cp+1", "0x1.d025bf1c37400p+1"),
        (400, 23): ("0x1.97c04f98b3b6dp+0", "0x1.0000000000000p+0", "0x1.85ec9398852fap-2",
                    "0x1.7fd5794d452f0p+1", "0x1.d025bf1c37400p+1"),
    },
    "eikonal": {
        (200, 0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.f6297cff75cafp-1",
                   "0x0.0p+0", "0x1.0281f68be5d2ap+1"),
        (400, 23): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.f6297cff75cafp-1",
                    "0x0.0p+0", "0x1.0281f68be5d2ap+1"),
    },
    "strip_attract": {
        (200, 0): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.f6297cff75cafp-1",
                   "0x1.7ef0ce7179af8p+1", "0x1.0281f68be5d2ap+1"),
        (400, 23): ("0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.f6297cff75cafp-1",
                    "0x1.7fbf11a975cc4p+1", "0x1.0281f68be5d2ap+1"),
    },
}


@pytest.mark.parametrize("name", sorted(_BOUNDS))
def test_p_window_is_the_qhull_value_bit_for_bit(name):
    for (samples, seed), expected in _BOUNDS[name].items():
        bounds = estimate_bounds(load_preset(name), samples=samples, seed=seed)
        assert tuple(bounds[k].hex() for k in ("M_f", "M_l", "r_f", "L_f", "p_window")) == expected, (samples, seed)


def test_sample_bounds_reads_the_fields_in_two_passes(monkeypatch):
    # one pass over the (slow x fast) sample and one over the stepped sample;
    # the control hulls are read from the first
    from hj_strata import hamiltonian

    calls = []
    fields = hamiltonian.eval_fields
    monkeypatch.setattr(hamiltonian, "eval_fields", lambda *a: calls.append(a) or fields(*a))
    hamiltonian._sample_bounds(load_preset("case3_mirror"), 200, 0)
    assert len(calls) <= 2


def test_estimate_bounds_eikonal():
    scn = load_preset("eikonal")
    b = estimate_bounds(scn, seed=0)
    assert b["M_f"] == pytest.approx(1.0, abs=1e-12)
    assert b["M_l"] == pytest.approx(1.0, abs=1e-12)
    assert b["r_f"] == pytest.approx(math.cos(math.pi / 16), abs=1e-12)
    assert b["p_window"] == pytest.approx(1.0 * (1 + 1 / b["r_f"]))


def test_estimate_bounds_is_cached_by_content(monkeypatch):
    from hj_strata import hamiltonian

    calls = []
    sample = hamiltonian._sample_bounds
    monkeypatch.setattr(hamiltonian, "_sample_bounds", lambda *a: calls.append(a) or sample(*a))
    first = estimate_bounds(load_preset("eikonal"), samples=17, seed=3)
    first["M_f"] = -1.0  # callers own their copy
    again = estimate_bounds(load_preset("eikonal"), samples=17, seed=3)
    assert len(calls) == 1
    assert again["M_f"] == pytest.approx(1.0, abs=1e-12)
    other = estimate_bounds(load_preset("cost_bump"), samples=17, seed=3)
    estimate_bounds(load_preset("eikonal"), samples=17, seed=4)
    assert len(calls) == 3
    assert other != again
    # the key is the scenario's content: a schedule the sampling does not
    # read still misses, and samples the same bounds again
    scn = load_preset("eikonal")
    changes = ({"grid_h": 0.125}, {"cell_h": 0.125}, {"sl_step": 0.1}, {"tol_ergodic": 1e-3})
    for misses, change in enumerate(changes, start=4):
        assert estimate_bounds(scn.with_schedules(**change), samples=17, seed=3) == again, change
        assert len(calls) == misses, change
    # and so does one it reads
    estimate_bounds(scn.with_schedules(box_half_width=3.0), samples=17, seed=3)
    assert len(calls) == 8


CHECK_SEEDS = range(5)


def test_assumption_checks_pass_on_presets():
    for name in preset_names():
        for seed in CHECK_SEEDS:
            report = validate_assumptions(load_preset(name), seed=seed)
            assert report.passed, f"{name} seed {seed}: {[e.name for e in report.entries if not e.passed]}"


def _case1(strip_cost: str) -> dict:
    return {
        "case": "case1",
        "alpha": 1.0,
        "R0": 0.5,
        "controls": {"directions": 8, "speed": 1.0, "include_zero": True},
        "background": {"drift": ["{a1}", "{a2}"], "cost": "1"},
        "strip_defect": {"period": 1.0, "drift": ["{a1}", "{a2}"], "cost": strip_cost},
    }


def _case3(strip_cost: str, core_cost: str | None = None) -> dict:
    strip = {"period": 1.0, "drift": ["{a1}", "{a2}"], "cost": strip_cost}
    raw = {
        "case": "case3",
        "alpha": 1.0,
        "R0": 0.5,
        "R1": 0.75,
        "controls": {"directions": 8, "speed": 1.0, "include_zero": True},
        "background": {"drift": ["{a1}", "{a2}"], "cost": "1"},
        "strip_defect": {"plus": strip, "minus": strip},
    }
    if core_cost is not None:
        raw["core_defect"] = {"drift": ["{a1}", "{a2}"], "cost": core_cost}
    return raw


def test_assumption_checks_catch_seam_mismatch():
    well = "1 - 0.5*smoothstep(0.5, 0.25, abs(y2))"
    cases = [
        # strip cost != background cost at |y2| >= R0: violates the
        # "defect lives inside the strip" assumption
        (_case1("0.25"), {"strip_background_seam"}),
        # a dip at |y2| >= 3, which the strips at rho = 4 read
        (_case1("1 - 0.9*smoothstep(3.0, 3.5, abs(y2))"), {"strip_background_seam"}),
        # a rise just beyond the band edge
        (_case3("1 + 0.5*smoothstep(0.5, 1.0, abs(y2))"), {"strip_plus_background_seam", "strip_minus_background_seam"}),
        # the core lacks the strips' well at their mouths y1 = +-R0
        (_case3(well, "1"), {"strip_plus_mouth_seam", "strip_minus_mouth_seam"}),
        # the core rises off the band, so it misses the background on |y| = R1
        (_case3(well, well + " + 0.2*smoothstep(0.5, 0.7, abs(y2))"), {"core_background_seam"}),
        # the core rises along the band edges inside its disc, R0 < |y1| < sqrt(R1^2 - R0^2)
        (
            _case3(well, well + " + 0.2*smoothstep(0.5, 0.55, abs(y1))*smoothstep(0.4, 0.5, abs(y2))"),
            {"strip_plus_edge_seam", "strip_minus_edge_seam"},
        ),
    ]
    for raw, expected in cases:
        scn = parse_scenario(raw, label="t")
        for seed in CHECK_SEEDS:
            report = validate_assumptions(scn, seed=seed)
            failed = {e.name for e in report.entries if not e.passed}
            assert expected <= failed, f"{raw} seed {seed}: {sorted(failed)}"


def _nan_strip():
    """A strip cost of sqrt(y2), NaN on the band's lower half."""
    return parse_scenario(_case1("sqrt(y2)"), label="nan strip")


def test_bounds_keep_a_nan_field():
    # folded with Python max/min the NaN samples dropped out (max(0.0, nan)
    # is 0.0), and the bounds read 0
    with np.errstate(invalid="ignore"):
        bounds = estimate_bounds(_nan_strip(), samples=200, seed=0)
    assert all(math.isnan(bounds[k]) for k in ("M_l", "L_f", "p_window"))
    assert bounds["M_f"] == 1.0 and bounds["r_f"] == pytest.approx(math.cos(math.pi / 8), abs=1e-12)


def _nan_strip_drift():
    """A strip drift of {a2}*sqrt(y2), NaN on the band's lower half."""
    raw = _case1("1")
    raw["strip_defect"]["drift"] = ["{a1}", "{a2}*sqrt(y2)"]
    return parse_scenario(raw, label="nan strip drift")


def test_a_nan_drift_reads_nan_not_a_degenerate_hull():
    # a NaN control point reads NaN, not the 0 of a degenerate hull, so the
    # coercivity check reports the drift, not the hull
    angles = np.arange(8) * np.pi / 4
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    assert hull_inradius(dirs) == pytest.approx(math.cos(math.pi / 8), abs=1e-12)
    one = dirs.copy()
    one[3] = np.nan
    assert math.isnan(hull_inradius(one))
    assert math.isnan(hull_inradius(np.full_like(dirs, np.nan)))
    scn = _nan_strip_drift()
    with np.errstate(invalid="ignore"):
        bounds = estimate_bounds(scn, samples=200, seed=0)
        report = validate_assumptions(scn, seed=0)
    assert math.isnan(bounds["M_f"]) and math.isnan(bounds["r_f"])
    coercivity = next(e for e in report.entries if e.name == "coercivity")
    assert not coercivity.passed and coercivity.detail == "control hull inradius r_f = nan (need > 0)"


def test_assumption_checks_fail_on_a_nan_field():
    scn = _nan_strip()
    for seed in CHECK_SEEDS:
        with np.errstate(invalid="ignore"):
            report = validate_assumptions(scn, seed=seed)
        assert {e.name for e in report.entries if not e.passed} == {
            "cost_bound", "lipschitz_surrogate",
            "strip_periodicity", "strip_background_seam", "strip_mouth_seam", "strip_edge_seam",
        }


def test_assumption_checks_deterministic():
    scn = load_preset("strip_attract")
    r1 = validate_assumptions(scn, seed=9)
    r2 = validate_assumptions(scn, seed=9)
    assert [(e.name, e.passed, e.detail) for e in r1.entries] == [
        (e.name, e.passed, e.detail) for e in r2.entries
    ]
