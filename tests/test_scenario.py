import json
import math

import numpy as np
import pytest

from hj_strata.scenario import (
    Scenario,
    ScenarioError,
    load_preset,
    parse_scenario,
    preset_names,
)

BASE = {
    "case": "case1",
    "alpha": 1.0,
    "R0": 0.5,
    "controls": {"directions": 8, "speed": 1.0, "include_zero": True},
    "background": {"drift": ["{a1}", "{a2}"], "cost": "1"},
}


def variant(**over):
    d = json.loads(json.dumps(BASE))
    d.update(over)
    return d


def test_parse_from_dict_json_and_file(tmp_path):
    s1 = parse_scenario(BASE, label="t")
    s2 = parse_scenario(json.dumps(BASE), label="t")
    p = tmp_path / "scn.json"
    p.write_text(json.dumps(BASE))
    s3 = parse_scenario(p)
    assert s1.content_hash() == s2.content_hash()
    assert s1.canonical() == s3.canonical()
    assert s3.label == "scn"


def test_generated_controls_offset_angles():
    scn = parse_scenario(BASE, label="t")
    # 8 directions at (2k+1)*pi/8 plus the rest control
    assert len(scn.controls) == 9
    assert any(a == (0.0, 0.0) for a in scn.controls)
    dirs = [a for a in scn.controls if a != (0.0, 0.0)]
    angles = sorted(math.atan2(a[1], a[0]) % (2 * math.pi) for a in dirs)
    want = sorted((2 * k + 1) * math.pi / 8 % (2 * math.pi) for k in range(8))
    assert np.allclose(angles, want)
    # no direction exactly on the axes: keeps the up/down control split honest
    assert all(abs(a[0]) > 1e-12 and abs(a[1]) > 1e-12 for a in dirs)


def test_explicit_control_list():
    scn = parse_scenario(
        variant(controls=[[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), label="t"
    )
    assert scn.controls == ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))


def test_control_placeholder_substitution():
    scn = parse_scenario(
        variant(background={"drift": ["0.5*{a1}", "{a2} - 0.25"], "cost": "1 + 0*{a1}"}),
        label="t",
    )
    drift = scn.background.eval_drift(0.0, 0.0, np.zeros(3), np.zeros(3))
    assert drift.shape == (len(scn.controls), 3, 2)
    a = np.asarray(scn.controls)
    assert np.allclose(drift[:, 0, 0], 0.5 * a[:, 0])
    assert np.allclose(drift[:, 0, 1], a[:, 1] - 0.25)


def test_cost_must_stay_positive_semidefinite_by_eval():
    # not a parse-time rule; the assumption checker flags it instead
    scn = parse_scenario(variant(background={"drift": ["{a1}", "{a2}"], "cost": "-1"}), label="t")
    cost = scn.background.eval_cost(0.0, 0.0, 0.0, 0.0)
    assert np.all(cost == -1.0)


def test_schedules_defaults_scale_with_geometry():
    scn = parse_scenario(BASE, label="t")
    s = scn.schedules
    assert s.rho_list == tuple(2.0 ** (k + 1) * 0.5 for k in range(3))
    assert s.R_list == tuple(2.0 ** (k + 1) * 0.5 for k in range(3))
    assert s.delta(1 / 16) == pytest.approx(math.sqrt(1 / 16))


def test_schedules_fixed_step():
    scn = parse_scenario(variant(schedules={"sl_step": 0.05}), label="t")
    assert scn.schedules.delta(1 / 16) == pytest.approx(0.05)


@pytest.mark.parametrize(
    "patch, needle",
    [
        ({"case": "case9"}, "case"),
        ({"alpha": 0.0}, "alpha"),
        ({"R0": -1.0}, "R0"),
        ({"bogus": 1}, "unknown key"),
        ({"background": {"drift": ["y1*{a1}", "{a2}"], "cost": "1"}}, "background"),
        ({"strip_defect": {"drift": ["{a1}", "{a2}"], "cost": "1"}}, "period"),
        ({"schedules": {"rho_list": [2.0, 1.0]}}, "strictly increasing"),
        ({"schedules": {"rho_list": []}}, "must not be empty"),
        ({"schedules": {"lambda_factor": 1.5}}, "lambda_factor"),
        ({"schedules": {"nope": 1}}, "unknown key"),
        ({"controls": {"directions": 2}}, "directions"),
        ({"controls": {"directions": 8, "speed": -1.0}}, "speed"),
        ({"schedules": {"p1_points": 0}}, "p1_points"),
        ({"schedules": {"p1_points": 2.5}}, "p1_points"),
        ({"schedules": {"cell_h": -0.0625}}, "cell_h"),
        ({"schedules": {"grid_h": 0}}, "grid_h"),
        ({"schedules": {"box_half_width": -2}}, "box_half_width"),
        ({"schedules": {"sl_step": True}}, "sl_step"),
        ({"schedules": {"tol_ergodic": "x"}}, "tol_ergodic"),
        ({"schedules": {"R_list": ["x"]}}, "R_list"),
    ],
)
def test_rejects_invalid_input_naming_the_clause(patch, needle):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(variant(**patch), label="t")
    assert needle in str(exc.value)


def test_case3_requires_wide_core():
    d = variant(case="case3", R1=0.6)
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(d, label="t")
    assert "sqrt(2)" in str(exc.value)


def test_case3_strip_branches():
    d = variant(
        case="case3",
        R1=0.75,
        strip_defect={
            "plus": {"period": 1.0, "drift": ["{a1}", "{a2}"], "cost": "0.5"},
            "minus": {"period": 1.0, "drift": ["{a1}", "{a2}"], "cost": "0.75"},
        },
    )
    scn = parse_scenario(d, label="t")
    assert scn.block("plus").cost_source == "0.5"
    assert scn.block("minus").cost_source == "0.75"
    with pytest.raises(ValueError, match="main"):
        scn.block("main")


def test_case2_background_periods():
    d = variant(
        case="case2",
        background={
            "drift": ["{a1}", "{a2}"],
            "cost": "1 + 0.25*sin(6.283185307179586*y1)",
            "periods": [1.0, 1.0],
        },
    )
    scn = parse_scenario(d, label="t")
    assert scn.background_periods == (1.0, 1.0)
    bad = variant(background=dict(d["background"]))  # periods on a case1 background
    with pytest.raises(ScenarioError):
        parse_scenario(bad, label="t")


def test_content_hash_ignores_label_and_is_stable():
    s1 = parse_scenario(BASE, label="alpha")
    s2 = parse_scenario(BASE, label="beta")
    assert s1.content_hash() == s2.content_hash()
    s3 = parse_scenario(variant(alpha=2.0), label="alpha")
    assert s3.content_hash() != s1.content_hash()


# content_hash() of each bundled preset; a change to the canonical form or to
# a schedule default moves these.
PRESET_HASHES = {
    "case3_mirror": "fa7ae0e8cb61d7e0cde9ec5430cbd9a0176d36605eac893aa613555c39648f4f",
    "checkerboard": "2b3055e5a69088deaec0f58dd9434f298dbb4e492e9f5d1ac9a759257a3f4fb7",
    "core_repulse": "07b6d171d61df83ca750a83d72f6466ac966a3534a2ae0aa15a470395104750a",
    "cost_bump": "aaef14fb42fba1d87161de771cb7ec8932c5d1a8c26a9e3e5f93ebf62c85d138",
    "drift_defect": "6d567939220811552500dedefaef363114e479ff09209634f3cbb038a54677e4",
    "eikonal": "cedaa7614cb0500df4ec9944d2c602b678238f6ecea99010a9f23f58f95ceff5",
    "strip_attract": "682f71c0d891b6a9f497ef5690ae69db613d58f98db82c3b21c5d8a8c0f4ef03",
}


@pytest.mark.parametrize("name", sorted(PRESET_HASHES))
def test_preset_content_hash_is_pinned(name):
    assert load_preset(name).content_hash() == PRESET_HASHES[name]


def test_presets_all_parse():
    names = preset_names()
    assert set(names) >= {
        "eikonal",
        "cost_bump",
        "core_repulse",
        "strip_attract",
        "drift_defect",
        "checkerboard",
        "case3_mirror",
    }
    for name in names:
        scn = load_preset(name)
        assert isinstance(scn, Scenario)
        assert scn.label == name


def test_unknown_preset():
    with pytest.raises(ScenarioError):
        load_preset("not_a_preset")
