import json
import math

import numpy as np
import pytest

from hj_strata.bellman import SLOperator
from hj_strata.cell import tabulate_effective
from hj_strata.correctors import build_corrector_set
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

BLOCK = {"drift": ["{a1}", "{a2}"], "cost": "1"}
STRIP = {**BLOCK, "period": 1.0}


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


def test_malformed_field_quotes_the_source_as_written():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(variant(background={"drift": ["{a1}", "{a2}"], "cost": "{a1} + * y1"}), label="t")
    assert str(exc.value).startswith("background: unexpected token '*'")
    assert "offset 7 in '{a1} + * y1'" in str(exc.value)


def test_field_sources_evaluate_once_over_all_controls(monkeypatch):
    from hj_strata.expressions import ScalarExpr

    calls = []
    call = ScalarExpr.__call__

    def counted(expr, **env):
        calls.append(expr)
        return call(expr, **env)

    monkeypatch.setattr(ScalarExpr, "__call__", counted)
    scn = load_preset("strip_attract")
    drift = scn.background.eval_drift(0.0, 0.0, np.zeros(4), np.zeros(4))
    assert len(calls) == 2
    assert drift.shape == (len(scn.controls), 4, 2)
    assert np.array_equal(drift[:, 2], np.asarray(scn.controls))


@pytest.mark.parametrize("name", preset_names())
def test_field_evaluation_equals_the_per_control_loop(name):
    # the control axis comes from broadcasting; each control's slice must be
    # bit for bit what a lone evaluation at that control gives
    scn = load_preset(name)
    rng = np.random.default_rng(3)
    x1, x2, y1, y2 = rng.uniform(-2.0, 2.0, (4, 16))
    env = dict(x1=x1, x2=x2, y1=y1, y2=y2)
    for block in map(scn.block, (*scn.branches, "core", "background")):
        drift, cost = block.eval_drift(**env), block.eval_cost(**env)
        for k, (a1, a2) in enumerate(scn.controls):
            lone = {**env, "a1": a1, "a2": a2}
            for i in range(2):
                assert np.array_equal(drift[k, :, i], np.broadcast_to(block.drift[i](**lone), 16))
            assert np.array_equal(cost[k], np.broadcast_to(block.cost(**lone), 16))


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
    assert s.delta == pytest.approx(math.sqrt(1 / 16))


def test_schedules_fixed_step():
    scn = parse_scenario(variant(schedules={"sl_step": 0.05}), label="t")
    assert scn.schedules.delta == pytest.approx(0.05)


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
        ({"schedules": {"lambda_factor": 1.5}}, "schedules: unknown key(s) ['lambda_factor']"),
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
        ({"background": "1"}, "background: expected an object with 'drift' and 'cost'"),
        ({"background": {"drift": ["{a1}", "{a2}"]}}, "background: missing required key 'cost'"),
        ({"background": {"drift": "{a1}", "cost": "1"}}, "background.drift: expected a pair"),
        ({"strip_defect": {**BLOCK, "period": 0.0}}, "strip_defect.period: must be positive"),
        ({"core_defect": {**BLOCK, "period": 1.0}}, "core_defect.period: only strip blocks"),
        ({"controls": [[1.0, 0.0], [0.5]]}, "entries must be [a1, a2] pairs"),
        ({"controls": []}, "control set must be non-empty"),
        ({"controls": {"speed": 1.0}}, "needs a 'directions' count"),
        ({"controls": "sixteen"}, "controls: expected a generator object"),
        (lambda tmp: tmp / "missing.json", "cannot read scenario file"),
        (lambda tmp: _written(tmp / "bad.json", "{"), "bad.json: invalid JSON"),
        (lambda tmp: "{", "invalid JSON"),
        (lambda tmp: "[1, 2]", "scenario: top level must be an object"),
        (lambda tmp: {k: v for k, v in BASE.items() if k != "alpha"}, "missing required key 'alpha'"),
        (lambda tmp: {k: v for k, v in BASE.items() if k != "background"}, "background: required"),
        ({"case": "case3"}, "R1: required for case3"),
        ({"R1": 0.75}, "R1: only case3 scenarios take a separate R1"),
        ({"case": "case2", "background": {**BLOCK, "periods": [1.0]}}, "background.periods: expected [T1, T2]"),
        ({"case": "case2", "background": {**BLOCK, "periods": [1.0, 0.0]}}, "background.periods: must be positive"),
        ({"case": "case3", "R1": 0.75, "strip_defect": {"plus": STRIP}}, "strip_defect: case3 takes"),
        ({"strip_defect": {"plus": STRIP, "minus": STRIP}}, "per-branch blocks are a case3 feature"),
        ({"schedules": [1]}, "schedules: expected an object"),
        ({"schedules": {"rho_list": [-1.0, 1.0]}}, "schedules.rho_list: entries must be positive"),
        ({"alpha": None}, "alpha: must be positive, got None"),
        ({"R0": [1]}, "R0: must be positive, got [1]"),
        ({"alpha": "fast"}, "alpha: must be positive, got 'fast'"),
        ({"controls": {"directions": "many"}}, "'directions' count of at least 3, got 'many'"),
        ({"controls": {"directions": 3.9}}, "'directions' count of at least 3, got 3.9"),
        ({"controls": {"directions": 8, "speed": "x"}}, "controls.speed: must be positive, got 'x'"),
        ({"controls": [["a", 0], [0.0, 1.0]]}, "entries must be [a1, a2] pairs of numbers"),
        ({"strip_defect": {**BLOCK, "period": "one"}}, "strip_defect.period: must be positive, got 'one'"),
        ({"case": "case2", "background": {**BLOCK, "periods": ["a", 1]}}, "background.periods: must be positive"),
        ({"case": "case3", "R1": "big"}, "R1: must be positive, got 'big'"),
        ({"controls": {"directions": 8, "include_zero": "no"}}, "controls.include_zero: expected true or false, got 'no'"),
        ({"controls": {"directions": 8, "include_zero": 0}}, "controls.include_zero: expected true or false, got 0"),
        ({"controls": {"directions": 8, "speeed": 2.0}}, "controls: unknown key(s) ['speeed']"),
        ({"case": "case2", "background": {**BLOCK, "perods": [2, 2]}}, "background: unknown key(s) ['perods']"),
        ({"strip_defect": {**STRIP, "peroid": 2.0}}, "strip_defect: unknown key(s) ['peroid']"),
        ({"core_defect": {**BLOCK, "periods": [1.0, 1.0]}}, "core_defect: unknown key(s) ['periods']"),
        ({"case": "case3", "R1": 0.75, "strip_defect": {"plus": STRIP, "minus": {**STRIP, "costs": "1"}}},
         "strip_defect.minus: unknown key(s) ['costs']"),
        ({"schedules": {"R_list": [1.0, True]}}, "schedules.R_list: expected a list of numbers"),
        ({"schedules": {"lambda0": 0.5}}, "schedules: unknown key(s) ['lambda0']"),
    ],
)
def test_rejects_invalid_input_naming_the_clause(patch, needle, tmp_path):
    # a row patches BASE, or is a function of a scratch directory giving the source
    source = patch(tmp_path) if callable(patch) else variant(**patch)
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(source, label="t")
    assert needle in str(exc.value)


@pytest.mark.parametrize(
    "build, clause",
    [
        (lambda scn: scn.with_schedules(tol_ergodic=0), "tol_ergodic: must be a positive number"),
        (lambda scn: scn.with_schedules(tol_ergodic=-1.0, p1_points=0, cell_h=0.0), "tol_ergodic"),
        # the continuation's discount schedule is bellman's, not a schedule field
        (lambda scn: scn.with_schedules(lambda_factor=1.5), r"unknown key\(s\) \['lambda_factor'\]$"),
        (lambda scn: scn.with_schedules(lambda0=0.5), r"unknown key\(s\) \['lambda0'\]$"),
        (lambda scn: scn.with_schedules(rho_list=()), "rho_list: must not be empty"),
        (lambda scn: tabulate_effective(scn, tol=0), "tol_ergodic: must be a positive number"),
        (lambda scn: build_corrector_set(scn, tol=-1), "tol_ergodic: must be a positive number"),
        (lambda scn: build_corrector_set(scn, h=0.0), "cell_h: must be a positive number"),
        (lambda scn: scn.with_schedules(rho_list=(True, 2.0)), "rho_list: expected a list of numbers"),
        (lambda scn: scn.with_schedules(R_list=("a", "b")), "R_list: expected a list of numbers"),
        (lambda scn: scn.with_schedules(rho_list=[1, "x"]), "rho_list: expected a list of numbers"),
        # truncations whose grids cell_h does not divide, refused before the walks are submitted
        (lambda scn: tabulate_effective(scn.with_schedules(rho_list=(0.3, 1.0))),
         r"rho_list: strip height \(0\.6\) must be a positive integer multiple of h \(0\.0625\)$"),
        (lambda scn: tabulate_effective(scn.with_schedules(R_list=(0.3,))),
         r"R_list: box width \(0\.6\) must be a positive integer multiple of h \(0\.0625\)$"),
        (lambda scn: tabulate_effective(scn.with_schedules(cell_h=0.3)),
         r"rho_list: strip height \(2\.0\) must be a positive integer multiple of h \(0\.3\)$"),
    ],
    ids=["with_schedules", "with_schedules-first-clause", "lambda_factor", "lambda0", "rho_list",
         "tabulate_effective", "build_corrector_set-tol", "build_corrector_set-h", "rho_list-boolean",
         "R_list-strings", "rho_list-mixed", "tabulate_effective-rho_list-grid", "tabulate_effective-R_list-grid",
         "tabulate_effective-cell_h-grid"],
)
def test_every_schedule_path_refuses_what_parsing_refuses(build, clause, monkeypatch):
    # replaced schedules are validated where they are built, before any solve;
    # a field's refusal names ``schedules.<field>``, an unknown key's ``schedules:``
    built = []
    monkeypatch.setattr(SLOperator, "__init__", lambda self, *args: built.append(args))
    with pytest.raises(ScenarioError, match=rf"^schedules(\.|: ){clause}"):
        build(load_preset("strip_attract"))
    assert built == []


def test_with_schedules_refuses_an_unknown_key_as_parsing_does():
    with pytest.raises(ScenarioError, match=r"^schedules: unknown key\(s\) \['cell_hh'\]$"):
        load_preset("strip_attract").with_schedules(cell_hh=0.1)


def test_schedule_lists_are_stored_as_tuples_of_floats():
    schedules = load_preset("strip_attract").with_schedules(rho_list=[1.0, 2.0], R_list=[1, 3]).schedules
    assert schedules.rho_list == (1.0, 2.0) and type(schedules.rho_list) is tuple
    assert schedules.R_list == (1.0, 3.0) and all(type(v) is float for v in schedules.R_list)


def _written(path, text):
    path.write_text(text)
    return path


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
    "case3_mirror": "ca3f47c395846570c9adc754a473c1b4ffb1fb35d4302038ff6a36cb5a4860bd",
    "checkerboard": "74470df19ecfeb04707d5d170a31f11c16c384f7cc86569cc9ce4620aea263fa",
    "core_repulse": "8635739e1df718f6bb78fc1049f5b8241dc3aedbf597deda8c0dbc8603704f39",
    "cost_bump": "a654ba55537a7d74256f6e502a6cfce2908695931f4ab829e1efcb353a60f690",
    "drift_defect": "c31dc9f0d0d459418bfe7f686a2f85edc25acbc56592e24926d7d59b663ed013",
    "eikonal": "bf18eb13d3ac8f31d4bac63a1c1c65b6a3480459b653eb46d0417bf501e605a2",
    "strip_attract": "b737ee37589ba3d9c25850697a0528f6edef00323ab4b22408a390c43ef06ca2",
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
