import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hj_strata.cell import (
    EffectiveTables,
    _grid_root,
    ambient_level,
    ambient_window,
    tabulate_effective,
    torus_effective,
)
from hj_strata.correctors import (
    BracketError,
    Piece,
    RegimeError,
    SubcorrectorSpec,
    _draft_line_split,
    _draft_origin,
    _draft_plane,
    _fit_max,
    _one_step,
    _polish_vertical_root,
    bellman_certificate,
    build_corrector_set,
    build_subcorrector,
    majorant_gap,
    select_regime,
    subsolution_residual,
)
from hj_strata.grids import _BLOCK, GridSpec, ValueField
from hj_strata.hamiltonian import eval_fields, validate_assumptions
from hj_strata.scenario import load_preset, parse_scenario

COS16 = math.cos(math.pi / 16)

# The residual bar used throughout: one percent of the cost bound, the same
# scale the full-suite checks certify against.
TOL_CORR = 1e-2


@pytest.fixture(scope="module")
def attract():
    scn = load_preset("strip_attract")
    tables = tabulate_effective(scn, tol=5e-4)
    correctors = build_corrector_set(scn, h=1 / 32, tol=5e-4)
    return scn, tables, correctors


@pytest.fixture(scope="module")
def mirror():
    scn = load_preset("case3_mirror")
    tables = tabulate_effective(scn, tol=5e-4)
    correctors = build_corrector_set(scn, h=1 / 32, tol=5e-4)
    return scn, tables, correctors


@pytest.fixture(scope="module")
def checkerboard():
    scn = load_preset("checkerboard")
    tables = tabulate_effective(scn, tol=5e-4)
    correctors = build_corrector_set(scn, h=1 / 32, tol=5e-4)
    return scn, tables, correctors


def _specs(setup, covectors):
    """One spec per regime at the default lift, built once for the tests
    that read it unedited."""
    scn, tables, correctors = setup
    return {regime: build_subcorrector(scn, tables, correctors, p, regime) for regime, p in covectors.items()}


@pytest.fixture(scope="module")
def attract_specs(attract):
    return _specs(attract, {"plane": (0.0, 0.8), "line": (0.3, 0.0), "origin": (0.0, 0.0)})


@pytest.fixture(scope="module")
def mirror_specs(mirror):
    return _specs(mirror, {"plane": (0.0, 0.9), "line": (0.5, 0.1)})


@pytest.fixture(scope="module")
def checkerboard_specs(checkerboard):
    return _specs(checkerboard, {"origin": (0.0, 0.0)})


def _certify(scn, spec, correctors, h=1 / 32):
    grid = GridSpec.box(min(4 * scn.R1, correctors.half_width), h)
    residual = subsolution_residual(scn, spec, spec.level, grid)
    gap = majorant_gap(spec, grid)
    cert = bellman_certificate(scn, spec, spec.level, grid, delta=correctors.delta)
    return residual, gap, cert


def _affine_spec(scn, target, level, *pieces):
    """A hand-made plane-regime spec whose minimum is over ``pieces``."""
    return SubcorrectorSpec(
        target=tuple(target), regime="plane", level=level, eta=0.0,
        q_values={}, split_radius=scn.R1, pieces=pieces,
    )


def test_select_regime_orders_levels(attract):
    scn, tables, _ = attract
    assert select_regime(scn, tables, (0.0, 0.8)) == "plane"
    assert select_regime(scn, tables, (0.3, 0.0)) == "line"
    assert select_regime(scn, tables, (1.2, 0.4)) == "line"
    # E ties min H1T exactly on this scenario; the tie goes to the origin
    # construction, which certifies the lifted level.
    assert select_regime(scn, tables, (0.0, 0.0)) == "origin"


def test_plane_regime_certifies(attract, attract_specs):
    scn, _, correctors = attract
    spec = attract_specs["plane"]
    # level = H(0,p) of the eikonal-cone background, root on the right flank
    level = 0.8 * COS16 - 1.0
    assert spec.level == pytest.approx(level, abs=1e-6)
    assert spec.q_values["q1"] == pytest.approx((0.5 + level) / COS16, abs=2e-3)
    residual, gap, cert = _certify(scn, spec, correctors)
    assert residual <= TOL_CORR
    assert gap <= 1e-9
    assert cert <= TOL_CORR


def test_plane_regime_small_momentum_shallow_wells():
    # Mildly attractive wells leave the ambient level on top already at
    # p = (0, 0.2); the tangential table is a shifted cone, so the branch
    # momentum has the closed form q1 = (floor + level)/cos(pi/16) > 0.
    # The core fades the strip well out toward its rim, as strip_attract's
    # core does, and keeps its own 0.03 well off the seam y1 = 0, so the
    # blocks agree on both seams.
    scn = parse_scenario(
        {
            "case": "case1",
            "alpha": 1.0,
            "R0": 0.5,
            "controls": {"directions": 16, "speed": 1.0, "include_zero": True},
            "background": {"drift": ["{a1}", "{a2}"], "cost": "1"},
            "strip_defect": {
                "period": 1.0,
                "drift": ["{a1}", "{a2}"],
                "cost": "1 - 0.15*smoothstep(0.5, 0.25, abs(y2))",
            },
            "core_defect": {
                "drift": ["{a1}", "{a2}"],
                "cost": "1 - 0.15*smoothstep(0.5, 0.25, abs(y2))"
                        "*(1 - smoothstep(0, sqrt(max(0.25 - y2^2, 0.000001)), y1))"
                        " - 0.03*smoothstep(0.35, 0.1, sqrt(y1^2 + y2^2))"
                        "*smoothstep(0, 0.1, y1)",
            },
        },
        label="shallow_wells",
    )
    assert validate_assumptions(scn).passed
    tables = tabulate_effective(scn, tol=5e-4)
    correctors = build_corrector_set(scn, h=1 / 32, tol=5e-4)
    p = (0.0, 0.2)
    level = 0.2 * COS16 - 1.0
    assert select_regime(scn, tables, p) == "plane"
    spec = build_subcorrector(scn, tables, correctors, p, "plane")
    assert spec.level == pytest.approx(level, abs=1e-6)
    assert spec.q_values["q1"] == pytest.approx((0.85 + level) / COS16, abs=2e-3)
    assert spec.q_values["q1"] > 0.0
    residual, gap, cert = _certify(scn, spec, correctors)
    assert residual <= TOL_CORR
    assert gap <= 1e-9
    assert cert <= TOL_CORR


def test_line_regime_far_root(attract):
    scn, tables, correctors = attract
    spec = build_subcorrector(scn, tables, correctors, (-0.4, 0.0), "line")
    assert spec.level == pytest.approx(-(0.5 - 0.4 * COS16), abs=2e-3)
    # the opposite flank of the cone crosses the level at the mirrored momentum
    assert spec.q_values["p_tilde"] == pytest.approx(0.4, abs=2e-3)
    residual, gap, _ = _certify(scn, spec, correctors)
    assert residual <= TOL_CORR
    assert gap <= 1e-9


def test_line_regime_escape_plane(attract, attract_specs):
    scn, _, correctors = attract
    spec = attract_specs["line"]
    assert spec.q_values["p_tilde"] == pytest.approx(-0.3, abs=2e-3)
    assert "pi_upper" in spec.q_values
    residual, gap, cert = _certify(scn, spec, correctors)
    assert residual <= TOL_CORR
    assert gap <= 1e-9
    assert cert <= TOL_CORR


def test_origin_regime_brackets_target(attract, attract_specs):
    scn, tables, correctors = attract
    spec = attract_specs["origin"]
    # default lift is five percent of the cost bound
    assert spec.eta == pytest.approx(0.05)
    assert spec.level == pytest.approx(tables.E + 0.05, abs=1e-9)
    # vertical roots of the eikonal cone at the lifted level
    q2 = (1.0 + spec.level) / COS16
    assert spec.q_values["q2_upper"] == pytest.approx(q2, abs=2e-3)
    assert spec.q_values["q2_lower"] == pytest.approx(-q2, abs=2e-3)
    assert spec.q_values["q2_lower"] < 0.0 < spec.q_values["q2_upper"]
    residual, gap, cert = _certify(scn, spec, correctors)
    assert residual <= TOL_CORR
    assert gap <= 1e-9
    assert cert <= TOL_CORR


def test_origin_lift_sweeps_downward(attract):
    # eta -> 0 walks the certified level down to the origin datum while the
    # construction keeps certifying.
    scn, tables, correctors = attract
    levels = []
    for eta in (0.05, 0.02, 0.008):
        spec = build_subcorrector(scn, tables, correctors, (0.0, 0.0), "origin", eta=eta)
        residual, gap, _ = _certify(scn, spec, correctors)
        assert residual <= TOL_CORR
        assert gap <= 1e-9
        levels.append(spec.level)
    assert all(b < a for a, b in zip(levels, levels[1:]))
    assert levels[-1] - tables.E == pytest.approx(0.008, abs=1e-9)


def test_active_pieces_follow_the_region_split(attract_specs):
    spec = attract_specs["origin"]
    grid = GridSpec.box(2.0, 1 / 32)
    pts = grid.nodes()
    labels = np.array([piece.label for piece in spec.pieces])[spec.active(pts)]
    # the ball corrector owns a neighbourhood of the origin
    near = np.linalg.norm(pts, axis=1) <= 0.2
    assert set(labels[near]) == {"origin"}
    # the affine brackets own the far field above and below the band
    far_up = pts[:, 1] >= 1.8
    assert set(labels[far_up]) <= {"bracket-upper", "bracket-lower"}
    # the band piece appears along the strip, away from the core
    on_strip = (np.abs(pts[:, 1]) <= 0.2) & (pts[:, 0] <= -1.5)
    assert "band" in set(labels[on_strip])


def _ball_radii(spec):
    """Admissibility radius of each origin piece: inf if unconfined."""
    return [pc.radius for pc in spec.pieces if pc.kind == "ball"]


def _origin_radii(spec, grid):
    pts = grid.nodes()
    labels = np.array([piece.label for piece in spec.pieces])[spec.active(pts)]
    return np.linalg.norm(pts, axis=1)[labels == "origin"]


def test_origin_piece_is_glued_at_its_rim(attract_specs):
    grid = GridSpec.box(2.0, 1 / 32)
    spec = attract_specs["origin"]
    # confined: admissible out to the reported rim, and the ring just inside
    # the rim already belongs to the rivals, so the cut opens no jump
    assert _ball_radii(spec) == [spec.split_radius]
    assert 0.2 < spec.split_radius < 2.0
    assert _origin_radii(spec, grid).max() <= spec.split_radius - 3 / 32
    # every outer node is trusted in the plane regime: no origin piece at all
    spec = attract_specs["plane"]
    assert _ball_radii(spec) == []
    assert spec.split_radius == 0.0
    assert math.isnan(spec.C)


def test_unglued_origin_piece_is_reported_unconfined(mirror, mirror_specs):
    scn, _, correctors = mirror
    grid = GridSpec.box(min(4 * scn.R1, correctors.half_width), 1 / 32)
    spec = mirror_specs["plane"]
    assert _ball_radii(spec) == [math.inf]
    assert any("left unconfined" in note for note in spec.notes)
    # C is fitted over a disc of radius at least R1 + h, so the piece owns
    # the whole core disc, and the reported radius reaches past it
    pts = grid.nodes()
    labels = np.array([piece.label for piece in spec.pieces])[spec.active(pts)]
    assert set(labels[np.linalg.norm(pts, axis=1) <= scn.R1]) == {"origin"}
    assert spec.split_radius >= scn.R1
    assert _ball_radii(mirror_specs["line"]) == []


def test_unconfined_origin_piece_keeps_its_certificate(attract):
    # at eta = 0.02 no rim inside the window glues; the unconfined piece,
    # offset over the disc that holds its territory, still certifies
    scn, tables, correctors = attract
    spec = build_subcorrector(scn, tables, correctors, (0.0, 0.0), "origin", eta=0.02)
    assert _ball_radii(spec) == [math.inf]
    residual, gap, cert = _certify(scn, spec, correctors)
    assert residual <= TOL_CORR
    assert gap <= 1e-9
    assert cert <= TOL_CORR


def test_regime_mismatch_raises(attract):
    scn, tables, correctors = attract
    with pytest.raises(RegimeError):
        build_subcorrector(scn, tables, correctors, (0.0, 0.8), "origin")
    with pytest.raises(RegimeError):
        build_subcorrector(scn, tables, correctors, (0.0, 0.0), "plane")
    # plane and line requests read the one ordering, select_regime's
    for p, asked, selected in (((0.0, 0.8), "line", "plane"), ((0.3, 0.0), "plane", "line")):
        assert select_regime(scn, tables, p) == selected
        with pytest.raises(RegimeError, match=f"selects '{selected}'"):
            build_subcorrector(scn, tables, correctors, p, asked)


@pytest.mark.parametrize("p", [(math.nan, 0.0), (0.0, math.inf), (0.1,), (0.1, 0.2, 0.3)])
def test_select_and_build_refuse_a_covector_that_is_not_two_finite_numbers(attract, p):
    scn, tables, correctors = attract
    with pytest.raises(ValueError, match=r"covector p must be two finite numbers, got \("):
        select_regime(scn, tables, p)
    with pytest.raises(ValueError, match=r"covector p must be two finite numbers, got \("):
        build_subcorrector(scn, tables, correctors, p, "origin")


@pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0, -0.05])
def test_build_refuses_a_lift_that_is_not_positive_and_finite(attract, eta):
    scn, tables, correctors = attract
    with pytest.raises(ValueError, match=f"eta must be positive and finite, got {eta!r}"):
        build_subcorrector(scn, tables, correctors, (0.0, 0.0), "origin", eta=eta)


@pytest.mark.parametrize("setup, regime", [("attract", "line"), ("checkerboard", "origin")])
def test_a_second_build_at_one_covector_repeats_every_bit(request, setup, regime):
    # the corrector set caches nothing, so a second build solves every cell
    # again; the solves are deterministic, so the spec repeats bit for bit
    scn, tables, correctors = request.getfixturevalue(setup)
    first = request.getfixturevalue(f"{setup}_specs")[regime]
    again = build_subcorrector(scn, tables, correctors, first.target, regime)
    assert again.q_values == first.q_values and again.split_radius == first.split_radius
    assert [(pc.label, pc.kind, pc.slope, pc.offset) for pc in again.pieces] == [
        (pc.label, pc.kind, pc.slope, pc.offset) for pc in first.pieces
    ]
    for a, b in zip(first.pieces, again.pieces):
        assert (a.field is None) == (b.field is None)
        if a.field is not None:
            assert a.field.grid == b.field.grid and a.field.values.tobytes() == b.field.values.tobytes()


def test_build_refuses_another_scenarios_correctors_and_an_unknown_regime(attract):
    scn, tables, correctors = attract
    with pytest.raises(ValueError, match="different scenario"):
        build_subcorrector(load_preset("drift_defect"), tables, correctors, (0.0, 0.0), "origin")
    with pytest.raises(ValueError, match="unknown regime 'ridge'"):
        build_subcorrector(scn, tables, correctors, (0.0, 0.0), "ridge")


def test_fit_refuses_a_maximum_on_the_sampling_box_edge():
    grid = GridSpec.box(1.0, 0.25)
    y1 = grid.nodes()[:, 0]
    everywhere = np.ones(grid.size, dtype=bool)
    with pytest.raises(ValueError, match=r"ramp: the fitted maximum sits on the sampling-box edge at y=\(1, "):
        _fit_max(y1, grid, everywhere, "ramp")
    # a tie between the edge and the interior passes, as does an interior maximum
    assert _fit_max(np.zeros(grid.size), grid, everywhere, "flat") == pytest.approx(0.0, abs=1e-9)
    assert _fit_max(-y1 * y1, grid, everywhere, "cap") >= 0.0
    with pytest.raises(ValueError, match="misses every sample node"):
        _fit_max(y1, grid, ~everywhere, "empty")


def test_grid_root_walks_the_flank_away_from_the_argmin():
    # EffectiveTables.tangential_root reads a tangential table's flank roots
    grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    tables = _hand_tables(grid, {"main": np.array([3.0, 1.0, 0.0, 0.5, 2.5])}, E=0.0)
    # the root lies on the first segment whose far end reaches the level
    assert tables.tangential_root("main", 1.5, "right") == 1.0 + (1.5 - 0.5) / 2.0
    assert tables.tangential_root("main", 0.5, "right") == 1.0
    assert tables.tangential_root("main", 2.0, "left") == -1.0 - (2.0 - 1.0) / 2.0
    assert tables.tangential_root("main", 0.25, "left") == -0.25
    # a flat segment at the level returns its far knot
    flat = _hand_tables(grid[:4], {"main": np.array([2.0, 0.0, 0.0, 2.0])}, E=0.0)
    assert flat.tangential_root("main", 0.0, "right") == 0.0
    assert flat.tangential_root("main", 1e-13, "right") == 0.0
    # an argmin on the window edge leaves the flank no segment; every message
    # names the branch's table
    edge = _hand_tables(grid[:3], {"plus": np.array([2.0, 1.0, 0.0])}, E=0.0)
    for level in (0.0, 5e-13):
        with pytest.raises(BracketError, match="^plus tangential table: no table segment brackets"):
            edge.tangential_root("plus", level, "right")
    with pytest.raises(BracketError, match="not reached on the right flank"):
        edge.tangential_root("plus", 0.5, "right")
    with pytest.raises(BracketError, match="^main tangential table: level -0.1 lies below the table minimum"):
        tables.tangential_root("main", -0.1, "left")


def test_selected_line_regime_builds_inside_the_tie(attract):
    # tangential level just below the ambient one, inside the tolerance the
    # tables were built at: the selector counts the two as tied and picks the
    # line regime, and the line builder reads the same tie
    scn, tables, correctors = attract
    p = (0.3, 0.75)
    tol = tables.provenance["tol_ergodic"]
    plane = ambient_level(scn, tables, p)
    planted = _raised(tables, main=plane - 0.5 * tol - float(tables.h1t_at(p[0])))
    level = float(planted.h1t_at(p[0]))
    assert plane - tol < level < plane and level > planted.E + tol
    assert select_regime(scn, planted, p) == "line"
    spec = build_subcorrector(scn, planted, correctors, p, "line")
    assert spec.level == pytest.approx(level, abs=1e-12)


def test_bracket_failure_reports_table_edge(attract):
    scn, tables, correctors = attract
    # the ambient level at this covector exceeds the tangential table's
    # reach, so the branch root cannot be bracketed
    with pytest.raises(BracketError, match="flank"):
        build_subcorrector(scn, tables, correctors, (0.0, 2.8), "plane")


def test_residual_reports_level_violation_exactly(attract):
    # a single plane wave that is too steep: the reported residual is the
    # exact excess of the finite-max Hamiltonian over the level
    scn, _, _ = attract
    p = (0.0, 2.0)
    level = -0.5
    spec = _affine_spec(scn, p, level, Piece(label="target", kind="affine", slope=p))
    grid = GridSpec.box(1.0, 1 / 16)
    pts = grid.nodes()
    drift, cost = eval_fields(scn, np.zeros(2), pts)
    expected = float((-(drift @ np.asarray(p)) - cost).max() - level)
    assert expected > 0.0
    res = subsolution_residual(scn, spec, level, grid)
    assert res == pytest.approx(expected, abs=1e-9)
    cert = bellman_certificate(scn, spec, level, grid)
    assert cert > 0.0


def test_residual_reads_the_level_margin_below_the_plane_wave_bound(attract):
    # the level inequality and the plane-wave bound are separate readings: a
    # lone target plane sits on its bound (gap 0), while its level residual
    # reads the margin to a level 0.1 above the exact plane level
    scn, _, _ = attract
    p = (0.0, 0.8)
    grid = GridSpec.box(1.0, 1 / 16)
    drift, cost = eval_fields(scn, np.zeros(2), grid.nodes())
    level = float((-(drift @ np.asarray(p)) - cost).max()) + 0.1
    spec = _affine_spec(scn, p, level, Piece(label="target", kind="affine", slope=p))
    assert majorant_gap(spec, grid) == 0.0
    assert subsolution_residual(scn, spec, level, grid) == pytest.approx(-0.1, abs=1e-9)


def test_spec_offsets_are_read_from_its_pieces(attract_specs):
    for regime in ("plane", "origin"):
        spec = attract_specs[regime]
        shared = {pc.offset for pc in spec.pieces if pc.shares_c}
        balls = [pc.offset for pc in spec.pieces if pc.kind == "ball"]
        assert shared and shared == {spec.c}
        assert balls == ([] if math.isnan(spec.C) else [spec.C])
    assert balls and _lowered(spec, 0.05).C == spec.C + 0.05


def test_certificate_refuses_a_step_that_is_not_positive(attract, attract_specs):
    scn, _, _ = attract
    spec = attract_specs["plane"]
    grid = GridSpec.box(2.0, 1 / 32)
    for delta in (-1 / 32, 0.0, math.nan):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            bellman_certificate(scn, spec, spec.level, grid, delta=delta)


def _lowered(spec, drop):
    """``spec`` with its origin piece lowered by ``drop``: a jump at its rim."""
    pieces = tuple(
        dataclasses.replace(pc, offset=pc.offset + drop) if pc.kind == "ball" else pc
        for pc in spec.pieces
    )
    return dataclasses.replace(spec, pieces=pieces)


@pytest.mark.parametrize("drop, floor", [(0.05, 1.0), (0.2, 5.0)])
def test_certificate_catches_a_jump_at_the_origin_rim(attract, attract_specs, drop, floor):
    # cutting a lowered origin piece off at its rim opens a downward jump of
    # the composed minimum, which a step of length h reads as O(drop / h)
    scn, _, correctors = attract
    spec = attract_specs["origin"]
    assert _ball_radii(spec) == [spec.split_radius]
    _, _, cert = _certify(scn, _lowered(spec, drop), correctors)
    assert cert > floor


def test_certificate_reads_a_lowered_level_as_its_excess(attract, attract_specs):
    scn, _, correctors = attract
    spec = attract_specs["origin"]
    grid = GridSpec.box(min(4 * scn.R1, correctors.half_width), 1 / 32)
    cert = bellman_certificate(scn, spec, spec.level - 0.05, grid, delta=correctors.delta)
    assert cert == pytest.approx(0.05, abs=1e-3)


def test_certificate_needs_a_node_with_its_whole_control_fan(attract):
    scn, _, _ = attract
    p = (0.0, 0.8)
    spec = _affine_spec(scn, p, -0.5, Piece(label="target", kind="affine", slope=p))
    with pytest.raises(ValueError, match="control fan"):
        bellman_certificate(scn, spec, -0.5, GridSpec.box(1 / 16, 1 / 16), delta=1 / 8)


def test_coverage_check_rejects_oversized_grid(attract, attract_specs):
    # coverage is a precondition of every reading, the majorant gap included,
    # which no longer masks the nodes beyond a piece's field
    scn, _, _ = attract
    spec = attract_specs["origin"]
    grid = GridSpec.box(6.0, 1 / 8)
    with pytest.raises(ValueError, match="coverage"):
        subsolution_residual(scn, spec, spec.level, grid)
    with pytest.raises(ValueError, match="coverage"):
        majorant_gap(spec, grid)
    with pytest.raises(ValueError, match="coverage"):
        bellman_certificate(scn, spec, spec.level, grid)


def test_drafts_name_pieces_and_one_step_solves_them(
    attract, mirror, checkerboard, attract_specs, mirror_specs, checkerboard_specs
):
    # a draft reads only the tables and the closed forms, so it takes no
    # corrector set and names every piece with no field -- case2's bracket
    # planes at the table's own vertical roots; build_subcorrector's solve
    # step then gives each strip piece its corrector, and the spec reports
    # the momenta the draft read (0.05 is the default lift on all three)
    for (scn, tables, _), specs, draft, p, regime in (
        (attract, attract_specs, _draft_plane, (0.0, 0.8), "plane"),
        (mirror, mirror_specs, _draft_line_split, (0.5, 0.1), "line"),
        (checkerboard, checkerboard_specs, _draft_origin, (0.0, 0.0), "origin"),
    ):
        named = draft(scn, tables, p, 0.05, [])
        assert named.pieces and all(pc.field is None for pc in named.pieces)
        spec = specs[regime]
        assert spec.target == p and spec.eta == (0.05 if regime == "origin" else 0.0)
        assert spec.q_values == named.q_values
        strips = [pc for pc in spec.pieces if pc.kind == "strip"]
        assert [pc.label for pc in strips] == [pc.label for pc in named.pieces if pc.kind == "strip"]
        assert strips and all(pc.field is not None for pc in strips)
        if regime == "origin":
            brackets = tuple(pc.slope[1] for pc in named.pieces if pc.label.startswith("bracket"))
            assert brackets == tables.section_roots(p[0], named.level)


def test_min_of_certified_fields_stays_certified(attract):
    # seeded random affine pairs: the composed minimum never exceeds the
    # worse single-piece residual by more than the difference slack
    scn, _, _ = attract
    grid = GridSpec.box(1.0, 1 / 16)
    pts = grid.nodes()
    drift, cost = eval_fields(scn, np.zeros(2), pts)
    rng = np.random.default_rng(20240817)
    for _ in range(20):
        p = rng.uniform(-1.2, 1.2, size=2)
        q = rng.uniform(-1.2, 1.2, size=2)
        shift = rng.uniform(-0.5, 0.5)
        target = Piece(label="target", kind="affine", slope=tuple(p))
        other = Piece(label="other", kind="affine", slope=tuple(q), offset=-shift)
        level = float(
            max((-(drift @ p) - cost).max(), (-(drift @ q) - cost).max())
        )
        r1 = subsolution_residual(scn, _affine_spec(scn, p, level, target), level, grid)
        alone = dataclasses.replace(other, label="target")
        r2 = subsolution_residual(scn, _affine_spec(scn, q, level, alone), level, grid)
        composed = subsolution_residual(scn, _affine_spec(scn, p, level, target, other), level, grid)
        assert composed <= max(r1, r2) + 1e-6
        assert composed <= 1e-9  # both inputs are exact at this level


def test_corrector_piece_composes_with_affine(attract, attract_specs):
    # one solved band piece against its own escape plane: the composition
    # keeps the certified level of the full construction
    scn, _, _ = attract
    spec = attract_specs["line"]
    grid = GridSpec.box(1.5, 1 / 32)
    band = next(pc for pc in spec.pieces if pc.kind == "strip")
    plane = next(pc for pc in spec.pieces if pc.label == "escape")
    pair = dataclasses.replace(spec, pieces=(band, plane))
    assert subsolution_residual(scn, pair, spec.level, grid) <= TOL_CORR


def test_case3_plane_roots_are_mirrored(mirror, mirror_specs):
    scn, _, correctors = mirror
    spec = mirror_specs["plane"]
    assert spec.q_values["q1_minus"] == pytest.approx(-spec.q_values["q1_plus"], abs=2e-3)
    residual, gap, cert = _certify(scn, spec, correctors)
    assert residual <= TOL_CORR
    assert gap <= 1e-9
    assert cert <= TOL_CORR


def test_case3_equal_bands_split_along_the_axis(mirror, mirror_specs):
    scn, _, correctors = mirror
    spec = mirror_specs["line"]
    halfplanes = {pc.label: pc.halfplane for pc in spec.pieces}
    assert halfplanes.get("band-minus") == -1
    assert halfplanes.get("band-plus") == +1
    assert any("split along the vertical axis" in note for note in spec.notes)
    residual, gap, _ = _certify(scn, spec, correctors)
    assert residual <= TOL_CORR
    assert gap <= 1e-9


def test_case3_origin_build(mirror):
    scn, tables, correctors = mirror
    spec = build_subcorrector(scn, tables, correctors, (0.0, 0.0), "origin")
    residual, gap, cert = _certify(scn, spec, correctors)
    assert residual <= TOL_CORR
    assert gap <= 1e-9
    assert cert <= TOL_CORR


# The mirror tables are the cone |p1| cos(pi/16) - 1/2 on both branches.  The
# tests below edit them with ``dataclasses.replace`` to reach the case3 line
# constructions the genuine data never selects; they check the construction,
# not a certificate, because the edited tables no longer match the cells.


def _raised(tables, **shift):
    """Tables with each named branch's tangential values raised by a constant."""
    h1t = {b: np.asarray(v) + shift.get(b, 0.0) for b, v in tables.h1t.items()}
    return dataclasses.replace(tables, h1t=h1t)


def _tied(scn, tables, p, **h1t):
    """Tables (branch values overridden by ``h1t``) whose tangential levels at
    ``p[0]`` equal the ambient level at ``p``."""
    tables = dataclasses.replace(tables, h1t={**tables.h1t, **h1t})
    plane = ambient_level(scn, tables, p)
    return _raised(tables, **{b: plane - float(tables.h1t_at(p[0], b)) for b in tables.h1t})


@pytest.mark.parametrize("high, low, sign", [("plus", "minus", +1), ("minus", "plus", -1)])
def test_case3_dominant_band_carries_the_other_at_its_root(mirror, high, low, sign):
    scn, tables, correctors = mirror
    raised = _raised(tables, **{high: 0.1})
    spec = build_subcorrector(scn, raised, correctors, (0.5, 0.1), "line")
    assert spec.level == pytest.approx(float(raised.h1t_at(0.5, high)), abs=1e-12)
    assert any(f"dominant branch {high}" in note for note in spec.notes)
    pieces = {pc.label: pc for pc in spec.pieces}
    assert pieces[f"band-{high}"].slope == (0.5, 0.0)
    assert pieces[f"band-{high}"].shares_c
    assert not pieces[f"band-{low}"].shares_c
    # the other band runs at the dominant level, on the far side of p1
    p_tilde = spec.q_values["p_tilde"]
    assert pieces[f"band-{low}"].slope == (p_tilde, 0.0)
    assert float(raised.h1t_at(p_tilde, low)) == pytest.approx(spec.level, abs=1e-9)
    assert sign * p_tilde > 0.5


@pytest.mark.parametrize("p1, dropped, tag", [(0.5, "plus", "ascending"), (-0.5, "minus", "descending")])
def test_case3_three_way_tie_drops_a_band_below_the_level(mirror, p1, dropped, tag):
    scn, tables, correctors = mirror
    p = (p1, 0.8)
    # an increasing plus table has no left flank, so the minus band is dropped
    override = {"plus": tables.p1_grid.copy()} if dropped == "minus" else {}
    tied = _tied(scn, tables, p, **override)
    spec = build_subcorrector(scn, tied, correctors, p, "line")
    assert spec.level == pytest.approx(ambient_level(scn, tied, p), abs=1e-9)
    assert spec.eta == 0.0
    assert any(f"{dropped} table {tag} through the level" in note for note in spec.notes)
    p_tilde = spec.q_values["p_tilde"]
    band = next(pc for pc in spec.pieces if pc.label == f"band-{dropped}")
    assert band.slope == (p_tilde, 0.0)
    # dropped by the default lift (five percent of the cost bound)
    assert float(tied.h1t_at(p_tilde, dropped)) == pytest.approx(spec.level - 0.05, abs=1e-9)


def test_case3_tie_at_the_table_minimum_lifts_the_level(mirror):
    scn, tables, correctors = mirror
    p = (0.0, 0.8)
    tied = _tied(scn, tables, p)
    spec = build_subcorrector(scn, tied, correctors, p, "line")
    assert spec.eta == pytest.approx(0.05)
    assert spec.level == pytest.approx(ambient_level(scn, tied, p) + 0.05, abs=1e-9)
    assert any("certifying the lifted level" in note for note in spec.notes)
    p_tilde = spec.q_values["p_tilde"]
    assert p_tilde < 0.0
    assert float(tied.h1t_at(p_tilde, "plus")) == pytest.approx(spec.level, abs=1e-9)


def test_case3_tie_skips_a_band_root_on_the_wrong_side_of_the_target(mirror):
    # with a flat plus table only the minus table descends, but below the
    # level its root lies at p1 < 0.5: that band would grow against the
    # target on the minus half-line, so the level is lifted instead
    scn, tables, correctors = mirror
    p = (0.5, 0.8)
    tied = _tied(scn, tables, p, plus=np.zeros_like(tables.h1t["plus"]))
    spec = build_subcorrector(scn, tied, correctors, p, "line")
    assert spec.eta == pytest.approx(0.05)
    assert any("certifying the lifted level" in note for note in spec.notes)
    p_tilde = spec.q_values["p_tilde"]
    assert p_tilde > 0.5
    band = next(pc for pc in spec.pieces if pc.label == "band-minus")
    assert band.slope == (p_tilde, 0.0)
    assert float(tied.h1t_at(p_tilde, "minus")) == pytest.approx(spec.level, abs=1e-9)


def test_case3_flat_tied_tables_raise_regime_error(mirror):
    scn, tables, correctors = mirror
    p = (0.0, 0.8)
    flat = _tied(scn, tables, p, **{b: np.zeros_like(v) for b, v in tables.h1t.items()})
    with pytest.raises(RegimeError, match="flat"):
        build_subcorrector(scn, flat, correctors, p, "line")


def test_case3_degenerate_plane_root_raises(mirror):
    # a deeper well at p1 ~ 1.06 moves the plus table's argmin there, so its
    # root on the flank facing the origin lies at p1 > 0: that band would not
    # undercut the target along the plus half-line
    scn, tables, correctors = mirror
    plus = np.asarray(tables.h1t["plus"]).copy()
    plus[15] = -1.0
    welled = dataclasses.replace(tables, h1t={**tables.h1t, "plus": plus})
    with pytest.raises(RegimeError, match="degenerate tangential root q1_plus"):
        build_subcorrector(scn, welled, correctors, (0.0, 0.9), "plane")


def test_periodic_background_build_is_structurally_sound(checkerboard, checkerboard_specs):
    # Read at the corrector set's step, each solved periodic piece meets its
    # own fixed-point identity, so the curved correctors of a periodic medium
    # certify the lifted origin level with a margin, the composed minimum
    # included: the bracket roots sit below the level and are kept.
    scn, _, correctors = checkerboard
    spec = checkerboard_specs["origin"]
    grid = GridSpec.box(2.0, 1 / 32)
    assert majorant_gap(spec, grid) <= 1e-9
    assert subsolution_residual(scn, spec, spec.level, grid) <= 0.0
    assert bellman_certificate(scn, spec, spec.level, grid, delta=correctors.delta) <= 0.0
    # affine pieces carry their periodic correction and sit at or below the level
    planes = [pc for pc in spec.pieces if pc.kind == "affine"]
    assert planes and all(pc.field is not None for pc in planes)
    for pc in planes:
        if pc.label.startswith("bracket"):
            (est,) = torus_effective(correctors.cell_scenario, pc.slope)
            assert est.constant <= spec.level + 2 * correctors.tol


def test_corrector_set_solves_every_cell_at_step_h(checkerboard, monkeypatch):
    # the corrector set is a frozen record of the origin corrector and the
    # resolution; a build's solve step calls the strip and torus solvers
    # through this module's names, at the set's step, and each piece carries
    # a corrector it solved
    from hj_strata import correctors as module

    scn, tables, _ = checkerboard
    correctors = build_corrector_set(scn, h=1 / 8, tol=1e-3)
    assert [f.name for f in dataclasses.fields(correctors)] == [
        "scenario", "cell_scenario", "half_width", "coverage", "w_field"
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        correctors.coverage = 1.0
    assert correctors.scenario is scn
    assert correctors.delta == correctors.h == 1 / 8
    assert correctors.w_field.grid.h2 == correctors.h
    solved = []

    def recorded(solve):
        def run(*args, **kwargs):
            estimates = solve(*args, **kwargs)
            solved.extend(estimates)
            return estimates
        return run

    for name in ("strip_ergodic", "torus_effective"):
        monkeypatch.setattr(module, name, recorded(getattr(module, name)))
    spec = build_subcorrector(scn, tables, correctors, (0.0, 0.0), "origin")
    fields = [pc.field for pc in spec.pieces if pc.kind != "ball"]
    assert {"affine", "strip"} <= {pc.kind for pc in spec.pieces}
    assert solved and all(est.delta == correctors.h for est in solved)
    assert all(any(f is est.corrector for est in solved) for f in fields)


def test_table_gradient_reads_one_segment_inside_it_and_two_at_a_knot():
    grid, vals = np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, 3.0, 6.0])
    tables = _hand_tables(grid, {"main": vals}, E=0.0)
    assert tables.one_sided_quotients("main", 1.5) == (2.0, 2.0)
    assert tables.one_sided_quotients("main", 1.0) == (1.0, 2.0)
    assert tables.one_sided_quotients("main", 2.0) == (2.0, 3.0)
    # the same segment slopes that bound the scheme's tangential dissipation
    assert tables.tangential_slope_bound("main") == 3.0


def _solved_constants(monkeypatch, constant):
    """Patch the torus solver to return ``constant(q)`` at momentum ``q``;
    returns the list of momenta it was asked for."""
    from hj_strata import correctors

    asked = []

    def torus_effective(scn, q):
        asked.append(q)
        return (SimpleNamespace(converged=True, constant=constant(q), momentum=q, corrector=None),)

    monkeypatch.setattr(correctors, "torus_effective", torus_effective)
    return asked


def test_vertical_root_polish_notes_a_stall(monkeypatch):
    # every solved constant misses the level by 0.1, so the polish never
    # settles: on a convex table the secant runs out its six solves, and on
    # one flat around q0 the first solve leaves no slope to step along.
    # Either way the first iterate is kept and the stall is noted
    p_grid = np.linspace(-1.0, 1.0, 9)
    zeros = np.zeros(3)
    convex = p_grid[:, None] ** 2 + p_grid[None, :] ** 2 - 0.5
    for hbar, solves in ((convex, 6), (np.full_like(convex, -0.5), 1)):
        tables = EffectiveTables(
            x0=(0.0, 0.0), p1_grid=np.linspace(-1.0, 1.0, 3), h1t={"main": zeros}, pi_lower={"main": zeros},
            pi_upper={"main": zeros}, E=0.0, E_history=(), method_gaps={"main": zeros},
            p_grid=p_grid, hbar=hbar, flags={},
        )
        asked = _solved_constants(monkeypatch, lambda q: 0.1)
        notes = []
        stub = SimpleNamespace(tol=1e-4, cell_scenario=None)
        q, est = _polish_vertical_root(tables, stub, 0.0, 0.5, 0.0, notes, "upper bracket slope")
        assert q == 0.5 and len(asked) == solves
        assert est.momentum == (0.0, 0.5)  # the kept iterate's own estimate
        assert notes == ["upper bracket slope: solved-root polish stalled at offset +1.00e-01 (momentum 0.5)"]


def test_vertical_root_polish_takes_secant_steps_to_the_solved_root(monkeypatch):
    # solved constants rise three times as fast as the table's slope says, so
    # only the secant update reaches their root at 0.2 (the table slope alone
    # oscillates away from it)
    p_grid = np.linspace(-1.0, 1.0, 9)
    zeros = np.zeros(3)
    tables = EffectiveTables(
        x0=(0.0, 0.0), p1_grid=np.linspace(-1.0, 1.0, 3), h1t={"main": zeros}, pi_lower={"main": zeros},
        pi_upper={"main": zeros}, E=0.0, E_history=(), method_gaps={"main": zeros},
        p_grid=p_grid, hbar=p_grid[:, None] ** 2 + p_grid[None, :] ** 2 - 0.5, flags={},
    )
    asked = _solved_constants(monkeypatch, lambda q: 3.0 * (q[1] - 0.2))
    notes = []
    stub = SimpleNamespace(tol=1e-4, cell_scenario=None)
    q, est = _polish_vertical_root(tables, stub, 0.0, 0.5, 0.0, notes, "upper bracket slope")
    assert abs(q - 0.2) <= 2 * stub.tol and notes == []
    assert len(asked) == 3
    assert est.momentum == asked[-1] == (0.0, q)


@pytest.mark.parametrize("offset", [-0.1, -1e-4, 0.0, 1e-4])
def test_vertical_root_polish_keeps_a_root_at_or_below_the_level(monkeypatch, offset):
    # the polish is one-sided: a table root whose solved constant already
    # sits at or below the level (within the polish target) is kept after
    # one solve, and no note is written
    p_grid = np.linspace(-1.0, 1.0, 9)
    tables = _hand_tables(np.linspace(-1.0, 1.0, 3), {"main": np.zeros(3)}, E=0.0, p_grid=p_grid,
                          hbar=p_grid[:, None] ** 2 + p_grid[None, :] ** 2 - 0.5)
    asked = _solved_constants(monkeypatch, lambda q: offset + 3.0 * (q[1] - 0.5))
    notes = []
    stub = SimpleNamespace(tol=1e-4, cell_scenario=None)
    q, est = _polish_vertical_root(tables, stub, 0.0, 0.5, 0.0, notes, "upper bracket slope")
    assert q == 0.5 and est.momentum == (0.0, 0.5)
    assert asked == [(0.0, 0.5)] and notes == []


def _hand_tables(p1_grid, h1t, E, p_grid=None, hbar=None):
    zeros = np.zeros(len(p1_grid))
    return EffectiveTables(
        x0=(0.0, 0.0), p1_grid=p1_grid, h1t=h1t, pi_lower={b: zeros for b in h1t},
        pi_upper={b: zeros for b in h1t}, E=E, E_history=(), method_gaps={b: zeros for b in h1t},
        p_grid=p_grid, hbar=hbar, flags={},
    )


def test_unconverged_corrector_solve_is_refused(monkeypatch):
    from hj_strata import correctors

    unconverged = SimpleNamespace(converged=False, delta=1 / 8, corrector=None, constant=0.0)
    monkeypatch.setattr(correctors, "ball_ergodic", lambda *args, **kwargs: (unconverged,))
    with pytest.raises(RuntimeError, match=r"origin corrector at truncation \d.* did not converge"):
        build_corrector_set(load_preset("strip_attract"), h=1 / 8, tol=1e-3)


def test_equal_bands_refuse_vertical_roots_that_miss_the_covector(monkeypatch):
    # both case3 bands sit at level 10, far above the ambient level at p = 0,
    # so the line regime splits the plane along the vertical axis; roots that
    # fail to bracket p2 = 0 are refused before any piece is built
    from hj_strata import correctors

    scn = load_preset("case3_mirror")
    grid = np.array([-1.0, 0.0, 1.0])
    tables = _hand_tables(grid, {"plus": np.full(3, 10.0), "minus": np.full(3, 10.0)}, E=0.0)
    monkeypatch.setattr(correctors, "ambient_window", lambda *args: (0.5, 1.0))
    with pytest.raises(RegimeError, match=r"vertical roots \(0.5, 1\) fail to bracket p2=0 at the shared"):
        build_subcorrector(scn, tables, SimpleNamespace(scenario=scn), (0.0, 0.0), "line")


def test_origin_regime_refuses_polished_roots_that_miss_the_covector(monkeypatch):
    # the solved constants sit above E + eta at both table roots, and the
    # solve step's polish moves both onto the solved root at 0.3, so the
    # polished bracket misses p2 = 0 although the table's roots hold it
    from hj_strata import correctors

    scn = load_preset("checkerboard")
    p1_grid, p_grid = np.linspace(-1.0, 1.0, 3), np.linspace(-1.0, 1.0, 9)
    tables = _hand_tables(p1_grid, {"main": p1_grid**2 - 0.5}, E=0.0, p_grid=p_grid,
                          hbar=p_grid[:, None] ** 2 + p_grid[None, :] ** 2 - 0.5)
    unsolved = SimpleNamespace(converged=True, corrector=None)
    monkeypatch.setattr(correctors, "strip_ergodic", lambda *args, **kwargs: (unsolved,))
    _solved_constants(monkeypatch, lambda q: 0.1 + abs(q[1] - 0.3))
    stub = SimpleNamespace(scenario=scn, tol=1e-4, cell_scenario=scn, coverage=1.0)
    with pytest.raises(RegimeError, match=r"vertical roots \(0.3, 0.3\) fail to bracket p2=0; the ambient"):
        build_subcorrector(scn, tables, stub, (0.0, 0.0), "origin", eta=0.1)


def test_vertical_section_is_read_in_one_lookup_bit_for_bit():
    # EffectiveTables.section_roots, which ambient_window reads in case2,
    # reads the section q -> H̄(0, (p1, q)) on the whole p_grid in one hbar_at
    # call; each value equals its point's own lookup, so both roots equal
    # those of the point-by-point section
    scn = load_preset("checkerboard")
    window = np.linspace(-1.6, 1.6, 5)
    tables = tabulate_effective(scn, tol=1e-3, p1_grid=window[::2], p_grid=window)
    q_grid = tables.p_grid
    for p1 in np.linspace(-1.6, 1.6, 13):
        section = tables.hbar_at(np.column_stack([np.full_like(q_grid, p1), q_grid]))
        lone = np.array([float(tables.hbar_at((p1, q))) for q in q_grid])
        assert section.tobytes() == lone.tobytes()
        level = 0.5 * (lone.min() + min(lone[0], lone[-1]))
        lower = _grid_root(q_grid, lone, level, "left", "lower", "q")
        upper = _grid_root(q_grid, lone, level, "right", "upper", "q")
        assert tables.section_roots(p1, level) == (lower, upper)
        assert ambient_window(scn, tables, p1, level) == (lower, upper)


def test_section_root_failures_name_the_vertical_momentum():
    # a section's rows are vertical momenta q at a fixed p1, and its
    # messages say so
    grid = np.linspace(-1.0, 1.0, 5)
    tables = _hand_tables(grid, {"main": grid**2}, E=0.0, p_grid=grid, hbar=grid[:, None] ** 2 + grid[None, :] ** 2)
    with pytest.raises(BracketError, match=r"^ambient section at p1=0.5, lower slope: level 0.1 lies below "
                                           r"the table minimum 0.25 at q=0$"):
        tables.section_roots(0.5, 0.1)
    with pytest.raises(BracketError, match=r"^ambient section at p1=0.5, lower slope: level 2 is not reached "
                                           r"on the left flank; window ends at row q=-1, value 1.25$"):
        tables.section_roots(0.5, 2.0)


def test_blocked_one_step_reading_equals_the_one_shot_reading_bit_for_bit():
    # 17 controls: more nodes than one block of _BLOCK points holds
    grid = GridSpec.box(2.0, 1 / 16)
    rng = np.random.default_rng(11)
    field = ValueField(grid, rng.normal(size=(grid.n1, grid.n2)))
    n = 3 * (_BLOCK // 18) + 5
    pts = rng.uniform(-1.5, 1.5, size=(n, 2))
    feet = pts + 0.25 * rng.uniform(-1.0, 1.0, size=(17, n, 2))
    step_cost = rng.uniform(0.0, 1.0, size=(17, n))
    at = field(np.concatenate([pts, feet.reshape(-1, 2)]))
    one_shot = (at[:n] - np.min(step_cost + at[n:].reshape(-1, n), axis=0)) / 0.25
    assert _one_step(field, pts, feet, step_cost, 0.25).tobytes() == one_shot.tobytes()
