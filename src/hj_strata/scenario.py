"""Scenario configuration: schema parsing, defaults, and assumption checks.

A scenario describes one control problem family:

* ``case1`` — uniform background on the plane, a periodic strip pattern on
  the half-strip ``y1 <= 0, |y2| <= R0``, and a free core patch on the right
  half-disc of radius ``R0``.
* ``case2`` — like case1 but the background itself is periodic in both fast
  variables (periods given on the background block).
* ``case3`` — two periodic strip patterns on the half-strips ``|y1| >= R0``,
  ``|y2| <= R0`` and a free core inside the disc of radius ``R1``.

:meth:`Scenario.regions` is the one definition of this geometry and
:meth:`Scenario.block` the one lookup of a region's fields.

Fields are given per block as a drift expression pair and a cost expression
over ``x1, x2, y1, y2``; the control components enter textually through the
placeholders ``{a1}`` and ``{a2}``, which are substituted per control before
parsing.  Blocks must agree where their regions meet; ``validate_assumptions``
samples those seams and the structural bounds and reports findings instead of
raising.
"""

from __future__ import annotations

import json
import hashlib
import math
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .expressions import ExpressionError, ScalarExpr, parse_expression

__all__ = [
    "ScenarioError",
    "FieldPair",
    "SolverSchedules",
    "Scenario",
    "ValidationEntry",
    "ValidationReport",
    "parse_scenario",
    "load_preset",
    "preset_names",
    "validate_assumptions",
]

CASES = ("case1", "case2", "case3")


class ScenarioError(ValueError):
    """Scenario schema violation; the message names the offending clause."""


def _substitute_control(source: str, a: tuple[float, float]) -> str:
    return source.replace("{a1}", f"({a[0]!r})").replace("{a2}", f"({a[1]!r})")


@dataclass(frozen=True, slots=True)
class FieldPair:
    """Drift/cost expressions of one region block, expanded per control.

    ``drift[k]`` and ``cost[k]`` belong to control ``k`` of the scenario's
    control set; ``period`` is the y1-period for strip blocks (None
    elsewhere).
    """

    drift_source: tuple[str, str]
    cost_source: str
    drift: tuple[tuple[ScalarExpr, ScalarExpr], ...]
    cost: tuple[ScalarExpr, ...]
    period: float | None = None

    def eval_drift(self, x1, x2, y1, y2) -> np.ndarray:
        """Drift values, shape ``(n_controls, *broadcast_shape, 2)``."""
        env = {k: np.asarray(v, dtype=float) for k, v in dict(x1=x1, x2=x2, y1=y1, y2=y2).items()}
        shape = np.broadcast_shapes(*(v.shape for v in env.values()))
        out = np.empty((len(self.drift), *shape, 2))
        for k, (d1, d2) in enumerate(self.drift):
            out[k, ..., 0] = d1(**env)
            out[k, ..., 1] = d2(**env)
        return out

    def eval_cost(self, x1, x2, y1, y2) -> np.ndarray:
        """Cost values, shape ``(n_controls, *broadcast_shape)``."""
        env = {k: np.asarray(v, dtype=float) for k, v in dict(x1=x1, x2=x2, y1=y1, y2=y2).items()}
        shape = np.broadcast_shapes(*(v.shape for v in env.values()))
        out = np.empty((len(self.cost), *shape))
        for k, c in enumerate(self.cost):
            out[k, ...] = c(**env)
        return out

    def clause(self) -> dict[str, Any]:
        data: dict[str, Any] = {"drift": list(self.drift_source), "cost": self.cost_source}
        if self.period is not None:
            data["period"] = self.period
        return data


def _build_field_pair(
    block: Mapping[str, Any],
    controls: tuple[tuple[float, float], ...],
    where: str,
    *,
    period_required: bool = False,
) -> FieldPair:
    if not isinstance(block, Mapping):
        raise ScenarioError(f"{where}: expected an object with 'drift' and 'cost'")
    try:
        drift_src = block["drift"]
        cost_src = block["cost"]
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing required key {exc.args[0]!r}") from None
    if not (isinstance(drift_src, (list, tuple)) and len(drift_src) == 2):
        raise ScenarioError(f"{where}.drift: expected a pair of expressions")
    period = block.get("period")
    if period_required:
        if period is None:
            raise ScenarioError(f"{where}.period: strip blocks must declare their tangential period")
        period = float(period)
        if not period > 0:
            raise ScenarioError(f"{where}.period: must be positive")
    elif period is not None:
        raise ScenarioError(f"{where}.period: only strip blocks carry a period")

    drift_exprs: list[tuple[ScalarExpr, ScalarExpr]] = []
    cost_exprs: list[ScalarExpr] = []
    for a in controls:
        try:
            d1 = parse_expression(_substitute_control(str(drift_src[0]), a))
            d2 = parse_expression(_substitute_control(str(drift_src[1]), a))
            c = parse_expression(_substitute_control(str(cost_src), a))
        except ExpressionError as exc:
            raise ScenarioError(f"{where}: {exc}") from None
        drift_exprs.append((d1, d2))
        cost_exprs.append(c)
    return FieldPair(
        drift_source=(str(drift_src[0]), str(drift_src[1])),
        cost_source=str(cost_src),
        drift=tuple(drift_exprs),
        cost=tuple(cost_exprs),
        period=period,
    )


@dataclass(frozen=True, slots=True)
class SolverSchedules:
    """Numerical schedules shared by the cell-problem and grid solvers."""

    lambda0: float = 0.5
    lambda_factor: float = 0.5
    tol_ergodic: float = 1e-4
    rho_list: tuple[float, ...] = ()
    R_list: tuple[float, ...] = ()
    cell_h: float = 1.0 / 16.0
    grid_h: float = 1.0 / 16.0
    box_half_width: float = 2.0
    sl_step: str | float = "sqrt"
    p1_points: int = 21

    def delta(self, h: float) -> float:
        """Semi-Lagrangian time step for grid spacing ``h``."""
        if self.sl_step == "sqrt":
            return math.sqrt(h)
        return float(self.sl_step)


def _default_schedules(R0: float, R1: float) -> SolverSchedules:
    return SolverSchedules(
        rho_list=(2.0 * R0, 4.0 * R0, 8.0 * R0),
        R_list=(2.0 * R1, 4.0 * R1, 8.0 * R1),
    )


@dataclass(frozen=True, slots=True)
class Scenario:
    """A parsed, validated scenario (fields expanded per control)."""

    case: str
    alpha: float
    R0: float
    R1: float
    controls: tuple[tuple[float, float], ...]
    background: FieldPair
    strips: Mapping[str, FieldPair]  # {} | {"main": ...} | {"plus": ..., "minus": ...}
    core: FieldPair | None
    schedules: SolverSchedules
    background_periods: tuple[float, float] | None  # case2 only
    label: str = "scenario"

    def canonical(self) -> dict[str, Any]:
        """Normalized schema dict (defaults filled) suitable for hashing."""
        data: dict[str, Any] = {
            "case": self.case,
            "alpha": self.alpha,
            "R0": self.R0,
            "R1": self.R1,
            "controls": [list(a) for a in self.controls],
            "background": self.background.clause(),
        }
        if self.background_periods is not None:
            data["background"]["periods"] = list(self.background_periods)
        if self.case == "case3":
            if self.strips:
                data["strip_defect"] = {
                    "plus": self.strips["plus"].clause(),
                    "minus": self.strips["minus"].clause(),
                }
        elif "main" in self.strips:
            data["strip_defect"] = self.strips["main"].clause()
        if self.core is not None:
            data["core_defect"] = self.core.clause()
        data["schedules"] = {
            k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self.schedules).items()
        }
        return data

    def content_hash(self) -> str:
        text = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    @property
    def branches(self) -> dict[str, int]:
        """Defect half-lines by name, each with the side of the origin it lies
        on: -1 for ``y1 < 0``, +1 for ``y1 > 0``.  Case3 lists ``plus`` first.
        """
        return {"plus": +1, "minus": -1} if self.case == "case3" else {"main": -1}

    def regions(self, y1, y2, slack: float = 0.0) -> dict[str, np.ndarray]:
        """One mask per region, partitioning the fast points ``(y1, y2)``.

        Each branch owns the closed half-strip ``side*y1 >= start``,
        ``|y2| <= R0 + slack`` around its half-line, where ``start`` is 0 in
        case1/case2 and R0 in case3.  ``"core"`` is the rest of the disc
        ``|y| <= R1`` and ``"background"`` everything else.
        """
        y1 = np.asarray(y1, dtype=float)
        y2 = np.asarray(y2, dtype=float)
        start = self.R0 if self.case == "case3" else 0.0
        band = np.abs(y2) <= self.R0 + slack
        masks = {b: band & (side * y1 >= start) for b, side in self.branches.items()}
        taken = np.logical_or.reduce(list(masks.values()))
        masks["core"] = ~taken & (y1 * y1 + y2 * y2 <= self.R1 * self.R1)
        masks["background"] = ~(taken | masks["core"])
        return masks

    def block(self, region: str) -> FieldPair:
        """Field block of a region of :meth:`regions`; an undeclared defect
        falls back to the background."""
        if region == "background":
            return self.background
        if region == "core":
            return self.background if self.core is None else self.core
        if region in self.branches:
            return self.strips.get(region, self.background)
        raise ValueError(f"{self.case} regions are {[*self.branches, 'core', 'background']}, got {region!r}")


def _generate_controls(spec: Any) -> tuple[tuple[float, float], ...]:
    if isinstance(spec, (list, tuple)):
        controls = []
        for item in spec:
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                raise ScenarioError("controls: explicit control list entries must be [a1, a2] pairs")
            controls.append((float(item[0]), float(item[1])))
        if not controls:
            raise ScenarioError("controls: control set must be non-empty")
        return tuple(controls)
    if isinstance(spec, Mapping):
        try:
            n = int(spec["directions"])
        except KeyError:
            raise ScenarioError("controls: generator form needs a 'directions' count") from None
        if n < 3:
            raise ScenarioError("controls.directions: need at least 3 directions for a non-degenerate hull")
        speed = float(spec.get("speed", 1.0))
        if not speed > 0:
            raise ScenarioError("controls.speed: must be positive")
        include_zero = bool(spec.get("include_zero", True))
        # Half-step offset keeps every direction away from the axes, so no
        # generated control is exactly +-e1 or +-e2.
        controls = [
            (speed * math.cos((2 * k + 1) * math.pi / n), speed * math.sin((2 * k + 1) * math.pi / n))
            for k in range(n)
        ]
        if include_zero:
            controls.append((0.0, 0.0))
        return tuple(controls)
    raise ScenarioError("controls: expected a generator object or an explicit [[a1,a2],...] list")


def _is_number(value: Any) -> bool:
    """A finite int or float; JSON booleans do not count."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def parse_scenario(source: Mapping[str, Any] | str | Path, *, label: str | None = None) -> Scenario:
    """Parse a scenario from a dict, JSON text, or a path to a JSON file.

    Fills defaults and raises :class:`ScenarioError` naming the violated
    clause on invalid input.
    """
    if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source and source.endswith(".json")):
        path = Path(source)
        try:
            raw = json.loads(path.read_text())
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON: {exc}") from None
        if label is None:
            label = path.stem
    elif isinstance(source, str):
        try:
            raw = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON: {exc}") from None
    else:
        raw = dict(source)
    if not isinstance(raw, Mapping):
        raise ScenarioError("scenario: top level must be an object")

    unknown = set(raw) - {
        "case", "alpha", "R0", "R1", "controls", "background",
        "strip_defect", "core_defect", "schedules", "label",
    }
    if unknown:
        raise ScenarioError(f"scenario: unknown key(s) {sorted(unknown)}")

    case = raw.get("case")
    if case not in CASES:
        raise ScenarioError(f"case: expected one of {CASES}, got {case!r}")
    try:
        alpha = float(raw["alpha"])
        R0 = float(raw["R0"])
    except KeyError as exc:
        raise ScenarioError(f"scenario: missing required key {exc.args[0]!r}") from None
    if not alpha > 0:
        raise ScenarioError("alpha: must be positive")
    if not R0 > 0:
        raise ScenarioError("R0: must be positive")

    if case == "case3":
        if "R1" not in raw:
            raise ScenarioError("R1: required for case3")
        R1 = float(raw["R1"])
        if not R1 > math.sqrt(2.0) * R0:
            raise ScenarioError("R1: case3 requires R1 > sqrt(2)*R0")
    else:
        if "R1" in raw and not math.isclose(float(raw["R1"]), R0):
            raise ScenarioError("R1: only case3 scenarios take a separate R1 (case1/case2 use R0)")
        R1 = R0

    controls = _generate_controls(raw.get("controls", {"directions": 16}))

    if "background" not in raw:
        raise ScenarioError("background: required")
    background = _build_field_pair(raw["background"], controls, "background")

    background_periods: tuple[float, float] | None = None
    if case == "case2":
        periods_raw = raw["background"].get("periods", [1.0, 1.0])
        if not (isinstance(periods_raw, (list, tuple)) and len(periods_raw) == 2):
            raise ScenarioError("background.periods: expected [T1, T2]")
        background_periods = (float(periods_raw[0]), float(periods_raw[1]))
        if not (background_periods[0] > 0 and background_periods[1] > 0):
            raise ScenarioError("background.periods: must be positive")
    else:
        if isinstance(raw.get("background"), Mapping) and "periods" in raw["background"]:
            raise ScenarioError("background.periods: only case2 backgrounds are periodic")
        for i, src in enumerate(background.drift_source + (background.cost_source,)):
            expr = parse_expression(_substitute_control(src, controls[0]))
            bad = expr.free_vars() & {"y1", "y2"}
            if bad:
                raise ScenarioError(
                    f"background: case1/case3 background fields depend only on x1, x2 "
                    f"(found {sorted(bad)} in {src!r})"
                )

    strips: dict[str, FieldPair] = {}
    strip_raw = raw.get("strip_defect")
    if strip_raw is not None:
        if case == "case3":
            if not (isinstance(strip_raw, Mapping) and set(strip_raw) == {"plus", "minus"}):
                raise ScenarioError("strip_defect: case3 takes {'plus': {...}, 'minus': {...}}")
            strips["plus"] = _build_field_pair(strip_raw["plus"], controls, "strip_defect.plus", period_required=True)
            strips["minus"] = _build_field_pair(strip_raw["minus"], controls, "strip_defect.minus", period_required=True)
        else:
            if isinstance(strip_raw, Mapping) and ("plus" in strip_raw or "minus" in strip_raw):
                raise ScenarioError("strip_defect: per-branch blocks are a case3 feature")
            strips["main"] = _build_field_pair(strip_raw, controls, "strip_defect", period_required=True)
    elif case == "case3":
        pass  # no strip defects: both branches fall back to the background

    core = None
    if raw.get("core_defect") is not None:
        core = _build_field_pair(raw["core_defect"], controls, "core_defect")

    sched_raw = raw.get("schedules", {})
    if not isinstance(sched_raw, Mapping):
        raise ScenarioError("schedules: expected an object")
    unknown = set(sched_raw) - {f.name for f in fields(SolverSchedules)}
    if unknown:
        raise ScenarioError(f"schedules: unknown key(s) {sorted(unknown)}")
    for name in ("rho_list", "R_list"):
        if name in sched_raw and not (
            isinstance(sched_raw[name], (list, tuple)) and all(map(_is_number, sched_raw[name]))
        ):
            raise ScenarioError(f"schedules.{name}: expected a list of numbers")
    sched = replace(
        _default_schedules(R0, R1),
        **{
            k: (tuple(float(v) for v in sched_raw[k]) if k in ("rho_list", "R_list") else sched_raw[k])
            for k in sched_raw
        },
    )
    for name, seq in (("rho_list", sched.rho_list), ("R_list", sched.R_list)):
        if len(seq) == 0:
            raise ScenarioError(f"schedules.{name}: must not be empty")
        if any(b <= a for a, b in zip(seq, seq[1:])):
            raise ScenarioError(f"schedules.{name}: must be strictly increasing")
        if seq[0] <= 0:
            raise ScenarioError(f"schedules.{name}: entries must be positive")
    for name in ("lambda0", "tol_ergodic", "cell_h", "grid_h", "box_half_width"):
        if not (_is_number(getattr(sched, name)) and getattr(sched, name) > 0):
            raise ScenarioError(f"schedules.{name}: must be a positive number")
    if not (_is_number(sched.lambda_factor) and 0 < sched.lambda_factor < 1):
        raise ScenarioError("schedules.lambda_factor: must lie in (0, 1)")
    if sched.sl_step != "sqrt" and not (_is_number(sched.sl_step) and sched.sl_step > 0):
        raise ScenarioError("schedules.sl_step: 'sqrt' or a positive time step")
    points = sched.p1_points
    if not (isinstance(points, int) and not isinstance(points, bool) and points >= 2):
        raise ScenarioError("schedules.p1_points: must be an integer of at least 2")

    return Scenario(
        case=case,
        alpha=alpha,
        R0=R0,
        R1=R1,
        controls=controls,
        background=background,
        strips=strips,
        core=core,
        schedules=sched,
        background_periods=background_periods,
        label=label or str(raw.get("label", "scenario")),
    )


def preset_names() -> list[str]:
    """Names of the bundled example scenarios."""
    pkg = resources.files(__package__) / "presets"
    return sorted(p.name[: -len(".json")] for p in pkg.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> Scenario:
    """Load a bundled scenario by name (see :func:`preset_names`)."""
    pkg = resources.files(__package__) / "presets" / f"{name}.json"
    try:
        text = pkg.read_text()
    except FileNotFoundError:
        raise ScenarioError(f"unknown preset {name!r}; available: {preset_names()}") from None
    return parse_scenario(json.loads(text), label=name)


@dataclass(frozen=True, slots=True)
class ValidationEntry:
    name: str
    passed: bool
    detail: str
    value: float = math.nan


@dataclass(frozen=True, slots=True)
class ValidationReport:
    entries: tuple[ValidationEntry, ...]
    estimates: Mapping[str, float]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[ValidationEntry]:
        return [e for e in self.entries if not e.passed]

    def lines(self) -> list[str]:
        out = []
        for e in self.entries:
            status = "ok  " if e.passed else "FAIL"
            out.append(f"[{status}] {e.name}: {e.detail}")
        return out


def validate_assumptions(scenario: Scenario) -> ValidationReport:
    """Sample the structural assumptions behind the scenario's case.

    Estimates the drift/cost bounds and the control-hull inradius, and checks
    the seams between region blocks (strip <-> core <-> background, each to
    a field gap of 1e-8) plus strip periodicity.  Findings are report
    entries, not exceptions; the sampling is seeded, so the report is
    deterministic.
    """
    from . import hamiltonian  # local import: hamiltonian depends on this module

    return hamiltonian.run_assumption_checks(scenario)
