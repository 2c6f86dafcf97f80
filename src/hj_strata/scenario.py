"""Scenario configuration: schema parsing and defaults.

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
over ``x1, x2, y1, y2`` and the control components, written ``{a1}`` and
``{a2}``: the variables ``a1, a2`` of the expression language.  Each source
is parsed once; evaluation runs it once over the whole control set.  Blocks
must agree where their regions meet, and a strip block must equal the
background off its band; :func:`hj_strata.hamiltonian.validate_assumptions`
samples those seams and the structural bounds and reports findings instead
of raising.
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
    "parse_scenario",
    "load_preset",
    "preset_names",
]

CASES = ("case1", "case2", "case3")


class ScenarioError(ValueError):
    """Scenario schema violation; the message names the offending clause."""


@dataclass(frozen=True, slots=True)
class FieldPair:
    """Drift/cost expressions of one region block over ``x1, x2, y1, y2``
    and the control variables ``a1, a2``.

    ``drift`` is one expression pair and ``cost`` one expression; evaluation
    runs each once, with ``a1, a2`` taken from ``controls`` (the scenario's
    control set) along a leading control axis.  ``period`` is the y1-period
    for strip blocks (None elsewhere).
    """

    drift_source: tuple[str, str]
    cost_source: str
    drift: tuple[ScalarExpr, ScalarExpr]
    cost: ScalarExpr
    controls: tuple[tuple[float, float], ...]
    period: float | None = None

    def _env(self, x1, x2, y1, y2) -> tuple[dict[str, np.ndarray], tuple[int, ...]]:
        """Evaluation variables and the output shape ``(n_controls, *broadcast_shape)``."""
        env = {k: np.asarray(v, dtype=float) for k, v in dict(x1=x1, x2=x2, y1=y1, y2=y2).items()}
        shape = np.broadcast_shapes(*(v.shape for v in env.values()))
        env["a1"], env["a2"] = np.array(self.controls).T.reshape(2, -1, *(1,) * len(shape))
        return env, (len(self.controls), *shape)

    def eval_drift(self, x1, x2, y1, y2) -> np.ndarray:
        """Drift values, shape ``(n_controls, *broadcast_shape, 2)``."""
        env, shape = self._env(x1, x2, y1, y2)
        out = np.empty((*shape, 2))
        out[..., 0] = self.drift[0](**env)
        out[..., 1] = self.drift[1](**env)
        return out

    def eval_cost(self, x1, x2, y1, y2) -> np.ndarray:
        """Cost values, shape ``(n_controls, *broadcast_shape)``."""
        env, shape = self._env(x1, x2, y1, y2)
        out = np.empty(shape)
        out[...] = self.cost(**env)
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
    extra_keys: tuple[str, ...] = (),
) -> FieldPair:
    """The block ``where``: ``drift``, ``cost`` and, on strip blocks, a
    ``period``; ``extra_keys`` are read by the caller and any other key is
    refused."""
    if not isinstance(block, Mapping):
        raise ScenarioError(f"{where}: expected an object with 'drift' and 'cost'")
    unknown = set(block) - {"drift", "cost", "period", *extra_keys}
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {sorted(unknown)}")
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
        period = _positive(period, f"{where}.period")
    elif period is not None:
        raise ScenarioError(f"{where}.period: only strip blocks carry a period")

    drift_source, cost_source = (str(drift_src[0]), str(drift_src[1])), str(cost_src)
    try:
        d1, d2, cost = map(parse_expression, (*drift_source, cost_source))
    except ExpressionError as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    return FieldPair(
        drift_source=drift_source,
        cost_source=cost_source,
        drift=(d1, d2),
        cost=cost,
        controls=controls,
        period=period,
    )


@dataclass(frozen=True, slots=True)
class SolverSchedules:
    """Numerical schedules shared by the cell-problem and grid solvers.

    ``sl_step`` is the semi-Lagrangian time step: a positive number applies
    as given everywhere; ``"sqrt"`` means ``sqrt(h)`` in the cell problems,
    where it balances the step and interpolation errors of the constants,
    and ``h`` in the limit scheme, where the step ``sqrt(h)`` leaves an
    error off the defect line that does not shrink with ``h``.

    Every construction is validated, :func:`parse_scenario`'s and
    :meth:`Scenario.with_schedules`'s alike: a value no solver can run with
    raises :class:`ScenarioError` naming its ``schedules.<field>`` clause.
    The truncation lists are stored as tuples of floats, whatever sequence
    of numbers they were given as.  They have no default;
    :func:`parse_scenario` scales them to the scenario's radii.
    """

    rho_list: tuple[float, ...]
    R_list: tuple[float, ...]
    lambda0: float = 0.5
    lambda_factor: float = 0.5
    tol_ergodic: float = 1e-4
    cell_h: float = 1.0 / 16.0
    grid_h: float = 1.0 / 16.0
    box_half_width: float = 2.0
    sl_step: str | float = "sqrt"
    p1_points: int = 21

    def __post_init__(self):
        for name in ("rho_list", "R_list"):
            seq = getattr(self, name)
            if not (isinstance(seq, (list, tuple)) and all(map(_is_number, seq))):
                raise ScenarioError(f"schedules.{name}: expected a list of numbers")
            seq = tuple(float(v) for v in seq)
            object.__setattr__(self, name, seq)
            if len(seq) == 0:
                raise ScenarioError(f"schedules.{name}: must not be empty")
            if any(b <= a for a, b in zip(seq, seq[1:])):
                raise ScenarioError(f"schedules.{name}: must be strictly increasing")
            if seq[0] <= 0:
                raise ScenarioError(f"schedules.{name}: entries must be positive")
        for name in ("lambda0", "tol_ergodic", "cell_h", "grid_h", "box_half_width"):
            if not (_is_number(getattr(self, name)) and getattr(self, name) > 0):
                raise ScenarioError(f"schedules.{name}: must be a positive number")
        if not (_is_number(self.lambda_factor) and 0 < self.lambda_factor < 1):
            raise ScenarioError("schedules.lambda_factor: must lie in (0, 1)")
        if self.sl_step != "sqrt" and not (_is_number(self.sl_step) and self.sl_step > 0):
            raise ScenarioError("schedules.sl_step: 'sqrt' or a positive time step")
        points = self.p1_points
        if not (isinstance(points, int) and not isinstance(points, bool) and points >= 2):
            raise ScenarioError("schedules.p1_points: must be an integer of at least 2")

    def delta(self, h: float) -> float:
        """Semi-Lagrangian time step of a cell problem with grid spacing ``h``."""
        if self.sl_step == "sqrt":
            return math.sqrt(h)
        return float(self.sl_step)

    def limit_delta(self, h: float) -> float:
        """Semi-Lagrangian time step of the limit scheme with grid spacing ``h``."""
        if self.sl_step == "sqrt":
            return h
        return float(self.sl_step)


def _default_schedules(R0: float, R1: float) -> SolverSchedules:
    return SolverSchedules(
        rho_list=(2.0 * R0, 4.0 * R0, 8.0 * R0),
        R_list=(2.0 * R1, 4.0 * R1, 8.0 * R1),
    )


@dataclass(frozen=True, slots=True)
class Scenario:
    """A parsed, validated scenario."""

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

    def with_schedules(self, **changes: Any) -> "Scenario":
        """This scenario with the named :class:`SolverSchedules` fields
        replaced; the new schedules are validated as parsed ones are, so an
        invalid value raises :class:`ScenarioError` here, before any solve."""
        return replace(self, schedules=replace(self.schedules, **changes))

    @property
    def branches(self) -> dict[str, int]:
        """Defect half-lines by name, each with the side of the origin it lies
        on: -1 for ``y1 < 0``, +1 for ``y1 > 0``.  Case3 lists ``plus`` first.
        """
        return {"plus": +1, "minus": -1} if self.case == "case3" else {"main": -1}

    @property
    def band_start(self) -> float:
        """Distance from the origin to each branch's mouth ``side*y1 =
        band_start``: R0 in case3, where the core disc separates the two
        branches, and 0 otherwise, where the band reaches the origin."""
        return self.R0 if self.case == "case3" else 0.0

    def regions(self, y1, y2, slack: float = 0.0) -> dict[str, np.ndarray]:
        """One mask per region, partitioning the fast points ``(y1, y2)``.

        Each branch owns the closed half-strip ``side*y1 >= band_start``,
        ``|y2| <= R0 + slack`` around its half-line.  ``"core"`` is the rest
        of the disc ``|y| <= R1`` and ``"background"`` everything else.

        Field evaluation reads these masks, and so do the assumption checks
        of :func:`hj_strata.hamiltonian.validate_assumptions`: they compare each branch's block with
        the region these masks give just outside its mouth and edges.
        """
        y1 = np.asarray(y1, dtype=float)
        y2 = np.asarray(y2, dtype=float)
        band = np.abs(y2) <= self.R0 + slack
        masks = {b: band & (side * y1 >= self.band_start) for b, side in self.branches.items()}
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
            if not (isinstance(item, (list, tuple)) and len(item) == 2 and all(map(_is_number, item))):
                raise ScenarioError("controls: explicit control list entries must be [a1, a2] pairs of numbers")
            controls.append((float(item[0]), float(item[1])))
        if not controls:
            raise ScenarioError("controls: control set must be non-empty")
        return tuple(controls)
    if isinstance(spec, Mapping):
        unknown = set(spec) - {"directions", "speed", "include_zero"}
        if unknown:
            raise ScenarioError(f"controls: unknown key(s) {sorted(unknown)}")
        n = spec.get("directions")
        if not (isinstance(n, int) and not isinstance(n, bool) and n >= 3):
            raise ScenarioError(f"controls: generator form needs a 'directions' count of at least 3, got {n!r}")
        speed = _positive(spec.get("speed", 1.0), "controls.speed")
        include_zero = spec.get("include_zero", True)
        if not isinstance(include_zero, bool):
            raise ScenarioError(f"controls.include_zero: expected true or false, got {include_zero!r}")
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


def _positive(value: Any, clause: str) -> float:
    """``value`` as a float if it is a positive number, else a ScenarioError naming ``clause``."""
    if not (_is_number(value) and value > 0):
        raise ScenarioError(f"{clause}: must be positive, got {value!r}")
    return float(value)


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
        alpha = _positive(raw["alpha"], "alpha")
        R0 = _positive(raw["R0"], "R0")
    except KeyError as exc:
        raise ScenarioError(f"scenario: missing required key {exc.args[0]!r}") from None

    if case == "case3":
        if "R1" not in raw:
            raise ScenarioError("R1: required for case3")
        R1 = _positive(raw["R1"], "R1")
        if not R1 > math.sqrt(2.0) * R0:
            raise ScenarioError("R1: case3 requires R1 > sqrt(2)*R0")
    else:
        if "R1" in raw and not (_is_number(raw["R1"]) and math.isclose(raw["R1"], R0)):
            raise ScenarioError("R1: only case3 scenarios take a separate R1 (case1/case2 use R0)")
        R1 = R0

    controls = _generate_controls(raw.get("controls", {"directions": 16}))

    if "background" not in raw:
        raise ScenarioError("background: required")
    background = _build_field_pair(raw["background"], controls, "background", extra_keys=("periods",))

    background_periods: tuple[float, float] | None = None
    if case == "case2":
        periods_raw = raw["background"].get("periods", [1.0, 1.0])
        if not (isinstance(periods_raw, (list, tuple)) and len(periods_raw) == 2):
            raise ScenarioError("background.periods: expected [T1, T2]")
        background_periods = tuple(_positive(t, "background.periods") for t in periods_raw)
    else:
        if isinstance(raw.get("background"), Mapping) and "periods" in raw["background"]:
            raise ScenarioError("background.periods: only case2 backgrounds are periodic")
        sources = background.drift_source + (background.cost_source,)
        for src, expr in zip(sources, background.drift + (background.cost,)):
            bad = expr.variables & {"y1", "y2"}
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

    core = None
    if raw.get("core_defect") is not None:
        core = _build_field_pair(raw["core_defect"], controls, "core_defect")

    sched_raw = raw.get("schedules", {})
    if not isinstance(sched_raw, Mapping):
        raise ScenarioError("schedules: expected an object")
    unknown = set(sched_raw) - {f.name for f in fields(SolverSchedules)}
    if unknown:
        raise ScenarioError(f"schedules: unknown key(s) {sorted(unknown)}")
    sched = replace(_default_schedules(R0, R1), **sched_raw)

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
