"""Piecewise subsolution builders around the defect at a frozen slow point.

The comparison arguments for the stratified limit lean on explicit Lipschitz
subsolutions of ``H(0, y, Du) <= level`` that agree with a plane wave far from
the defect.  Each one is a pointwise minimum of a few pieces: affine plane
waves, shifted tangential strip correctors, and the truncated origin
corrector.  Which pieces enter, and at which momenta, depends on which of the
three effective levels dominates at the target covector:

* ``"plane"``  -- the ambient effective value H̄(0, p) is strictly largest;
* ``"line"``   -- a tangential value H̄₁,T(0, p₁) is largest (or ties the
  ambient value above the origin datum);
* ``"origin"`` -- the origin datum E dominates; the construction certifies
  the slightly lifted level E + η.

``build_subcorrector`` assembles the pieces for a regime and fits the
separating constants by scanning samples.  The origin piece is confined to a
glued disc: its *territory* is the set of nodes where the outer pieces'
running minimum is untrusted (selected off its analytic region with a
measured residual above the safety margin), plus, in the origin regime, the
disc ``|y| <= R0/2``.  The offset ``C`` drops it below every rival on the
territory, and the piece is admissible only out to the first *rim* beyond the
territory where it sits on or above the rivals at every ring node, so the
cut opens no jump; ``split_radius`` reports that rim.  With an empty
territory the piece is left out.  If no rim inside the window glues, the
piece stays unconfined -- a subsolution at the origin corrector's constant,
below the certified level, wherever its truncation reaches -- with ``C``
fitted over the disc of radius ``max(R1, territory) + h`` that holds the
territory, and the spec's notes say so.

Every level measurement reads one test of ``H(0, y, Dχ) <= level``: the
one-step dynamic-programming reading ``(v(y) - min_a [δ ℓ(y, a) + v(y + δ
f(y, a))]) / δ - level``, with ``v`` evaluated exactly at every foot.
``_territory`` and ``subsolution_residual`` apply it to the active piece at
each node (``_piece_residual``); ``bellman_certificate`` applies it to the
composed minimum, the only reading that sees a jump at the origin piece's
rim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .cell import (
    _X0,
    BracketError,
    ErgodicEstimate,
    EffectiveTables,
    ball_ergodic,
    slopes,
    strip_ergodic,
    torus_effective,
)
from .grids import _BLOCK, GridSpec, ValueField
from .hamiltonian import _frozen_background, eval_fields
from .scenario import Scenario

__all__ = [
    "BracketError",
    "CorrectorSet",
    "Piece",
    "RegimeError",
    "SubcorrectorSpec",
    "bellman_certificate",
    "build_corrector_set",
    "build_subcorrector",
    "majorant_gap",
    "select_regime",
    "subsolution_residual",
]

_EDGE_FRACTION = 0.75   # the split radius must fit inside this fraction of the box
_RIM_CELLS = 3          # width of the gluing ring, in grid spacings
# Origin regime: the origin piece owns |y| <= this * R0.  The paper does not
# fix the size, and the certificate does not pick it: scanning the disc from
# 3h to 10h (h = 1/32), bellman_certificate reads 6.6e-5 at every radius on
# strip_attract and 6.0e-4 on checkerboard.
_CORE_FRACTION = 0.5
_TIE_SLACK = 1e-9
# Largest measured level residual that lets a piece be selected off its
# analytic home region (see _territory).
_SAFETY_MARGIN = 5e-3


class RegimeError(ValueError):
    """The requested construction contradicts the measured level ordering."""


# ---------------------------------------------------------------------------
# level queries and momentum roots
# ---------------------------------------------------------------------------


def plane_level(scn: Scenario, tables: EffectiveTables, p) -> float:
    """Ambient effective value H̄(0, p) at the frozen slow point."""
    p = np.asarray(p, dtype=float)
    if scn.case == "case2":
        return float(tables.hbar_at(p))
    drift, cost = _frozen_background(scn, _X0)
    return float(np.max(-(drift @ p) - cost))


def _vertical_roots(scn: Scenario, tables: EffectiveTables, p1: float, level: float) -> tuple[float, float]:
    """Both roots q₂ of H̄(0, (p₁, q₂)) = level, bracketing the sublevel set."""
    if scn.case != "case2":
        return slopes(scn, p1, level)
    return tables.section_roots(p1, level)


def _polish_vertical_root(
    scn: Scenario,
    tables: EffectiveTables,
    correctors: CorrectorSet,
    p1: float,
    q0: float,
    level: float,
    notes: list,
    what: str,
) -> float:
    """Refine a periodic-background vertical root against solved constants.

    The ambient table is interpolated on a coarse momentum grid, so its roots
    can miss the solved level by the interpolation error -- and an affine
    piece pinned at such a root then runs above the level it claims.  Secant
    iteration on solved cell constants (cached on the corrector set, where
    the piece needs the corrector anyway) pins the root to solver accuracy.
    Convexity of the effective Hamiltonian keeps each flank monotone, so the
    secant is well behaved; if it still fails to settle, the best iterate is
    kept and noted.
    """
    if scn.case != "case2":
        return q0
    target = max(2.0 * correctors.tol, 1e-6)
    q_grid = np.asarray(tables.p_grid, dtype=float)
    e = max(q_grid[1] - q_grid[0], 1e-3)
    qa, qb = np.clip([q0 - e, q0 + e], q_grid[0], q_grid[-1])
    slope = (float(tables.hbar_at((p1, qb))) - float(tables.hbar_at((p1, qa)))) / (qb - qa)
    q_prev, f_prev = None, None
    q, best_q, best_f = float(q0), float(q0), math.inf
    for _ in range(6):
        f = float(correctors.plane_estimate((p1, q)).constant) - level
        if abs(f) < abs(best_f):
            best_q, best_f = q, f
        if abs(f) <= target:
            return q
        if q_prev is not None and abs(f - f_prev) > 1e-14:
            slope = (f - f_prev) / (q - q_prev)
        if abs(slope) < 1e-9:
            break
        q_prev, f_prev = q, f
        q = q - f / slope
    notes.append(
        f"{what}: solved-root polish stalled at offset {best_f:+.2e} "
        f"(momentum {best_q:.6g})"
    )
    return best_q


# ---------------------------------------------------------------------------
# pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Piece:
    """One branch of the piecewise minimum.

    ``values`` is the smooth extension ``slope . y + field(y) - offset``;
    ``admissible`` marks where the piece may be selected: the half-plane
    restriction, the disc ``|y| <= radius`` (finite only for a glued origin
    piece) and the sampled field's coverage.  ``shares_c`` tags the strip
    pieces whose common offset is the fitted constant ``c``.
    """

    label: str
    kind: str                      # "affine" | "plane" | "strip" | "ball"
    slope: tuple[float, float]
    branch: str | None = None
    offset: float = 0.0
    field: ValueField | None = None
    halfplane: int = 0             # 0 both, -1 only y1 <= 0, +1 only y1 >= 0
    shares_c: bool = False
    radius: float = math.inf       # admissible only on the disc |y| <= radius

    def values(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        out = pts[:, 0] * self.slope[0] + pts[:, 1] * self.slope[1] - self.offset
        if self.field is not None:
            out = out + self.field(pts)
        return out

    def admissible(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        ok = np.ones(len(pts), dtype=bool)
        if self.halfplane < 0:
            ok &= pts[:, 0] <= _TIE_SLACK
        elif self.halfplane > 0:
            ok &= pts[:, 0] >= -_TIE_SLACK
        if math.isfinite(self.radius):
            ok &= np.hypot(pts[:, 0], pts[:, 1]) <= self.radius + _TIE_SLACK
        if self.field is not None:
            ok &= self.field.grid.contains(pts)
        return ok

    def masked(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        ok = self.admissible(pts)
        if ok.all():
            return self.values(pts)
        out = np.full(len(pts), np.inf)
        if ok.any():
            out[ok] = self.values(pts[ok])
        return out


def _piece_matrix(pieces, pts) -> np.ndarray:
    return np.stack([piece.masked(pts) for piece in pieces])


@dataclass(frozen=True, slots=True)
class SubcorrectorSpec:
    """A fitted piecewise subsolution: pieces, offsets, and the region split.

    ``C`` is the origin piece's offset (NaN when the piece was left out).
    ``split_radius`` is the radius out to which the minimum uses the origin
    piece: its gluing rim when confined, the largest radius at which it is
    selected on the fitting window when left unconfined (the notes say so),
    and 0 when there is no origin piece.
    """

    target: tuple[float, float]
    regime: str
    level: float
    eta: float
    q_values: Mapping[str, float]
    c: float
    C: float
    split_radius: float
    pieces: tuple[Piece, ...]
    notes: tuple[str, ...] = ()

    def values(self, pts: np.ndarray) -> np.ndarray:
        """The composed minimum at the sample points."""
        return np.min(_piece_matrix(self.pieces, pts), axis=0)

    def active(self, pts: np.ndarray) -> np.ndarray:
        """Index of the selected piece at each sample point."""
        return np.argmin(_piece_matrix(self.pieces, pts), axis=0)

    def target_values(self, pts: np.ndarray) -> np.ndarray:
        """The plane-wave majorant the minimum must stay below."""
        for piece in self.pieces:
            if piece.label == "target":
                return piece.values(pts)
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        return pts @ np.asarray(self.target)


# ---------------------------------------------------------------------------
# corrector cache
# ---------------------------------------------------------------------------


@dataclass
class CorrectorSet:
    """Sampled correctors shared by the subsolution builders.

    Holds the truncated origin corrector ``w`` (solved once, on a box that
    pads the certification window so its constrained boundary stays outside)
    and lazily solved strip correctors keyed by (branch, momentum).  For
    periodic backgrounds it also caches torus correctors so plane waves can
    carry their periodic correction.  ``scenario`` is the caller's scenario;
    every corrector solves on ``cell_scenario``, the same scenario at the
    corrector resolution ``h``, ``tol`` and ``delta``.
    """

    scenario: Scenario
    cell_scenario: Scenario
    half_width: float
    coverage: float
    h: float
    tol: float
    delta: float
    w_field: ValueField
    notes: tuple[str, ...] = ()
    _strips: dict = field(default_factory=dict, repr=False)
    _plane: dict = field(default_factory=dict, repr=False)

    def strip_corrector(self, momentum: float, branch: str = "main") -> ValueField:
        key = (branch, round(float(momentum), 12))
        if key not in self._strips:
            self._strips[key] = _converged(
                strip_ergodic(self.cell_scenario, float(momentum), branch=branch, rho=self.coverage),
                f"strip corrector at momentum {momentum:.6g} ({branch})",
            )
        return self._strips[key].corrector

    def plane_estimate(self, q) -> ErgodicEstimate:
        """Solved periodic cell estimate at momentum ``q`` (case2 only)."""
        key = (round(float(q[0]), 12), round(float(q[1]), 12))
        if key not in self._plane:
            self._plane[key] = _converged(
                torus_effective(self.cell_scenario, (float(q[0]), float(q[1]))),
                f"torus corrector at momentum {key}",
            )
        return self._plane[key]


def _converged(estimates: tuple[ErgodicEstimate, ...], what: str) -> ErgodicEstimate:
    """The one estimate of a corrector solve; raises ``RuntimeError`` naming
    ``what`` when it did not converge."""
    (est,) = estimates
    if not est.converged:
        raise RuntimeError(f"{what} did not converge")
    return est


def build_corrector_set(
    scn: Scenario,
    *,
    h: float | None = None,
    tol: float | None = None,
) -> CorrectorSet:
    """Solve the shared correctors for subsolution assembly.

    The certification window the fitted constants must cover has half-width
    ``4 * R1``, rounded up to the grid; sampled fields are solved on a padded
    domain so their state-constrained boundaries sit outside it.  Every
    corrector solves at grid spacing ``h`` and tolerance ``tol`` (defaults:
    the scheduled ``cell_h`` and ``tol_ergodic``).

    Unlike the table solves, these fields are read node by node by the
    one-step level checks, so the time step is the linear one, ``delta = h``:
    the scheduled ``sqrt(h)`` step converges to the right constants but leaves
    O(sqrt(h)) slope errors wherever the running cost varies, which a reading
    at step ``h`` then reports as a (spurious) level violation.  At ``delta =
    h`` a solved piece read on its own grid meets its discrete fixed-point
    identity, so the reading there is the solver residual.
    """
    sched = scn.schedules
    h = sched.cell_h if h is None else float(h)
    tol = sched.tol_ergodic if tol is None else float(tol)
    cell_scn = scn.with_schedules(cell_h=h, sl_step=h, tol_ergodic=tol)
    half_width = math.ceil(4.0 * scn.R1 / h) * h
    pad = max(0.5, 8.0 * h)
    coverage = math.ceil((half_width + pad) / h) * h
    est = _converged(ball_ergodic(cell_scn, coverage), f"origin corrector at truncation {coverage:g}")
    return CorrectorSet(
        scenario=scn,
        cell_scenario=cell_scn,
        half_width=float(half_width),
        coverage=float(coverage),
        h=h,
        tol=tol,
        delta=est.delta,
        w_field=est.corrector,
        notes=(f"origin corrector truncation {coverage:g}, constant {est.constant:.6g}",),
    )


# ---------------------------------------------------------------------------
# regime selection
# ---------------------------------------------------------------------------


def _tie(tables: EffectiveTables) -> float:
    """Two effective levels closer than this count as tied: the solver
    tolerance the tables were built at, and at least ``_TIE_SLACK``.
    Orderings tighter than that are not resolved by the data."""
    return max(_TIE_SLACK, float(tables.provenance.get("tol_ergodic", 0.0)))


def select_regime(scn: Scenario, tables: EffectiveTables, p) -> str:
    """Dominant level at the covector: ``"plane"``, ``"line"``, or ``"origin"``.

    Ties follow the constructions' reach: the origin datum wins its ties (the
    lifted level E + η covers equalities) and the tangential level wins a tie
    with the ambient one.  This is the one reading of the plane and line
    orderings: :func:`build_subcorrector` builds those regimes only where the
    selector picks them.  The origin builder guards the lifted level E + η,
    which the selector does not read; an origin regime it picks passes that
    guard whenever η exceeds three ties.
    """
    tie = _tie(tables)
    p = np.asarray(p, dtype=float)
    plane = plane_level(scn, tables, p)
    line = max(_line_levels(scn, tables, p[0]).values())
    if plane > max(line, tables.E) + tie:
        return "plane"
    if line > tables.E + tie:
        return "line"
    return "origin"


# ---------------------------------------------------------------------------
# fitting machinery
# ---------------------------------------------------------------------------


def _local_lipschitz(values: np.ndarray, grid: GridSpec, mask: np.ndarray) -> float:
    v = values.reshape(grid.n1, grid.n2)
    g1, g2 = np.gradient(v, grid.h1, grid.h2)
    slope = np.hypot(g1, g2).reshape(-1)
    return float(np.max(slope[mask])) if mask.any() else 0.0


def _margined_max(diff: np.ndarray, grid: GridSpec, mask: np.ndarray) -> float:
    """Max of ``diff`` over ``mask`` plus a Lipschitz margin of two cells,
    so the bound also holds between the sample nodes."""
    margin = 2.0 * max(grid.h1, grid.h2) * _local_lipschitz(diff, grid, mask)
    return float(np.max(np.where(mask, diff, -np.inf))) + margin + 1e-12


def _fit_max(diff: np.ndarray, grid: GridSpec, mask: np.ndarray, what: str) -> float:
    """Max of a sampled difference over a region, plus a Lipschitz margin.

    Rejects fits whose maximum sits strictly on the sampling-box edge and
    above every interior value: there the sample cannot certify the unbounded
    region beyond the box.  (Periodic ties between edge and interior pass.)
    """
    if not mask.any():
        raise ValueError(f"{what}: the fitting region misses every sample node")
    vals = np.where(mask, diff, -np.inf)
    pts = grid.nodes()
    L1 = grid.origin[0] + (grid.n1 - 1) * grid.h1
    L0 = grid.origin[0]
    on_edge = (pts[:, 0] >= L1 - 0.5 * grid.h1) | (pts[:, 0] <= L0 + 0.5 * grid.h1)
    interior_max = float(np.max(np.where(on_edge, -np.inf, vals)))
    edge_max = float(np.max(np.where(on_edge, vals, -np.inf)))
    if edge_max > interior_max + 1e-9:
        k = int(np.argmax(np.where(on_edge, vals, -np.inf)))
        raise ValueError(
            f"{what}: the fitted maximum sits on the sampling-box edge at "
            f"y=({pts[k, 0]:.3g}, {pts[k, 1]:.3g}), so the window cannot certify beyond it"
        )
    return _margined_max(diff, grid, mask)


def _piece_safety(scn: Scenario, pieces, pts: np.ndarray) -> np.ndarray:
    """Where each outer piece's own Hamiltonian agrees with the true one, by
    the regions of :meth:`Scenario.regions`.

    The pieces are plane waves and strips (the origin corrector solves the
    true equation inside its truncation).  A strip piece is trusted on its
    own branch region and on the background nodes at ``|y2| >= R0``, where
    its fields meet the background's.  A plane wave is trusted on the
    background and on the branches' band edge ``|y2| = R0`` outside the open
    core disc, where the strip fields meet the background's.
    """
    y1, y2 = pts[:, 0], pts[:, 1]
    masks = scn.regions(y1, y2)
    bg = masks["background"]
    edge = np.abs(y2) >= scn.R0 - 1e-9
    safe = np.zeros((len(pieces), len(pts)), dtype=bool)
    for k, piece in enumerate(pieces):
        if piece.kind in ("affine", "plane"):
            safe[k] = bg | (edge & ~masks["core"] & (y1 * y1 + y2 * y2 >= scn.R1 * scn.R1))
        else:
            safe[k] = masks[piece.branch] | (bg & edge)
    return safe


def _shared_offset(scn: Scenario, pieces, grid: GridSpec, pts: np.ndarray) -> float:
    """Common offset pushing each tagged strip below the unshifted pieces on
    its own branch region, widened by 1e-9 to keep the band-edge nodes."""
    bands = scn.regions(pts[:, 0], pts[:, 1], slack=1e-9)
    if len(scn.branches) == 1:
        # The case1/case2 core sits at the end of the band, so its strip fits there too.
        bands["main"] |= bands["core"]
    reference = [p for p in pieces if p.kind != "ball" and not p.shares_c]
    ref_vals = np.min(_piece_matrix(reference, pts), axis=0)
    fit = 0.0
    for piece in pieces:
        if not piece.shares_c:
            continue
        mask = bands[piece.branch] & piece.admissible(pts) & np.isfinite(ref_vals)
        diff = piece.values(pts) - ref_vals
        fit = max(fit, _fit_max(diff, grid, mask, f"offset fit for {piece.label}"))
    return fit


def _one_step(values, pts: np.ndarray, feet: np.ndarray, step_cost: np.ndarray, step: float) -> np.ndarray:
    """One-step dynamic-programming reading ``(v(y) - min_a [δ ℓ(y, a) + v(y +
    δ f(y, a))]) / δ`` of ``v = values`` at each node, from :func:`_feet`.

    ``v`` is evaluated exactly at every foot, not interpolated from its node
    values, so a concave seam of a composed minimum is not undercut between
    nodes, and no derivative is taken, so a kink reads like any other point.
    The nodes are read in blocks of at most ``_BLOCK`` points, nodes and feet
    together; each node's reading is its own, the same bits in a block as
    alone.
    """
    reading = np.empty(len(pts))
    nodes = max(1, _BLOCK // (1 + len(feet)))
    for lo in range(0, len(pts), nodes):
        block = slice(lo, lo + nodes)
        n = len(pts[block])
        at = values(np.concatenate([pts[block], feet[:, block].reshape(-1, 2)]))
        reading[block] = (at[:n] - np.min(step_cost[:, block] + at[n:].reshape(-1, n), axis=0)) / step
    return reading


def _feet(scn: Scenario, pts: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Feet ``y + δ f(y, a)``, shape (controls, n, 2), and step costs ``δ ℓ(y, a)``
    under the true fields at the frozen slow point."""
    drift, cost = eval_fields(scn, _X0, pts)
    return pts + step * drift, step * cost


def _check_coverage(pieces, *point_sets: np.ndarray) -> None:
    for piece in pieces:
        if piece.field is not None and not all(piece.field.grid.contains(p).all() for p in point_sets):
            raise ValueError(
                f"sample nodes (with their one-step feet) leave the coverage of "
                f"piece {piece.label!r}; shrink the grid"
            )


def _piece_residual(
    scn: Scenario, pieces, active: np.ndarray, pts: np.ndarray, step: float, level: float
) -> np.ndarray:
    """Per-node level residual of the piece ``active`` selects at each node:
    the one-step reading of its own smooth extension, which both
    :func:`_territory` and :func:`subsolution_residual` read.  So the seams of
    the composed minimum stay out of it, and so does a jump at a piece's
    admissibility rim; only :func:`bellman_certificate` sees those.
    """
    feet, step_cost = _feet(scn, pts, step)
    _check_coverage(pieces, pts, feet)
    residual = np.empty(len(pts))
    for k, piece in enumerate(pieces):
        sel = active == k
        if sel.any():
            residual[sel] = _one_step(piece.values, pts[sel], feet[:, sel], step_cost[:, sel], step)
    return residual - level


def _territory(
    scn: Scenario,
    outer,
    outer_vals: np.ndarray,
    grid: GridSpec,
    pts: np.ndarray,
    level: float,
    notes: list,
) -> np.ndarray:
    """Nodes where the outer minimum's selection is untrusted: the territory
    the origin piece has to cover.

    A selected outer piece counts as trustworthy where the true fields
    coincide with the ones it was solved against (:func:`_piece_safety`: a
    strip piece on its branch region and the background beyond the band, a
    plane wave on the background and the band edge off the core disc), or
    where its own measured level residual stays within ``_SAFETY_MARGIN`` (a
    piece that is locally a subsolution is a legitimate selection even off
    its home region).  The test runs at every node, the core included.
    Residuals are measured once per build, and only for the selected piece at
    the nodes the analytic split leaves unsettled.
    """
    active = np.argmin(outer_vals, axis=0)
    rows = np.arange(len(pts))
    trusted = _piece_safety(scn, outer, pts)[active, rows]
    unsettled = ~trusted
    loose = np.zeros(len(pts), dtype=bool)
    measured = _piece_residual(
        scn, outer, active[unsettled], pts[unsettled], min(grid.h1, grid.h2), level
    )
    loose[unsettled] = measured <= _SAFETY_MARGIN
    if loose.any():
        worst = [outer[k].label for k in sorted(set(active[loose]))]
        notes.append(
            "selection leans on measured piece residuals off the analytic "
            f"regions for: {', '.join(worst)}"
        )
    return ~(trusted | loose)


def _split_radius(
    glue: np.ndarray, territory: np.ndarray, radii: np.ndarray, grid: GridSpec, cap: float
) -> float | None:
    """Smallest rim radius at which the shifted origin piece glues to its rivals.

    ``glue`` is ``(w - C) - rivals`` per node.  The rim at radius ``rho`` is
    the ring of nodes ``rho - _RIM_CELLS*h < |y| <= rho``; it glues when the
    origin piece sits on or above the rivals at every ring node, so cutting
    the piece off beyond ``rho`` leaves the minimum unchanged on the ring and
    opens no jump (the ring is wider than the reach of a dynamic-programming
    step).  The ring must clear the territory and fit inside ``cap``;
    ``None`` means no rim inside the window glues.
    """
    h = max(grid.h1, grid.h2)
    width = _RIM_CELLS * h
    r_in = float(np.max(radii[territory]))
    k = math.floor((r_in + width) / h) + 1
    while k * h <= cap + 1e-12:
        rho = k * h
        ring = (radii > rho - width + 1e-9) & (radii <= rho + 1e-9)
        if ring.any() and float(np.min(glue[ring])) >= 0.0:
            return rho
        k += 1
    return None


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _affine_piece(label, q, correctors: CorrectorSet) -> Piece:
    """The plane wave ⟨q, y⟩, with its periodic correction in case2."""
    q = (float(q[0]), float(q[1]))
    if correctors.scenario.case != "case2":
        return Piece(label=label, kind="affine", slope=q)
    return Piece(label=label, kind="plane", slope=q, field=correctors.plane_estimate(q).corrector)


def _strip_piece(
    label, momentum, correctors: CorrectorSet, *, branch: str = "main",
    shares_c: bool = True, halfplane: int = 0,
) -> Piece:
    fld = correctors.strip_corrector(momentum, branch)
    return Piece(
        label=label, kind="strip", slope=(float(momentum), 0.0), branch=branch,
        field=fld, halfplane=halfplane, shares_c=shares_c,
    )


@dataclass
class _Draft:
    level: float
    eta: float
    q_values: dict
    pieces: list
    notes: list


def _tagged(base: str, branch: str, sep: str) -> str:
    """Name of a per-branch entry: ``base`` alone for the single branch of
    case1/case2, ``base<sep><branch>`` in case3."""
    return base if branch == "main" else f"{base}{sep}{branch}"


def _facing_flank(side: int) -> str:
    """Table flank whose roots face the origin from a half-line on ``side``:
    ``"right"`` for a left half-line, ``"left"`` for a right one."""
    return "right" if side < 0 else "left"


def _line_levels(scn: Scenario, tables: EffectiveTables, p1: float) -> dict[str, float]:
    return {b: float(tables.h1t_at(p1, b)) for b in scn.branches}


def _facing_roots(scn: Scenario, tables: EffectiveTables, level: float) -> dict[str, float]:
    """Each branch's tangential root of ``level`` on the flank facing the
    origin, minus before plus."""
    return {
        b: tables.tangential_root(b, level, _facing_flank(side))
        for b, side in sorted(scn.branches.items(), key=lambda item: item[1])
    }


def _band_pieces(roots: Mapping[str, float], correctors: CorrectorSet) -> list[Piece]:
    return [
        _strip_piece(_tagged("band", b, "-"), q, correctors, branch=b) for b, q in roots.items()
    ]


def _draft_plane(scn, tables, correctors, p, eta, notes) -> _Draft:
    level = plane_level(scn, tables, p)
    roots = _facing_roots(scn, tables, level)
    for b, q in roots.items():
        # the band must undercut the target along its own half-line
        if scn.branches[b] * (p[0] - q) <= _TIE_SLACK:
            raise RegimeError(
                f"degenerate tangential root {_tagged('q1', b, '_')}={q:.6g} at p1={p[0]:.6g}"
            )
    pieces = [_affine_piece("target", p, correctors), *_band_pieces(roots, correctors)]
    return _Draft(level, 0.0, {_tagged("q1", b, "_"): q for b, q in roots.items()}, pieces, notes)


def _draft_line_single(scn, tables, correctors, p, eta, notes) -> _Draft:
    level = float(tables.h1t_at(p[0]))
    side = "left" if p[0] > tables.tangential_argmin("main") else "right"
    p_tilde = tables.tangential_root("main", level, side)
    q_values = {"p_tilde": p_tilde}
    if p_tilde > p[0]:
        # The strip momentum exceeds the target's, so the band piece dies off
        # to the left on its own; the target plane wave covers the rest.
        pieces = [
            _affine_piece("target", p, correctors),
            _strip_piece("band", p_tilde, correctors),
        ]
        notes.append("band carried at the far-side root")
    else:
        pi_upper = _vertical_roots(scn, tables, p_tilde, level)[1]
        pi_upper = _polish_vertical_root(
            scn, tables, correctors, p_tilde, pi_upper, level, notes, "escape slope"
        )
        q_values["pi_upper"] = pi_upper
        pieces = [
            _affine_piece("target", p, correctors),
            _strip_piece("band", p[0], correctors),
            _affine_piece("escape", (p_tilde, pi_upper), correctors),
        ]
        notes.append("band carried at the target momentum with an escape plane wave")
    return _Draft(level, 0.0, q_values, pieces, notes)


def _drop_band(scn, tables, correctors, p, level):
    """Carry the first branch (plus, then minus) whose table reaches ``level``
    on the flank facing the origin at that root, and the other band at the
    target momentum.  Returns ``(branch, root, pieces)``, or None when
    no table reaches the level at a root whose band undercuts the target."""
    for branch, side in scn.branches.items():
        try:
            p_tilde = tables.tangential_root(branch, level, _facing_flank(side))
        except BracketError:
            continue
        if side * (p[0] - p_tilde) <= _TIE_SLACK:
            continue  # the band would not undercut the target along its half-line
        other = next(b for b in scn.branches if b != branch)
        pieces = [
            _affine_piece("target", p, correctors),
            _strip_piece(f"band-{branch}", p_tilde, correctors, branch=branch),
            _strip_piece(f"band-{other}", p[0], correctors, branch=other),
        ]
        return branch, p_tilde, pieces
    return None


def _draft_line_split(scn, tables, correctors, p, eta, notes) -> _Draft:
    lines = _line_levels(scn, tables, p[0])
    level = max(lines.values())
    plane = plane_level(scn, tables, p)
    gap = lines["minus"] - lines["plus"]
    if abs(gap) > _TIE_SLACK:
        # One band dominates; its own momentum runs at the level while the
        # other band is carried at the far root of the dominant level.
        high, low = ("minus", "plus") if gap > 0 else ("plus", "minus")
        side = _facing_flank(scn.branches[low])
        p_tilde = tables.tangential_root(low, level, side)
        pieces = [
            _affine_piece("target", p, correctors),
            _strip_piece(f"band-{high}", p[0], correctors, branch=high),
            _strip_piece(f"band-{low}", p_tilde, correctors, branch=low, shares_c=False),
        ]
        notes.append(f"dominant branch {high}; opposite band carried at its level root")
        return _Draft(level, 0.0, {"p_tilde": p_tilde}, pieces, notes)
    if level > plane + _TIE_SLACK:
        # Equal bands above the ambient level: each half-plane keeps its own
        # band piece, glued along the vertical axis by the plane wave.
        lo, hi = _vertical_roots(scn, tables, p[0], level)
        if not (lo - _TIE_SLACK <= p[1] <= hi + _TIE_SLACK):
            raise RegimeError(
                f"vertical roots ({lo:.6g}, {hi:.6g}) fail to bracket p2={p[1]:.6g} "
                f"at the shared tangential level"
            )
        pieces = [
            _affine_piece("target", p, correctors),
            _strip_piece("band-minus", p[0], correctors, branch="minus", halfplane=-1),
            _strip_piece("band-plus", p[0], correctors, branch="plus", halfplane=+1),
        ]
        notes.append("equal bands split along the vertical axis")
        return _Draft(level, 0.0, {"pi_lower": lo, "pi_upper": hi}, pieces, notes)
    # All three levels coincide above E: drop one band strictly below the
    # level at a table root whose band undercuts the target along its own
    # half-line (a descending flank can still miss); else lift the level by eta.
    grads = {b: tables.one_sided_quotients(b, p[0]) for b in scn.branches}
    dropped = _drop_band(scn, tables, correctors, p, level - min(eta, 0.5 * (level - tables.E)))
    if dropped is not None:
        branch, p_tilde, pieces = dropped
        tag = "ascending" if scn.branches[branch] > 0 else "descending"
        notes.append(f"{branch} table {tag} through the level; band dropped below it")
        return _Draft(level, 0.0, {"p_tilde": p_tilde}, pieces, notes)
    notes.append(
        f"no table flank descends below the level near p1={p[0]:.6g} to a root whose band "
        f"undercuts the target (difference quotients {grads}); certifying the lifted level"
    )
    dropped = _drop_band(scn, tables, correctors, p, level + eta)
    if dropped is not None:
        _, p_tilde, pieces = dropped
        return _Draft(level + eta, eta, {"p_tilde": p_tilde}, pieces, notes)
    raise RegimeError(
        f"tangential tables are flat around p1={p[0]:.6g} within the window "
        f"(difference quotients {grads}); no usable level root on either flank"
    )


def _draft_origin(scn, tables, correctors, p, eta, notes) -> _Draft:
    plane = plane_level(scn, tables, p)
    lines = _line_levels(scn, tables, p[0])
    # The construction certifies the lifted level, so that is what must be on
    # top -- comparing raw E would reject solver-tolerance ties it covers.
    if tables.E + eta <= max(plane, *lines.values()) + _tie(tables):
        raise RegimeError(
            f"origin construction needs the lifted level on top: E + eta "
            f"{tables.E + eta:.6g}, ambient {plane:.6g}, tangential {lines}"
        )
    level = tables.E + eta
    roots = _facing_roots(scn, tables, level)
    q_lo, q_hi = _vertical_roots(scn, tables, p[0], level)
    q_lo = _polish_vertical_root(scn, tables, correctors, p[0], q_lo, level, notes, "lower bracket slope")
    q_hi = _polish_vertical_root(scn, tables, correctors, p[0], q_hi, level, notes, "upper bracket slope")
    if not (q_lo - _TIE_SLACK <= p[1] <= q_hi + _TIE_SLACK):
        raise RegimeError(
            f"vertical roots ({q_lo:.6g}, {q_hi:.6g}) fail to bracket p2={p[1]:.6g}; "
            f"the ambient level at the covector exceeds E + eta"
        )
    pieces = [
        _affine_piece("bracket-lower", (p[0], q_lo), correctors),
        _affine_piece("bracket-upper", (p[0], q_hi), correctors),
        *_band_pieces(roots, correctors),
    ]
    if scn.case == "case2":
        # Periodic corrections break the exact affine squeeze against the
        # target plane wave, so the corrected target joins the minimum.
        pieces.insert(0, _affine_piece("target", p, correctors))
        notes.append("corrected target included to keep the plane-wave majorant")
    q_values = {_tagged("q1", b, "_"): q for b, q in roots.items()}
    return _Draft(level, eta, {**q_values, "q2_lower": q_lo, "q2_upper": q_hi}, pieces, notes)


# regime -> (single-branch builder, two-branch builder)
_DRAFTS = {
    "plane": (_draft_plane, _draft_plane),
    "line": (_draft_line_single, _draft_line_split),
    "origin": (_draft_origin, _draft_origin),
}


def build_subcorrector(
    scn: Scenario,
    tables: EffectiveTables,
    correctors: CorrectorSet,
    p,
    regime: str,
    *,
    eta: float | None = None,
) -> SubcorrectorSpec:
    """Assemble and fit the piecewise subsolution for one regime.

    The momenta come from exact roots of the tabulated levels; the offsets
    ``c`` and ``C`` are fitted by scanning the certification window, each with
    a finite-difference Lipschitz margin.  A piece selected off its analytic
    home region is accepted where its measured residual is at most 5e-3.
    ``eta``, the lift of the origin regime's level, defaults to 5% of the
    largest background cost at y = 0 (at least 5e-8).

    The origin piece covers its territory -- the nodes where the outer
    selection is untrusted, plus ``|y| <= R0/2`` in the origin regime -- and
    is admissible only out to the gluing rim that ``split_radius`` reports.
    It is left out when the territory is empty.  When no rim inside the
    window glues it is left unconfined, with ``C`` fitted over the disc of
    radius ``max(R1, territory) + h`` and a note.

    Raises :class:`RegimeError` when a ``"plane"`` or ``"line"`` request
    disagrees with :func:`select_regime`, naming the selected regime and the
    three levels.
    """
    p = (float(np.asarray(p, dtype=float)[0]), float(np.asarray(p, dtype=float)[1]))
    if correctors.scenario is not scn and correctors.scenario.canonical() != scn.canonical():
        raise ValueError("corrector set was built for a different scenario")
    if eta is None:
        cost = scn.background.eval_cost(0.0, 0.0, 0.0, 0.0)
        eta = 0.05 * max(float(np.max(np.abs(cost))), 1e-6)
    if regime not in _DRAFTS:
        raise ValueError(f"unknown regime {regime!r}; expected 'plane', 'line', or 'origin'")
    if regime != "origin" and (selected := select_regime(scn, tables, p)) != regime:
        raise RegimeError(
            f"{regime} regime requested, but the level ordering selects {selected!r}: "
            f"ambient {plane_level(scn, tables, p):.6g}, "
            f"tangential {_line_levels(scn, tables, p[0])}, origin {tables.E:.6g}"
        )
    draft = _DRAFTS[regime][len(scn.branches) > 1](scn, tables, correctors, p, eta, [])

    grid = GridSpec.box(correctors.half_width, correctors.h)
    pts = grid.nodes()

    c = _shared_offset(scn, draft.pieces, grid, pts)
    pieces = [
        replace(piece, offset=c) if piece.shares_c else piece
        for piece in draft.pieces
    ]
    outer_vals = _piece_matrix(pieces, pts)
    territory = _territory(scn, pieces, outer_vals, grid, pts, draft.level, draft.notes)
    radii = np.hypot(pts[:, 0], pts[:, 1])
    if regime == "origin":
        territory |= radii <= _CORE_FRACTION * scn.R0 + _TIE_SLACK
    C, radius = math.nan, 0.0
    if territory.any():
        ball = Piece(label="origin", kind="ball", slope=(0.0, 0.0), field=correctors.w_field)
        # C: the max of w - rivals on the territory, plus a Lipschitz margin
        excess = ball.values(pts) - np.min(outer_vals, axis=0)
        C = _margined_max(excess, grid, territory & np.isfinite(excess))
        cap = _EDGE_FRACTION * float(np.max(np.abs(pts)))
        rim = _split_radius(excess - C, territory, radii, grid, cap)
        if rim is not None:
            radius = rim
            pieces.append(replace(ball, offset=C, radius=rim))
        else:
            # Unconfined, w - C is still a subsolution at the origin corrector's
            # constant <= level wherever its truncation reaches.  C is refitted
            # over the disc that holds the territory (at least R1 + h, at most
            # the cap), so it drops the piece below its rivals there.
            h = max(grid.h1, grid.h2)
            reach = min(cap, max(float(scn.R1), float(np.max(radii[territory]))) + h)
            C = _margined_max(excess, grid, (radii <= reach + _TIE_SLACK) & np.isfinite(excess))
            pieces.append(replace(ball, offset=C))
            selected = (excess < C) & ball.admissible(pts)
            radius = float(np.max(radii[selected])) if selected.any() else 0.0
            draft.notes.append(
                f"origin piece left unconfined: no rim inside radius {cap:.4g} "
                f"glues it to its rivals; it is selected out to radius {radius:.4g}"
            )
    else:
        draft.notes.append("outer pieces trusted at every node; no origin piece")

    return SubcorrectorSpec(
        target=p,
        regime=regime,
        level=float(draft.level),
        eta=float(draft.eta),
        q_values=dict(draft.q_values),
        c=float(c),
        C=float(C),
        split_radius=float(radius),
        pieces=tuple(pieces),
        notes=tuple(draft.notes),
    )


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------


def subsolution_residual(scn: Scenario, spec: SubcorrectorSpec, level: float, sample_grid: GridSpec) -> float:
    """Worst violation of the level inequality and of the plane-wave bound.

    Returns ``max(H(0, y, Dχ) - level, χ - ⟨p, y⟩)`` over the sample nodes:
    the larger of the level residual and :func:`majorant_gap`.  The level
    residual is the one-step reading of the active piece at each node, at a
    step of the grid spacing (:func:`_piece_residual`), so a jump at the
    origin piece's rim does not show here; only :func:`bellman_certificate`
    catches it.  A negative value is the certified margin; a large positive
    value is a finding about the construction, not an error.
    """
    pts = sample_grid.nodes()
    step = min(sample_grid.h1, sample_grid.h2)
    residual = _piece_residual(scn, spec.pieces, spec.active(pts), pts, step, float(level))
    return max(float(residual.max()), majorant_gap(spec, sample_grid))


def majorant_gap(spec: SubcorrectorSpec, sample_grid: GridSpec) -> float:
    """Max of χ - ⟨p, y⟩ over the sample nodes (should never be positive)."""
    pts = sample_grid.nodes()
    return float(np.max(spec.values(pts) - spec.target_values(pts)))


def bellman_certificate(
    scn: Scenario,
    spec: SubcorrectorSpec,
    level: float,
    sample_grid: GridSpec,
    *,
    delta: float | None = None,
) -> float:
    """Dynamic-programming check of the level inequality on the composed minimum.

    Returns the largest one-step reading (:func:`_one_step`) of ``χ =
    spec.values`` minus ``level`` over the nodes whose whole control fan
    stays on the grid; boundary nodes see a truncated minimum and are
    excluded.  A Lipschitz subsolution meets the one-step bound, kinks
    included, up to O(δ) cost-freezing slack; where every admissible piece
    meets it, so does their minimum, so the reading exceeds the pieces' own
    only where a foot crosses an admissibility rim -- the jump this check
    exists to catch.  ``delta`` defaults to the grid spacing; at the corrector
    set's ``delta`` and ``h`` a solved piece reads its solver residual.
    """
    step = min(sample_grid.h1, sample_grid.h2) if delta is None else float(delta)
    pts = sample_grid.nodes()
    _check_coverage(spec.pieces, pts)
    feet, step_cost = _feet(scn, pts, step)
    full_fan = sample_grid.contains(feet, tol=1e-9 * step).reshape(step_cost.shape).all(axis=0)
    if not full_fan.any():
        raise ValueError(
            "every sample node loses part of its control fan at this step; "
            "enlarge the grid or shrink delta"
        )
    reading = _one_step(spec.values, pts[full_fan], feet[:, full_fan], step_cost[:, full_fan], step)
    return float(reading.max()) - float(level)
