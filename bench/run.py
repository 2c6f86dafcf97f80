"""End-to-end and per-layer benchmark of the hj_strata pipeline.

Usage, from the root of a checkout::

    python3 bench/run.py --workload attract_full --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 1

``--workload all`` runs every workload in its own process and prints each
one's report: with ``--trace 0`` every end-to-end metric, with ``--trace 1``
every per-layer metric, each by name with its unit.

Each workload runs one bundled preset through the public pipeline in a closed
loop on one process: ``cell.tabulate_effective``, then
``stratified.build_scheme`` + ``solve_scheme`` + ``scheme_residuals``, and on
the ``*_full`` workloads ``correctors.build_corrector_set`` followed, for each
certification covector, by ``select_regime`` -> ``build_subcorrector`` ->
``subsolution_residual`` + ``majorant_gap`` + ``bellman_certificate``.  Every
solve uses ``tol=5e-4`` (the test suite's tolerance) and ``threads=1`` (the
library default), on whichever backend ``hj_strata.kernels`` selects.

A run repeats whole pipelines until the next one would end after
``--seconds``; it always completes at least one.  ``--trace 0`` reports the
end-to-end metrics (medians over the run's pipelines); ``--trace 1`` runs
the same pipelines under :mod:`tracing` and reports the per-layer metrics.  The
workload seed only moves inputs: seed 0 is the preset's own momentum grid,
other seeds jitter the interior tangential momenta while the window
endpoints and the centre node ``p1 = 0`` stay put, so ``build_scheme``'s
coverage check and the closed-form oracles keep their anchors.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Operations are table
entries, slope entries, stratified solves, certificate readings and oracle
checks; an entry the library flags, a reading over its bar and a failed
oracle each count as failed.  ``correct`` is false when an oracle fails or
the pipeline raises (the process then exits non-zero).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

TOL = 5e-4
THREADS = 1
CORRECTOR_H = 1 / 32
CERT_BAR = 1e-2        # residual and DP-certificate bar of the corrector tests
GAP_BAR = 1e-9         # majorant-gap bar of the corrector tests
JITTER = 0.25          # interior momenta move by at most this share of a spacing
SETUP_SAMPLES = 3
COVECTORS = ((0.0, 0.8), (0.3, 0.0), (0.0, 0.0))


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    why: str
    full: bool                     # corrector set + certification
    p_points: int | None = None    # case2 ambient momentum grid per axis


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "attract_full", "strip_attract",
            "case1 strip_attract through tables, stratified solve and certification at "
            "plane, line and origin covectors; field evaluation and root finding weigh most",
            full=True,
        ),
        Workload(
            "drift_tables", "drift_defect",
            "case1 drift_defect tables and stratified solve; discounted VI in the continuation "
            "dominates, field and envelope work is small",
            full=False,
        ),
        Workload(
            "mirror_full", "case3_mirror",
            "case3 two-branch tables and split subcorrector builders on a larger corrector "
            "ball; operator builds, relative VI and certification weigh most",
            full=True,
        ),
        Workload(
            "checkerboard_tables", "checkerboard",
            "case2 tables with a 5x5 torus grid and stratified solve; the only workload "
            "with torus cells and the Lax-Friedrichs plane update",
            full=False, p_points=5,
        ),
    )
}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def momentum_grids(wl: Workload, window: float, p1_points: int, seed: int):
    """Tangential (and case2 ambient) momentum grids of one seed."""
    p1 = np.linspace(-window, window, p1_points)
    if seed != 0:
        rng = np.random.default_rng(seed)
        spacing = p1[1] - p1[0]
        shift = rng.uniform(-JITTER, JITTER, p1_points) * spacing
        shift[[0, -1]] = 0.0
        if p1_points % 2:
            shift[p1_points // 2] = 0.0
        p1 = p1 + shift
    p = None if wl.p_points is None else np.linspace(-window, window, wl.p_points)
    return p1, p


def run_pipeline(wl: Workload, scn, p1_grid, p_grid) -> dict:
    """One pipeline; returns outputs, stage timings and operation tallies.

    Every layer is reached through its module attribute so a tracer installed
    on those attributes sees the calls.
    """
    from hj_strata import cell, correctors, grids, stratified

    ops: list[tuple[str, bool, str]] = []
    digest = hashlib.sha256()

    def op(name: str, ok: bool, detail: str = "") -> None:
        ops.append((name, bool(ok), detail))

    t0 = time.perf_counter()
    tables = cell.tabulate_effective(scn, tol=TOL, threads=THREADS, p1_grid=p1_grid, p_grid=p_grid)
    t1 = time.perf_counter()
    digest.update(json.dumps(tables.to_json_dict(), sort_keys=True).encode())
    for branch in tables.branches():
        for i in range(len(tables.p1_grid)):
            key = f"h1t/{branch}/{i}"
            op(key, key not in tables.flags, tables.flags.get(key, ""))
            key = f"slopes/{branch}/{i}"
            op(key, key not in tables.flags, tables.flags.get(key, ""))
    op("E", "E" not in tables.flags, tables.flags.get("E", ""))
    if tables.hbar is not None:
        for i in range(tables.hbar.shape[0]):
            for j in range(tables.hbar.shape[1]):
                key = f"hbar/{i}/{j}"
                op(key, key not in tables.flags, tables.flags.get(key, ""))

    scheme = stratified.build_scheme(scn, tables)
    field, sweeps, residual = stratified.solve_scheme(scheme)
    report = stratified.scheme_residuals(scheme, field)
    op("stratified", True)
    digest.update(field.values.tobytes())
    digest.update(repr((sweeps, residual, report)).encode())
    t2 = time.perf_counter()

    readings = {}
    if wl.full:
        cs = correctors.build_corrector_set(scn, h=CORRECTOR_H, tol=TOL)
        digest.update(cs.w_field.values.tobytes())
        grid = grids.GridSpec.box(min(4 * scn.R1, cs.half_width), CORRECTOR_H)
        for p in COVECTORS:
            regime = correctors.select_regime(scn, tables, p)
            spec = correctors.build_subcorrector(scn, tables, cs, p, regime)
            res = correctors.subsolution_residual(scn, spec, spec.level, grid)
            gap = correctors.majorant_gap(spec, grid)
            cert = correctors.bellman_certificate(scn, spec, spec.level, grid, delta=cs.delta)
            tag = f"{regime}@({p[0]:g},{p[1]:g})"
            readings[tag] = (res, gap, cert)
            op(f"certify/{tag}/residual", res <= CERT_BAR, f"{res:.5g} vs bar {CERT_BAR:g}")
            op(f"certify/{tag}/majorant_gap", gap <= GAP_BAR, f"{gap:.5g} vs bar {GAP_BAR:g}")
            op(f"certify/{tag}/bellman", cert <= CERT_BAR, f"{cert:.5g} vs bar {CERT_BAR:g}")
            digest.update(repr((spec.level, spec.c, spec.C, spec.split_radius,
                                sorted(spec.q_values.items()), res, gap, cert)).encode())
    t3 = time.perf_counter()

    errors = oracle_errors(wl, tables)
    for name, (err, bar) in errors.items():
        op(f"oracle/{name}", err <= bar, f"error {err:.3g} vs bar {bar:g}")
    gaps = [float(np.max(v)) for v in tables.method_gaps.values()]
    return dict(
        ops=ops,
        wall_s=t3 - t0,
        tables_s=t1 - t0,
        stratified_s=t2 - t1,
        certify_s=t3 - t2,
        max_method_gap=max(gaps),
        oracle_err=max(err for err, _ in errors.values()),
        oracle_ok=all(err <= bar for err, bar in errors.values()),
        readings=readings,
        digest=digest.hexdigest(),
    )


def oracle_errors(wl: Workload, tables) -> dict[str, tuple[float, float]]:
    """Deviation from the closed forms the tests pin, with the bar each meets."""
    if wl.preset == "strip_attract":
        centre = int(np.argmin(np.abs(tables.p1_grid)))
        return {
            "E=-0.5": (abs(tables.E + 0.5), TOL),
            "h1t(0)=-0.5": (abs(float(tables.h1t["main"][centre]) + 0.5), TOL),
        }
    if wl.preset == "drift_defect":
        return {"E=-1": (abs(tables.E + 1.0), TOL)}
    if wl.preset == "case3_mirror":
        diff = float(np.max(np.abs(tables.h1t["plus"] - tables.h1t["minus"])))
        return {"h1t_plus=h1t_minus": (diff, 1e-9)}
    if wl.preset == "checkerboard":
        return {"hbar(0,0)=-0.6": (abs(float(tables.hbar_at((0.0, 0.0))) + 0.6), TOL)}
    raise ValueError(f"no oracle for preset {wl.preset!r}")


def measure_setup(preset: str) -> float:
    """Median wall time of a fresh process importing the pipeline and loading the preset."""
    code = (
        "import sys; sys.path.insert(0, 'src')\n"
        "import hj_strata.cell, hj_strata.stratified, hj_strata.correctors\n"
        f"hj_strata.load_preset({preset!r})\n"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(wl: Workload, scn, seed: int) -> dict:
    import scipy
    from hj_strata import kernels

    source = hashlib.sha256()
    for path in sorted((SRC / "hj_strata").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(SRC)).encode())
            source.update(path.read_bytes())
    return {
        "workload": wl.name,
        "seed": seed,
        "backend": kernels.BACKEND,
        "HJ_STRATA_PURE": os.environ.get("HJ_STRATA_PURE", ""),
        "git_sha": _git_sha(),
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "presets": {wl.preset: scn.content_hash()},
        "tol": TOL,
        "threads": THREADS,
    }


PER_LAYER_SPANS = (
    "scenario.field_eval", "hamiltonian.eval_fields", "hamiltonian.estimate_bounds",
    "cell.slopes", "cell.background_min_over_q", "kernels.jacobi_min", "bellman.discounted",
    "bellman.continuation", "bellman.relative", "grids.interp_weights",
    "cell.strip_ergodic", "cell.ball_ergodic", "cell.torus_effective",
    "correctors.build_subcorrector",
)
PER_LAYER_TIMES = (
    "stratified.build_scheme", "stratified.solve_scheme", "stratified.scheme_residuals",
    "correctors.build_corrector_set", "correctors.certify",
)
PER_LAYER_COUNTS = (
    "expressions.scalar_calls", "kernels.jacobi_min.node_controls", "bellman.discounted.iterations",
    "bellman.continuation.stages", "bellman.relative.iterations", "bellman.sloperator.node_controls",
    "stratified.sweeps", "correctors.strip_correctors",
)


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    totals = tracer.totals()
    counters = tracer.counters
    m: dict[str, tuple[float, str]] = {}
    for name in PER_LAYER_SPANS:
        calls, secs = totals.get(name, (0, 0.0))
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.s"] = (secs, "s")
    for name in PER_LAYER_TIMES:
        m[f"{name}.s"] = (totals.get(name, (0, 0.0))[1], "s")
    for name in PER_LAYER_COUNTS:
        m[name] = (counters.get(name, 0), "count")
    builds, build_s = totals.get("bellman.sloperator", (0, 0.0))
    m["bellman.sloperator.builds"] = (builds, "count")
    m["bellman.sloperator.s"] = (build_s, "s")
    pairs = counters.get("kernels.jacobi_min.node_controls", 0)
    m["kernels.jacobi_min.ns_per_node_control"] = (
        m["kernels.jacobi_min.s"][0] * 1e9 / pairs if pairs else 0.0, "ns")
    m["kernels.jacobi_min.bytes_computed"] = (counters.get("kernels.jacobi_min.bytes_computed", 0), "bytes")
    entries = totals.get("cell.tangential", (0, 0.0))[0]
    m["cell.tangential.rho_per_entry"] = (
        counters.get("cell.tangential.truncations", 0) / entries if entries else 0.0, "ratio")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    from hj_strata import hamiltonian, load_preset

    setup_s = measure_setup(wl.preset)
    scn = load_preset(wl.preset)
    bounds = hamiltonian.estimate_bounds(scn, samples=200, seed=0)
    window = 1.05 * bounds["p_window"]   # the window tabulate_effective sizes itself
    p1_grid, p_grid = momentum_grids(wl, window, scn.schedules.p1_points, seed)

    if trace:
        import tracing
    runs, layers = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        if trace:
            tracer = tracing.Tracer()
            saved = tracer.install()
            try:
                result = run_pipeline(wl, scn, p1_grid, p_grid)
            finally:
                tracer.uninstall(saved)
            layer = layer_metrics(tracer)
            layer["trace.wall_s"] = (result["wall_s"], "s")
            layers.append(layer)
        else:
            result = run_pipeline(wl, scn, p1_grid, p_grid)
        runs.append(result)
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            break
    if len({r["digest"] for r in runs}) != 1:
        _fail("pipelines of one run disagree; outputs are not deterministic")
    return {
        "workload": wl,
        "seed": seed,
        "trace": trace,
        "provenance": provenance(wl, scn, seed),
        "setup_s": setup_s,
        "runs": runs,
        "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def summarize(outcome: dict) -> dict:
    runs = outcome["runs"]
    first = runs[0]
    ops = first["ops"]
    attempted = len(ops)
    failed = sum(1 for _, ok, _ in ops if not ok)

    def med(key):
        return statistics.median(r[key] for r in runs)

    e2e = {
        "wall_s": (med("wall_s"), "s"),
        "setup_s": (outcome["setup_s"], "s"),
        "peak_rss_mb": (outcome["peak_rss_mb"], "MiB"),
    }
    # Printed with the result but left out of its metrics: the accuracy
    # figures can read exactly 0, and tables_s of attract_full (about 3 s)
    # spreads too widely between runs to bound.
    report = {
        "tables_s": (med("tables_s"), "s"),
        "ops_failed_frac": (failed / attempted, "ratio"),
        "max_method_gap": (first["max_method_gap"], "abs"),
        "oracle_err": (first["oracle_err"], "abs"),
        "stratified_s": (med("stratified_s"), "s"),
        "certify_s": (med("certify_s"), "s"),
    }
    if outcome["trace"]:
        metrics = {
            name: (statistics.median(layer[name][0] for layer in outcome["layers"]), unit)
            for name, (_, unit) in outcome["layers"][0].items()
        }
    else:
        metrics = e2e
    return {
        "correct": bool(first["oracle_ok"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
        "failures": [(name, detail) for name, ok, detail in ops if not ok],
    }


def print_result(outcome: dict, summary: dict) -> None:
    wl = outcome["workload"]
    print(f"workload {wl.name} (preset {wl.preset}) seed {outcome['seed']} "
          f"trace {int(outcome['trace'])} pipelines {len(outcome['runs'])}")
    print(f"  why: {wl.why}")
    print("  provenance " + json.dumps(outcome["provenance"], sort_keys=True))
    print(f"  output digest {outcome['runs'][0]['digest']}")
    for tag, (res, gap, cert) in outcome["runs"][0]["readings"].items():
        print(f"  certificate {tag}: residual {res:.6g} majorant_gap {gap:.3g} bellman {cert:.6g}")
    for name, (value, unit) in {**summary["metrics"], **summary["report"]}.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  operations attempted {summary['attempted']} failed {summary['failed']}")
    for name, detail in summary["failures"]:
        print(f"    failed {name}: {detail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hj_strata" / "__init__.py").is_file():
        _fail(f"no hj_strata sources under {SRC}; run from the root of a checkout")
    if args.seed < 0:
        _fail("--seed must be non-negative")
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args)
    outcome = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    summary = summarize(outcome)
    print_result(outcome, summary)
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in summary["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = value
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
