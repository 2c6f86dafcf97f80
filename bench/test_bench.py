"""Checks of the benchmark itself: transparent tracing, repeatable counts,
worker-span nesting, seeded inputs and the refusal to run without sources."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from hj_strata import cell, hamiltonian, load_preset  # noqa: E402


def _window(scn) -> float:
    return 1.05 * hamiltonian.estimate_bounds(scn, samples=200, seed=0)["p_window"]


def _traced(thunk):
    """Run ``thunk`` under a fresh tracer; returns (result, tracer)."""
    tracer = tracing.Tracer()
    saved = tracer.install()
    try:
        return thunk(), tracer
    finally:
        tracer.uninstall(saved)


@pytest.fixture(scope="module")
def small_attract():
    # The attract_full pipeline on a 5-entry table and a coarse corrector
    # grid: every layer runs, in seconds rather than a minute.
    scn = load_preset("strip_attract")
    p1_grid, _ = run.momentum_grids(run.WORKLOADS["attract_full"], _window(scn), 5, seed=0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "CORRECTOR_H", 1 / 8)
        wl = run.WORKLOADS["attract_full"]
        plain = run.run_pipeline(wl, scn, p1_grid, None)
        traced = [_traced(lambda: run.run_pipeline(wl, scn, p1_grid, None)) for _ in range(2)]
    return plain, traced


def test_tracing_is_transparent(small_attract):
    plain, traced = small_attract
    for result, _ in traced:
        assert result["digest"] == plain["digest"]
        assert result["ops"] == plain["ops"]
        assert result["readings"] == plain["readings"]


def test_counts_repeat_exactly(small_attract):
    _, ((_, first), (_, second)) = small_attract
    assert dict(first.counters) == dict(second.counters)
    calls = {name: n for name, (n, _) in first.totals().items()}
    assert calls == {name: n for name, (n, _) in second.totals().items()}
    for key in ("stratified.sweeps", "bellman.relative.iterations", "bellman.discounted.iterations",
                "kernels.jacobi_min.node_controls", "expressions.scalar_calls"):
        assert first.counters[key] > 0, key
    assert calls["hamiltonian.estimate_bounds"] == 3


def test_worker_spans_nest_under_tabulate():
    scn = load_preset("strip_attract")
    grid = [-0.5, 0.0, 0.5]
    plain = cell.tabulate_effective(scn, tol=1e-3, threads=2, p1_grid=grid)
    tables, tracer = _traced(lambda: cell.tabulate_effective(scn, tol=1e-3, threads=2, p1_grid=grid))
    assert tables.to_json_dict() == plain.to_json_dict()
    main = {s.thread for s in tracer.spans if s.name == "cell.tabulate_effective"}
    workers = [s for s in tracer.spans if s.name == "cell.strip_ergodic"]
    assert workers and all(s.thread not in main for s in workers)
    for span in workers:
        assert "cell.tabulate_effective" in tracer.ancestors(span)


def test_uninstall_restores_every_import_site():
    tracer = tracing.Tracer()
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in tracer._patches()]
    saved = tracer.install()
    assert all(owner.__dict__[attr] is not original for owner, attr, original in before)
    tracer.uninstall(saved)
    assert all(owner.__dict__[attr] is original for owner, attr, original in before)


def test_seeded_momentum_grids():
    wl = run.WORKLOADS["checkerboard_tables"]
    base, p = run.momentum_grids(wl, 1.6, 21, seed=0)
    assert np.array_equal(base, np.linspace(-1.6, 1.6, 21))
    assert np.array_equal(p, np.linspace(-1.6, 1.6, 5))
    a, p_a = run.momentum_grids(wl, 1.6, 21, seed=3)
    b, _ = run.momentum_grids(wl, 1.6, 21, seed=3)
    assert np.array_equal(a, b)
    assert np.array_equal(p_a, p)
    assert not np.array_equal(a, base)
    assert a[0] == base[0] and a[-1] == base[-1] and a[10] == 0.0
    assert np.all(np.diff(a) > 0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "drift_tables", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
