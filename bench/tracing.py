"""Span and counter tracing for the hj_strata benchmark.

A :class:`Tracer` wraps the public functions of each package layer from the
outside, at every import site that binds them, so the package itself carries
no tracing code.  While installed, every wrapped call records a span (id,
parent id, name, start, end) and the counters its result carries (solver
iterations, sweeps, stages, node-control pairs).  Spans and counters live in
memory under one lock: ``tabulate_effective`` runs its cell solves on pool
worker threads, and the pool submitted from the traced ``cell`` module hands
each task the submitting span as parent, so worker spans nest under their
``tabulate_effective`` span.

Tracing must be transparent: a wrapper passes arguments and results through
unchanged, so a traced run computes bit-identical outputs.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from hj_strata import bellman, cell, correctors, expressions, grids, hamiltonian, kernels, scenario, stratified


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    thread: int


def _jacobi_counts(args, result):
    idx, w, base, _gamma, u, out = args
    pairs = idx.shape[0] * idx.shape[1]
    # Bytes a call must touch, computed from array sizes (cache behaviour
    # ignored): the stencil, weights and step costs, the four gathered values
    # of every node-control pair, and the output row.
    computed = idx.nbytes + w.nbytes + base.nbytes + 4 * pairs * u.itemsize + out.nbytes
    return {"kernels.jacobi_min.node_controls": pairs, "kernels.jacobi_min.bytes_computed": computed}


def _sloperator_counts(args, result):
    return {"bellman.sloperator.node_controls": args[0].base.size}


class Tracer:
    """In-memory spans and counters; :meth:`install` patches the package."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, counts: dict[str, int]) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counters[key] += value

    def _count_call(self, key: str) -> None:
        with self._lock:
            self.counters[key] += 1

    def span(self, name: str, fn, counts=None):
        """Wrap ``fn`` so each call records a span and ``counts(args, result)``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            with self._lock:
                sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                with self._lock:
                    self.spans.append(Span(sid, parent, name, start, end, threading.get_ident()))
            if counts is not None:
                self.add(counts(args, result))
            return result

        return traced

    def adopt(self, parent: int | None, fn, *args, **kwargs):
        """Run ``fn`` on this thread as a child of span ``parent``."""
        stack = self._stack()
        saved = stack[:]
        stack[:] = [] if parent is None else [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    # -- installation ------------------------------------------------------

    def _patches(self):
        """(owner, attribute, replacement) for every traced import site."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

        def counted_call(original):
            @functools.wraps(original)
            def call(expr, **env):
                tracer._count_call("expressions.scalar_calls")
                return original(expr, **env)

            return call

        def relative_counts(args, result):
            return {"bellman.relative.iterations": result.iterations}

        def discounted_counts(args, result):
            return {"bellman.discounted.iterations": result[1].iterations}

        def continuation_counts(args, result):
            return {"bellman.continuation.stages": result.stages}

        def tangential_counts(args, result):
            return {"cell.tangential.truncations": len(result.estimates)}

        def sweep_counts(args, result):
            return {"stratified.sweeps": result[1]}

        def strip_corrector_counts(args, result):
            return {"correctors.strip_correctors": 1}

        S = self.span
        field_eval = lambda fn: S("scenario.field_eval", fn)
        out = [
            (expressions.ScalarExpr, "__call__", counted_call(expressions.ScalarExpr.__call__)),
            (scenario.FieldPair, "eval_drift", field_eval(scenario.FieldPair.eval_drift)),
            (scenario.FieldPair, "eval_cost", field_eval(scenario.FieldPair.eval_cost)),
            (grids.GridSpec, "interp_weights", S("grids.interp_weights", grids.GridSpec.interp_weights)),
            (kernels, "jacobi_min", S("kernels.jacobi_min", kernels.jacobi_min, _jacobi_counts)),
            (bellman.SLOperator, "__init__", S("bellman.sloperator", bellman.SLOperator.__init__, _sloperator_counts)),
            (bellman, "solve_discounted", S("bellman.discounted", bellman.solve_discounted, discounted_counts)),
            (cell, "ThreadPoolExecutor", TracedPool),
        ]
        for owner in (hamiltonian, cell, correctors):
            out.append((owner, "eval_fields", S("hamiltonian.eval_fields", owner.eval_fields)))
        for owner in (hamiltonian, cell, stratified):
            out.append((owner, "estimate_bounds", S("hamiltonian.estimate_bounds", owner.estimate_bounds)))
        for owner in (bellman, cell):
            out.append((owner, "solve_ergodic_relative",
                        S("bellman.relative", owner.solve_ergodic_relative, relative_counts)))
            out.append((owner, "ergodic_continuation",
                        S("bellman.continuation", owner.ergodic_continuation, continuation_counts)))
        for owner in (cell, correctors):
            out.append((owner, "slopes", S("cell.slopes", owner.slopes)))
            out.append((owner, "ball_ergodic", S("cell.ball_ergodic", owner.ball_ergodic)))
            out.append((owner, "torus_effective", S("cell.torus_effective", owner.torus_effective)))
        out += [
            (cell, "strip_ergodic", S("cell.strip_ergodic", cell.strip_ergodic)),
            (correctors, "strip_ergodic", S("cell.strip_ergodic", correctors.strip_ergodic, strip_corrector_counts)),
            (cell, "background_min_over_q", S("cell.background_min_over_q", cell.background_min_over_q)),
            (cell, "tangential_hamiltonian", S("cell.tangential", cell.tangential_hamiltonian, tangential_counts)),
            (cell, "tabulate_effective", S("cell.tabulate_effective", cell.tabulate_effective)),
            (stratified, "build_scheme", S("stratified.build_scheme", stratified.build_scheme)),
            (stratified, "solve_scheme", S("stratified.solve_scheme", stratified.solve_scheme, sweep_counts)),
            (stratified, "scheme_residuals", S("stratified.scheme_residuals", stratified.scheme_residuals)),
            (correctors, "build_corrector_set", S("correctors.build_corrector_set", correctors.build_corrector_set)),
            (correctors, "build_subcorrector", S("correctors.build_subcorrector", correctors.build_subcorrector)),
        ]
        for attr in ("subsolution_residual", "majorant_gap", "bellman_certificate"):
            out.append((correctors, attr, S("correctors.certify", getattr(correctors, attr))))
        return out

    def install(self) -> list[tuple[object, str, object]]:
        """Patch every import site; returns what :meth:`uninstall` restores."""
        saved = []
        for owner, attr, replacement in self._patches():
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        return saved

    @staticmethod
    def uninstall(saved) -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    @staticmethod
    def _ancestor_names(span: Span, by_id: dict[int, Span]):
        parent = by_id.get(span.parent)
        while parent is not None:
            yield parent.name
            parent = by_id.get(parent.parent)

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, seconds) over spans not nested in a same-named span."""
        by_id = {s.id: s for s in self.spans}
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            if span.name in self._ancestor_names(span, by_id):
                continue
            entry = out[span.name]
            entry[0] += 1
            entry[1] += (span.end_ns - span.start_ns) * 1e-9
        return {k: (v[0], v[1]) for k, v in out.items()}

    def ancestors(self, span: Span) -> list[str]:
        """Names of the spans enclosing ``span``, innermost first."""
        return list(self._ancestor_names(span, {s.id: s for s in self.spans}))
