"""Span tracing around the public functions of each smlr module.

The benchmark wraps the layer entry points from outside the package, so the
program itself carries no instrumentation.  Spans are aggregated as they
close (calls, total time, self time per name) instead of being stored one by
one: a single flat query makes over a hundred thousand validity calls.  Self
time is a span's duration minus the time its child spans cover; calls are
strictly nested because the planner is single-threaded.
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Aggregates nested spans and event counts while active."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.counts: Counter = Counter()
        self.active = True
        self._child_time: list[float] = []   # one accumulator per open span

    def wrap(self, name: str, fn, on_result=None):
        """Return fn recording a span `name`; on_result(tracer, args, result)
        adds counts after each traced call."""
        clock = self.clock
        stack = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                st = self.spans.get(name)
                if st is None:
                    st = self.spans[name] = SpanStats()
                st.calls += 1
                st.total_s += dur
                st.self_s += dur - child
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    @contextmanager
    def paused(self):
        """Run a block (e.g. the benchmark's own output check) untraced."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def span(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())


# -- count hooks -------------------------------------------------------------

def _count_states(tracer, args, mask):
    tracer.counts["validity.states_checked"] += len(mask)


def _count_motion(tracer, args, ok):
    tracer.counts["validity.motion_valid.passes"] += bool(ok)


def _count_outcome(tracer, args, outcome):
    tracer.counts[f"sparse_graph.outcome.{outcome.value}"] += 1


def _count_visible(tracer, args, guards):
    tracer.counts["sparse_graph.visible_guards.returned"] += len(guards)


def _count_section(tracer, args, lifted):
    tracer.counts["planner.section_test.hits"] += lifted is not None


def _count_cells(tracer, args, _):
    oracle = args[0]
    tracer.counts["oracle.cells"] += oracle.n_cells
    tracer.counts["oracle.free_cells"] += int(oracle.free.sum())


def _edge_counter():
    built = weakref.WeakSet()   # graph() caches; count each oracle once

    def count(tracer, args, graph):
        oracle = args[0]
        if oracle not in built:
            built.add(oracle)
            tracer.counts["oracle.graph.edges"] += graph.nnz
    return count


def _targets():
    """(owner, attribute, span name, count hook) for every traced entry
    point.  Planner helpers are module globals looked up by name inside
    smlr.planner, so they are replaced on that module."""
    from smlr import oracle, planner, scenario, spaces, sparse_graph, validity
    lv, rm = validity.LevelValidity, sparse_graph.SparseRoadmap
    go, ss = oracle.GridOracle, spaces.StateSpace
    return [
        (lv, "valid_mask", "validity.valid_mask", _count_states),
        (lv, "is_valid", "validity.is_valid", None),
        (lv, "motion_valid", "validity.motion_valid", _count_motion),
        (ss, "interpolate_many", "spaces.interpolate_many", None),
        (ss, "distance_many", "spaces.distance_many", None),
        (rm, "add_conditional", "sparse_graph.add_conditional",
         _count_outcome),
        (rm, "visible_guards", "sparse_graph.visible_guards", _count_visible),
        (rm, "shortest_graph_path", "sparse_graph.search", None),
        (rm, "path_cost_exceeds", "sparse_graph.search", None),
        (rm, "sample_edge_point", "sparse_graph.sample_edge_point", None),
        (planner.SmlrPlanner, "solve", "planner.solve", None),
        (planner, "restriction_sample", "planner.restriction_sample", None),
        (planner, "section_test", "planner.section_test", _count_section),
        (planner, "simplify_path", "planner.simplify_path", None),
        (go, "__init__", "oracle.build", _count_cells),
        (go, "graph", "oracle.graph", _edge_counter()),
        (go, "feasible", "oracle.query", None),
        (go, "shortest_path_cost", "oracle.query", None),
        (scenario, "load_scenario", "scenario.load", None),
    ]


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every traced entry point for the duration of the block and
    restore the originals afterwards, also on error."""
    saved = []
    try:
        for owner, attr, name, hook in _targets():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------

OUTCOMES = ("coverage", "connectivity", "interface_vertex", "interface_edge",
            "quality", "rejected")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def deterministic_counts(tracer: Tracer) -> dict[str, int]:
    """Counts that depend only on the queries and seeds, never on timing."""
    c = tracer.counts
    out = {"planner.samples": tracer.span("planner.restriction_sample").calls,
           "validity.states_checked": c["validity.states_checked"]}
    for o in OUTCOMES:
        out[f"sparse_graph.outcome.{o}"] = c[f"sparse_graph.outcome.{o}"]
    out["oracle.cells"] = c["oracle.cells"]
    return out


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit); ratios of empty
    denominators read 0."""
    sp, c = tracer.span, tracer.counts
    vm, mv = sp("validity.valid_mask"), sp("validity.motion_valid")
    add = sp("sparse_graph.add_conditional")
    samples = sp("planner.restriction_sample")
    sec = sp("planner.section_test")
    states = c["validity.states_checked"]
    m = {
        "validity.valid_mask.calls": (vm.calls, "count"),
        "validity.valid_mask.self_s": (vm.self_s, "s"),
        "validity.states_checked": (states, "count"),
        "validity.states_per_call": (_ratio(states, vm.calls), "states/call"),
        "validity.us_per_state": (_ratio(vm.self_s * 1e6, states), "us"),
        "validity.is_valid.calls": (sp("validity.is_valid").calls, "count"),
        "validity.motion_valid.calls": (mv.calls, "count"),
        "validity.motion_valid.self_s": (mv.self_s, "s"),
        "validity.motion_valid.pass_ratio": (
            _ratio(c["validity.motion_valid.passes"], mv.calls), "frac"),
        "spaces.interpolate_many.self_s": (
            sp("spaces.interpolate_many").self_s, "s"),
        "spaces.distance_many.self_s": (sp("spaces.distance_many").self_s,
                                        "s"),
        "sparse_graph.add_conditional.calls": (add.calls, "count"),
        "sparse_graph.add_conditional.self_s": (add.self_s, "s"),
    }
    for o in OUTCOMES:
        m[f"sparse_graph.outcome.{o}"] = (c[f"sparse_graph.outcome.{o}"],
                                          "count")
    admitted = add.calls - c["sparse_graph.outcome.rejected"]
    m.update({
        "sparse_graph.admit_ratio": (_ratio(admitted, add.calls), "frac"),
        "sparse_graph.visible_guards.self_s": (
            sp("sparse_graph.visible_guards").self_s, "s"),
        "sparse_graph.visible_guards.returned": (
            c["sparse_graph.visible_guards.returned"], "count"),
        "sparse_graph.search.calls": (sp("sparse_graph.search").calls,
                                      "count"),
        "sparse_graph.search.self_s": (sp("sparse_graph.search").self_s, "s"),
        "sparse_graph.sample_edge_point.self_s": (
            sp("sparse_graph.sample_edge_point").self_s, "s"),
        "planner.solve.calls": (sp("planner.solve").calls, "count"),
        "planner.samples": (samples.calls, "count"),
        "planner.invalid_samples": (samples.calls - add.calls, "count"),
        "planner.restriction_sample.self_s": (samples.self_s, "s"),
        "planner.section_test.calls": (sec.calls, "count"),
        "planner.section_test.hits": (c["planner.section_test.hits"],
                                      "count"),
        "planner.section_test.self_s": (sec.self_s, "s"),
        "planner.simplify_path.self_s": (sp("planner.simplify_path").self_s,
                                         "s"),
        "oracle.build_s": (sp("oracle.build").total_s, "s"),
        "oracle.cells": (c["oracle.cells"], "count"),
        "oracle.free_frac": (_ratio(c["oracle.free_cells"],
                                    c["oracle.cells"]), "frac"),
        "oracle.graph.self_s": (sp("oracle.graph").self_s, "s"),
        "oracle.graph.edges": (c["oracle.graph.edges"], "count"),
        "oracle.query.self_s": (sp("oracle.query").self_s, "s"),
        "scenario.load_s": (sp("scenario.load").total_s, "s"),
    })
    return m
