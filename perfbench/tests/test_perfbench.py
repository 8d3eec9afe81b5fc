"""Tests of the benchmark harness itself: percentile selection, span
self time, instrumentation restore, failure counting, round layout and the
machine-speed gauge."""

from dataclasses import replace

import numpy as np
import pytest

import smlr
import smlr.oracle
import smlr.planner
import smlr.scenario
from perfbench import fingerprint, gauge, trace
from perfbench.run import SCENARIO_DIR, failed_frac, run_queries, tail
from perfbench.workloads import (WORKLOADS, Outcome, Query, Workload,
                                 _oracle_problem, check_path, judge, load,
                                 run_query)


class TestTail:
    def test_omitted_below_eleven_queries(self):
        assert tail([0.1] * 10) is None
        assert tail([]) is None

    def test_eleven_queries_keep_ten_beyond(self):
        times = [float(i) for i in range(11, 0, -1)]
        value, pct = tail(times)
        assert value == 1.0
        assert pct == pytest.approx(100.0 / 11)

    def test_highest_percentile_with_ten_beyond(self):
        times = list(np.random.default_rng(0).permutation(200) + 1.0)
        value, pct = tail(times)
        assert pct == 95.0
        assert sum(t > value for t in times) == 10


class FakeClock:
    """Returns the given instants one per call."""

    def __init__(self, instants):
        self.instants = iter(instants)

    def __call__(self):
        return next(self.instants)


class TestSelfTime:
    def test_nested_spans_subtract_children_only(self):
        # outer [0, 20] holds mid [1, 11] and mid [12, 15]; the first mid
        # holds leaf [2, 6]
        tracer = trace.Tracer(FakeClock([0, 1, 2, 6, 11, 12, 15, 20]))
        leaf = tracer.wrap("leaf", lambda: None)

        def mid_fn(call_leaf):
            if call_leaf:
                leaf()

        mid = tracer.wrap("mid", mid_fn)
        outer = tracer.wrap("outer", lambda: (mid(True), mid(False)))
        outer()
        assert tracer.span("leaf").self_s == 4
        assert tracer.span("mid").calls == 2
        assert tracer.span("mid").total_s == 13
        assert tracer.span("mid").self_s == 9
        assert tracer.span("outer").total_s == 20
        assert tracer.span("outer").self_s == 7

    def test_span_closed_on_exception(self):
        tracer = trace.Tracer(FakeClock([0, 1, 3, 10]))

        def boom():
            raise RuntimeError("x")

        inner = tracer.wrap("inner", boom)

        def outer_fn():
            with pytest.raises(RuntimeError):
                inner()

        tracer.wrap("outer", outer_fn)()
        assert tracer.span("inner").self_s == 2
        assert tracer.span("outer").self_s == 8

    def test_paused_records_nothing(self):
        tracer = trace.Tracer()
        fn = tracer.wrap("f", lambda: 1)
        with tracer.paused():
            assert fn() == 1
        assert tracer.span("f").calls == 0
        assert tracer.active


class TestInstrumentation:
    def test_originals_restored_after_error(self):
        targets = trace._targets()
        before = [vars(owner)[attr] for owner, attr, _, _ in targets]
        with pytest.raises(RuntimeError):
            with trace.instrumented(trace.Tracer()):
                assert hasattr(smlr.planner.restriction_sample,
                               "__wrapped__")
                raise RuntimeError("stop")
        after = [vars(owner)[attr] for owner, attr, _, _ in targets]
        assert all(a is b for a, b in zip(before, after))

    def test_counts_one_oracle(self):
        tracer = trace.Tracer()
        with trace.instrumented(tracer):
            sc = smlr.scenario.load_scenario(
                SCENARIO_DIR / "square_wall_feasible.yaml")
            lv = sc.seq.finest
            o = smlr.oracle.GridOracle(lv.space, lv.validity, 0.1)
            assert o.feasible(sc.start, sc.goal)
            o.shortest_path_cost(sc.start, sc.goal)
        m = trace.layer_metrics(tracer)
        assert m["oracle.cells"][0] == 100
        assert m["oracle.graph.edges"][0] == o.graph().nnz
        assert m["validity.states_checked"][0] >= 100
        assert tracer.span("scenario.load").calls == 1
        assert tracer.span("oracle.query").calls == 2


@pytest.fixture
def square_wall():
    return load(smlr.scenario, SCENARIO_DIR, ["square_wall_feasible"])[
        "square_wall_feasible"]


SMLR = Workload(name="t", why="", planner="smlr",
                scenarios=("square_wall_feasible",), trace_rounds=1,
                round_s=1.0)


class TestFailureCounting:
    def test_each_failure_kind_counts(self, square_wall):
        q = Query("square_wall_feasible", "smlr", 1)
        ok = run_query(q, square_wall, SMLR, smlr)
        assert ok.failure is None and ok.verdict == "feasible"

        mislabeled = replace(square_wall, scenario=replace(
            square_wall.scenario, ground_truth="infeasible"))
        wrong = run_query(q, mislabeled, SMLR, smlr)
        assert wrong.failure == "verdict feasible, declared infeasible"

        timeout = run_query(q, square_wall, replace(SMLR, time_limit=1e-9),
                            smlr)
        assert timeout.failure == "timeout"

        outside = replace(square_wall, scenario=replace(
            square_wall.scenario, start=square_wall.scenario.start + 5.0))
        raised = run_query(q, outside, SMLR, smlr)
        assert raised.failure.startswith("exception ValueError")

        bad_path = judge("feasible", "feasible", None,
                         check_path(square_wall, [square_wall.scenario.start,
                                                  square_wall.scenario.goal],
                                    0.6))
        assert bad_path == "output check: segment 0 is not collision-free"
        outcomes = [ok, wrong, timeout, raised,
                    Outcome(q, 0.1, "feasible", 0.6, "-", bad_path)]
        assert failed_frac(outcomes) == 4 / 5
        # only answers that were returned can be wrong
        assert [o.wrong for o in outcomes] == [False, True, False, False,
                                               True]

    def test_path_check_endpoints_and_cost(self, square_wall):
        sc = square_wall.scenario
        via = np.array([0.5, 0.85])
        path = [sc.start, via, sc.goal]
        length = sum(sc.seq.finest.space.distance(a, b)
                     for a, b in zip(path[:-1], path[1:]))
        assert check_path(square_wall, path, length) is None
        assert "cost" in check_path(square_wall, path, length + 1e-3)
        assert "start" in check_path(square_wall, [via, sc.goal], 1.0)
        assert "goal" in check_path(square_wall, [sc.start, via], 1.0)
        assert check_path(square_wall, None, None) == "no path"

    def test_checker_uses_half_resolution(self, square_wall):
        v = square_wall.scenario.seq.finest.validity
        assert square_wall.checker is not v
        assert square_wall.checker.check_resolution == \
            v.check_resolution / 2


class TestWorkloads:
    def test_seed_ranges_are_contiguous(self):
        wl = WORKLOADS["smlr_feasible_mix"]
        queries = [q for i in range(3) for q in wl.round(40, i)]
        for name, w in zip(wl.scenarios, wl.weights):
            seeds = sorted(q.seed for q in queries if q.scenario == name)
            assert seeds == list(range(40, 40 + 3 * w))

    def test_weighted_round_spreads_each_scenario(self):
        wl = replace(SMLR, scenarios=("a", "b"), weights=(1, 4))
        assert [(q.scenario, q.seed) for q in wl.round(10, 1)] == [
            ("b", 14), ("b", 15), ("a", 11), ("b", 16), ("b", 17)]

    def test_setup_runs_before_the_queries_it_names(self, square_wall):
        events = []

        def loop():
            events.append("tick")
            return gauge.REF_S

        meter = gauge.Gauge(loop=loop)
        out = run_queries(SMLR, {"square_wall_feasible": square_wall}, smlr,
                          SMLR.queries(1, 3), meter=meter, setup_at={0, 2},
                          setup=lambda: events.append("setup"))
        assert [o.query.seed for o in out] == [1, 2, 3]
        # a gap ticks the loop twice; the fourth gap follows the last query
        tick = ["tick", "tick"]
        assert events == ["setup", *tick, *tick, "setup", *tick, *tick]
        assert len(meter.gaps) == 4

    def test_round_count_depends_on_length_only(self):
        wl = replace(SMLR, round_s=1.2)
        assert wl.rounds(45) == 38
        assert wl.rounds(0.1) == 1

    def test_oracle_audit_is_seeded_and_checked(self, square_wall):
        wl = replace(WORKLOADS["oracle_grid"],
                     scenarios=("square_wall_feasible",), resolutions=(0.1,))
        q = wl.round(7, 0)[0]
        a = run_query(q, square_wall, wl, smlr)
        b = run_query(q, square_wall, wl, smlr)
        assert a.failure is None and a.verdict == "feasible"
        assert a.digest == b.digest

    def test_oracle_inconsistency_is_reported(self):
        assert "shortest_path_cost" in _oracle_problem(
            None, None, None, None, True, None)


class TestFingerprint:
    LOG = """\
query a smlr seed=1 verdict=feasible seconds=0.5 slowdown=1.25 cost=0.1 digest=ab
query[traced] a smlr seed=1 verdict=feasible seconds=0.7 cost=0.1 digest=ab x=3
query_s_p50                              0.5 s
"""

    def test_timings_ignored_and_differences_found(self):
        a = fingerprint.fingerprints(self.LOG.splitlines())
        assert set(a) == {"query a smlr seed=1",
                          "query[traced] a smlr seed=1"}
        b = fingerprint.fingerprints(
            self.LOG.replace("0.5", "0.9").replace("1.25", "1.5")
            .splitlines())
        assert fingerprint.compare(a, b) == []
        c = fingerprint.fingerprints(
            self.LOG.replace("x=3", "x=4").splitlines())
        assert len(fingerprint.compare(a, c)) == 1


class TestGauge:
    def test_slowdown_is_window_median(self):
        values = [1.0, 9.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        # each tick times the loop twice and keeps the faster run
        times = iter([t for v in values for t in (v + 1.0, v)])
        meter = gauge.Gauge(loop=lambda: next(times) * gauge.REF_S)
        for _ in range(8):
            meter.tick()
        # gaps 0-2 before query 2 and gaps 3-5 after it
        assert meter.slowdown(2) == pytest.approx(3.5)
        # clipped at the start: gaps 0-3
        assert meter.slowdown(0) == pytest.approx(2.5)
        # clipped at the end: gaps 5-7
        assert meter.slowdown(7) == pytest.approx(6.0)
        assert meter.overall() == pytest.approx(4.5)

    def test_reference_loop_times_itself(self):
        assert 0.0 < gauge.reference_loop() < 1.0
