"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The planner sweeps reuse shared fixtures, so the whole module runs the
benchmark protocol (10 seeds, 60 s limit, M=1000, delta fraction 0.25,
eta=1000) once per scenario/planner pair.  Expect a multi-minute runtime.
"""

import dataclasses
import statistics
import time

import numpy as np
import pytest

from smlr.oracle import GridOracle
from smlr.planner import (LevelState, PlannerConfig, SmlrPlanner, Status,
                          compute_importance, restriction_sample,
                          smooth_parameter)
from smlr.scenario import load_scenario, shipped_scenario_dir
from smlr.sparse_graph import SparseRoadmap
from smlr.spaces import RealVectorSpace, points_to_edge_distance
from smlr.validity import LevelValidity, PointRobot

SEEDS = list(range(1, 11))
INFEASIBLE_CORE = ["square_wall_infeasible", "bugtrap2d_infeasible",
                   "torus_band_infeasible", "se2_lshape_infeasible"]
FEASIBLE_ALL = ["square_wall_feasible", "bugtrap2d_feasible",
                "torus_band_feasible", "torus_free", "se2_lshape_feasible",
                "se2_bugtrap_feasible", "chain4_feasible"]
MULTILEVEL_NARROW = ["se2_lshape_infeasible", "se2_bugtrap_infeasible"]

SOLVERS = {
    "smlr": lambda seq, start, goal, cfg: SmlrPlanner(seq, cfg).solve(
        start, goal),
    "flat": lambda seq, start, goal, cfg: SmlrPlanner(seq.flat(), cfg).solve(
        start, goal)}

_CAPTURE = None


@pytest.fixture(scope="module", autouse=True)
def _grab_capture_manager(request):
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")


def report(criterion, ok, detail):
    # write past pytest's capture so the line shows up even on success
    line = f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def scenario(name):
    return load_scenario(shipped_scenario_dir() / f"{name}.yaml")


def sweep(names):
    """results[(name, planner)] = list of PlannerResult over SEEDS."""
    results = {}
    for name in names:
        for planner, solve in SOLVERS.items():
            runs = []
            for seed in SEEDS:
                sc = scenario(name)  # fresh caches per run
                cfg = dataclasses.replace(sc.config, seed=seed)
                runs.append(solve(sc.seq, sc.start, sc.goal, cfg))
            results[(name, planner)] = runs
    return results


@pytest.fixture(scope="module")
def infeasible_runs():
    return sweep(sorted(set(INFEASIBLE_CORE + MULTILEVEL_NARROW)))


@pytest.fixture(scope="module")
def feasible_runs():
    return sweep(FEASIBLE_ALL)


def torus_level_states(seed, grow_base_samples=500):
    """Base circle roadmap grown by uniform sampling, plus a fresh torus
    level, ready for restriction sampling."""
    sc = scenario("torus_free")
    cfg = dataclasses.replace(sc.config, seed=seed)
    base = LevelState(0, sc.seq.levels[0].space, sc.seq.levels[0].validity,
                      cfg)
    top = LevelState(1, sc.seq.levels[1].space, sc.seq.levels[1].validity,
                     cfg)
    rng = np.random.default_rng(seed)
    for _ in range(grow_base_samples):
        base.roadmap.add_conditional(base.space.sample_uniform(rng))
    assert base.roadmap.num_edges >= 1
    return sc, cfg, base, top, rng


def min_edge_distance(base, point):
    rm = base.roadmap
    return min(float(points_to_edge_distance(
        base.space, point[None, :], rm.guard_state(u), rm.guard_state(v))[0])
        for u, v, _ in rm.edges)


class TestCriterion1Infeasibility:
    def test_no_false_positives_and_coverage(self, infeasible_runs):
        problems = []
        for name in INFEASIBLE_CORE:
            for planner in SOLVERS:
                for res in infeasible_runs[(name, planner)]:
                    if res.status is Status.FEASIBLE:
                        problems.append(f"{name}/{planner} found feasible")
                    if res.seconds > 60.0 + 1.0:
                        problems.append(f"{name}/{planner} ran {res.seconds}s")
                    if res.status is Status.INFEASIBLE and \
                            res.coverage_estimate < 0.999:
                        problems.append(
                            f"{name}/{planner} coverage "
                            f"{res.coverage_estimate:.6f}")
        report(1, not problems,
               f"4 infeasible scenarios x 2 planners x {len(SEEDS)} seeds: "
               + ("all Infeasible/Timeout with coverage >= 0.999"
                  if not problems else "; ".join(problems[:5])))


class TestCriterion2NoFalseNegatives:
    def test_feasible_scenarios(self, feasible_runs):
        problems = []
        for name in FEASIBLE_ALL:
            for planner in SOLVERS:
                runs = feasible_runs[(name, planner)]
                if any(r.status is Status.INFEASIBLE for r in runs):
                    problems.append(f"{name}/{planner} reported infeasible")
            n_feasible = sum(r.status is Status.FEASIBLE
                             for r in feasible_runs[(name, "smlr")])
            if n_feasible < 9:
                problems.append(f"{name}: smlr only {n_feasible}/10 feasible")
        report(2, not problems,
               f"{len(FEASIBLE_ALL)} feasible scenarios: zero Infeasible "
               "verdicts, smlr >= 9/10 Feasible"
               if not problems else "; ".join(problems[:5]))


class TestCriterion3PathQuality:
    def test_revalidation_and_cost_bound(self, feasible_runs):
        problems = []
        for name in FEASIBLE_ALL:
            sc = scenario(name)
            finest = sc.seq.finest
            delta = sc.config.delta_fraction * finest.space.max_extent()
            oracle = GridOracle(finest.space, finest.validity, delta / 4.0)
            oracle_cost = oracle.shortest_path_cost(sc.start, sc.goal)
            bound = sc.config.stretch_t * oracle_cost * 1.10
            half = LevelValidity(
                space=finest.space, robot=finest.validity.robot,
                obstacles=finest.validity.obstacles,
                workspace_lo=finest.validity.workspace_lo,
                workspace_hi=finest.validity.workspace_hi,
                check_resolution=finest.validity.check_resolution / 2.0)
            for planner in SOLVERS:
                for res in feasible_runs[(name, planner)]:
                    if res.status is not Status.FEASIBLE:
                        continue
                    if not all(half.motion_valid(a, b) for a, b in
                               zip(res.path[:-1], res.path[1:])):
                        problems.append(f"{name}/{planner} failed "
                                        "half-resolution re-validation")
                    if res.cost > bound:
                        problems.append(
                            f"{name}/{planner} cost {res.cost:.3f} exceeds "
                            f"{bound:.3f}")
        report(3, not problems,
               "all feasible paths re-validate and satisfy "
               "cost <= stretch_t * oracle * 1.10"
               if not problems else "; ".join(problems[:5]))


class TestCriterion4MultilevelBenefit:
    def test_median_speedup(self, infeasible_runs):
        problems = []
        details = []
        for name in MULTILEVEL_NARROW:
            med = {}
            for planner in SOLVERS:
                times = [min(r.seconds, 60.0)
                         for r in infeasible_runs[(name, planner)]]
                med[planner] = statistics.median(times)
            details.append(f"{name}: smlr {med['smlr']:.2f}s vs flat "
                           f"{med['flat']:.2f}s")
            if med["smlr"] > 0.5 * med["flat"]:
                problems.append(details[-1])
        report(4, not problems, "; ".join(details))


class TestCriterion5Density:
    def test_restriction_samples_cover_torus(self):
        sc, cfg, base, top, rng = torus_level_states(seed=0)
        bundle = sc.seq.bundles[0]
        delta = top.delta
        oracle = GridOracle(top.space, top.validity, delta / 2.0)
        hit = np.zeros(oracle.n_cells, dtype=bool)
        t0 = time.perf_counter()
        for _ in range(10 ** 5):
            x = restriction_sample(top, base, bundle, cfg, rng)
            hit[oracle.cell_of(x)] = True
        elapsed = time.perf_counter() - t0
        frac = hit[oracle.free].mean()
        ok = frac >= 0.99 and elapsed < 60.0
        report(5, ok,
               f"{frac:.4f} of {int(oracle.free.sum())} free cells sampled "
               f"in {elapsed:.1f}s (need >= 0.99 within 60s)")


class TestCriterion6RestrictionContainment:
    def test_projection_membership(self):
        sc, cfg, base, top, rng = torus_level_states(seed=1)
        bundle = sc.seq.bundles[0]
        delta = base.delta
        # ramp phase: hold t fixed below eta
        t_fixed = 100
        bias = smooth_parameter(t_fixed, delta, cfg.eta)
        n = 4000
        on_edge = 0
        worst = 0.0
        for _ in range(n):
            top.sample_count = t_fixed
            x = restriction_sample(top, base, bundle, cfg, rng)
            d = min_edge_distance(base, bundle.project(x))
            worst = max(worst, d)
            if d <= 1e-9:
                on_edge += 1
        ramp_ok = worst <= delta + 1e-9 and \
            on_edge / n >= 1.0 - bias / delta
        # saturated phase
        worst_sat = 0.0
        for _ in range(2000):
            top.sample_count = cfg.eta + 10
            x = restriction_sample(top, base, bundle, cfg, rng)
            worst_sat = max(worst_sat,
                            min_edge_distance(base, bundle.project(x)))
        sat_ok = worst_sat <= delta + 1e-9
        report(6, ramp_ok and sat_ok,
               f"100% within V(G_base, delta) (worst {worst_sat:.4f} vs "
               f"delta {delta:.4f}); on-edge fraction {on_edge / n:.3f} >= "
               f"{1.0 - bias / delta:.3f} at t={t_fixed}")


class TestCriterion7UnitValues:
    def test_importance_and_ramp(self):
        delta, eta = 0.7, 1000
        ok = (compute_importance(0) == 1.0
              and compute_importance(99) == 0.01
              and compute_importance(1000) == 1.0 / 1001
              and smooth_parameter(0, delta, eta) == 0.0
              and smooth_parameter(eta, delta, eta) == delta
              and smooth_parameter(eta // 2, delta, eta) == delta / 2)
        report(7, ok, "i(0)=1, i(99)=0.01, i(1000)=1/1001, ramp(0)=0, "
                      "ramp(eta)=delta, ramp(eta/2)=delta/2 exact")


class TestCriterion8Sparseness:
    def test_additions_decay(self):
        space = RealVectorSpace([[0, 1], [0, 1]])
        validity = LevelValidity(space=space, robot=PointRobot(),
                                 obstacles=[])
        delta = 0.25 * space.max_extent()
        decays = 0
        ratios = []
        for seed in range(1, 6):
            rm = SparseRoadmap(space, validity, delta)
            rng = np.random.default_rng(seed)
            first = second = 0
            t0 = time.perf_counter()
            while True:
                elapsed = time.perf_counter() - t0
                if elapsed >= 60.0:
                    break
                before = rm.total_additions
                rm.add_conditional(space.sample_uniform(rng))
                if rm.total_additions > before:
                    if elapsed < 30.0:
                        first += 1
                    else:
                        second += 1
            if second < first:
                decays += 1
            ratios.append(rm.num_guards / rm.total_samples)
        ok = decays >= 4 and all(r <= 0.05 for r in ratios)
        report(8, ok,
               f"additions decayed in {decays}/5 seeds; guard/sample ratios "
               f"max {max(ratios):.4f} (need <= 0.05)")


class TestCriterion9Determinism:
    def test_repeat_runs_identical(self):
        problems = []
        for name in ("torus_band_feasible", "se2_lshape_infeasible"):
            for planner, solve in SOLVERS.items():
                outs = []
                for _ in range(2):
                    sc = scenario(name)
                    cfg = dataclasses.replace(sc.config, seed=3)
                    outs.append(solve(sc.seq, sc.start, sc.goal, cfg))
                a, b = outs
                if a.status is Status.TIMEOUT or b.status is Status.TIMEOUT:
                    if a.status != b.status:
                        problems.append(f"{name}/{planner} status differs")
                    continue
                same = (a.status == b.status and a.cost == b.cost
                        and [(s.vertices, s.edges, s.failures)
                             for s in a.level_stats]
                        == [(s.vertices, s.edges, s.failures)
                            for s in b.level_stats])
                if a.path is not None:
                    same = same and len(a.path) == len(b.path) and all(
                        np.array_equal(x, y)
                        for x, y in zip(a.path, b.path))
                if not same:
                    problems.append(f"{name}/{planner} runs differ")
        report(9, not problems,
               "identical status, counts, cost and path across repeated "
               "invocations" if not problems else "; ".join(problems))
