import functools
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smlr.bundles import FiberBundle, FiberBundleSequence, Level
from smlr.geometry import Box
from smlr.planner import (GOAL_ID, START_ID, LevelState, PlannerConfig,
                          SmlrPlanner, Status, compute_importance, flat_solve,
                          lift_section, ptc, restriction_sample, section_test,
                          simplify_path, smlr_solve, smooth_parameter)
from smlr.scenario import load_scenario, shipped_scenario_dir
from smlr.spaces import (CircleSpace, ProductSpace, RealVectorSpace,
                         point_to_edge_distance)
from smlr.validity import LevelValidity, PointRobot

SRC = Path(__file__).resolve().parent.parent / "src"

# A free world whose validity rejects every motion checked finer than the
# planning resolution 0.1, so the path the planner finds always fails the
# final half-resolution check.
FORCED_REVALIDATION_FAILURE = """
import numpy as np
from smlr.bundles import FiberBundleSequence, Level
from smlr.planner import PlannerConfig, RevalidationError, SmlrPlanner
from smlr.spaces import RealVectorSpace
from smlr.validity import LevelValidity, PointRobot

class FineBlind(LevelValidity):
    def motion_valid(self, a, b):
        return self.check_resolution >= 0.1 and super().motion_valid(a, b)

space = RealVectorSpace([[0, 1], [0, 1]])
seq = FiberBundleSequence(levels=[Level(space, FineBlind(
    space=space, robot=PointRobot(), obstacles=[], check_resolution=0.1))],
    bundles=[])
cfg = PlannerConfig(seed=0, time_limit=10)
try:
    SmlrPlanner(seq, cfg).solve(np.array([0.1, 0.1]), np.array([0.9, 0.9]))
    print("returned", __debug__)
except RevalidationError as e:
    print("raised", __debug__, e)
"""


def r2_level(obstacles, res=0.01):
    space = RealVectorSpace([[0, 1], [0, 1]])
    v = LevelValidity(space=space, robot=PointRobot(), obstacles=obstacles,
                      workspace_lo=np.zeros(2), workspace_hi=np.ones(2),
                      check_resolution=res)
    return Level(space, v)


def single_level_seq(obstacles):
    return FiberBundleSequence(levels=[r2_level(obstacles)], bundles=[])


def torus_over_circle_seq(bundle_obstacles=(), base_obstacles=()):
    s1 = CircleSpace()
    t2 = ProductSpace([CircleSpace(), CircleSpace()])
    base = Level(s1, LevelValidity(space=s1, robot=PointRobot((0,)),
                                   obstacles=list(base_obstacles)))
    top = Level(t2, LevelValidity(space=t2, robot=PointRobot(),
                                  obstacles=list(bundle_obstacles)))
    bundle = FiberBundle(bundle_space=t2, base_space=s1, base_indices=[0])
    return FiberBundleSequence(levels=[base, top], bundles=[bundle])


class TestScalarHelpers:
    def test_smooth_parameter_ramp(self):
        assert smooth_parameter(0, 0.5, 1000) == 0.0
        assert smooth_parameter(500, 0.5, 1000) == pytest.approx(0.25)
        assert smooth_parameter(1000, 0.5, 1000) == pytest.approx(0.5)
        assert smooth_parameter(5000, 0.5, 1000) == pytest.approx(0.5)

    def test_smooth_parameter_validation(self):
        with pytest.raises(ValueError):
            smooth_parameter(-1, 0.5, 1000)
        with pytest.raises(ValueError):
            smooth_parameter(10, 0.5, 0)

    def test_importance_values(self):
        assert compute_importance(0) == 1.0
        assert compute_importance(99) == pytest.approx(0.01)
        assert compute_importance(1000) == pytest.approx(1.0 / 1001)

    def test_importance_decreases(self):
        vals = [compute_importance(k) for k in range(50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestConfigValidation:
    def test_defaults_ok(self):
        cfg = PlannerConfig()
        assert cfg.max_failures == 1000
        assert cfg.delta_fraction == 0.25

    @pytest.mark.parametrize("kwargs", [
        {"max_failures": 0},
        {"delta_fraction": 0.0},
        {"delta_fraction": 1.5},
        {"eta": 0},
        {"stretch_t": 1.0},
        {"time_limit": 0.0},
        {"time_limit": float("nan")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PlannerConfig(**kwargs)


class TestRestrictionSampling:
    def make_levels(self):
        seq = torus_over_circle_seq()
        cfg = PlannerConfig(seed=0)
        base = LevelState(0, seq.levels[0].space, seq.levels[0].validity, cfg)
        top = LevelState(1, seq.levels[1].space, seq.levels[1].validity, cfg)
        return seq, cfg, base, top

    def test_uniform_fallback_without_base(self):
        seq, cfg, base, top = self.make_levels()
        rng = np.random.default_rng(0)
        xs = np.array([restriction_sample(top, None, None, cfg, rng)
                       for _ in range(20000)])
        # chi-square uniformity over 8 bins in each coordinate
        for col in range(2):
            counts, _ = np.histogram(xs[:, col], bins=8,
                                     range=(0, 2 * math.pi))
            expected = len(xs) / 8
            chi2 = float(((counts - expected) ** 2 / expected).sum())
            assert chi2 < 24.3  # chi2(7 dof) at the 0.001 level

    def test_uniform_fallback_edgeless_base(self):
        seq, cfg, base, top = self.make_levels()
        base.roadmap.add_guard(np.array([1.0]))
        rng = np.random.default_rng(1)
        x = restriction_sample(top, base, seq.bundles[0], cfg, rng)
        assert top.space.contains(x)
        assert top.validity.is_valid(x)

    def test_first_samples_project_onto_base_edges(self):
        # t starts at 0: zero bias radius, projections lie on the base graph
        seq, cfg, base, top = self.make_levels()
        base.roadmap.add_guard(np.array([1.0]))
        base.roadmap.add_guard(np.array([2.0]))
        base.roadmap.add_edge(0, 1)
        rng = np.random.default_rng(2)
        x = restriction_sample(top, base, seq.bundles[0], cfg, rng)
        b = seq.bundles[0].project(x)
        d = point_to_edge_distance(base.space, b, np.array([1.0]),
                                   np.array([2.0]))
        assert d <= 1e-9
        assert top.sample_count == 1

    def test_bias_stays_within_visibility_region(self):
        seq, cfg, base, top = self.make_levels()
        base.roadmap.add_guard(np.array([1.0]))
        base.roadmap.add_guard(np.array([2.0]))
        base.roadmap.add_edge(0, 1)
        top.sample_count = 10 ** 6  # ramp saturated: bias radius = delta
        rng = np.random.default_rng(3)
        u, v = np.array([1.0]), np.array([2.0])
        for _ in range(2000):
            x = restriction_sample(top, base, seq.bundles[0], cfg, rng)
            b = seq.bundles[0].project(x)
            d = point_to_edge_distance(base.space, b, u, v)
            assert d <= base.delta + 1e-9

    def test_perturbed_fraction_grows_with_t(self):
        seq, cfg, base, top = self.make_levels()
        base.roadmap.add_guard(np.array([1.0]))
        base.roadmap.add_guard(np.array([2.0]))
        base.roadmap.add_edge(0, 1)

        def off_edge_fraction(t0, n=3000):
            top.sample_count = t0
            rng = np.random.default_rng(4)
            off = 0
            for _ in range(n):
                top.sample_count = t0  # hold t fixed
                x = restriction_sample(top, base, seq.bundles[0], cfg, rng)
                b = seq.bundles[0].project(x)
                if point_to_edge_distance(base.space, b, np.array([1.0]),
                                          np.array([2.0])) > 1e-9:
                    off += 1
            return off / n

        assert off_edge_fraction(0) == 0.0
        early = off_edge_fraction(100)
        late = off_edge_fraction(1000)
        assert early < late
        # at saturation the perturbation always fires; in a 1-d base many
        # perturbed points land back inside the edge arc, so only a fraction
        # shows up off the edge, but it must be substantial
        assert late > 0.25


@functools.lru_cache(maxsize=None)
def grown_levels(name):
    """The shipped scenario's two levels, the base roadmap grown until it
    has edges to restrict samples to."""
    sc = load_scenario(shipped_scenario_dir() / f"{name}.yaml")
    base, top = (LevelState(k, lvl.space, lvl.validity, sc.config)
                 for k, lvl in enumerate(sc.seq.levels))
    rng = np.random.default_rng(0)
    while base.roadmap.num_edges < 3:
        x = base.space.sample_uniform(rng)
        if base.validity.is_valid(x):
            base.roadmap.add_conditional(x)
    return sc, base, top


class TestSamplesAreNormalized:
    """Every restriction sample is its own normalize(): the visibility check
    relies on it to check a sample once as state 0 of all its motions."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["torus_band_feasible",
                                 "se2_lshape_feasible"]),
           branch=st.sampled_from(["uniform", "base_edge", "delta_biased"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_restriction_sample_is_normalized(self, name, branch, seed):
        sc, base, top = grown_levels(name)
        rng = np.random.default_rng(seed)
        if branch == "uniform":
            x = restriction_sample(top, None, None, sc.config, rng)
        else:
            # t = 0 gives bias radius 0; t = eta saturates the ramp, so the
            # base point is always perturbed
            top.sample_count = 0 if branch == "base_edge" else sc.config.eta
            x = restriction_sample(top, base, sc.seq.bundles[0], sc.config,
                                   rng)
        assert x.tobytes() == top.space.normalize(x).tobytes()


def per_state_section_test(level, bundle, base_path, start, goal):
    """section_test as it checked its lift before the batched check: each
    lifted vertex, then each segment's motion."""
    lifted = lift_section(bundle, base_path, bundle.fiber_of(start),
                          bundle.fiber_of(goal))
    v = level.validity
    if not all(v.is_valid(x) for x in lifted):
        return None
    if not all(v.motion_valid(a, b) for a, b in zip(lifted[:-1], lifted[1:])):
        return None
    return lifted


class TestSectionTest:
    @pytest.mark.parametrize("collision", ["vertex", "mid_segment", "none"])
    @pytest.mark.parametrize("seed", range(4))
    def test_batched_check_matches_per_state_loops(self, collision, seed,
                                                   monkeypatch):
        rng = np.random.default_rng(seed)
        base_path = [np.array([t]) for t in np.sort(rng.uniform(0.3, 6, 4))]
        start = np.array([base_path[0][0], rng.uniform(0.3, 6)])
        goal = np.array([base_path[-1][0], rng.uniform(0.3, 6)])
        free = torus_over_circle_seq()
        lifted = lift_section(free.bundles[0], base_path, start[1:],
                              goal[1:])
        # a box too small to hold any other checked state
        if collision == "vertex":
            spot = [lifted[2]]
        elif collision == "mid_segment":
            states = free.finest.validity.motion_states(lifted[1], lifted[2])
            spot = [states[len(states) // 2]]
        else:
            spot = []
        seq = torus_over_circle_seq(
            bundle_obstacles=[Box(x - 1e-9, x + 1e-9) for x in spot])
        top = LevelState(1, seq.levels[1].space, seq.levels[1].validity,
                         PlannerConfig())
        want = per_state_section_test(top, seq.bundles[0], base_path, start,
                                      goal)
        if collision == "mid_segment":
            assert all(top.validity.is_valid(x) for x in lifted)
        assert (want is None) == (collision != "none")

        calls = []
        valid_mask = LevelValidity.valid_mask

        def counting_valid_mask(self, coords):
            calls.append(len(coords))
            return valid_mask(self, coords)
        monkeypatch.setattr(LevelValidity, "valid_mask", counting_valid_mask)
        got = section_test(top, seq.bundles[0], base_path, start, goal)
        assert len(calls) == 1
        if want is None:
            assert got is None
        else:
            assert np.array_equal(np.stack(got), np.stack(want))

    def test_lifts_free_base_path(self):
        seq = torus_over_circle_seq()
        cfg = PlannerConfig()
        top = LevelState(1, seq.levels[1].space, seq.levels[1].validity, cfg)
        base_path = [np.array([0.5]), np.array([1.5]), np.array([2.5])]
        start = np.array([0.5, 1.0])
        goal = np.array([2.5, 2.0])
        lifted = section_test(top, seq.bundles[0], base_path, start, goal)
        assert lifted is not None
        assert np.allclose(lifted[0], start)
        assert np.allclose(lifted[-1], goal)

    def test_rejects_blocked_lift(self):
        # band obstacle covering all fiber values over theta1 in [1.2, 1.8]
        block = Box([1.2, 0.0], [1.8, 2 * math.pi])
        seq = torus_over_circle_seq(bundle_obstacles=[block])
        cfg = PlannerConfig()
        top = LevelState(1, seq.levels[1].space, seq.levels[1].validity, cfg)
        base_path = [np.array([0.5]), np.array([1.5]), np.array([2.5])]
        out = section_test(top, seq.bundles[0], base_path,
                           np.array([0.5, 1.0]), np.array([2.5, 2.0]))
        assert out is None

    def test_zero_dim_fiber_identity(self):
        space = RealVectorSpace([[0, 1], [0, 1]])
        lvl = r2_level([])
        cfg = PlannerConfig()
        top = LevelState(1, lvl.space, lvl.validity, cfg)
        bundle = FiberBundle(bundle_space=lvl.space, base_space=space,
                             base_indices=[0, 1])
        base_path = [np.array([0.1, 0.1]), np.array([0.9, 0.9])]
        lifted = section_test(top, bundle, base_path,
                              np.array([0.1, 0.1]), np.array([0.9, 0.9]))
        assert lifted is not None
        assert all(np.allclose(a, b) for a, b in zip(lifted, base_path))

    def test_none_without_base_solution(self):
        seq = torus_over_circle_seq()
        cfg = PlannerConfig()
        top = LevelState(1, seq.levels[1].space, seq.levels[1].validity, cfg)
        assert section_test(top, seq.bundles[0], None,
                            np.array([0.5, 1.0]), np.array([2.5, 2.0])) is None


class TestPtc:
    def make_level(self, cfg):
        lvl = r2_level([])
        return LevelState(0, lvl.space, lvl.validity, cfg)

    def connect_start_goal(self, ls):
        ls.roadmap.add_guard(np.array([0.1, 0.1]))
        ls.roadmap.add_guard(np.array([0.2, 0.1]))
        ls.roadmap.add_edge(START_ID, GOAL_ID)

    def test_continue_initially(self):
        cfg = PlannerConfig()
        ls = self.make_level(cfg)
        assert ptc(ls, cfg, 0.0) is None

    def test_solved_when_connected(self):
        cfg = PlannerConfig()
        ls = self.make_level(cfg)
        self.connect_start_goal(ls)
        assert ptc(ls, cfg, 0.0) is Status.FEASIBLE

    def test_infeasible_after_failure_bound(self):
        cfg = PlannerConfig(max_failures=10)
        ls = self.make_level(cfg)
        ls.roadmap.consecutive_failures = 10
        assert ptc(ls, cfg, 0.0) is None
        ls.roadmap.consecutive_failures = 11
        assert ptc(ls, cfg, 0.0) is Status.INFEASIBLE

    def test_timeout(self):
        cfg = PlannerConfig(time_limit=1.0)
        ls = self.make_level(cfg)
        assert ptc(ls, cfg, 1.5) is Status.TIMEOUT

    def test_precedence_solved_over_all(self):
        cfg = PlannerConfig(max_failures=5, time_limit=1.0)
        ls = self.make_level(cfg)
        self.connect_start_goal(ls)
        ls.roadmap.consecutive_failures = 99
        assert ptc(ls, cfg, 99.0) is Status.FEASIBLE

    def test_precedence_infeasible_over_timeout(self):
        cfg = PlannerConfig(max_failures=5, time_limit=1.0)
        ls = self.make_level(cfg)
        ls.roadmap.consecutive_failures = 99
        assert ptc(ls, cfg, 99.0) is Status.INFEASIBLE


class TestSimplifyPath:
    def test_straightens_free_detour(self):
        lvl = r2_level([])
        path = [np.array([0.1, 0.1]), np.array([0.1, 0.9]),
                np.array([0.9, 0.9])]
        out = simplify_path(path, lvl.space, lvl.validity)
        assert np.allclose(out[0], path[0])
        assert np.allclose(out[-1], path[-1])
        cost = sum(lvl.space.distance(a, b)
                   for a, b in zip(out[:-1], out[1:]))
        assert cost == pytest.approx(lvl.space.distance(path[0], path[-1]))

    def test_keeps_necessary_detour_valid(self):
        lvl = r2_level([Box([0.45, 0.0], [0.55, 0.7])])
        path = [np.array([0.2, 0.5]), np.array([0.3, 0.9]),
                np.array([0.5, 0.92]), np.array([0.7, 0.9]),
                np.array([0.8, 0.5])]
        out = simplify_path(path, lvl.space, lvl.validity)
        for a, b in zip(out[:-1], out[1:]):
            assert lvl.validity.motion_valid(a, b)
        new = sum(lvl.space.distance(a, b) for a, b in zip(out[:-1], out[1:]))
        old = sum(lvl.space.distance(a, b)
                  for a, b in zip(path[:-1], path[1:]))
        assert new <= old
        # still has to clear the wall
        assert new > lvl.space.distance(path[0], path[-1])

    def test_two_point_path_unchanged(self):
        lvl = r2_level([])
        path = [np.array([0.1, 0.1]), np.array([0.9, 0.9])]
        out = simplify_path(path, lvl.space, lvl.validity)
        assert len(out) == 2


class TestSolveFlatWorlds:
    def test_free_world_feasible(self):
        seq = single_level_seq([])
        cfg = PlannerConfig(seed=3, time_limit=10)
        start, goal = np.array([0.1, 0.1]), np.array([0.9, 0.9])
        res = smlr_solve(seq, start, goal, cfg)
        assert res.status is Status.FEASIBLE
        assert res.seconds < 1.0
        assert res.cost >= seq.finest.space.distance(start, goal) - 1e-9
        assert np.allclose(res.path[0], start)
        assert np.allclose(res.path[-1], goal)

    def test_partition_wall_infeasible(self):
        seq = single_level_seq([Box([0.45, 0.0], [0.55, 1.0])])
        cfg = PlannerConfig(seed=1, max_failures=1000, time_limit=60)
        res = smlr_solve(seq, np.array([0.2, 0.5]), np.array([0.8, 0.5]), cfg)
        assert res.status is Status.INFEASIBLE
        assert res.coverage_estimate >= 0.999
        assert res.path is None

    def test_gap_in_wall_feasible(self):
        seq = single_level_seq([Box([0.45, 0.0], [0.55, 0.7])])
        cfg = PlannerConfig(seed=2, time_limit=30)
        res = smlr_solve(seq, np.array([0.2, 0.5]), np.array([0.8, 0.5]), cfg)
        assert res.status is Status.FEASIBLE
        assert res.cost > 0.6  # must detour over the wall

    def test_invalid_start_reports_infeasible(self):
        seq = single_level_seq([Box([0.0, 0.0], [0.3, 0.3])])
        cfg = PlannerConfig(seed=0)
        res = smlr_solve(seq, np.array([0.1, 0.1]), np.array([0.9, 0.9]), cfg)
        assert res.status is Status.INFEASIBLE
        assert "start" in res.reason

    def test_out_of_bounds_raises(self):
        seq = single_level_seq([])
        cfg = PlannerConfig(seed=0)
        with pytest.raises(ValueError):
            smlr_solve(seq, np.array([2.0, 0.5]), np.array([0.9, 0.9]), cfg)

    def test_timeout_status(self):
        seq = single_level_seq([Box([0.45, 0.0], [0.55, 1.0])])
        cfg = PlannerConfig(seed=0, max_failures=10 ** 6, time_limit=0.2)
        res = smlr_solve(seq, np.array([0.2, 0.5]), np.array([0.8, 0.5]), cfg)
        assert res.status is Status.TIMEOUT
        assert res.seconds >= 0.2

    def test_no_coverage_when_no_roadmap_measured_it(self):
        # a timeout and an invalid endpoint end before any failure bound
        # measured a roadmap's coverage, so the estimate is unknown, not 0
        sc = load_scenario(shipped_scenario_dir()
                           / "square_wall_infeasible.yaml")
        cfg = replace(sc.config, seed=0, max_failures=10 ** 6,
                      time_limit=0.3)
        res = smlr_solve(sc.seq, sc.start, sc.goal, cfg)
        assert res.status is Status.TIMEOUT
        assert res.coverage_estimate is None
        res = smlr_solve(sc.seq, np.array([0.5, 0.5]), sc.goal, cfg)
        assert res.status is Status.INFEASIBLE
        assert res.reason == "start invalid on level 1"
        assert res.coverage_estimate is None


class TestPlannerInputs:
    def test_check_resolution_override_leaves_scenario_untouched(
            self, tmp_path):
        # the override is the scenario's planner.check_resolution key
        path = shipped_scenario_dir() / "chain4_feasible.yaml"
        override = tmp_path / "chain4_coarse.yaml"
        override.write_text(path.read_text()
                            + "planner: {check_resolution: 0.2}\n")
        base, sc = load_scenario(path), load_scenario(override)
        planner = SmlrPlanner(sc.seq, replace(sc.config, seed=1))
        planner.solve(sc.start, sc.goal)
        assert [ls.validity.check_resolution
                for ls in planner.level_states] == [0.2, 0.2]
        assert [lvl.validity.check_resolution for lvl in sc.seq.levels] \
            == [0.2, 0.2]
        assert [lvl.validity.check_resolution for lvl in base.seq.levels] \
            == [0.01, 0.01]

    def test_validity_objects_are_frozen(self):
        v = single_level_seq([]).levels[0].validity
        with pytest.raises(FrozenInstanceError):
            v.check_resolution = 0.2

    def test_no_override_shares_validity(self):
        # solve leaves the scenario's validity objects unchanged and shared
        sc = load_scenario(shipped_scenario_dir() / "chain4_feasible.yaml")
        before = [lvl.validity for lvl in sc.seq.levels]
        planner = SmlrPlanner(sc.seq, replace(sc.config, seed=1))
        planner.solve(sc.start, sc.goal)
        assert all(lvl.validity is v
                   for lvl, v in zip(sc.seq.levels, before))
        assert all(ls.validity is v
                   for ls, v in zip(planner.level_states, before))
        assert [v.check_resolution for v in before] == [0.01, 0.01]


class TestRevalidation:
    @pytest.mark.parametrize("flags, debug", [([], True), (["-O"], False)],
                             ids=["plain", "optimized"])
    def test_failure_raises_named_error(self, flags, debug):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, *flags, "-c", FORCED_REVALIDATION_FAILURE],
            env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith(f"raised {debug} solution failed "
                                     "re-validation at half resolution")


class TestSolveMultilevel:
    def test_torus_feasible_two_levels(self):
        seq = torus_over_circle_seq()
        cfg = PlannerConfig(seed=4, time_limit=20)
        start = np.array([0.5, 1.0])
        goal = np.array([3.5, 2.0])
        res = smlr_solve(seq, start, goal, cfg)
        assert res.status is Status.FEASIBLE
        assert len(res.level_stats) == 2
        # the path lives on the finest level and connects the query
        assert np.allclose(res.path[0], start)
        assert np.allclose(res.path[-1], goal)

    def test_base_infeasibility_short_circuits(self):
        # two full bands block the base circle; the bundle obstacles match
        base_obs = [Box([2.0], [2.5]), Box([5.0], [5.5])]
        top_obs = [Box([2.0, 0.0], [2.5, 2 * math.pi]),
                   Box([5.0, 0.0], [5.5, 2 * math.pi])]
        seq = torus_over_circle_seq(bundle_obstacles=top_obs,
                                    base_obstacles=base_obs)
        cfg = PlannerConfig(seed=5, max_failures=500, time_limit=60)
        res = smlr_solve(seq, np.array([0.5, 1.0]), np.array([3.5, 2.0]), cfg)
        assert res.status is Status.INFEASIBLE
        assert "level 1" in res.reason
        # the fine level was never grown beyond its start/goal guards
        assert res.level_stats[1].vertices == 2
        assert res.level_stats[1].edges == 0

    def test_flat_baseline_matches_single_level(self):
        seq = torus_over_circle_seq()
        cfg = PlannerConfig(seed=6, time_limit=20)
        res = flat_solve(seq, np.array([0.5, 1.0]), np.array([3.5, 2.0]), cfg)
        assert res.status is Status.FEASIBLE
        assert len(res.level_stats) == 1

    def test_results_deterministic_per_seed(self):
        seq_a = torus_over_circle_seq()
        seq_b = torus_over_circle_seq()
        cfg = PlannerConfig(seed=7, time_limit=20)
        ra = smlr_solve(seq_a, np.array([0.5, 1.0]), np.array([3.5, 2.0]), cfg)
        rb = smlr_solve(seq_b, np.array([0.5, 1.0]), np.array([3.5, 2.0]), cfg)
        assert ra.status == rb.status
        assert ra.cost == rb.cost
        assert all(np.array_equal(a, b) for a, b in zip(ra.path, rb.path))
        for sa, sb in zip(ra.level_stats, rb.level_stats):
            assert (sa.vertices, sa.edges) == (sb.vertices, sb.edges)

    def test_seeds_differ(self):
        cfg_a = PlannerConfig(seed=8, time_limit=20)
        cfg_b = PlannerConfig(seed=9, time_limit=20)
        ra = smlr_solve(torus_over_circle_seq(), np.array([0.5, 1.0]),
                        np.array([3.5, 2.0]), cfg_a)
        rb = smlr_solve(torus_over_circle_seq(), np.array([0.5, 1.0]),
                        np.array([3.5, 2.0]), cfg_b)
        assert ra.status is Status.FEASIBLE and rb.status is Status.FEASIBLE
        # different seeds grow different roadmaps
        assert [(s.vertices, s.edges) for s in ra.level_stats] != \
            [(s.vertices, s.edges) for s in rb.level_stats]
