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
from smlr import planner
from smlr.planner import (GOAL_ID, N_PATTERNS, START_ID, LevelState,
                          PlannerConfig, SmlrPlanner, Status,
                          compute_importance, flat_solve, lift_section, ptc,
                          restriction_sample, section_test, simplify_path,
                          smlr_solve, smooth_parameter)
from smlr.scenario import load_scenario, shipped_scenario_dir
from smlr.spaces import (CircleSpace, ProductSpace, RealVectorSpace,
                         points_to_edge_distance)
from smlr.validity import (CollisionWorld, LevelValidity, PointRobot,
                           PolygonRobot)

SRC = Path(__file__).resolve().parent.parent / "src"

# A free world whose validity rejects every state checked at a resolution
# finer than the planning resolution 0.1, so the path the planner finds
# always fails the final half-resolution check.
FORCED_REVALIDATION_FAILURE = """
import numpy as np
from smlr.bundles import FiberBundleSequence, Level
from smlr.planner import PlannerConfig, RevalidationError, SmlrPlanner
from smlr.spaces import RealVectorSpace
from smlr.validity import LevelValidity, PointRobot

class FineBlind(LevelValidity):
    def valid_mask(self, coords):
        return super().valid_mask(coords) & (self.check_resolution >= 0.1)

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
        {"seed": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
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
        d = points_to_edge_distance(base.space, b[None], np.array([1.0]),
                                    np.array([2.0]))[0]
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
            d = points_to_edge_distance(base.space, b[None], u, v)[0]
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
                if points_to_edge_distance(base.space, b[None],
                                           np.array([1.0]),
                                           np.array([2.0]))[0] > 1e-9:
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


def lift_section_per_vertex(bundle, base_path, start_fiber, goal_fiber):
    """lift_section as a per-vertex loop with a running sum of segment
    lengths: the reference it must equal byte for byte."""
    if bundle.fiber_dim == 0:
        return [bundle.lift(b) for b in base_path]
    fs = bundle.fiber_space
    seg = [bundle.base_space.distance(a, b)
           for a, b in zip(base_path[:-1], base_path[1:])]
    total = sum(seg)
    cum = 0.0
    lifted = []
    for i, b in enumerate(base_path):
        if i > 0:
            cum += seg[i - 1]
        s = cum / total if total > 0 else (i / max(1, len(base_path) - 1))
        lifted.append(bundle.lift(b, fs.interpolate(start_fiber, goal_fiber,
                                                    min(1.0, s))))
    return lifted


def _r2() -> RealVectorSpace:
    return RealVectorSpace([[-1, 2], [0, 3]])


BUNDLES = {
    "torus_over_circle": lambda: torus_over_circle_seq().bundles[0],
    "r2xr2_over_r2": lambda: FiberBundle(
        bundle_space=ProductSpace([_r2(), _r2()], [1.0, 0.4]),
        base_space=_r2(), base_indices=[0, 1]),
    "r2_over_r2": lambda: FiberBundle(bundle_space=_r2(), base_space=_r2(),
                                      base_indices=[0, 1]),
}


@st.composite
def base_paths(draw):
    """A bundle, a base path of 1-6 vertices (a vertex may repeat the one
    before it, and all of them may coincide) and start and goal fibers."""
    bundle = BUNDLES[draw(st.sampled_from(sorted(BUNDLES)))]()

    def state(space):
        return np.array([draw(st.floats(lo, hi, exclude_max=True))
                         for lo, hi in zip(space.lo, space.hi)])
    path = [state(bundle.base_space)]
    for _ in range(draw(st.integers(0, 5))):
        path.append(path[-1].copy() if draw(st.booleans())
                    else state(bundle.base_space))
    if draw(st.booleans()):
        path = [path[0].copy() for _ in path]
    fs = bundle.fiber_space
    fibers = (state(fs), state(fs)) if fs else (None, None)
    return bundle, path, fibers


@settings(max_examples=200, deadline=None)
@given(case=base_paths())
def test_lift_section_equals_per_vertex_loop(case):
    bundle, path, (f0, f1) = case
    got = lift_section(bundle, path, f0, f1)
    assert got.shape == (len(path), bundle.bundle_space.dim)
    assert got.tobytes() == \
        np.stack(lift_section_per_vertex(bundle, path, f0, f1)).tobytes()


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
        got = top.validity.path_valid(
            lift_section(seq.bundles[0], base_path, start[1:], goal[1:]))
        assert len(calls) == 1
        assert got == (want is not None)

    def test_lifts_free_base_path(self):
        seq = torus_over_circle_seq()
        cfg = PlannerConfig()
        top = LevelState(1, seq.levels[1].space, seq.levels[1].validity, cfg)
        base_path = [np.array([0.5]), np.array([1.5]), np.array([2.5])]
        start = np.array([0.5, 1.0])
        goal = np.array([2.5, 2.0])
        lift, path = section_test(top, seq.bundles[0], base_path, start,
                                  goal)
        assert lift == "straight"
        assert np.allclose(path[0], start)
        assert np.allclose(path[-1], goal)

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
        lift, path = section_test(top, bundle, base_path,
                                  np.array([0.1, 0.1]), np.array([0.9, 0.9]))
        assert lift == "straight"
        assert all(np.allclose(a, b) for a, b in zip(path, base_path))

    def test_none_without_base_solution(self):
        seq = torus_over_circle_seq()
        cfg = PlannerConfig()
        top = LevelState(1, seq.levels[1].space, seq.levels[1].validity, cfg)
        assert section_test(top, seq.bundles[0], None,
                            np.array([0.5, 1.0]), np.array([2.5, 2.0])) is None


def band_with_window(lo, width):
    """Torus-over-circle level whose band theta1 in [1.2, 1.8] is blocked at
    every fiber value except the open window (lo, lo + width)."""
    return torus_over_circle_seq(bundle_obstacles=[
        Box([1.2, 0.0], [1.8, lo]),
        Box([1.2, lo + width], [1.8, 2 * math.pi])])


def top_level(seq):
    return LevelState(1, seq.levels[1].space, seq.levels[1].validity,
                      PlannerConfig())


BASE_PATH = [np.array([0.5]), np.array([1.5]), np.array([2.5])]
START = np.array([0.5, 1.0])
GOAL = np.array([2.5, 2.0])


def candidate_list(bundle, base_path, start, goal, seed, level_index):
    """section_test's lifts in the order it tries them, as (label, path),
    built one at a time: the straight lift, then the fiber detours start ->
    lift(b0, f) -> ... -> lift(bn, f) -> goal at the zero fiber and at
    N_PATTERNS single draws, each with consecutive duplicates dropped."""
    fs = bundle.fiber_space
    rng = np.random.default_rng([seed, level_index])
    fibers = [np.clip(np.zeros(fs.dim), fs.lo, fs.hi)] + \
        [fs.sample_uniform(rng) for _ in range(N_PATTERNS)]
    cands = [("straight", np.stack(lift_section_per_vertex(
        bundle, base_path, bundle.fiber_of(start), bundle.fiber_of(goal))))]
    for i, f in enumerate(fibers):
        path = [start] + [bundle.lift(b, f) for b in base_path] + [goal]
        path = [x for j, x in enumerate(path)
                if j == 0 or np.any(x != path[j - 1])]
        cands.append((f"fiber {i}", np.stack(path)))
    return cands


def one_at_a_time(level, bundle, base_path, start, goal, seed):
    """section_test's choice as a plain loop: the first candidate in list
    order that passes path_valid on its own."""
    for lift, path in candidate_list(bundle, base_path, start, goal, seed,
                                     level.index):
        if level.validity.path_valid(path):
            return lift, path
    return None


def straight_only(level, bundle, base_path, start, goal, seed=0):
    """section_test with the straight lift and no fiber detours."""
    if bundle is None or base_path is None:
        return None
    lifted = lift_section(bundle, base_path, bundle.fiber_of(start),
                          bundle.fiber_of(goal))
    return ("straight", lifted) if level.validity.path_valid(lifted) \
        else None


class TestSectionPatterns:
    def test_detour_around_thin_box(self):
        # the straight lift passes (1.5, 1.5); the zero fiber goes round
        seq = torus_over_circle_seq(
            bundle_obstacles=[Box([1.45, 1.4], [1.55, 1.6])])
        top = top_level(seq)
        bundle = seq.bundles[0]
        assert not top.validity.path_valid(
            lift_section(bundle, BASE_PATH, START[1:], GOAL[1:]))
        lift, path = section_test(top, bundle, BASE_PATH, START, GOAL, seed=3)
        assert lift == "fiber 0"
        np.testing.assert_array_equal(
            path, [START, [0.5, 0.0], [1.5, 0.0], [2.5, 0.0], GOAL])
        assert path[0].tobytes() == START.tobytes()
        assert path[-1].tobytes() == GOAL.tobytes()
        assert top.validity.path_valid(path)
        assert all(np.any(a != b) for a, b in zip(path[:-1], path[1:]))

    def test_candidates_hold_the_fiber_along_the_base_path(self):
        # a narrow window the zero fiber misses: a drawn fiber i passes
        seq = band_with_window(4.0, 0.3)
        fs = seq.bundles[0].fiber_space
        for seed in range(4):
            lift, path = section_test(top_level(seq), seq.bundles[0],
                                      BASE_PATH, START, GOAL, seed=seed)
            i = int(lift.removeprefix("fiber "))
            assert 1 <= i <= N_PATTERNS
            drawn = fs.sample_uniform(np.random.default_rng([seed, 1]),
                                      N_PATTERNS)[i - 1]
            assert path[0].tobytes() == START.tobytes()
            assert path[-1].tobytes() == GOAL.tobytes()
            np.testing.assert_array_equal(path[1:-1, 0],
                                          [b[0] for b in BASE_PATH])
            assert path[1:-1, 1].tobytes() == np.repeat(drawn, 3).tobytes()

    def test_blocked_band_misses_in_few_calls(self, monkeypatch):
        seq = torus_over_circle_seq(
            bundle_obstacles=[Box([1.2, 0.0], [1.8, 2 * math.pi])])
        calls = []
        valid_mask = LevelValidity.valid_mask

        def counting_valid_mask(self, coords):
            calls.append(len(coords))
            return valid_mask(self, coords)
        monkeypatch.setattr(LevelValidity, "valid_mask", counting_valid_mask)
        assert section_test(top_level(seq), seq.bundles[0], BASE_PATH, START,
                            GOAL, seed=1) is None
        # batches of 1, 2, 4, ..., 64 candidates, then the last 75 of 202
        assert len(calls) == 8

    @pytest.mark.parametrize("seed", range(8))
    def test_batched_choice_equals_one_at_a_time(self, seed):
        rng = np.random.default_rng(seed)
        width = rng.uniform(0.02, 3.0)
        seq = band_with_window(rng.uniform(0.0, 2 * math.pi - width), width)
        top = top_level(seq)
        want = one_at_a_time(top, seq.bundles[0], BASE_PATH, START, GOAL,
                             seed)
        got = section_test(top, seq.bundles[0], BASE_PATH, START, GOAL,
                           seed=seed)
        if want is None:
            assert got is None
        else:
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()

    def test_same_seed_and_level_same_path(self):
        def solve(seed, level):
            seq = band_with_window(4.0, 0.2)
            top = LevelState(level, seq.levels[1].space,
                             seq.levels[1].validity, PlannerConfig())
            lift, path = section_test(top, seq.bundles[0], BASE_PATH, START,
                                      GOAL, seed=seed)
            return lift, path.tobytes()
        assert solve(11, 1) == solve(11, 1)
        assert solve(11, 1) != solve(12, 1)
        assert solve(11, 1) != solve(11, 2)

    @pytest.mark.parametrize("name", ["torus_band_infeasible",
                                      "chain4_infeasible"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_miss_leaves_infeasible_runs_unchanged(self, name, seed,
                                                   monkeypatch):
        def run():
            sc = load_scenario(shipped_scenario_dir() / f"{name}.yaml")
            res = smlr_solve(sc.seq, sc.start, sc.goal,
                             replace(sc.config, seed=seed))
            return (res.status, res.reason, res.coverage_estimate,
                    res.level_stats)
        real = run()
        monkeypatch.setattr(planner, "section_test", straight_only)
        assert real[0] is Status.INFEASIBLE
        assert run() == real


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


def simplify_path_one_at_a_time(path, space, checker, steps=None):
    """simplify_path as a sequential loop, kept as the reference: distance
    and interpolate per segment, and one motion_valid call per candidate
    from the far end.  steps, a list, gets one entry per elision step."""
    if len(path) <= 2:
        return list(path)
    pts = [np.asarray(p, dtype=float) for p in path]
    for _ in range(planner.SIMPLIFY_ROUNDS):
        sub = []
        for a, b in zip(pts[:-1], pts[1:]):
            sub.append(a)
            if space.distance(a, b) > 1e-9:
                sub.append(space.interpolate(a, b, 0.5))
        sub.append(pts[-1])
        out = [sub[0]]
        i = 0
        while i < len(sub) - 1:
            j = len(sub) - 1
            while j > i + 1 and not checker.motion_valid(sub[i], sub[j]):
                j -= 1
            out.append(sub[j])
            if steps is not None:
                steps.append(i)
            i = j
        if len(out) == len(pts) and \
                all(np.array_equal(a, b) for a, b in zip(out, pts)):
            break
        pts = out
    return pts


SIMPLIFY_SPACES = {
    "r2": lambda: RealVectorSpace([[0, 1], [0, 1]]),
    "t2": lambda: ProductSpace([CircleSpace(), CircleSpace()]),
    "se2": lambda: ProductSpace([RealVectorSpace([[0, 1], [0, 1]]),
                                 CircleSpace()], weights=[1.0, 0.1]),
}


@st.composite
def simplify_inputs(draw, kind):
    """A level on R^2 or T^2 (point robot) or SE(2) (L-shaped polygon)
    with up to four boxes and a random check resolution, and a polyline of
    3-11 states.  Up to three copies of vertices are inserted anywhere,
    unchanged (a zero-length segment when next to the original) or moved
    below the 1e-9 subdivision threshold.  On T^2 coordinates near the
    0 / 2*pi seam are common, so motions cross it."""
    space = SIMPLIFY_SPACES[kind]()
    scale = 2 * math.pi if kind == "t2" else 1.0
    coord = st.floats(0.0, scale)
    boxes = []
    for _ in range(draw(st.integers(0, 4))):
        x, y = draw(coord), draw(coord)
        w, h = (draw(st.floats(0.02, 0.4)) * scale for _ in range(2))
        boxes.append(Box([x, y], [x + w, y + h]))
    robot = (PolygonRobot(vertices=[[-0.02, -0.02], [0.1, -0.02],
                                    [0.1, 0.02], [0.02, 0.02],
                                    [0.02, 0.08], [-0.02, 0.08]])
             if kind == "se2" else PointRobot())
    v = LevelValidity(space=space, robot=robot, obstacles=boxes,
                      check_resolution=draw(st.floats(0.01, 0.3)))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    if kind == "t2":
        unit = unit | st.floats(0.0, 0.03) | \
            st.floats(0.97, 1.0, exclude_max=True)
    state = st.lists(unit, min_size=space.dim, max_size=space.dim).map(
        lambda u: space.lo + np.array(u) * (space.hi - space.lo))
    path = draw(st.lists(state, min_size=3, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        x = path[draw(st.integers(0, len(path) - 1))].copy()
        x[0] += draw(st.sampled_from([0.0, 1e-12, 5e-10]))
        path.insert(draw(st.integers(0, len(path))), x)
    return v, np.array(path) if draw(st.booleans()) else path


class TestSimplifyPath:
    @pytest.mark.parametrize("kind", sorted(SIMPLIFY_SPACES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_equals_one_at_a_time(self, kind, data):
        v, path = data.draw(simplify_inputs(kind))
        got = simplify_path(path, v.space, v)
        want = simplify_path_one_at_a_time(path, v.space, v)
        assert [p.tobytes() for p in got] == [p.tobytes() for p in want]

    @pytest.mark.parametrize("kind", sorted(SIMPLIFY_SPACES))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_each_motion_checked_once_one_call_per_slice(self, kind, data):
        # a step's calls share its start state; every call but its last
        # finds no pass, and the k-th holds at most 2 ** k motions
        v, path = data.draw(simplify_inputs(kind))
        steps = []
        simplify_path_one_at_a_time(path, v.space, v, steps)
        calls, masks = [], []
        motions_valid = LevelValidity.motions_valid
        valid_mask = LevelValidity.valid_mask

        def recording(self, a, bs):
            ok = motions_valid(self, a, bs)
            calls.append((np.asarray(a, dtype=float).tobytes(),
                          [b.tobytes() for b in bs], ok.any()))
            return ok

        def counting(self, coords):
            masks.append(len(coords))
            return valid_mask(self, coords)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(LevelValidity, "motions_valid", recording)
            mp.setattr(LevelValidity, "valid_mask", counting)
            simplify_path(path, v.space, v)
        assert len(masks) == len(calls)
        motions = [(a, b) for a, bs, _ in calls for b in bs]
        assert len(set(motions)) == len(motions)
        groups = []
        for k, (a, bs, _) in enumerate(calls):
            if k and a == calls[k - 1][0] and not calls[k - 1][2]:
                groups[-1].append(len(bs))
            else:
                groups.append([len(bs)])
        assert len(groups) <= len(steps)
        assert all(n <= 2 ** (k + 1) for g in groups
                   for k, n in enumerate(g))

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

    @pytest.mark.parametrize("start, goal, reason, calls", [
        ([2.2, 1.0], [2.3, 1.0], "start invalid on level 1", 1),
        ([1.0, 4.2], [2.3, 1.0], "goal invalid on level 1", 1),
        ([1.0, 4.2], [3.0, 1.0], "start invalid on level 2", 2),
        ([1.0, 1.0], [3.0, 4.2], "goal invalid on level 2", 2),
    ])
    def test_endpoint_reasons_one_check_per_level(self, monkeypatch, start,
                                                  goal, reason, calls):
        # the base circle is blocked on [2, 2.5], the torus on y in
        # [4, 4.5]: level 1 is reported first, and start before goal
        seq = torus_over_circle_seq(
            bundle_obstacles=[Box([0.0, 4.0], [2 * math.pi, 4.5])],
            base_obstacles=[Box([2.0], [2.5])])
        seen = []
        valid_mask = LevelValidity.valid_mask

        def counting(self, coords):
            seen.append(len(coords))
            return valid_mask(self, coords)
        monkeypatch.setattr(LevelValidity, "valid_mask", counting)
        res = smlr_solve(seq, np.array(start), np.array(goal),
                         PlannerConfig(seed=0))
        assert res.status is Status.INFEASIBLE
        assert res.reason == reason
        assert seen == [2] * calls

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


class TestHalfResolutionChecker:
    def test_derived_once_per_validity(self):
        v = r2_level([Box([0.4, 0.3], [0.6, 0.7])]).validity
        half = v.half_resolution
        assert half is v.half_resolution
        assert half.check_resolution == v.check_resolution / 2.0
        assert (half.robot, half.obstacles) == (v.robot, v.obstacles)
        assert half._world is not v._world
        with pytest.raises(FrozenInstanceError):
            half.check_resolution = 0.5

    def test_repeated_solves_compile_no_world(self, monkeypatch):
        """The second solve on the same levels compiles no CollisionWorld
        and returns the same path bytes and cost."""
        sc = load_scenario(shipped_scenario_dir()
                           / "se2_lshape_feasible.yaml")
        cfg = replace(sc.config, seed=3)
        compiled = []
        original = CollisionWorld.__init__

        def counted(self, obstacles):
            compiled.append(len(obstacles))
            original(self, obstacles)
        monkeypatch.setattr(CollisionWorld, "__init__", counted)
        first = SmlrPlanner(sc.seq, cfg).solve(sc.start, sc.goal)
        assert first.status is Status.FEASIBLE
        assert len(compiled) == sc.seq.depth
        compiled.clear()
        second = SmlrPlanner(sc.seq, cfg).solve(sc.start, sc.goal)
        assert compiled == []
        assert second.cost == first.cost
        assert np.asarray(second.path).tobytes() == \
            np.asarray(first.path).tobytes()


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

    def test_reason_names_the_section_lift(self):
        start, goal = np.array([0.5, 1.0]), np.array([3.5, 2.0])
        cfg = PlannerConfig(seed=4, time_limit=20)
        res = smlr_solve(torus_over_circle_seq(), start, goal, cfg)
        assert res.reason == "section lift on level 2: straight"
        res = flat_solve(torus_over_circle_seq(), start, goal, cfg)
        assert res.status is Status.FEASIBLE and res.reason == ""

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
