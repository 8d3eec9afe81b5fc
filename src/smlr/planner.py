"""Sparse multilevel roadmap planner.

Grows one sparse roadmap per abstraction level, ordered by an importance
criterion driven by consecutive addition failures, and draws samples on each
level by restricting to the visibility region of the level below.  A
one-level sequence reduces to the flat sparse-roadmap baseline.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bundles import FiberBundleSequence
from .sparse_graph import SparseRoadmap

START_ID = 0
GOAL_ID = 1

# Fiber-detour candidates the section test tries after the zero fiber when
# the straight lift fails.
N_PATTERNS = 200

# Subdivide-and-elide rounds of simplify_path.
SIMPLIFY_ROUNDS = 3


class RevalidationError(RuntimeError):
    """A solution path failed the final check at half the planning
    resolution."""


class Status(Enum):
    """Outcome of a run.  ERROR marks a run whose planner raised:
    bench.run_single records it, the planner itself never returns it."""

    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    TIMEOUT = "timeout"
    ERROR = "error"


@dataclass
class PlannerConfig:
    max_failures: int = 1000          # M
    delta_fraction: float = 0.25
    eta: int = 1000
    stretch_t: float = 3.0
    time_limit: float = 60.0
    seed: int = 0

    def __post_init__(self):
        if self.max_failures < 1:
            raise ValueError("max_failures must be >= 1")
        if not 0 < self.delta_fraction <= 1:
            raise ValueError("delta_fraction must be in (0, 1]")
        if self.eta < 1:
            raise ValueError("eta must be >= 1")
        if self.stretch_t <= 1:
            raise ValueError("stretch_t must exceed 1")
        if not self.time_limit > 0:   # also rejects nan
            raise ValueError("time_limit must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class LevelStats:
    vertices: int
    edges: int
    failures: int
    coverage: float


@dataclass
class PlannerResult:
    status: Status
    level_stats: list[LevelStats]
    path: list[np.ndarray] | None
    cost: float | None
    seconds: float
    seed: int
    coverage_estimate: float | None   # None when unknown (errors, CSV rows)
    reason: str = ""


def smooth_parameter(t: int, delta: float, eta: int) -> float:
    """Linear bias ramp from 0 at t=0 to delta at t>=eta."""
    if t < 0 or eta < 1:
        raise ValueError("need t >= 0 and eta >= 1")
    return delta * min(1.0, t / eta)


def compute_importance(failures: int) -> float:
    """Priority of a level: 1 / (M_k + 1)."""
    return 1.0 / (failures + 1)


class LevelState:
    """Mutable per-level planner state: roadmap, sample counter, delta."""

    def __init__(self, index: int, space, validity, cfg: PlannerConfig):
        self.index = index
        self.space = space
        self.validity = validity
        self.delta = cfg.delta_fraction * space.max_extent()
        self.roadmap = SparseRoadmap(space, validity, self.delta,
                                     cfg.stretch_t)
        self.sample_count = 0   # t_k, restriction-sampling calls

    @property
    def importance(self) -> float:
        return compute_importance(self.roadmap.consecutive_failures)


def restriction_sample(level: LevelState, base: LevelState | None,
                       bundle, cfg: PlannerConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw a sample on level's space, biased to the base graph restriction.

    Falls back to uniform sampling when there is no base level or the base
    roadmap has no edges yet.
    """
    level.sample_count += 1
    if base is None:
        return level.space.sample_uniform(rng)
    x_base = base.roadmap.sample_edge_point(rng)
    if x_base is None:
        return level.space.sample_uniform(rng)
    delta_bias = smooth_parameter(level.sample_count - 1, base.delta, cfg.eta)
    if rng.random() < delta_bias / base.delta:
        x_base = base.space.sample_uniform_near(x_base, delta_bias, rng)
    x_fiber = bundle.sample_fiber(rng)
    return bundle.lift(x_base, x_fiber)


def lift_section(bundle, base_path, start_fiber, goal_fiber) -> np.ndarray:
    """Lift a base path pointwise, interpolating the fiber linearly
    (shortest-arc on circles) along normalized path length -> (n, dim)."""
    base = np.asarray(base_path, dtype=float)
    if bundle.fiber_dim == 0:
        return bundle.lift_many(base)
    seg = bundle.base_space.distances(base[:-1], base[1:])
    cum = np.cumsum([0.0] + seg)
    total = cum[-1]
    s = (cum / total if total > 0
         else np.arange(len(base)) / max(1, len(base) - 1))
    return bundle.lift_many(base, bundle.fiber_space.interpolate_many(
        start_fiber, goal_fiber, np.minimum(1.0, s)))


def section_test(level: LevelState, bundle, base_path, start, goal,
                 seed: int = 0) -> tuple[str, np.ndarray] | None:
    """Try to solve a level instantly by lifting the base solution path.

    Returns (lift, path) for the first lift whose every segment passes the
    level's motion check, or None.  The straight lift is checked alone, then
    the fiber detours start -> lift(b0, f) -> ... -> lift(bn, f) -> goal,
    "fiber 0" at the zero fiber clipped to the fiber bounds and "fiber i" at
    the i-th of N_PATTERNS fibers drawn from an rng seeded with (seed,
    level.index), apart from the planner's stream.  The detours are one
    array, checked in slices of 2, 4, 8, ... rows, one valid_mask call per
    slice; the first passing row wins, as in a one-at-a-time loop, and
    loses its consecutive duplicate states.
    """
    if bundle is None or base_path is None:
        return None
    lifted = lift_section(bundle, base_path, bundle.fiber_of(start),
                          bundle.fiber_of(goal))
    if level.validity.path_valid(lifted):
        return "straight", lifted
    fs = bundle.fiber_space
    if fs is None:
        return None
    rng = np.random.default_rng([seed, level.index])
    fibers = np.concatenate([np.clip(np.zeros((1, fs.dim)), fs.lo, fs.hi),
                             fs.sample_uniform(rng, N_PATTERNS)])
    m, n = len(fibers), len(base_path)
    detours = np.empty((m, n + 2, len(start)))
    detours[:, 0] = start
    detours[:, 1:-1] = bundle.lift_many(
        np.tile(base_path, (m, 1)),
        np.repeat(fibers, n, axis=0)).reshape(m, n, -1)
    detours[:, -1] = goal
    lo, size = 0, 2
    while lo < m:
        ok = np.flatnonzero(level.validity.paths_valid(detours[lo:lo + size]))
        if len(ok):
            path = detours[lo + ok[0]]
            moved = np.any(path[1:] != path[:-1], axis=1)
            return f"fiber {lo + ok[0]}", path[np.r_[True, moved]]
        lo, size = lo + size, size * 2
    return None


def ptc(level: LevelState, cfg: PlannerConfig,
        elapsed: float) -> Status | None:
    """Planner termination condition, checked in precedence order
    Feasible > Infeasible > Timeout; None means continue."""
    rm = level.roadmap
    if rm.num_guards >= 2 and rm.same_component(START_ID, GOAL_ID):
        return Status.FEASIBLE
    if rm.consecutive_failures > cfg.max_failures:
        return Status.INFEASIBLE
    if elapsed > cfg.time_limit:
        return Status.TIMEOUT
    return None


def _stats(levels: list[LevelState]) -> list[LevelStats]:
    return [LevelStats(vertices=ls.roadmap.num_guards,
                       edges=ls.roadmap.num_edges,
                       failures=ls.roadmap.consecutive_failures,
                       coverage=ls.roadmap.coverage_estimate())
            for ls in levels]


def simplify_path(path, space, checker):
    """Deterministic one-shot shortcutting of an extracted solution.

    Alternates segment subdivision with greedy vertex elision (skip to the
    farthest vertex directly reachable by a valid motion).  Elision never
    increases cost because straight segments realize the metric.  Motions are
    checked with checker; the planner passes its half-resolution validity,
    the one the final path is re-validated with.

    The path is one (n, dim) array.  Subdivision inserts the midpoint of
    every segment longer than 1e-9, from one distances and one
    interpolate_many call.  Elision from vertex i checks the candidates
    j = n-1 ... i+2 in slices of 2, 4, 8, ... from the far end, one
    motions_valid call per slice, and keeps the farthest that passes, or
    i + 1 unchecked when none does.  Verdicts are kept for the call, keyed
    by the endpoints' bytes (equal endpoints give equal states), so no
    motion is checked twice.
    """
    if len(path) <= 2:
        return list(path)
    pts = np.array(path, dtype=float)
    seen: dict[tuple[bytes, bytes], bool] = {}
    for _ in range(SIMPLIFY_ROUNDS):
        a, b = pts[:-1], pts[1:]
        split = np.asarray(space.distances(a, b)) > 1e-9
        mids = space.interpolate_many(a, b, np.full(len(a), 0.5))
        # each vertex, then its segment's midpoint where the segment splits
        take = np.column_stack([np.ones_like(split), split])
        sub = np.concatenate([np.stack([a, mids], axis=1)[take], pts[-1:]])
        out = sub[_elide(sub, checker, seen)]
        if len(out) == len(pts) and np.array_equal(out, pts):
            break
        pts = out
    return list(pts)


def _elide(sub, checker, seen) -> list[int]:
    """Indices of the vertices greedy elision keeps on the polyline sub,
    reading and filling the verdict memo seen."""
    keys = [row.tobytes() for row in sub]
    keep, i, last = [0], 0, len(sub) - 1
    while i < last:
        cands = range(last, i + 1, -1)
        # the motions farther than the farthest known pass, each once
        ask = {}
        for c in cands:
            ok = seen.get((keys[i], keys[c]))
            if ok:
                break
            if ok is None:
                ask.setdefault((keys[i], keys[c]), c)
        # slices of 2, 4, 8, ... as in section_test: a pass settles the step
        # and spares the nearer candidates, whose batch would raise the
        # peak memory for no time saved
        motions, rows = list(ask), list(ask.values())
        lo, size = 0, 2
        while lo < len(rows):
            verdicts = checker.motions_valid(sub[i],
                                             sub[rows[lo:lo + size]]).tolist()
            seen.update(zip(motions[lo:lo + size], verdicts))
            if True in verdicts:
                break
            lo, size = lo + size, size * 2
        j = next((c for c in cands if seen[keys[i], keys[c]]), i + 1)
        keep.append(j)
        i = j
    return keep


def _insert_path(level: LevelState, path):
    """Record an externally found solution path as roadmap guards/edges so
    termination is detectable through start/goal connectivity."""
    rm = level.roadmap
    prev = START_ID
    for x in path[1:-1]:
        gid = rm.add_guard(x)
        rm.add_edge(prev, gid)
        prev = gid
    rm.add_edge(prev, GOAL_ID)


class SmlrPlanner:
    """Planner instance bound to one bundle sequence and configuration."""

    def __init__(self, seq: FiberBundleSequence, cfg: PlannerConfig):
        self.seq = seq
        self.cfg = cfg
        self.level_states: list[LevelState] = []  # set by solve, for export

    def solve(self, start, goal) -> PlannerResult:
        cfg = self.cfg
        seq = self.seq
        rng = np.random.default_rng(cfg.seed)
        t0 = time.perf_counter()
        K = seq.depth

        starts = [seq.project_to_level(start, k) for k in range(K)]
        goals = [seq.project_to_level(goal, k) for k in range(K)]
        for k in range(K):
            space = seq.levels[k].space
            if space.dim != len(starts[k]):
                raise ValueError("start/goal dimension mismatch")
            starts[k] = space.normalize(starts[k])
            goals[k] = space.normalize(goals[k])
            if not space.contains(starts[k]) or not space.contains(goals[k]):
                raise ValueError(f"start/goal outside bounds on level {k + 1}")

        levels = [LevelState(k, lvl.space, lvl.validity, cfg)
                  for k, lvl in enumerate(seq.levels)]
        self.level_states = levels

        def finish(status, reason="", path=None, cost=None, coverage=None):
            return PlannerResult(
                status=status, level_stats=_stats(levels), path=path,
                cost=cost, seconds=time.perf_counter() - t0, seed=cfg.seed,
                coverage_estimate=coverage, reason=reason)

        # start/goal must be feasible on every level, coarsest first
        for k in range(K):
            ok = levels[k].validity.valid_mask(np.stack([starts[k],
                                                         goals[k]]))
            for name, valid in zip(("start", "goal"), ok.tolist()):
                if not valid:
                    return finish(Status.INFEASIBLE,
                                  reason=f"{name} invalid on level {k + 1}")

        for lvl, s, g in zip(levels, starts, goals):
            lvl.roadmap.add_guard(s)
            lvl.roadmap.add_guard(g)

        base_solutions: list = [None] * K
        lifts = []   # the section test's hits, for the result's reason

        for cur in range(K):
            bundle = seq.bundles[cur - 1] if cur >= 1 else None
            sec = section_test(levels[cur], bundle,
                               base_solutions[cur - 1] if cur >= 1 else None,
                               starts[cur], goals[cur], cfg.seed)
            if sec is not None:
                lift, path = sec
                _insert_path(levels[cur], path)
                lifts.append(f"section lift on level {cur + 1}: {lift}")
            active = levels[:cur + 1]
            while True:
                verdict = ptc(levels[cur], cfg, time.perf_counter() - t0)
                if verdict is Status.FEASIBLE:
                    rm = levels[cur].roadmap
                    ids, _ = rm.shortest_graph_path(START_ID, GOAL_ID)
                    checker = levels[cur].validity.half_resolution
                    base_solutions[cur] = simplify_path(
                        rm.guard_coords()[ids], levels[cur].space, checker)
                    break
                if verdict is Status.INFEASIBLE:
                    return finish(
                        Status.INFEASIBLE,
                        reason=f"failure bound exceeded on level {cur + 1}",
                        coverage=levels[cur].roadmap.coverage_estimate())
                if verdict is Status.TIMEOUT:
                    return finish(Status.TIMEOUT, reason="time limit")
                # pop the max-importance level (ties: coarser level first)
                top = max(active,
                          key=lambda ls: (ls.importance, -ls.index))
                top_bundle = seq.bundles[top.index - 1] if top.index else None
                top_base = levels[top.index - 1] if top.index else None
                x = restriction_sample(top, top_base, top_bundle, cfg, rng)
                visible = top.roadmap.visible_guard_distances(x)
                if visible is None:
                    top.roadmap.record_failure()
                else:
                    top.roadmap.add_conditional(x, visible)

        # the finest level solved last, so checker is its half-resolution one
        path = base_solutions[K - 1]
        if not checker.path_valid(path):
            raise RevalidationError(
                "solution failed re-validation at half resolution")
        cost = sum(seq.finest.space.distance(a, b)
                   for a, b in zip(path[:-1], path[1:]))
        return finish(Status.FEASIBLE, reason="; ".join(lifts), path=path,
                      cost=cost,
                      coverage=levels[-1].roadmap.coverage_estimate())


def smlr_solve(seq: FiberBundleSequence, start, goal,
               cfg: PlannerConfig) -> PlannerResult:
    return SmlrPlanner(seq, cfg).solve(start, goal)


def flat_solve(seq: FiberBundleSequence, start, goal,
               cfg: PlannerConfig) -> PlannerResult:
    """Flat sparse-roadmap baseline: the same planner on a one-level
    sequence over the finest space."""
    return SmlrPlanner(seq.flat(), cfg).solve(start, goal)
