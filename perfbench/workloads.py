"""Workload definitions, query execution and the benchmark's own output check.

A workload is a fixed list of scenarios and one planner (or the grid oracle).
Round i of a planner workload runs scenario s w_s times (its weight), with
planner seeds seed_base + i * w_s + j for j < w_s, so every scenario covers a
contiguous seed range that shifts with the seed base.  Round i of the oracle
audits every scenario once with seed seed_base + i, from which it draws extra
free-cell pairs.  A run is a fixed number of whole rounds, so the same seed
and length give the same queries, answers and failure count on every run.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

# start/goal must be reproduced up to this metric distance
ENDPOINT_TOL = 1e-9
# seeded free-cell pairs an oracle audit queries besides start and goal
ORACLE_PAIRS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    planner: str                 # "smlr", "flat" or "oracle"
    scenarios: tuple[str, ...]
    trace_rounds: int            # fixed prefix measured by a traced run
    round_s: float               # wall seconds of one round, reference VM
    time_limit: float = 60.0     # planner workloads only
    weights: tuple[int, ...] = ()         # planner only; 1 each if empty
    resolutions: tuple[float, ...] = ()   # oracle only, one per scenario

    def rounds(self, seconds: float) -> int:
        """Whole rounds that take about `seconds` on the reference VM."""
        return max(1, round(seconds / self.round_s))

    def queries(self, seed_base: int, rounds: int) -> list["Query"]:
        return [q for i in range(rounds) for q in self.round(seed_base, i)]

    def round(self, seed_base: int, i: int) -> list["Query"]:
        if self.planner == "oracle":
            return [Query(s, "oracle", seed_base + i, h)
                    for s, h in zip(self.scenarios, self.resolutions)]
        weights = self.weights or (1,) * len(self.scenarios)
        # each scenario's queries spread evenly over the round
        slots = sorted(((j + 0.5) / w, k, j)
                       for k, w in enumerate(weights) for j in range(w))
        return [Query(self.scenarios[k], self.planner,
                      seed_base + i * weights[k] + j)
                for _, k, j in slots]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="smlr_feasible_mix",
        why="smlr on four feasible scenarios covering point, disc, polygon "
            "and chain robots and circle metrics: per-query fixed costs, "
            "planner glue and a tail percentile",
        planner="smlr",
        scenarios=("chain4_feasible", "torus_band_feasible",
                   "se2_bugtrap_feasible", "se2_lshape_feasible"),
        # se2_bugtrap's long tail would otherwise take two thirds of the
        # run and set the rate; at these weights it takes about a tenth
        weights=(20, 20, 1, 40),
        round_s=5.0,
        trace_rounds=4),
    Workload(
        name="oracle_grid",
        why="GridOracle audits of declared labels: validity on batches of "
            "1e4-1e5 states for SE(2) and graph building for a fine 2-D "
            "torus, with no planner",
        planner="oracle",
        scenarios=("torus_band_feasible", "torus_band_infeasible",
                   "se2_lshape_feasible", "se2_lshape_infeasible",
                   "se2_bugtrap_feasible", "se2_bugtrap_infeasible"),
        resolutions=(0.01, 0.01, 0.035, 0.035, 0.035, 0.035),
        round_s=25.0,
        trace_rounds=1),
    Workload(
        name="flat_se2_infeasible",
        why="flat planner proving SE(2) infeasibility after M+1 consecutive "
            "failures: validity on batches of 1-25 states inside the "
            "visibility query",
        planner="flat",
        scenarios=("se2_lshape_infeasible", "se2_bugtrap_infeasible"),
        time_limit=600.0,
        round_s=60.0,
        trace_rounds=1),
)}


@dataclass
class Loaded:
    """A scenario plus the validity object the output check uses.

    The checker is built right after loading, at half the finest level's
    check_resolution, so nothing a planner run does to the scenario's shared
    validity objects can weaken the check.
    """

    scenario: object
    checker: object


def load(scenario_mod, scenario_dir: Path, names) -> dict[str, Loaded]:
    out = {}
    for name in names:
        sc = scenario_mod.load_scenario(scenario_dir / f"{name}.yaml")
        v = sc.seq.finest.validity
        half = replace(v, check_resolution=v.check_resolution / 2.0)
        out[name] = Loaded(sc, half)
    return out


@dataclass(frozen=True)
class Query:
    scenario: str
    planner: str
    seed: int
    resolution: float | None = None

    def label(self) -> str:
        s = f"{self.scenario} {self.planner} seed={self.seed}"
        return s if self.resolution is None else f"{s} h={self.resolution!r}"


@dataclass
class Outcome:
    query: Query
    seconds: float
    verdict: str | None          # None when the query raised
    cost: float | None
    digest: str
    failure: str | None          # why the query failed, None if it passed
    counts: dict = field(default_factory=dict)   # traced runs only

    @property
    def wrong(self) -> bool:
        """An answer was returned and the check rejects it.  Exceptions and
        timeouts fail without answering, so they are failed, not wrong."""
        return self.failure is not None and \
            self.verdict not in (None, "timeout")


def judge(expected: str, verdict: str | None, error: str | None,
          check_error: str | None) -> str | None:
    """Failure reason of one query, or None when it passed."""
    if error is not None:
        return f"exception {error}"
    if verdict == "timeout":
        return "timeout"
    if verdict != expected:
        return f"verdict {verdict}, declared {expected}"
    if check_error is not None:
        return f"output check: {check_error}"
    return None


def check_path(loaded: Loaded, path, cost) -> str | None:
    """Independent re-validation of a returned path; None if it is sound."""
    sc, checker = loaded.scenario, loaded.checker
    space = checker.space
    if path is None or len(path) < 2:
        return "no path"
    if space.distance(path[0], sc.start) > ENDPOINT_TOL:
        return "does not start at the start state"
    if space.distance(path[-1], sc.goal) > ENDPOINT_TOL:
        return "does not end at the goal state"
    for i, (a, b) in enumerate(zip(path[:-1], path[1:])):
        if not checker.motion_valid(a, b):
            return f"segment {i} is not collision-free"
    length = sum(space.distance(a, b) for a, b in zip(path[:-1], path[1:]))
    if cost is None or abs(cost - length) > 1e-9 * max(1.0, length):
        return f"cost {cost} differs from path length {length}"
    return None


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def _hex(x: float | None) -> str:
    return "none" if x is None else float(x).hex()


def run_query(q: Query, loaded: Loaded, wl: Workload, smlr,
              untraced=nullcontext) -> Outcome:
    """Time one query, then check its answer outside the timed region;
    untraced() wraps the check so a traced run does not count its work."""
    if q.planner == "oracle":
        return _run_oracle(q, loaded, smlr, untraced)
    sc = loaded.scenario
    cfg = replace(sc.config, seed=q.seed, time_limit=wl.time_limit)
    seq = sc.seq if q.planner == "smlr" else sc.seq.flat()
    t0 = perf_counter()
    try:
        res = smlr.planner.SmlrPlanner(seq, cfg).solve(sc.start, sc.goal)
    except Exception as e:   # a failed query, never an aborted run
        return Outcome(q, perf_counter() - t0, None, None, "-",
                       judge(sc.ground_truth, None,
                             f"{type(e).__name__}: {e}", None))
    seconds = perf_counter() - t0
    verdict = res.status.value
    with untraced():
        path_error = (check_path(loaded, res.path, res.cost)
                      if verdict == "feasible" else None)
    digest = _digest(verdict,
                     [(s.vertices, s.edges, s.failures)
                      for s in res.level_stats],
                     _hex(res.cost),
                     b"".join(np.asarray(x, dtype=float).tobytes()
                              for x in res.path or ()))
    return Outcome(q, seconds, verdict, res.cost, digest,
                   judge(sc.ground_truth, verdict, None, path_error))


def _run_oracle(q: Query, loaded: Loaded, smlr, untraced) -> Outcome:
    sc = loaded.scenario
    level = sc.seq.finest
    t0 = perf_counter()
    try:
        oracle = smlr.oracle.GridOracle(level.space, level.validity,
                                        q.resolution)
        feasible = oracle.feasible(sc.start, sc.goal)
        cost = oracle.shortest_path_cost(sc.start, sc.goal)
        rng = np.random.default_rng([q.seed, *q.scenario.encode()])
        cells = rng.choice(np.flatnonzero(oracle.free), (ORACLE_PAIRS, 2))
        pairs = [tuple(oracle.centers[c]) for c in cells]
        answers = [(oracle.feasible(a, b), oracle.shortest_path_cost(a, b))
                   for a, b in pairs]
    except Exception as e:
        return Outcome(q, perf_counter() - t0, None, None, "-",
                       judge(sc.ground_truth, None,
                             f"{type(e).__name__}: {e}", None))
    seconds = perf_counter() - t0
    verdict = "feasible" if feasible else "infeasible"
    with untraced():
        problem = _oracle_problem(oracle, level.space, sc.start, sc.goal,
                                  feasible, cost)
        for (a, b), (f, c) in zip(pairs, answers):
            problem = problem or _oracle_problem(oracle, level.space, a, b,
                                                 f, c)
    digest = _digest(verdict, _hex(cost), oracle.n_cells,
                     int(oracle.free.sum()),
                     [(f, _hex(c)) for f, c in answers])
    return Outcome(q, seconds, verdict, cost, digest,
                   judge(sc.ground_truth, verdict, None, problem))


def _oracle_problem(oracle, space, a, b, feasible, cost) -> str | None:
    """Consistency of one oracle answer: feasible exactly when a cost is
    defined, and no grid cost below the metric distance of the end cells."""
    if feasible != (cost is not None):
        return f"feasible={feasible} but shortest_path_cost={cost}"
    if feasible:
        floor = space.distance(oracle.centers[oracle.cell_of(a)],
                               oracle.centers[oracle.cell_of(b)])
        if cost < floor - 1e-9:
            return f"grid cost {cost} below the metric distance {floor}"
    return None
