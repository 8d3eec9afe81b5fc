"""Benchmark harness: run (scenario, planner, seed) combinations, aggregate
results and serialize them as CSV.

Each run is independent and owns all its state, so batches can execute in
parallel worker processes.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from .planner import LevelStats, PlannerResult, SmlrPlanner, Status
from .scenario import Scenario

CSV_HEADER = ["scenario", "planner", "seed", "status", "seconds", "cost",
              "level", "vertices", "edges", "failures", "coverage"]

PLANNERS = ("smlr", "flat")


@dataclass
class RunRecord:
    """One planner run; per-level graph statistics flattened at CSV time."""

    scenario: str
    planner: str
    result: PlannerResult

    def key(self):
        return (self.scenario, self.planner, self.result.seed)


@dataclass
class SummaryRow:
    scenario: str
    planner: str
    runs: int
    mean_seconds: float
    feasible: int
    infeasible: int
    timeout: int
    errors: int

    @property
    def status_counts(self) -> str:
        """Status tally in feasible|infeasible|timeout form."""
        return f"{self.feasible}|{self.infeasible}|{self.timeout}"


@dataclass
class ResultTable:
    rows: list[RunRecord] = field(default_factory=list)

    def __post_init__(self):
        self._keys = {r.key() for r in self.rows}

    def add(self, row: RunRecord):
        if row.key() in self._keys:
            raise ValueError(f"duplicate run row {row.key()}")
        self._keys.add(row.key())
        self.rows.append(row)

    def summaries(self) -> list[SummaryRow]:
        groups: dict[tuple, list[PlannerResult]] = {}
        for r in self.rows:
            groups.setdefault((r.scenario, r.planner), []).append(r.result)
        out = []
        for (scn, pl), results in sorted(groups.items()):
            tally = Counter(r.status for r in results)
            out.append(SummaryRow(
                scenario=scn, planner=pl, runs=len(results),
                mean_seconds=statistics.fmean(r.seconds for r in results),
                feasible=tally[Status.FEASIBLE],
                infeasible=tally[Status.INFEASIBLE],
                timeout=tally[Status.TIMEOUT], errors=tally[Status.ERROR]))
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_HEADER)
        for r in self.rows:
            res = r.result
            for level, ls in enumerate(res.level_stats, start=1):
                writer.writerow([
                    r.scenario, r.planner, res.seed, res.status.value,
                    f"{res.seconds:.6f}",
                    "" if res.cost is None else f"{res.cost:.9f}",
                    level, ls.vertices, ls.edges, ls.failures,
                    f"{ls.coverage:.9f}"])
        return buf.getvalue()


def make_planner(scenario: Scenario, planner: str, seed: int,
                 overrides: dict | None = None) -> SmlrPlanner:
    """The named planner on the scenario: smlr on its bundle sequence, flat
    on the one-level sequence over its finest space, configured with the
    scenario's planner settings, the seed and any overrides."""
    if planner not in PLANNERS:
        raise ValueError(f"unknown planner '{planner}'")
    cfg = replace(scenario.config, seed=seed, **(overrides or {}))
    seq = scenario.seq if planner == "smlr" else scenario.seq.flat()
    return SmlrPlanner(seq, cfg)


def solve_scenario(solver: SmlrPlanner, scenario: Scenario) -> PlannerResult:
    """Solve the scenario's query.  An exception becomes a Status.ERROR
    result with the elapsed time and the exception as its reason."""
    t0 = time.perf_counter()
    try:
        return solver.solve(scenario.start, scenario.goal)
    except Exception as e:  # recorded, never aborts the batch
        # one empty level, so the run keeps its row in the CSV
        return PlannerResult(
            status=Status.ERROR, level_stats=[LevelStats(0, 0, 0, 0.0)],
            path=None, cost=None, seconds=time.perf_counter() - t0,
            seed=solver.cfg.seed, coverage_estimate=None,
            reason=f"{type(e).__name__}: {e}")


def run_single(scenario: Scenario, planner: str, seed: int,
               overrides: dict | None = None) -> RunRecord:
    """Execute one run; planner failures become Status.ERROR records."""
    solver = make_planner(scenario, planner, seed, overrides)
    return RunRecord(scenario.name, planner, solve_scenario(solver, scenario))


def _worker(args):
    return run_single(*args)


def run_benchmark(scenarios: list[Scenario], planners, seeds, overrides=None,
                  workers: int = 1) -> ResultTable:
    """Run every (scenario, planner, seed) combination of the loaded
    scenarios, in min(workers, jobs) processes: the pool starts all of its
    processes at its first job, and each job gets its scenario pickled."""
    jobs = [(sc, planner, seed, overrides)
            for sc in scenarios for planner in planners for seed in seeds]
    workers = min(workers, len(jobs))
    table = ResultTable()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rec in pool.map(_worker, jobs):
                table.add(rec)
    else:
        for job in jobs:
            table.add(_worker(job))
    return table


def write_results(table: ResultTable, out_dir) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = out_dir / "results.csv"
    results.write_text(table.to_csv())
    summary = out_dir / "summary.csv"
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["scenario", "planner", "runs", "mean_seconds",
                     "feasible", "infeasible", "timeout", "errors"])
    for s in table.summaries():
        writer.writerow([s.scenario, s.planner, s.runs,
                         f"{s.mean_seconds:.6f}", s.feasible, s.infeasible,
                         s.timeout, s.errors])
    summary.write_text(buf.getvalue())
    return results, summary
