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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from .planner import PlannerConfig, SmlrPlanner, Status
from .scenario import Scenario, load_scenario

CSV_HEADER = ["scenario", "planner", "seed", "status", "seconds", "cost",
              "level", "vertices", "edges", "failures", "coverage"]

PLANNERS = ("smlr", "flat")


@dataclass
class LevelRow:
    level: int
    vertices: int
    edges: int
    failures: int
    coverage: float


@dataclass
class RunRecord:
    """One planner run; per-level graph statistics flattened at CSV time."""

    scenario: str
    planner: str
    seed: int
    status: str
    seconds: float
    cost: float | None
    levels: list[LevelRow] = field(default_factory=list)

    def key(self):
        return (self.scenario, self.planner, self.seed)


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

    def add(self, row: RunRecord):
        if any(r.key() == row.key() for r in self.rows):
            raise ValueError(f"duplicate run row {row.key()}")
        self.rows.append(row)

    def summaries(self) -> list[SummaryRow]:
        groups: dict[tuple, list[RunRecord]] = {}
        for r in self.rows:
            groups.setdefault((r.scenario, r.planner), []).append(r)
        out = []
        for (scn, pl), rows in sorted(groups.items()):
            out.append(SummaryRow(
                scenario=scn, planner=pl, runs=len(rows),
                mean_seconds=statistics.fmean(r.seconds for r in rows),
                feasible=sum(r.status == "feasible" for r in rows),
                infeasible=sum(r.status == "infeasible" for r in rows),
                timeout=sum(r.status == "timeout" for r in rows),
                errors=sum(r.status == "error" for r in rows)))
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(CSV_HEADER)
        for r in self.rows:
            for lv in r.levels:
                writer.writerow([
                    r.scenario, r.planner, r.seed, r.status,
                    f"{r.seconds:.6f}",
                    "" if r.cost is None else f"{r.cost:.9f}",
                    lv.level, lv.vertices, lv.edges, lv.failures,
                    f"{lv.coverage:.9f}"])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header}")
        table = cls()
        current: RunRecord | None = None
        for row in reader:
            scn, pl, seed, status, seconds, cost, level, v, e, f, cov = row
            key = (scn, pl, int(seed))
            if current is None or current.key() != key:
                if current is not None:
                    table.add(current)
                current = RunRecord(
                    scenario=scn, planner=pl, seed=int(seed), status=status,
                    seconds=float(seconds),
                    cost=None if cost == "" else float(cost))
            current.levels.append(LevelRow(
                level=int(level), vertices=int(v), edges=int(e),
                failures=int(f), coverage=float(cov)))
        if current is not None:
            table.add(current)
        return table


def run_single(scenario: Scenario, planner: str, seed: int,
               overrides: dict | None = None) -> RunRecord:
    """Execute one run; planner failures become rows with status 'error'."""
    if planner not in PLANNERS:
        raise ValueError(f"unknown planner '{planner}'")
    cfg = _apply_overrides(scenario.config, seed, overrides)
    seq = scenario.seq if planner == "smlr" else scenario.seq.flat()
    t0 = time.perf_counter()
    try:
        result = SmlrPlanner(seq, cfg).solve(scenario.start, scenario.goal)
    except Exception:  # recorded, never aborts the batch
        return RunRecord(scenario=scenario.name, planner=planner, seed=seed,
                         status="error", seconds=time.perf_counter() - t0,
                         cost=None,
                         levels=[LevelRow(1, 0, 0, 0, 0.0)])
    levels = [LevelRow(level=i + 1, vertices=ls.vertices, edges=ls.edges,
                       failures=ls.failures, coverage=ls.coverage)
              for i, ls in enumerate(result.level_stats)]
    return RunRecord(scenario=scenario.name, planner=planner, seed=seed,
                     status=result.status.value, seconds=result.seconds,
                     cost=result.cost, levels=levels)


def _apply_overrides(cfg: PlannerConfig, seed: int,
                     overrides: dict | None) -> PlannerConfig:
    kwargs = {"seed": seed}
    if overrides:
        kwargs.update(overrides)
    return replace(cfg, **kwargs)


def _worker(args):
    path, planner, seed, overrides = args
    scenario = load_scenario(path)
    return run_single(scenario, planner, seed, overrides)


def run_benchmark(scenario_paths, planners, seeds, overrides=None,
                  workers: int = 1) -> ResultTable:
    """Run every (scenario, planner, seed) combination."""
    jobs = [(str(p), planner, seed, overrides)
            for p in scenario_paths for planner in planners
            for seed in seeds]
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
