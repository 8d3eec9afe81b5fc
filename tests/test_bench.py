import csv
import time
from dataclasses import replace

import numpy as np
import pytest

from smlr import bench
from smlr.bench import (ResultTable, RunRecord, run_benchmark, run_single,
                        write_results)
from smlr.cli import EXIT_BAD_INPUT, EXIT_OK, main
from smlr.planner import LevelStats, PlannerResult, SmlrPlanner, Status
from smlr.scenario import load_scenario, shipped_scenario_dir

SQUARE_FREE = """\
format_version: 1
name: tiny_free
ground_truth: feasible
levels:
  - space:
      - {type: real, bounds: [[0.0, 1.0], [0.0, 1.0]]}
    robot: {type: point}
start: [0.1, 0.1]
goal: [0.9, 0.9]
"""

SQUARE_WALLED = """\
format_version: 1
name: tiny_walled
ground_truth: infeasible
obstacles:
  - {type: box, lo: [0.45, 0.0], hi: [0.55, 1.0]}
planner: {M: 200, time_limit: 20}
levels:
  - space:
      - {type: real, bounds: [[0.0, 1.0], [0.0, 1.0]]}
    robot: {type: point}
start: [0.2, 0.5]
goal: [0.8, 0.5]
"""

# one level more than GridOracle's MAX_ORACLE_DIM
FIVE_D = """\
format_version: 1
name: five_d
ground_truth: feasible
levels:
  - space:
      - {type: real, bounds: [[0, 1], [0, 1], [0, 1], [0, 1], [0, 1]]}
    robot: {type: point}
start: [0.1, 0.1, 0.1, 0.1, 0.1]
goal: [0.9, 0.9, 0.9, 0.9, 0.9]
"""


@pytest.fixture
def free_path(tmp_path):
    f = tmp_path / "tiny_free.yaml"
    f.write_text(SQUARE_FREE)
    return f


@pytest.fixture
def walled_path(tmp_path):
    f = tmp_path / "tiny_walled.yaml"
    f.write_text(SQUARE_WALLED)
    return f


def loaded(*paths):
    return [load_scenario(p) for p in paths]


def record(planner, seed, status, seconds, cost, levels):
    return RunRecord("a", planner, PlannerResult(
        status=status, level_stats=[LevelStats(*lv) for lv in levels],
        path=None, cost=cost, seconds=seconds, seed=seed,
        coverage_estimate=None))


def sample_table():
    t = ResultTable()
    t.add(record("smlr", 1, Status.FEASIBLE, 0.25, 1.5,
                 [(3, 2, 0, 0.0), (7, 9, 0, 0.5)]))
    t.add(record("flat", 1, Status.TIMEOUT, 60.0, None, [(40, 55, 12, 0.0)]))
    t.add(record("smlr", 2, Status.INFEASIBLE, 2.0, None,
                 [(5, 4, 201, 0.995)]))
    return t


class TestResultTable:
    def test_duplicate_key_rejected(self):
        t = sample_table()
        with pytest.raises(ValueError):
            t.add(record("smlr", 1, Status.FEASIBLE, 0.1, 1.0,
                         [(1, 0, 0, 0.0)]))

    def test_duplicate_of_an_initial_row_rejected(self):
        t = ResultTable(rows=sample_table().rows)
        with pytest.raises(ValueError):
            t.add(record("flat", 1, Status.FEASIBLE, 0.1, 1.0,
                         [(1, 0, 0, 0.0)]))
        assert len(t.rows) == 3

    def test_csv_round_trip(self):
        assert sample_table().to_csv() == "".join(f"{row}\r\n" for row in [
            "scenario,planner,seed,status,seconds,cost,level,vertices,edges,"
            "failures,coverage",
            "a,smlr,1,feasible,0.250000,1.500000000,1,3,2,0,0.000000000",
            "a,smlr,1,feasible,0.250000,1.500000000,2,7,9,0,0.500000000",
            "a,flat,1,timeout,60.000000,,1,40,55,12,0.000000000",
            "a,smlr,2,infeasible,2.000000,,1,5,4,201,0.995000000"])

    def test_summary_recomputes_from_rows(self):
        t = sample_table()
        summaries = {(s.scenario, s.planner): s for s in t.summaries()}
        smlr = summaries[("a", "smlr")]
        assert smlr.runs == 2
        assert smlr.feasible == 1 and smlr.infeasible == 1
        assert smlr.mean_seconds == pytest.approx((0.25 + 2.0) / 2)
        assert smlr.status_counts == "1|1|0"
        flat = summaries[("a", "flat")]
        assert flat.timeout == 1 and flat.status_counts == "0|0|1"


class TestRunSingle:
    def test_feasible_record(self, free_path):
        sc = load_scenario(free_path)
        res = run_single(sc, "smlr", seed=1,
                         overrides={"time_limit": 20}).result
        assert res.status is Status.FEASIBLE
        assert res.cost is not None and res.cost > 0
        assert len(res.level_stats) == 1
        assert res.level_stats[0].vertices >= 2

    def test_error_row_records_elapsed_time(self, free_path, monkeypatch):
        def failing_solve(self, start, goal):
            time.sleep(0.05)
            raise RuntimeError("planner failed")
        monkeypatch.setattr(SmlrPlanner, "solve", failing_solve)
        res = run_single(load_scenario(free_path), "smlr", seed=1).result
        assert res.status is Status.ERROR
        assert res.seconds >= 0.05
        assert res.reason == "RuntimeError: planner failed"
        assert res.coverage_estimate is None

    def test_unknown_planner(self, free_path):
        sc = load_scenario(free_path)
        with pytest.raises(ValueError):
            run_single(sc, "rrt", seed=1)

    def test_determinism_bit_equal(self, walled_path):
        recs = []
        for _ in range(2):
            sc = load_scenario(walled_path)
            recs.append(run_single(sc, "flat", seed=3).result)
        a, b = recs
        assert a.status == b.status
        assert a.cost == b.cost
        assert [(l.vertices, l.edges, l.failures) for l in a.level_stats] \
            == [(l.vertices, l.edges, l.failures) for l in b.level_stats]


class TestRunBenchmark:
    def test_row_counts(self, free_path, walled_path, tmp_path):
        table = run_benchmark(loaded(free_path, walled_path),
                              ["smlr", "flat"], seeds=[1, 2, 3],
                              overrides={"max_failures": 150,
                                         "time_limit": 20})
        assert len(table.rows) == 12
        assert len(table.summaries()) == 4
        results, summary = write_results(table, tmp_path / "out")
        assert results.exists() and summary.exists()
        with results.open(newline="") as f:
            rows = list(csv.reader(f))[1:]
        assert len({tuple(r[:3]) for r in rows}) == 12

    def test_infeasible_scenario_never_feasible(self, walled_path):
        table = run_benchmark(loaded(walled_path), ["smlr", "flat"],
                              seeds=[1, 2, 3])
        assert all(r.result.status is not Status.FEASIBLE
                   for r in table.rows)

    def test_parallel_matches_serial(self, free_path, walled_path):
        serial = run_benchmark(loaded(free_path, walled_path), ["smlr"],
                               seeds=[1, 2],
                               overrides={"max_failures": 150})
        parallel = run_benchmark(loaded(free_path, walled_path), ["smlr"],
                                 seeds=[1, 2],
                                 overrides={"max_failures": 150}, workers=2)
        skey = sorted(r.key() for r in serial.rows)
        pkey = sorted(r.key() for r in parallel.rows)
        assert skey == pkey
        for r in serial.rows:
            other = next(x for x in parallel.rows if x.key() == r.key())
            assert r.result.status == other.result.status
            assert r.result.cost == other.result.cost

    @pytest.mark.parametrize("workers", [1, 2])
    def test_jobs_run_the_loaded_scenarios(self, walled_path, workers):
        """Each job gets the scenario object it was given, also across
        processes: the file is gone and the object renamed before the
        run, so a job that loaded the file again would fail."""
        sc = replace(load_scenario(walled_path), name="renamed")
        walled_path.unlink()
        table = run_benchmark([sc], ["flat"], seeds=[1, 2],
                              overrides={"max_failures": 20},
                              workers=workers)
        assert [r.key() for r in table.rows] == \
            [("renamed", "flat", 1), ("renamed", "flat", 2)]
        assert all(r.result.status is Status.INFEASIBLE for r in table.rows)

    @pytest.mark.parametrize("workers, jobs, want", [
        (1000, 2, [2]), (3, 4, [3]), (1000, 1, []), (2, 0, [])])
    def test_pool_no_larger_than_the_batch(self, free_path, monkeypatch,
                                           workers, jobs, want):
        """The pool starts all of its processes at its first job, so it
        gets at most one per job; one job or none runs in this process.
        The stand-in records the pool size and runs the jobs serially."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)
        monkeypatch.setattr(bench, "ProcessPoolExecutor", SerialPool)
        table = run_benchmark(loaded(free_path), ["flat"],
                              seeds=range(1, jobs + 1),
                              overrides={"max_failures": 20},
                              workers=workers)
        assert sizes == want
        assert [r.result.seed for r in table.rows] == \
            list(range(1, jobs + 1))


class TestCli:
    def test_plan_ok(self, free_path, capsys):
        code = main(["plan", "--scenario", str(free_path), "--seed", "1",
                     "--time-limit", "20"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "status=feasible" in out

    def test_plan_with_export(self, free_path, tmp_path, monkeypatch,
                              capsys):
        solves = []
        solve = SmlrPlanner.solve

        def counting_solve(self, start, goal):
            solves.append(self)
            return solve(self, start, goal)
        monkeypatch.setattr(SmlrPlanner, "solve", counting_solve)
        out_dir = tmp_path / "figs"
        code = main(["plan", "--scenario", str(free_path), "--seed", "1",
                     "--out", str(out_dir)])
        assert code == EXIT_OK
        assert len(solves) == 1  # the export is of the run just printed
        assert (out_dir / "tiny_free_level1_edges.txt").exists()
        assert (out_dir / "tiny_free_level1_vertices.txt").exists()
        assert (out_dir / "tiny_free_level1.svg").exists()

    def test_plan_error_reports_reason(self, free_path, monkeypatch, capsys):
        def failing_solve(self, start, goal):
            raise RuntimeError("planner failed")
        monkeypatch.setattr(SmlrPlanner, "solve", failing_solve)
        assert main(["plan", "--scenario", str(free_path)]) == EXIT_OK
        line = capsys.readouterr().out.splitlines()[0]
        assert "status=error" in line
        assert line.endswith(" reason=RuntimeError: planner failed")

    def test_plan_missing_scenario(self, tmp_path):
        assert main(["plan", "--scenario", str(tmp_path / "nope.yaml")]) \
            == EXIT_BAD_INPUT

    def test_bench_missing_scenarios(self, tmp_path, capsys):
        missing = tmp_path / "nope.yaml"
        assert main(["bench", "--scenarios", str(missing), "--seeds", "1",
                     "--out", str(tmp_path / "o")]) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: --scenarios: no scenario file at '{missing}'\n"
        assert not (tmp_path / "o").exists()

    def test_bench_duplicate_scenario_names(self, tmp_path, monkeypatch,
                                            capsys):
        """Two files with one scenario name fail after loading and before
        any solve, not with a duplicate-row error at the end."""
        def no_solve(self, start, goal):
            raise AssertionError("solved despite a repeated scenario name")
        monkeypatch.setattr(SmlrPlanner, "solve", no_solve)
        text = (shipped_scenario_dir() / "square_wall_feasible.yaml") \
            .read_text()
        runs = tmp_path / "runs"
        runs.mkdir()
        for name in ("a.yaml", "b.yaml"):
            (runs / name).write_text(text)
        out_dir = tmp_path / "o"
        assert main(["bench", "--scenarios", str(runs), "--seeds", "1",
                     "--planners", "flat", "--out", str(out_dir)]) \
            == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --scenarios: scenario name 'square_wall_feasible' in "
            f"both {runs / 'a.yaml'} and {runs / 'b.yaml'}\n")
        assert not out_dir.exists()

    def test_bench_writes_outputs(self, walled_path, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code = main(["bench", "--scenarios", str(walled_path),
                     "--seeds", "1..2", "--M", "150",
                     "--out", str(out_dir)])
        assert code == EXIT_OK
        text = (out_dir / "results.csv").read_text()
        assert len(text.splitlines()) == 5  # header + 2 planners x 2 seeds
        assert (out_dir / "summary.csv").exists()

    def test_bench_bad_seed_spec(self, walled_path, tmp_path):
        assert main(["bench", "--scenarios", str(walled_path),
                     "--seeds", "x..y",
                     "--out", str(tmp_path / "o")]) == EXIT_BAD_INPUT

    @pytest.mark.parametrize("flag, value, field", [
        ("--M", "0", "max_failures"),
        ("--delta-fraction", "1.5", "delta_fraction"),
        ("--eta", "0", "eta"),
        ("--time-limit", "-1", "time_limit"),
        ("--time-limit", "nan", "time_limit"),
    ])
    def test_bad_override_rejected_before_solving(
            self, free_path, tmp_path, monkeypatch, capsys, flag, value,
            field):
        def no_solve(self, start, goal):
            raise AssertionError("solved despite a bad override")
        monkeypatch.setattr(SmlrPlanner, "solve", no_solve)
        out_dir = tmp_path / "o"
        for cmd in (["plan", "--scenario", str(free_path)],
                    ["bench", "--scenarios", str(free_path), "--seeds", "1",
                     "--workers", "2"]):
            assert main(cmd + [flag, value, "--out", str(out_dir)]) \
                == EXIT_BAD_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {flag}: {field} ")
            assert not out_dir.exists()

    @pytest.mark.parametrize("cmd, message", [
        (["plan", "--seed", "-1"], "--seed: seed must be >= 0"),
        (["bench", "--seeds", "5..1"], "--seeds: '5..1' selects no seed"),
        (["bench", "--seeds=-2..1"], "--seeds: seed must be >= 0"),
        (["bench", "--seeds", "1,-3"], "--seeds: seed must be >= 0"),
        (["bench", "--seeds", "1", "--workers", "0"],
         "--workers: workers must be >= 1"),
        (["bench", "--seeds", "1,1"], "--seeds: '1,1' repeats a seed"),
        (["bench", "--seeds", "1", "--planners", "smlr,smlr"],
         "--planners: 'smlr,smlr' repeats a planner"),
    ], ids=["plan_negative_seed", "bench_empty_range", "bench_negative_range",
            "bench_negative_in_list", "bench_zero_workers",
            "bench_repeated_seed", "bench_repeated_planner"])
    def test_bad_run_settings_rejected_before_solving(
            self, free_path, tmp_path, monkeypatch, capsys, cmd, message):
        def no_solve(self, start, goal):
            raise AssertionError("solved despite a bad setting")
        monkeypatch.setattr(SmlrPlanner, "solve", no_solve)
        out_dir = tmp_path / "o"
        where = "--scenario" if cmd[0] == "plan" else "--scenarios"
        assert main(cmd + [where, str(free_path), "--out", str(out_dir)]) \
            == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out_dir.exists()

    def test_bench_bad_planner(self, walled_path, tmp_path):
        assert main(["bench", "--scenarios", str(walled_path),
                     "--planners", "rrt",
                     "--out", str(tmp_path / "o")]) == EXIT_BAD_INPUT

    def test_oracle_agreement_line(self, walled_path, capsys):
        code = main(["oracle", "--scenario", str(walled_path),
                     "--resolution", "0.05"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "oracle=infeasible" in out
        assert "agreement=True" in out

    def test_oracle_rejects_five_dimensions(self, tmp_path, capsys):
        f = tmp_path / "five_d.yaml"
        f.write_text(FIVE_D)
        code = main(["oracle", "--scenario", str(f), "--resolution", "0.5"])
        assert code == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: oracle limited to 4 dimensions\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.1"])
    def test_oracle_rejects_bad_resolution(self, walled_path, capsys, value):
        code = main(["oracle", "--scenario", str(walled_path),
                     "--resolution", value])
        assert code == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: resolution must be finite and positive")

    def test_out_dir_env_default(self, walled_path, tmp_path, monkeypatch,
                                 capsys):
        monkeypatch.setenv("SMLR_OUT_DIR", str(tmp_path / "envout"))
        code = main(["bench", "--scenarios", str(walled_path),
                     "--seeds", "1", "--M", "150"])
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "results.csv").exists()
