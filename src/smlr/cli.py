"""Command line interface: plan a single scenario, run benchmark batches, or
query the grid oracle.  Exit code 0 means the command ran; 2 means bad input.

The default output directory can be set with the SMLR_OUT_DIR environment
variable (overridden by --out).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .bench import (PLANNERS, make_planner, run_benchmark, solve_scenario,
                    write_results)
from .oracle import GridOracle
from .planner import PlannerConfig
from .scenario import ScenarioError, load_scenario
from .svg_export import UnsupportedDimensionError, export_svg, \
    write_graph_files

EXIT_OK = 0
EXIT_BAD_INPUT = 2


def _default_out() -> Path:
    return Path(os.environ.get("SMLR_OUT_DIR", "out"))


def _parse_seeds(spec: str) -> list[int]:
    if ".." in spec:
        a, b = spec.split("..", 1)
        return list(range(int(a), int(b) + 1))
    return [int(s) for s in spec.split(",")]


# planner settings a command may override: flag, PlannerConfig field, type,
# help
PARAM_ARGS = (
    ("--time-limit", "time_limit", float, "planning time limit in seconds"),
    ("--M", "max_failures", int, "max consecutive addition failures"),
    ("--delta-fraction", "delta_fraction", float,
     "visibility radius as a fraction of the extent"),
    ("--eta", "eta", int, "bias ramp horizon for restriction sampling"),
)


def _config_overrides(args) -> dict:
    """The planner settings given on the command line.  A value
    PlannerConfig rejects raises ValueError naming the flag and field."""
    over = {}
    for flag, name, _, _ in PARAM_ARGS:
        value = getattr(args, name)
        if value is None:
            continue
        try:
            PlannerConfig(**{name: value})
        except ValueError as e:
            raise ValueError(f"{flag}: {e}") from None
        over[name] = value
    return over


def _add_param_args(p):
    for flag, name, type_, help_ in PARAM_ARGS:
        p.add_argument(flag, dest=name, type=type_, default=None, help=help_)


def cmd_plan(args) -> int:
    try:
        overrides = _config_overrides(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    solver = make_planner(scenario, args.planner, args.seed, overrides)
    result = solve_scenario(solver, scenario)
    reason = f" reason={result.reason}" if result.reason else ""
    print(f"{scenario.name} planner={args.planner} seed={args.seed} "
          f"status={result.status.value} seconds={result.seconds:.3f} "
          f"cost={'' if result.cost is None else f'{result.cost:.4f}'}"
          f"{reason}")
    for level, ls in enumerate(result.level_stats, start=1):
        print(f"  level {level}: vertices={ls.vertices} edges={ls.edges} "
              f"failures={ls.failures} coverage={ls.coverage:.4f}")

    if args.out:
        out = Path(args.out)
        seq = solver.seq
        for ls in solver.level_states:
            prefix = out / f"{scenario.name}_level{ls.index + 1}"
            write_graph_files(ls.roadmap, prefix)
            try:
                export_svg(ls.space, prefix.with_suffix(".svg"),
                           roadmap=ls.roadmap,
                           obstacles=ls.validity.obstacles,
                           start=seq.project_to_level(scenario.start,
                                                      ls.index),
                           goal=seq.project_to_level(scenario.goal, ls.index),
                           solution=(result.path
                                     if ls.index == seq.depth - 1 else None))
            except UnsupportedDimensionError:
                pass
        print(f"wrote graph exports under {out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        overrides = _config_overrides(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    paths = sorted(Path(args.scenarios).glob("*.yaml")) \
        if Path(args.scenarios).is_dir() else [Path(args.scenarios)]
    if not paths:
        print("error: no scenario files found", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        seeds = _parse_seeds(args.seeds)
    except ValueError:
        print(f"error: bad seed spec '{args.seeds}'", file=sys.stderr)
        return EXIT_BAD_INPUT
    planners = args.planners.split(",")
    for p in planners:
        if p not in PLANNERS:
            print(f"error: unknown planner '{p}'", file=sys.stderr)
            return EXIT_BAD_INPUT
    try:
        table = run_benchmark(paths, planners, seeds,
                              overrides=overrides,
                              workers=args.workers)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    out = Path(args.out) if args.out else _default_out()
    results, summary = write_results(table, out)
    for s in table.summaries():
        print(f"{s.scenario:30s} {s.planner:5s} mean {s.mean_seconds:7.2f}s "
              f"  {s.status_counts}")
    print(f"wrote {results} and {summary}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    finest = scenario.seq.finest
    if finest.space.dim > 4:
        print("error: oracle supports levels of dimension <= 4",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    oracle = GridOracle(finest.space, finest.validity, args.resolution)
    try:
        feasible = oracle.feasible(scenario.start, scenario.goal)
        cost = oracle.shortest_path_cost(scenario.start, scenario.goal)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    verdict = "feasible" if feasible else "infeasible"
    agrees = verdict == scenario.ground_truth
    print(f"{scenario.name}: oracle={verdict} declared="
          f"{scenario.ground_truth} agreement={agrees} "
          f"cost={'' if cost is None else f'{cost:.4f}'} "
          f"cells={oracle.n_cells}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smlr",
        description="Sparse multilevel roadmap planner and benchmark tool")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="solve one scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--planner", choices=PLANNERS, default="smlr")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="figure output directory")
    _add_param_args(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("bench", help="run a benchmark batch")
    p.add_argument("--scenarios", required=True,
                   help="scenario file or directory of .yaml files")
    p.add_argument("--planners", default="smlr,flat")
    p.add_argument("--seeds", default="1..10",
                   help="seed range 'a..b' or comma list")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    _add_param_args(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle", help="grid ground-truth query")
    p.add_argument("--scenario", required=True)
    p.add_argument("--resolution", type=float, required=True,
                   help="grid resolution in metric units")
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
