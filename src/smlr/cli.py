"""Command line interface: plan a single scenario, run benchmark batches, or
query the grid oracle.  Exit code 0 means the command ran; 2 means bad input,
a ValueError (ScenarioError included) or OSError that main prints as 'error: '.
Each command checks its input before it prints or writes anything; a failed
output write, or a ValueError of the program's own, after that also exits 2.

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
from .planner import PlannerConfig
from .scenario import load_scenario
from .svg_export import UnsupportedDimensionError, export_svg, \
    write_graph_files

EXIT_OK = 0
EXIT_BAD_INPUT = 2


def _check_field(flag: str, name: str, value):
    """ValueError naming flag and field if PlannerConfig rejects value."""
    try:
        PlannerConfig(**{name: value})
    except ValueError as e:
        raise ValueError(f"{flag}: {e}") from None


def _parse_seeds(spec: str) -> list[int]:
    """The seeds of a range 'a..b' or a comma list.  A malformed spec, an
    empty range, a repeated seed or a seed PlannerConfig rejects raises
    ValueError."""
    try:
        a, sep, b = spec.partition("..")
        seeds = (list(range(int(a), int(b) + 1)) if sep
                 else [int(s) for s in spec.split(",")])
    except ValueError:
        raise ValueError(f"bad seed spec '{spec}'") from None
    if not seeds:
        raise ValueError(f"--seeds: '{spec}' selects no seed")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"--seeds: '{spec}' repeats a seed")
    _check_field("--seeds", "seed", min(seeds))
    return seeds


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
        if value is not None:
            _check_field(flag, name, value)
            over[name] = value
    return over


def _add_param_args(p):
    for flag, name, type_, help_ in PARAM_ARGS:
        p.add_argument(flag, dest=name, type=type_, default=None, help=help_)


def cmd_plan(args) -> int:
    overrides = _config_overrides(args)
    _check_field("--seed", "seed", args.seed)
    scenario = load_scenario(args.scenario)
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
    overrides = _config_overrides(args)
    scenarios = Path(args.scenarios)
    paths = (sorted(scenarios.glob("*.yaml")) if scenarios.is_dir()
             else [scenarios] if scenarios.is_file() else [])
    if not paths:
        raise ValueError(f"--scenarios: no scenario file at '{scenarios}'")
    seeds = _parse_seeds(args.seeds)
    if args.workers < 1:
        raise ValueError("--workers: workers must be >= 1")
    planners = args.planners.split(",")
    for p in planners:
        if p not in PLANNERS:
            raise ValueError(f"unknown planner '{p}'")
    if len(set(planners)) < len(planners):
        raise ValueError(f"--planners: '{args.planners}' repeats a planner")
    # results are keyed by scenario name, known only once loaded
    named = {}
    for path in paths:
        sc = load_scenario(path)
        if sc.name in named:
            raise ValueError(f"--scenarios: scenario name '{sc.name}' in "
                             f"both {named[sc.name][0]} and {path}")
        named[sc.name] = path, sc
    table = run_benchmark([sc for _, sc in named.values()], planners, seeds,
                          overrides=overrides, workers=args.workers)
    out = Path(args.out or os.environ.get("SMLR_OUT_DIR", "out"))
    results, summary = write_results(table, out)
    for s in table.summaries():
        print(f"{s.scenario:30s} {s.planner:5s} mean {s.mean_seconds:7.2f}s "
              f"  {s.status_counts}")
    print(f"wrote {results} and {summary}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    # SciPy's graph code loads only for this command
    from .oracle import GridOracle
    scenario = load_scenario(args.scenario)
    finest = scenario.seq.finest
    oracle = GridOracle(finest.space, finest.validity, args.resolution)
    feasible = oracle.feasible(scenario.start, scenario.goal)
    cost = oracle.shortest_path_cost(scenario.start, scenario.goal)
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
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
