"""smlr benchmark: time-to-verdict per query, checked answers, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; smlr is imported from ./src.  --seed is the
seed base (see workloads.py).  Queries run one at a time in a closed loop.

--trace 0 runs the number of whole rounds that takes about S seconds on the
reference VM, so a seed and a length always give the same queries, and
reports the end-to-end metrics.  Set-up is timed in fresh processes spread
evenly over the run.  Times are normalised to the reference machine speed by
gauge.py; raw wall times are printed beside them.
--trace 1 runs the workload's fixed round prefix three times: untraced, with
every layer entry point wrapped, and untraced again; it reports the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  A query
fails on a wrong verdict, a timeout, an exception or an answer the output
check rejects; `correct` is false only when an answer was returned and is
wrong.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIO_DIR = SRC / "smlr" / "data" / "scenarios"
SETUP_PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SETUP_REPEATS = 7
# reference-loop ticks taken on each side of one set-up measurement
SETUP_TICKS = 3

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import gauge, trace  # noqa: E402
from perfbench.workloads import WORKLOADS, load, run_query  # noqa: E402


def tail(times) -> tuple[float, float] | None:
    """(value, percentile) of the highest order statistic with at least 10
    queries beyond it; None below 11 queries."""
    n = len(times)
    if n < 11:
        return None
    k = n - 10
    return sorted(times)[k - 1], 100.0 * k / n


def failed_frac(outcomes) -> float:
    return sum(o.failure is not None for o in outcomes) / len(outcomes)


def end_to_end(secs, setup_s: float, peak_rss_mb: float) -> dict:
    return {"queries_per_s": (len(secs) / sum(secs), "1/s"),
            "query_s_p50": (statistics.median(secs), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB")}


def run_queries(wl, loaded, smlr, queries, *, tracer=None, meter=None,
                setup_at=(), setup=None):
    """Closed loop over `queries`.  In every gap between queries, outside the
    timed region, meter.tick() runs; before query k for k in setup_at, so
    does setup()."""
    outcomes = []
    for k, q in enumerate(queries):
        if k in setup_at:
            setup()
        if meter is not None:
            meter.tick()
        if tracer is None:
            outcomes.append(run_query(q, loaded[q.scenario], wl, smlr))
            continue
        before = trace.deterministic_counts(tracer)
        o = run_query(q, loaded[q.scenario], wl, smlr, tracer.paused)
        after = trace.deterministic_counts(tracer)
        o.counts = {name: after[name] - before[name] for name in after}
        outcomes.append(o)
    if meter is not None:
        meter.tick()
    return outcomes


class SetupTimer:
    """Times one fresh set-up per call: a new process imports smlr and loads
    every scenario of the workload.  Each time is also normalised by three
    reference-loop times taken right before it and three right after."""

    def __init__(self, names):
        self.cmd = [sys.executable, str(SETUP_PROBE), str(SRC),
                    *(str(SCENARIO_DIR / f"{n}.yaml") for n in names)]
        self.raw: list[float] = []
        self.normalised: list[float] = []

    def __call__(self):
        meter = gauge.Gauge()
        for _ in range(SETUP_TICKS):
            meter.tick()
        out = subprocess.run(self.cmd, capture_output=True, text=True,
                             timeout=120, check=True)
        for _ in range(SETUP_TICKS):
            meter.tick()
        self.raw.append(float(out.stdout.split()[-1]))
        self.normalised.append(self.raw[-1] / meter.overall())


def print_queries(outcomes, tag="", slowdowns=None):
    for i, o in enumerate(outcomes):
        counts = "".join(f" {k}={v}" for k, v in o.counts.items())
        cost = "-" if o.cost is None else repr(o.cost)
        slow = "" if slowdowns is None else f" slowdown={slowdowns[i]:.4f}"
        print(f"query{tag} {o.query.label()} verdict={o.verdict} "
              f"seconds={o.seconds:.6f}{slow} cost={cost} digest={o.digest}"
              f"{counts}")
    for o in outcomes:
        if o.failure is not None:
            print(f"FAILED {o.query.label()}: {o.failure}")


def print_metrics(metrics: dict):
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")


def bench(wl, smlr, seed_base, seconds) -> dict:
    """The set-up measurements are spread evenly over the run, so that they
    see the same phases of the host as the queries."""
    loaded = load(smlr.scenario, SCENARIO_DIR, wl.scenarios)
    queries = wl.queries(seed_base, wl.rounds(seconds))
    setup = SetupTimer(wl.scenarios)
    setup_at = {len(queries) * j // SETUP_REPEATS
                for j in range(SETUP_REPEATS)}
    meter = gauge.Gauge()
    for _ in range(gauge.WINDOW):   # warm-up; fills the first window
        meter.tick()
    outcomes = run_queries(wl, loaded, smlr, queries, meter=meter,
                           setup_at=setup_at, setup=setup)
    while len(setup.raw) < SETUP_REPEATS:   # runs of few queries
        setup()
    setup_s = statistics.median(setup.normalised)
    setup_raw_s = statistics.median(setup.raw)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = gauge.WINDOW   # gap right before the first query
    slowdowns = [meter.slowdown(first + k) for k in range(len(outcomes))]
    print_queries(outcomes, slowdowns=slowdowns)
    secs = [o.seconds / f for o, f in zip(outcomes, slowdowns)]
    metrics = end_to_end(secs, setup_s, rss)
    print_metrics(metrics)
    raw = end_to_end([o.seconds for o in outcomes], setup_raw_s, rss)
    del raw["peak_rss_mb"]
    print_metrics({f"{k}.raw": v for k, v in raw.items()})
    print(f"{'machine_slowdown':40s} {meter.overall():.6g} "
          f"(median reference loop / {gauge.REF_S:g} s)")
    t = tail(secs)
    if t is not None:
        print(f"{'query_s_tail':40s} {t[0]:.6g} s "
              f"(p{t[1]:.2f}, n={len(outcomes)})")
    failed = sum(o.failure is not None for o in outcomes)
    print(f"{'failed_frac':40s} {failed_frac(outcomes):.6g} "
          f"({failed} of {len(outcomes)})")
    costs = [o.cost for o in outcomes
             if o.failure is None and o.verdict == "feasible"]
    if costs:
        print(f"{'path_cost_mean':40s} {statistics.fmean(costs):.6g} "
              f"metric units (n={len(costs)})")
    return {"correct": not any(o.wrong for o in outcomes),
            "attempted": len(outcomes),
            "failed": failed, "metrics": metrics}


def bench_traced(wl, smlr, seed_base) -> dict:
    """Untraced, traced, untraced again over the same queries, so that the
    overhead estimate cancels a linear drift in machine speed."""
    queries = wl.queries(seed_base, wl.trace_rounds)
    loaded = load(smlr.scenario, SCENARIO_DIR, wl.scenarios)
    before = run_queries(wl, loaded, smlr, queries)
    tracer = trace.Tracer()
    with trace.instrumented(tracer):
        loaded = load(smlr.scenario, SCENARIO_DIR, wl.scenarios)
        traced = run_queries(wl, loaded, smlr, queries, tracer=tracer)
    loaded = load(smlr.scenario, SCENARIO_DIR, wl.scenarios)
    after = run_queries(wl, loaded, smlr, queries)
    print_queries(before, "[untraced]")
    print_queries(traced, "[traced]")
    drift = [t.query.label() for b, t, a in zip(before, traced, after)
             if not b.digest == t.digest == a.digest]
    for label in drift:
        print(f"FAILED {label}: traced result differs from untraced")
    metrics = trace.layer_metrics(tracer)
    untraced_s = sum(o.seconds for o in before + after) / 2.0
    metrics["trace.overhead_frac"] = (
        sum(o.seconds for o in traced) / untraced_s - 1.0, "frac")
    print_metrics(metrics)
    runs = before + traced + after
    return {"correct": not drift and not any(o.wrong for o in runs),
            "attempted": len(runs),
            "failed": sum(o.failure is not None for o in runs),
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="seed base")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "smlr" / "__init__.py").is_file():
        print(f"smlr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import smlr
    import smlr.oracle
    import smlr.planner
    import smlr.scenario
    if SRC not in Path(smlr.__file__).resolve().parents:
        print(f"smlr imported from {smlr.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    print(f"workload {wl.name} seed_base {args.seed} trace {args.trace}: "
          f"{wl.why}")
    if args.trace:
        result = bench_traced(wl, smlr, args.seed)
    else:
        result = bench(wl, smlr, args.seed, args.seconds)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
