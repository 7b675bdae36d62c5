#!/usr/bin/env python3
"""Stay-Away benchmark: one closed-loop workload, end to end or per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload host-steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload fleet-churn --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

A run sets the world up :data:`SETUPS` times (build plus warm-up;
``setup_s`` is their median), then measures one window of a fixed tick
count sized from ``--seconds``. With ``--trace 1`` it measures a second,
identically seeded world with every layer entry point traced, checks
that both windows decided identically, and reports per-layer metrics.
The last line of standard output is one JSON object; everything above
it is the human-readable report. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 3
#: BLAS/OpenMP pools pinned to one thread: every workload is one
#: process, one thread.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def rss_mb() -> float:
    """Resident set size of this process, in MB."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def run_setup(workload_cls, seed: int, clock):
    """Build and warm one world, timing it on ``clock``."""
    world = workload_cls(seed)
    clock.kernel()
    t0 = time.perf_counter()
    world.build()
    clock.add_work(time.perf_counter() - t0)
    measure(world, world.warm_ticks, clock)
    return world


def measure(world, ticks: int, clock) -> None:
    """Step ``ticks`` closed-loop ticks, timing the kernel before each."""
    for _ in range(ticks):
        clock.kernel()
        t0 = time.perf_counter()
        world.step()
        clock.add_work(time.perf_counter() - t0)
    clock.close()


def run_window(world, ticks: int, clock) -> dict:
    """Measure one window on a warmed world; returns its outcome."""
    gc.collect()
    rss_before = rss_mb()
    world.begin_window(clock.raw_periods)
    measure(world, ticks, clock)
    rss_after = rss_mb()
    outcome = world.end_window()
    outcome.update(clock=clock, rss_growth_mb=rss_after - rss_before)
    return outcome


def end_to_end(outcome: dict, setups) -> dict:
    """Every end-to-end metric as ``{name: (value, raw value or None)}``."""
    clock = outcome["clock"]
    lags = outcome["lags"]
    raw_periods = clock.raw_periods
    cal_periods = clock.calibrated_periods
    return {
        "setup_s": (
            statistics.median(c.calibrated_s for c in setups),
            statistics.median(c.raw_s for c in setups),
        ),
        "host_ticks_per_s": (
            outcome["host_ticks"] / clock.calibrated_s,
            outcome["host_ticks"] / clock.raw_s,
        ),
        "period_ms_p50": (
            1e3 * percentile(cal_periods, 50),
            1e3 * percentile(raw_periods, 50),
        ),
        "period_ms_p99": (
            1e3 * percentile(cal_periods, 99),
            1e3 * percentile(raw_periods, 99),
        ),
        "decision_lag_ticks_p50": (percentile(lags, 50), None),
        "decision_lag_ticks_p99": (percentile(lags, 99), None),
        "violation_ratio": (outcome["violation_ratio"], None),
        "batch_work": (outcome["batch_work"], None),
        "rss_growth_mb": (outcome["rss_growth_mb"], None),
    }


#: Outcome fields that must be identical between traced and untraced
#: windows of one seed.
SIMULATED = (
    "host_ticks",
    "violation_ratio",
    "batch_work",
    "lags",
    "decisions",
    "attempted",
    "failed",
)


def checks_of(outcome: dict, setup_digests, expected_ticks: int, traced=None) -> dict:
    """Every output check of the run, by name."""
    checks = dict(outcome["checks"])
    checks["set-ups decide identically"] = len(set(setup_digests)) == 1
    checks["window stepped every tick"] = outcome["host_ticks"] >= expected_ticks
    checks["every period timed"] = len(outcome["clock"].raw_periods) > 0
    checks["pause/resume actions landed"] = len(outcome["lags"]) > 0
    if traced is not None:
        checks["tracing changes no outcome"] = all(
            traced[key] == outcome[key] for key in SIMULATED
        )
    return checks


def print_report(args, ticks, outcome, setups, metrics, checks) -> None:
    clock = outcome["clock"]
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}"
    )
    print(
        f"window: {ticks} closed-loop ticks, {outcome['host_ticks']} host-ticks; "
        f"{outcome['attempted']} operations, {outcome['failed']} failed"
    )
    print(
        "set-ups (calibrated s): "
        + ", ".join(f"{c.calibrated_s:.3f}" for c in setups)
        + "; raw s: "
        + ", ".join(f"{c.raw_s:.3f}" for c in setups)
    )
    for label, stats in [
        (f"set-up {i + 1}", c.kernel_stats()) for i, c in enumerate(setups)
    ] + [("window", clock.kernel_stats())]:
        print(
            f"reference kernel, {label}: median {stats['median_s'] * 1e6:.1f} us, "
            f"IQR/median {stats['iqr_share']:.1%} over {stats['samples']} samples"
        )
    units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    for name, (value, raw) in metrics.items():
        line = f"  {name:<24s} {value:14.6f} {units[name]:<6s}"
        if raw is not None:
            line += f" raw {raw:.6f}"
        if name.startswith("period_ms"):
            line += f" ({len(clock.raw_periods)} samples)"
        if name.startswith("decision_lag"):
            line += f" ({len(outcome['lags'])} actions)"
        print(line)
    print(f"decision digest: {outcome['decisions']}")
    for name, ok in checks.items():
        print(f"check: {name}: {'ok' if ok else 'FAILED'}")


def write_spans(spans, workload: str, seed: int) -> Path:
    out = ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(spans, handle, separators=(",", ":"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-spec", action="store_true", help="regenerate BENCHMARK.json and exit"
    )
    args = parser.parse_args(argv)

    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as handle:
            json.dump(spec.benchmark_json(), handle, indent=2)
            handle.write("\n")
        return 0
    try:
        from calibration import CalibratedClock
        from workloads import WORKLOADS, digest
        from tracing import SpanTable, Tracer, layer_metrics, share_report
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]

    # The measured world is the first one built, so that its window's
    # RSS growth is not absorbed by memory freed from other set-ups.
    # Later set-ups only time set-up (and, traced, measure the second
    # window); every world is dropped once used.
    setups, digests = [], []
    outcome = traced = tracer = None
    for index in range(SETUPS):
        gc.collect()
        clock = CalibratedClock()
        world = run_setup(workload_cls, args.seed, clock)
        setups.append(clock)
        digests.append(digest(world.decisions()))
        ticks = world.window_ticks(args.seconds)
        if index == 0:
            outcome = run_window(world, ticks, CalibratedClock())
        elif index == 1 and args.trace:
            tracer = Tracer()
            with tracer.patched(world):
                traced = run_window(world, ticks, CalibratedClock())
        del world
    metrics = end_to_end(outcome, setups)
    checks = checks_of(outcome, digests, ticks, traced)
    print_report(args, ticks, outcome, setups, metrics, checks)

    if args.trace:
        clock = traced["clock"]
        # Spans of the post-window drain are not part of the window.
        spans = [span for span in tracer.spans if span[1] < clock.end]
        table = SpanTable(spans, workload_cls.sut_span, clock.factor_at)
        layer = layer_metrics(
            table,
            traced["window_counts"],
            loop_s=clock.calibrated_s,
            overhead=clock.calibrated_s / outcome["clock"].calibrated_s,
        )
        for line in share_report(table, args.workload, clock.calibrated_s):
            print(line)
        for name, unit, _ in spec.PER_LAYER:
            print(f"  {name:<34s} {layer[name]:14.6f} {unit}")
        spans_path = write_spans(spans, args.workload, args.seed)
        print(f"spans: {len(spans)} written to {spans_path}")
        reported = {
            name: {"value": layer[name], "unit": unit} for name, unit, _ in spec.PER_LAYER
        }
    else:
        reported = {
            name: {"value": metrics[name][0], "unit": unit}
            for name, unit, _, _ in spec.END_TO_END
        }
    result = {
        "correct": all(checks.values()),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
