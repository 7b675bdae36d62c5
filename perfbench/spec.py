"""What the benchmark reports: workloads and metrics, with units.

``python3 perfbench/run.py --write-spec`` renders this module into
``BENCHMARK.json`` at the repository root; the benchmark's tests check
that the two agree.
"""

from __future__ import annotations

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 12

WORKLOADS = [
    {
        "name": "host-steady",
        "why": "paper's vlc+cpubomb co-location at steady state: histogram and "
        "watchdog read path, almost no MDS placement",
    },
    {
        "name": "fleet-churn",
        "why": "8-host fleet under host crashes and blackouts: state-space "
        "writes (MDS placement), scoring and migration",
    },
    {
        "name": "service-stream",
        "why": "controller behind the streaming service on a faulty transport: "
        "assembler, stream source, acked actuator, decision lag",
    },
]

#: ``(name, unit, better, bound)``. Host-time metrics are calibrated
#: (see calibration.py); ``decision_lag_ticks_*``, ``violation_ratio``
#: and ``batch_work`` are simulated and repeat exactly for one seed.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("host_ticks_per_s", "1/s", "higher", 0.2),
    ("period_ms_p50", "ms", "lower", 0.15),
    ("period_ms_p99", "ms", "lower", 0.25),
    ("decision_lag_ticks_p50", "ticks", "lower", 0.1),
    ("decision_lag_ticks_p99", "ticks", "lower", 0.1),
    ("violation_ratio", "ratio", "lower", 0.2),
    ("batch_work", "work", "higher", 0.15),
    ("rss_growth_mb", "MB", "lower", 0.25),
]

#: ``(name, unit, better)`` of the traced pass.
PER_LAYER = [
    ("sim.step.calls", "count", "lower"),
    ("sim.step.self_ms_p50", "ms", "lower"),
    ("generator.share", "ratio", "higher"),
    ("monitoring.collect.self_us_p50", "us", "lower"),
    ("monitoring.guard.self_us_p50", "us", "lower"),
    ("monitoring.guard.imputed", "count", "lower"),
    ("monitoring.share", "ratio", "lower"),
    ("watchdog.self_us_p50", "us", "lower"),
    ("watchdog.share", "ratio", "lower"),
    ("watchdog.heals", "count", "lower"),
    ("map.self_us_p50", "us", "lower"),
    ("map.share", "ratio", "lower"),
    ("mds.assign.calls", "count", "lower"),
    ("mds.assign.hit_ratio", "ratio", "higher"),
    ("mds.place.calls", "count", "lower"),
    ("mds.place.self_ms_p50", "ms", "lower"),
    ("mds.place.share", "ratio", "lower"),
    ("mds.refit.calls", "count", "lower"),
    ("mds.refit.self_ms_p50", "ms", "lower"),
    ("predict.self_us_p50", "us", "lower"),
    ("predict.share", "ratio", "lower"),
    ("trajectory.histogram.calls", "count", "lower"),
    ("trajectory.histogram.self_us_p50", "us", "lower"),
    ("trajectory.histogram.share", "ratio", "lower"),
    ("action.self_us_p50", "us", "lower"),
    ("action.share", "ratio", "lower"),
    ("action.throttles", "count", "lower"),
    ("action.resumes", "count", "lower"),
    ("action.failed", "count", "lower"),
    ("service.poll.self_us_p50", "us", "lower"),
    ("service.share", "ratio", "lower"),
    ("assembler.offer.calls", "count", "lower"),
    ("assembler.due.self_us_p50", "us", "lower"),
    ("assembler.backlog_ticks_max", "ticks", "lower"),
    ("assembler.partial_closes", "count", "lower"),
    ("assembler.imputed", "count", "lower"),
    ("actuator.step.self_us_p50", "us", "lower"),
    ("actuator.step.growth", "ratio", "lower"),
    ("actuator.retries", "count", "lower"),
    ("actuator.dead_letters", "count", "lower"),
    ("fleet.coordinator.self_ms_p50", "ms", "lower"),
    ("fleet.scoring.self_us_p50", "us", "lower"),
    ("fleet.share", "ratio", "lower"),
    ("fleet.migrations.requested", "count", "lower"),
    ("fleet.migrations.committed", "count", "higher"),
    ("fleet.migrations.lost", "count", "lower"),
    ("fleet.cell_fallbacks", "count", "lower"),
    ("period.unattributed_share", "ratio", "lower"),
    ("period.growth", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this module describes."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
