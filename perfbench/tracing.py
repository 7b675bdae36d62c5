"""Per-layer tracing from outside the program.

The traced pass patches each layer's public entry points (classes,
the ``place_point`` name ``core.state_space`` calls, and the service's
stream source) with a wrapper that records one span per call: name,
start, end and parent span. Patches are removed when the pass ends;
the program itself carries no tracing code. A span's self time is its
duration minus the time its direct child spans cover.

Shares are taken against the system under test's time (the workload's
``sut_span``): what part of the controller's period each layer costs.
Time in the system under test outside every layer span - the
controller's own orchestration between stages - is reported as
``period.unattributed_share``.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import repro.core.state_space as state_space_module
from repro.core.action import ThrottleManager
from repro.core.controller import StayAway
from repro.core.mapping import MappingPipeline
from repro.core.model_health import ModelHealthWatchdog
from repro.core.prediction import Predictor
from repro.core.state_space import StateSpace
from repro.fleet.coordinator import FleetCoordinator, HostControllerCell
from repro.fleet.migration import MigrationSupervisor
from repro.fleet.scoring import InterferenceScorer
from repro.mds.dedup import RepresentativeSet
from repro.monitoring.collector import MetricsCollector
from repro.monitoring.guard import SensorGuard
from repro.monitoring.qos import QosTracker
from repro.service import AckTracker, ControllerService, StreamAssembler
from repro.service.views import HostView
from repro.sim.cluster import Cluster
from repro.sim.host import Host
from repro.trajectory.histograms import EmpiricalDistribution, Histogram

#: Span name -> layer. ``controller.on_tick`` has no layer: its self
#: time is the controller's orchestration, reported as unattributed.
LAYER_OF = {
    "sim.host_step": "sim",
    "sim.cluster_step": "sim",
    "monitoring.collect": "monitoring",
    "monitoring.qos": "monitoring",
    "monitoring.guard": "monitoring",
    "watchdog": "watchdog",
    "map": "map",
    "mds.assign": "map",
    "mds.place": "map",
    "mds.refit": "map",
    "predict.observe": "predict",
    "predict.predict": "predict",
    "trajectory.histogram": "predict",
    "trajectory.sample": "predict",
    "action.reconcile": "action",
    "action.step": "action",
    "service.pump": "service",
    "service.poll": "service",
    "service.apply": "service",
    "assembler.offer": "service",
    "assembler.due": "service",
    "actuator.step": "service",
    "actuator.submit": "service",
    "fleet.coordinator": "fleet",
    "fleet.cell": "fleet",
    "fleet.scoring": "fleet",
    "fleet.supervisor": "fleet",
    "controller.on_tick": None,
}

LAYERS = ("monitoring", "watchdog", "map", "predict", "action", "service", "fleet")

#: Shares of the whole window measured under cProfile before this
#: benchmark existed; the traced pass prints its own shares next to
#: them. Keys are span names or layers.
CPROFILE_SHARES = {
    "host-steady": {"trajectory.histogram": 0.45, "watchdog": 0.28, "mds.place": 0.0},
    "fleet-churn": {"trajectory.histogram": 0.28, "mds.place": 0.21, "sim": 0.07},
    "service-stream": {},
}

#: ``(owner, attribute, span name)`` of every class-level entry point.
_CLASS_TARGETS = (
    (Host, "step", "sim.host_step"),
    (Cluster, "step", "sim.cluster_step"),
    (MetricsCollector, "on_tick", "monitoring.collect"),
    (QosTracker, "on_tick", "monitoring.qos"),
    (SensorGuard, "inspect", "monitoring.guard"),
    (ModelHealthWatchdog, "check_and_heal", "watchdog"),
    (MappingPipeline, "map_measurement", "map"),
    (RepresentativeSet, "assign", "mds.assign"),
    (state_space_module, "place_point", "mds.place"),
    (StateSpace, "refit", "mds.refit"),
    (Predictor, "observe", "predict.observe"),
    (Predictor, "predict", "predict.predict"),
    (EmpiricalDistribution, "histogram", "trajectory.histogram"),
    (Histogram, "sample", "trajectory.sample"),
    (ThrottleManager, "reconcile", "action.reconcile"),
    (ThrottleManager, "step", "action.step"),
    (StayAway, "on_tick", "controller.on_tick"),
    (ControllerService, "pump", "service.pump"),
    (StreamAssembler, "offer", "assembler.offer"),
    (StreamAssembler, "due", "assembler.due"),
    (AckTracker, "step", "actuator.step"),
    (AckTracker, "submit", "actuator.submit"),
    (HostView, "apply", "service.apply"),
    (FleetCoordinator, "on_cluster_tick", "fleet.coordinator"),
    (HostControllerCell, "observe", "fleet.cell"),
    (InterferenceScorer, "observe", "fleet.scoring"),
    (MigrationSupervisor, "poll", "fleet.supervisor"),
)


def _backlog(args, result) -> int:
    assembler = args[0]
    if assembler.max_seen is None or assembler.last_closed is None:
        return 0
    return assembler.max_seen - assembler.last_closed


#: Span name -> ``probe(args, result)`` whose value is recorded per call.
_PROBES: Dict[str, Callable] = {
    "watchdog": lambda args, result: 1 if result else 0,
    "mds.assign": lambda args, result: 0 if result[1] else 1,
    "assembler.due": _backlog,
}


class Tracer:
    """In-memory span recorder.

    A span is ``(name, start, end, parent index, probe value)``; the
    probe value is what the span name's entry in ``_PROBES`` read from
    the call, or None.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        probe = _PROBES.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if probe is not None:
                spans[index] = (name, start, end, parent, probe(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, workload):
        """Trace every layer entry point while the context is open."""
        saved = []
        for owner, attribute, name in _CLASS_TARGETS:
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original))
        service = getattr(workload, "service", None)
        if service is not None:
            service.source.poll = self.wrap("service.poll", service.source.poll)
        try:
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)
            if service is not None:
                del service.source.poll


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _growth(values) -> float:
    """Median of the last quarter over the median of the first quarter."""
    quarter = len(values) // 4
    if quarter == 0:
        return 0.0
    first = statistics.median(values[:quarter])
    return statistics.median(values[-quarter:]) / first if first > 0 else 0.0


class SpanTable:
    """Self times, nesting and per-period groups of a finished trace."""

    def __init__(self, spans: List[tuple], sut_span: str, factor_at: Callable) -> None:
        count = len(spans)
        self.names = [span[0] for span in spans]
        # Calibrated: each span scaled by the factor of its window.
        self.duration = [(span[2] - span[1]) * factor_at(span[1]) for span in spans]
        self.parent = [span[3] for span in spans]
        self.values = [span[4] for span in spans]
        covered = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += self.duration[i]
        self.self_time = [self.duration[i] - covered[i] for i in range(count)]
        # Parents are recorded before their children, so one forward
        # pass resolves the enclosing system-under-test call and the
        # enclosing controller period of every span.
        self.in_sut = [False] * count
        self.period_of = [-1] * count
        self.sut_roots: List[int] = []
        for i in range(count):
            parent = self.parent[i]
            if parent >= 0:
                self.in_sut[i] = self.in_sut[parent]
                self.period_of[i] = self.period_of[parent]
            if self.names[i] == sut_span and not self.in_sut[i]:
                self.sut_roots.append(i)
                self.in_sut[i] = True
            if self.names[i] == "controller.on_tick":
                self.period_of[i] = i

    def indices(self, name: str) -> List[int]:
        return [i for i, span_name in enumerate(self.names) if span_name == name]

    def values_of(self, name: str) -> List[float]:
        return [self.values[i] for i in self.indices(name)]

    def self_of(self, name: str) -> List[float]:
        return [self.self_time[i] for i in self.indices(name)]

    def per_period(self, names) -> List[float]:
        """Summed self time of ``names`` per controller period."""
        totals: Dict[int, float] = defaultdict(float)
        for i, span_name in enumerate(self.names):
            if span_name in names and self.period_of[i] >= 0:
                totals[self.period_of[i]] += self.self_time[i]
        return list(totals.values())

    def sut_total(self) -> float:
        return sum(self.duration[i] for i in self.sut_roots)

    def self_total(self, key: str, inside_sut: bool) -> float:
        """Self time of a span name or a layer."""
        return sum(
            self.self_time[i]
            for i, name in enumerate(self.names)
            if (name == key or LAYER_OF.get(name) == key)
            and (self.in_sut[i] or not inside_sut)
        )


def layer_metrics(
    table: SpanTable,
    counts: Dict[str, float],
    loop_s: float,
    overhead: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced window.

    ``loop_s`` is the traced window's calibrated closed-loop time.
    """
    us, ms = 1e6, 1e3
    sut = table.sut_total()

    def share(key: str) -> float:
        return table.self_total(key, inside_sut=True) / sut if sut > 0 else 0.0

    sim_steps = defaultdict(float)
    for i, name in enumerate(table.names):
        if LAYER_OF.get(name) == "sim":
            root = i
            while table.parent[root] >= 0:
                root = table.parent[root]
            sim_steps[root] += table.self_time[i]
    assigns = table.values_of("mds.assign")
    attributed = sum(share(layer) for layer in LAYERS)
    metrics = {
        "sim.step.calls": len(table.indices("sim.host_step")),
        "sim.step.self_ms_p50": _p50(list(sim_steps.values())) * ms,
        "generator.share": 1.0 - sut / loop_s if loop_s > 0 else 0.0,
        "monitoring.collect.self_us_p50": _p50(table.self_of("monitoring.collect")) * us,
        "monitoring.guard.self_us_p50": _p50(table.self_of("monitoring.guard")) * us,
        "monitoring.guard.imputed": counts["guard_imputed"],
        "watchdog.self_us_p50": _p50(table.self_of("watchdog")) * us,
        "watchdog.share": share("watchdog"),
        "watchdog.heals": sum(table.values_of("watchdog")),
        "map.self_us_p50": _p50(table.self_of("map")) * us,
        "mds.assign.calls": len(assigns),
        "mds.assign.hit_ratio": sum(assigns) / len(assigns) if assigns else 0.0,
        "mds.place.calls": len(table.indices("mds.place")),
        "mds.place.self_ms_p50": _p50(table.self_of("mds.place")) * ms,
        "mds.place.share": share("mds.place"),
        "mds.refit.calls": len(table.indices("mds.refit")),
        "mds.refit.self_ms_p50": _p50(table.self_of("mds.refit")) * ms,
        "predict.self_us_p50": _p50(
            table.per_period(("predict.observe", "predict.predict"))
        ) * us,
        "trajectory.histogram.calls": len(table.indices("trajectory.histogram")),
        "trajectory.histogram.self_us_p50": _p50(
            table.self_of("trajectory.histogram")
        ) * us,
        "trajectory.histogram.share": share("trajectory.histogram"),
        "action.self_us_p50": _p50(
            table.per_period(("action.reconcile", "action.step"))
        ) * us,
        "action.throttles": counts["throttles"],
        "action.resumes": counts["resumes"],
        "action.failed": counts["action_failed"],
        "service.poll.self_us_p50": _p50(table.self_of("service.poll")) * us,
        "assembler.offer.calls": len(table.indices("assembler.offer")),
        "assembler.due.self_us_p50": _p50(table.self_of("assembler.due")) * us,
        "assembler.backlog_ticks_max": max(table.values_of("assembler.due"), default=0),
        "assembler.partial_closes": counts.get("partial_closes", 0.0),
        "assembler.imputed": counts.get("imputed", 0.0),
        "actuator.step.self_us_p50": _p50(table.self_of("actuator.step")) * us,
        "actuator.step.growth": _growth(table.self_of("actuator.step")),
        "actuator.retries": counts.get("retries", 0.0),
        "actuator.dead_letters": counts.get("dead_letters", 0.0),
        "fleet.coordinator.self_ms_p50": _p50(table.self_of("fleet.coordinator")) * ms,
        "fleet.scoring.self_us_p50": _p50(table.self_of("fleet.scoring")) * us,
        "fleet.migrations.requested": counts.get("migrations_requested", 0.0),
        "fleet.migrations.committed": counts.get("migrations_committed", 0.0),
        "fleet.migrations.lost": counts.get("migrations_lost", 0.0),
        "fleet.cell_fallbacks": counts.get("cell_fallbacks", 0.0),
        "period.unattributed_share": 1.0 - attributed,
        "period.growth": _growth([table.duration[i] for i in table.sut_roots]),
        "trace.overhead": overhead,
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = share(layer)
    return {name: float(value) for name, value in metrics.items()}


def share_report(table: SpanTable, workload: str, loop_s: float) -> List[str]:
    """Layer shares next to the cProfile expectations, one line each."""
    sut = table.sut_total()
    lines = [f"layer shares ({workload}; period = system under test's time)"]
    for layer in LAYERS:
        period_share = table.self_total(layer, inside_sut=True) / sut if sut else 0.0
        lines.append(f"  {layer:<12s} {period_share:7.1%} of the period")
    attributed = sum(table.self_total(layer, True) for layer in LAYERS)
    lines.append(
        f"  {'unattributed':<12s} {1.0 - attributed / sut if sut else 0.0:7.1%}"
        " of the period (controller orchestration between stages)"
    )
    expectations = CPROFILE_SHARES.get(workload, {})
    if not expectations:
        lines.append("  no cProfile expectation recorded for this workload")
    for key, expected in expectations.items():
        measured = table.self_total(key, inside_sut=False) / loop_s if loop_s else 0.0
        agrees = expected / 1.5 - 0.03 <= measured <= expected * 1.5 + 0.03
        verdict = "agrees" if agrees else "DISAGREES"
        lines.append(
            f"  {key:<22s} {measured:7.1%} of the window, cProfile {expected:5.0%}: "
            f"{verdict}"
        )
    return lines
