"""The benchmark's three closed-loop workloads.

Each workload owns one simulated world built from ``--seed``. The
simulator advances a tick only after every middleware returned, so
each loop is closed: a slower controller gets fewer ticks per second,
never a growing queue. The three worlds stress different layers:

* ``host-steady`` - the paper's headline co-location (VLC streaming
  next to a CPU bomb) at steady state: trajectory histograms full,
  state space grown. The read path of the state space.
* ``fleet-churn`` - an 8-host fleet under seeded host crashes and
  telemetry blackouts, run by the fleet coordinator. Churn keeps
  creating states, so MDS placement, scoring and migration work here.
* ``service-stream`` - the host-steady co-location with the controller
  behind the streaming service, over a faulty transport with lossy
  acks. The only workload where the assembler, the stream source and
  the acknowledged actuator work.

The program receives only generated inputs; the workload measures it
from outside through three instruments it installs at the start of the
measured window: a timer around the system under test's per-period
entry point, a decision-lag probe, and a QoS audit that rides the
simulator outside the controller.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Dict, List, Optional

from repro.core.config import StayAwayConfig
from repro.core.controller import StayAway
from repro.experiments.chaos import (
    ClusterCrashGuard,
    FleetMix,
    FleetQosAudit,
    build_fleet,
)
from repro.experiments.scenarios import Scenario
from repro.experiments.stream_chaos import SimStreamBridge, StreamChaosMix
from repro.fleet.coordinator import FleetCoordinator
from repro.monitoring.qos import QosTracker
from repro.service import (
    ControllerService,
    QueueSource,
    SimHostActuator,
    decision_sequence,
)
from repro.sim.cluster import MIGRATION_IN_FLIGHT
from repro.sim.faults import (
    ActuatorAckDropper,
    HostCrashInjector,
    StreamDropper,
    StreamDuplicator,
    StreamReorderer,
    TelemetryBlackout,
)

#: Post-window drain ticks of the fleet: no new crashes, so in-flight
#: migrations reach a terminal state before the no-orphan check.
FLEET_DRAIN_TICKS = 60
#: Safety bound on the service's post-window flush cycles.
SERVICE_FLUSH_CYCLES = 256


def digest(payload) -> str:
    """Short, order-sensitive SHA-256 of a JSON-serialisable payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class LagProbe:
    """Decision lag: live host tick when an action lands, minus data tick.

    ``data_tick`` is set by a wrapper around each controller's
    ``on_tick`` to the tick of the snapshot the controller is deciding
    on. The live host's ``pause_container``/``resume_container`` are
    wrapped to record ``host.clock.tick - data_tick`` when the signal
    is actually sent. The host clock has already advanced past the
    stepped tick when middlewares run, so an in-process action lands
    one tick after its data: it first affects the next tick.
    """

    def __init__(self) -> None:
        self.data_tick = 0
        self.lags: List[int] = []

    def watch_host(self, host) -> None:
        for verb in ("pause_container", "resume_container"):
            signal = getattr(host, verb)

            def landed(name, _signal=signal, _host=host):
                self.lags.append(_host.clock.tick - self.data_tick)
                _signal(name)

            setattr(host, verb, landed)

    def watch_controller(self, controller: StayAway) -> None:
        on_tick = controller.on_tick

        def deciding(snapshot, host, _on_tick=on_tick):
            self.data_tick = snapshot.tick
            _on_tick(snapshot, host)

        controller.on_tick = deciding


def _time_into(workload: "Workload", fn):
    """Wrap ``fn`` so each call appends its seconds to ``workload.periods``."""

    def timed(*args):
        t0 = time.perf_counter()
        fn(*args)
        workload.periods.append(time.perf_counter() - t0)

    return timed


def _controller_counters(controllers) -> Dict[str, float]:
    counters = {
        "periods": 0.0,
        "gaps": 0.0,
        "firewall": 0.0,
        "throttles": 0.0,
        "resumes": 0.0,
        "action_failed": 0.0,
        "guard_imputed": 0.0,
    }
    for controller in controllers:
        counter = controller.telemetry.counter
        counters["periods"] += counter("controller.periods").value
        counters["gaps"] += counter("controller.monitoring_gaps").value
        counters["firewall"] += counter("containment.firewall_catches").value
        counters["throttles"] += controller.throttle.throttle_count
        counters["resumes"] += controller.throttle.resume_count
        counters["action_failed"] += controller.throttle.failed_actions
        if controller.guard is not None:
            counters["guard_imputed"] += controller.guard.imputed_count
    return counters


class Workload:
    """One seeded closed-loop world.

    Subclasses set the class attributes and implement :meth:`build`
    (which sets ``batch_apps`` and ``host_ticks``), :meth:`step`,
    :meth:`_instrument` (which sets ``audit``), :meth:`_drain`,
    :meth:`_operations`, :meth:`_controllers` and :meth:`decisions`.
    """

    #: Workload name as ``--workload`` takes it.
    name = ""
    #: Warm-up ticks that are part of set-up.
    warm_ticks = 0
    #: Nominal closed-loop ticks per second, used only to size the
    #: measured window from ``--seconds`` (the window is a fixed tick
    #: count so that simulated metrics repeat exactly).
    nominal_ticks_per_s = 1.0
    #: Span name of the system under test's per-period entry point.
    sut_span = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.periods: List[float] = []
        self.lag = LagProbe()
        self._start: Dict[str, float] = {}

    def window_ticks(self, seconds: float) -> int:
        return max(1, round(seconds * self.nominal_ticks_per_s))

    # -- measured window ---------------------------------------------------
    def begin_window(self, period_sink: List[float]) -> None:
        """Install the instruments and baseline every counter."""
        self.periods = period_sink
        self._instrument()
        self.lag.lags = []
        self._start = self.counters()

    def end_window(self) -> dict:
        """Read the window's outcome, then drain and check the world.

        Operations and failures are counted over the window and its
        drain, because a command issued in the window can still be
        dead-lettered, or a migration lost, while the world drains.
        """
        end = self.counters()
        window = {key: end[key] - self._start[key] for key in end}
        violations, reports = self._violations()
        lags = sorted(self.lag.lags)
        self.periods = []  # the drain is not part of the window
        checks = self._drain()
        after = self.counters()
        drained = {key: after[key] - self._start[key] for key in after}
        attempted, failed = self._operations(drained, after)
        return {
            "host_ticks": int(window["host_ticks"]),
            "violation_ratio": violations / reports if reports else 0.0,
            "batch_work": window["batch_work"],
            "lags": lags,
            "decisions": digest(self.decisions()),
            "attempted": int(attempted),
            "failed": int(failed),
            "window_counts": window,
            "checks": checks,
        }

    def counters(self) -> Dict[str, float]:
        """Cumulative counters; the window reports their deltas."""
        counters = _controller_counters(self._controllers())
        counters["batch_work"] = self._batch_work()
        counters["host_ticks"] = float(self.host_ticks)
        counters.update(self._extra_counters())
        return counters

    def _extra_counters(self) -> Dict[str, float]:
        return {}

    def _batch_work(self) -> float:
        return sum(app.work_done for app in self.batch_apps)

    def _violations(self):
        """``(violating reports, reports)`` the audit saw in the window."""
        return self.audit.violation_count, len(self.audit.qos_series)


class HostSteady(Workload):
    """vlc-streaming + cpubomb, default controller, after 1,200 periods."""

    name = "host-steady"
    warm_ticks = 1200
    nominal_ticks_per_s = 350.0
    sut_span = "controller.on_tick"

    def build(self) -> None:
        built = Scenario("vlc-streaming", ("cpubomb",), seed=self.seed).build()
        self.host = built.host
        self.sensitive_app = built.sensitive_app
        self.batch_apps = built.batch_apps
        self.controller = StayAway(
            built.sensitive_app, config=StayAwayConfig(seed=self.seed)
        )
        self.audit: Optional[QosTracker] = None
        self.host_ticks = 0

    def step(self) -> None:
        snapshot = self.host.step()
        self.controller.on_tick(snapshot, self.host)
        if self.audit is not None:
            self.audit.on_tick(snapshot, self.host)
        self.host_ticks += 1

    def _instrument(self) -> None:
        self.audit = QosTracker(self.sensitive_app)
        self.lag.watch_host(self.host)
        self.lag.watch_controller(self.controller)
        self.controller.on_tick = _time_into(self, self.controller.on_tick)

    def _drain(self) -> Dict[str, bool]:
        return {}

    def _operations(self, drained, after):
        return drained["periods"], drained["gaps"] + drained["firewall"]

    def _controllers(self):
        return [self.controller]

    def decisions(self):
        return decision_sequence(self.controller)


class FleetChurn(Workload):
    """8 hosts of the four-flavour fleet under crashes and blackouts.

    The fleet's controller period is one cluster tick: the coordinator
    drives every host's cell, scores the hosts and places work. Timing
    it per tick, rather than per cell, keeps the rare, costly MDS
    placements inside a distribution whose 99th percentile is stable
    from seed to seed (per cell, placements sit right at the 1% tail).
    """

    name = "fleet-churn"
    hosts = 8
    warm_ticks = 240
    nominal_ticks_per_s = 170.0
    sut_span = "fleet.coordinator"

    def build(self) -> None:
        mix = FleetMix(
            hosts=self.hosts,
            seed=self.seed,
            host_crash=0.0025,
            recovery_ticks=30,
            max_down_fraction=0.3,
            blackout=0.01,
        )
        config = StayAwayConfig(seed=self.seed, telemetry=False)
        self.cluster, sensitive = build_fleet(mix)
        self.batch_apps = [
            container.app
            for host in self.cluster.hosts.values()
            for container in host.containers.values()
            if not container.sensitive
        ]
        self.audit = FleetQosAudit(sensitive)
        self.cluster.add_middleware(self.audit)
        self.coordinator = FleetCoordinator(sensitive, config=config, migrate=True)
        self.guard = ClusterCrashGuard(
            TelemetryBlackout(
                self.coordinator, seed=mix.seed + 11, probability=mix.blackout
            )
        )
        self.cluster.add_middleware(self.guard)
        self.crashes = HostCrashInjector(
            seed=mix.seed + 23,
            probability=mix.host_crash,
            recovery_ticks=mix.recovery_ticks,
            max_down_fraction=mix.max_down_fraction,
        )
        self.cluster.add_middleware(self.crashes)
        self.host_ticks = 0
        self._audit_start = (0, 0)

    def step(self) -> None:
        self.host_ticks += len(self.cluster.step())

    def _instrument(self) -> None:
        for host in self.cluster.hosts.values():
            self.lag.watch_host(host)
        for cell in self.coordinator.cells.values():
            self.lag.watch_controller(cell.controller)
        self.coordinator.on_cluster_tick = _time_into(
            self, self.coordinator.on_cluster_tick
        )
        self._audit_start = (self.audit.violations, self.audit.reports)

    def _violations(self):
        return (
            self.audit.violations - self._audit_start[0],
            self.audit.reports - self._audit_start[1],
        )

    def _drain(self) -> Dict[str, bool]:
        self.crashes.probability = 0.0
        self.cluster.run(FLEET_DRAIN_TICKS)
        return {
            "coordinator crash-free": self.guard.crashed_at is None,
            "no orphaned migrations": self.counters()["migrations_orphaned"] == 0,
            "supervisor reconciled": self.coordinator.supervisor.all_reconciled(),
        }

    def _operations(self, drained, after):
        attempted = (
            drained["periods"] + drained["cell_fallbacks"]
            + drained["migrations_requested"]
        )
        failed = (
            drained["gaps"] + drained["firewall"] + drained["cell_fallbacks"]
            + drained["migrations_lost"] + after["migrations_orphaned"]
        )
        return attempted, failed

    def _controllers(self):
        return [cell.controller for cell in self.coordinator.cells.values()]

    def _extra_counters(self) -> Dict[str, float]:
        supervisor = self.coordinator.supervisor
        migrations = supervisor.summary() if supervisor is not None else {}
        orphaned = sum(
            1
            for record in self.cluster.migrations
            if record.outcome == MIGRATION_IN_FLIGHT
        )
        return {
            "migrations_requested": float(migrations.get("requested", 0)),
            "migrations_committed": float(migrations.get("committed", 0)),
            "migrations_lost": float(migrations.get("lost", 0)),
            "migrations_orphaned": float(orphaned),
            "cell_fallbacks": float(
                sum(cell.fallback_ticks for cell in self.coordinator.cells.values())
            ),
        }

    def decisions(self):
        return {
            "cells": {
                host: decision_sequence(cell.controller)
                for host, cell in sorted(self.coordinator.cells.items())
            },
            "migrations": [
                [r.container, r.source, r.destination, r.start_tick, r.outcome]
                for r in self.cluster.migrations
            ],
        }


class ServiceStream(Workload):
    """The host-steady co-location behind the controller service."""

    name = "service-stream"
    warm_ticks = 1200
    nominal_ticks_per_s = 240.0
    sut_span = "service.pump"

    def build(self) -> None:
        mix = StreamChaosMix(seed=self.seed, ack_drop=0.05)
        built = Scenario("vlc-streaming", ("cpubomb",), seed=self.seed).build()
        self.host = built.host
        self.sensitive_app = built.sensitive_app
        self.batch_apps = built.batch_apps
        self.queue = QueueSource()
        source = StreamDropper(self.queue, seed=mix.seed + 11, probability=mix.drop)
        source = StreamReorderer(
            source,
            seed=mix.seed + 13,
            probability=mix.reorder,
            max_delay=mix.reorder_max_delay,
        )
        source = StreamDuplicator(source, seed=mix.seed + 17, probability=mix.duplicate)
        acks = ActuatorAckDropper(seed=mix.seed + 19, probability=mix.ack_drop)
        self.service = ControllerService(
            source,
            actuator=SimHostActuator(self.host, ack_filter=acks),
            config=StayAwayConfig(seed=self.seed),
        )
        self.service.start()
        self.bridge = SimStreamBridge(
            self.service, self.queue, sensitive_app=built.sensitive_app
        )
        self.audit: Optional[QosTracker] = None
        self.host_ticks = 0

    def step(self) -> None:
        snapshot = self.host.step()
        self.bridge.on_tick(snapshot, self.host)
        if self.audit is not None:
            self.audit.on_tick(snapshot, self.host)
        self.host_ticks += 1

    def _instrument(self) -> None:
        self.audit = QosTracker(self.sensitive_app)
        self.lag.watch_host(self.host)
        self.lag.watch_controller(self.service.controller)
        pump = self.service.pump

        def timed_pump():
            t0 = time.perf_counter()
            stepped = pump()
            elapsed = time.perf_counter() - t0
            if stepped:
                self.periods.extend([elapsed / stepped] * stepped)
            return stepped

        self.service.pump = timed_pump

    def _drain(self) -> Dict[str, bool]:
        self.queue.close()
        self.service.run(max_cycles=SERVICE_FLUSH_CYCLES)
        return {
            "service drained": self.service.state.value == "stopped",
            "no unreconciled commands": not self.service.tracker.pending(),
        }

    def _operations(self, drained, after):
        attempted = drained["periods"] + drained["commands"]
        failed = (
            drained["gaps"] + drained["firewall"] + drained["dead_letters"]
            + after["unreconciled"]
        )
        return attempted, failed

    def _controllers(self):
        return [self.service.controller]

    def _extra_counters(self) -> Dict[str, float]:
        tracker = self.service.tracker.summary()
        stream = self.service.assembler.summary()
        return {
            "commands": float(tracker["submitted"]),
            "retries": float(tracker["retries"]),
            "dead_letters": float(tracker["dead_lettered"]),
            "unreconciled": float(tracker["pending"]),
            "partial_closes": float(stream["ticks_closed_partial"]),
            "imputed": float(stream["imputed"]),
        }

    def decisions(self):
        return self.service.decision_sequence()


WORKLOADS = {cls.name: cls for cls in (HostSteady, FleetChurn, ServiceStream)}
