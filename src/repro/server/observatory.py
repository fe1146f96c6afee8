"""The serve observatory: wiring observability into the query server.

:class:`ServeObservatory` bundles the three observability surfaces —
windowed time-series (:mod:`repro.telemetry.timeseries`), the structured
ops log (:mod:`repro.telemetry.oplog`) and per-tenant SLO tracking
(:mod:`repro.server.slo`) — behind the narrow hook set the server calls
at each lifecycle decision.  The server owns *when* to observe; the
observatory owns *what* gets recorded where, so instrument naming and
event vocabulary live in exactly one place.

The contract that keeps this honest: every hook is **passive**.  No
hook schedules an engine event, draws randomness, or mutates server
state — observability reads the serve, never steers it — so a serve
with the observatory attached is event-for-event identical to one
without, and the serve digest cannot move (the acceptance suite and the
CLI sanitizer both assert exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.observe.reuse import AccessTraceRecorder
from repro.server.resilience import (
    COMPLETED,
    DEADLINE_EXCEEDED,
    FAILED,
    SHED,
)
from repro.server.slo import SLOObjective, SLOTracker
from repro.telemetry.oplog import OpLog
from repro.telemetry.timeseries import TimeSeriesRecorder, window_edges

__all__ = ["ObservabilityConfig", "ServeObservatory"]

#: disposition -> oplog terminal event name
_TERMINAL_EVENT = {
    COMPLETED: "complete",
    DEADLINE_EXCEEDED: "deadline",
    SHED: "shed",
    FAILED: "failed",
}


@dataclass(frozen=True)
class ObservabilityConfig:
    """Knobs for one serve's observability layer.

    ``slo`` maps tenant name → :class:`SLOObjective`; the burn-rate
    alert parameters are shared across tenants (window lengths in
    simulated seconds, threshold as a multiple of budget-neutral burn).
    """

    window: float = 1.0
    slo: Mapping[str, SLOObjective] = field(default_factory=dict)
    short_window: float = 5.0
    long_window: float = 20.0
    burn_threshold: float = 2.0
    min_events: int = 4
    #: record per-entry cache access traces and emit the reuse analysis
    #: (miss-ratio curves, working set, materialization advisor) under
    #: ``observability.reuse``; passive like everything else here
    reuse: bool = True

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"window must be positive, got {self.window}")


class ServeObservatory:
    """Continuous observation of one serve, on the simulated clock."""

    def __init__(
        self,
        config: ObservabilityConfig,
        clock: Callable[[], float],
        slots: int,
        span_source: Optional[Callable[[], Optional[int]]] = None,
    ) -> None:
        self.config = config
        self._clock = clock
        self._slots = slots
        self.series = TimeSeriesRecorder(clock, window=config.window)
        self.oplog = OpLog(clock, span_source=span_source)
        self.slo = SLOTracker(
            dict(config.slo),
            short_window=config.short_window,
            long_window=config.long_window,
            threshold=config.burn_threshold,
            min_events=config.min_events,
        )
        self._cache_nodes: List[int] = []
        #: key-granular access recorder feeding the reuse analysis
        #: (None when config.reuse is off)
        self.reuse: Optional[AccessTraceRecorder] = (
            AccessTraceRecorder(clock, window=config.window)
            if config.reuse
            else None
        )
        # level gauges start at their true t=0 values so the first
        # window's time-weighted means are defined from the origin
        self.series.set("server.queue_depth", 0.0)
        self.series.set("server.inflight", 0.0)
        self.series.set("server.slot_utilization", 0.0)

    # -- passive attachments -------------------------------------------

    def watch_policy(self, policy) -> None:
        """Sample the queue-depth gauge on every admission-queue change."""
        policy.attach_observer(
            lambda depth: self.series.set("server.queue_depth", float(depth))
        )

    def watch_breaker(self, breaker) -> None:
        """Track breaker open/close edges as gauge steps and log events."""
        self.series.set("server.breaker_open", 0.0)
        breaker.attach_observer(lambda is_open: self._on_breaker(is_open))

    def _on_breaker(self, is_open: bool) -> None:
        self.series.set("server.breaker_open", 1.0 if is_open else 0.0)
        self.oplog.emit("breaker_open" if is_open else "breaker_close")

    def watch_cache(self, node: int, cache) -> None:
        """Sample one compute node's shared cache at each state change."""
        self._cache_nodes.append(node)
        if self.reuse is not None:
            self.reuse.watch(node, cache)
        hits, misses, occupancy, staged = (
            f"cache.j{node}.{leaf}"
            for leaf in ("hits", "misses", "occupancy_bytes", "staged_bytes")
        )
        series = self.series
        series.set(occupancy, 0.0)
        series.set(staged, 0.0)

        def observe(op, key, nbytes, origin, qid) -> None:
            if op == "hit":
                series.inc(hits)
            elif op == "miss":
                series.inc(misses)
            else:  # lookups move neither level
                series.set(occupancy, float(cache.used_bytes))
                series.set(staged, float(cache.prefetch_bytes))

        cache.subscribe(observe)

    # -- lifecycle hooks (called by the server) ------------------------

    def on_submit(self, entry) -> None:
        if self.reuse is not None:
            self.reuse.note_query(entry.qid, entry.tenant)
        self.series.inc("server.submitted")
        self.oplog.emit(
            "submit",
            qid=entry.qid,
            tenant=entry.tenant,
            kind=entry.planned.kind,
            predicted=entry.predicted_time,
        )

    def on_queue(self, entry, depth: int) -> None:
        self.oplog.emit("queue", qid=entry.qid, tenant=entry.tenant, depth=depth)

    def on_evict(self, victim, reason: str) -> None:
        self.oplog.emit(
            "evict", qid=victim.qid, tenant=victim.tenant, reason=reason
        )

    def on_admit(self, entry, slots_free: int, depth: int) -> None:
        self.series.inc("server.admitted")
        self._sample_slots(slots_free)
        self.oplog.emit(
            "admit",
            qid=entry.qid,
            tenant=entry.tenant,
            wait=self._clock() - entry.submitted_at,
            depth=depth,
            slots_in_use=self._slots - slots_free,
        )

    def on_slots(self, slots_free: int) -> None:
        self._sample_slots(slots_free)

    def _sample_slots(self, slots_free: int) -> None:
        in_use = self._slots - slots_free
        self.series.set("server.inflight", float(in_use))
        self.series.set("server.slot_utilization", in_use / self._slots)

    def on_deadline(self, entry, where: str) -> None:
        self.oplog.emit(
            "deadline", qid=entry.qid, tenant=entry.tenant, where=where
        )

    def on_fault(self, entry, attempt: int, cause: BaseException) -> None:
        self.series.inc("server.faults")
        self.oplog.emit(
            "fault",
            qid=entry.qid,
            tenant=entry.tenant,
            attempt=attempt,
            cause=type(cause).__name__,
        )

    def on_retry(self, entry, attempt: int, delay: float) -> None:
        self.series.inc("server.retries")
        self.oplog.emit(
            "retry", qid=entry.qid, tenant=entry.tenant, attempt=attempt
        )
        self.oplog.emit(
            "backoff", qid=entry.qid, tenant=entry.tenant, delay=delay
        )

    def on_terminal(self, record, slots_free: int) -> None:
        """Account one terminal disposition: series, SLO budget, oplog."""
        self._sample_slots(slots_free)
        self.series.inc(f"server.disposition.{record.disposition}")
        if record.disposition == COMPLETED and record.retries > 0:
            self.oplog.emit(
                "recovery",
                qid=record.qid,
                tenant=record.tenant,
                retries=record.retries,
            )
        fields: Dict[str, Any] = {}
        if record.disposition == COMPLETED:
            fields["latency"] = record.latency
        elif record.failure is not None:
            fields["reason"] = record.failure
        self.oplog.emit(
            _TERMINAL_EVENT[record.disposition],
            qid=record.qid,
            tenant=record.tenant,
            **fields,
        )
        for kind, alert in self.slo.record(
            self._clock(), record.tenant, record.disposition, record.latency
        ):
            self.oplog.emit(
                kind,
                tenant=alert.tenant,
                short_burn=alert.short_burn,
                long_burn=alert.long_burn,
                threshold=alert.threshold,
            )

    # -- reporting ------------------------------------------------------

    def _derived_hit_rate(
        self, payload: Dict[str, Any], makespan: float
    ) -> List[Dict[str, Any]]:
        """Per-window shared-cache hit rate across every watched node."""
        edges = window_edges(self.config.window, makespan)
        hits = [0.0] * len(edges)
        misses = [0.0] * len(edges)
        for name, track in payload["counters"].items():
            target = None
            if name.startswith("cache.") and name.endswith(".hits"):
                target = hits
            elif name.startswith("cache.") and name.endswith(".misses"):
                target = misses
            if target is None:
                continue
            for i, win in enumerate(track["windows"]):
                target[i] += win["count"]
        out = []
        for (t0, t1), h, m in zip(edges, hits, misses):
            accesses = h + m
            out.append(
                {
                    "t0": t0,
                    "t1": t1,
                    "hits": h,
                    "misses": m,
                    "rate": h / accesses if accesses else None,
                }
            )
        return out

    def finalize(self, makespan: float) -> Dict[str, Any]:
        """Roll every track over ``[0, makespan]`` and assemble the
        ``observability`` section of the server report."""
        timeseries = self.series.to_payload(makespan)
        payload = {
            "timeseries": timeseries,
            "derived": {
                "cache_hit_rate": self._derived_hit_rate(timeseries, makespan)
            },
            "slo": self.slo.summary(),
            "alerts": self.slo.alert_payload(),
            "oplog": {
                "records": len(self.oplog),
                "events": self.oplog.counts(),
            },
        }
        if self.reuse is not None:
            payload["reuse"] = self.reuse.analyze(makespan)
        return payload
