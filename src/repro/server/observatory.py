"""The serve observatory: the observability layer as one lifecycle fold.

:class:`ServeObservatory` bundles the three observability surfaces —
windowed time-series (:mod:`repro.telemetry.timeseries`), the structured
ops log (:mod:`repro.telemetry.oplog`) and per-tenant SLO tracking
(:mod:`repro.server.slo`) — behind one subscriber on the server's
lifecycle channel (``QueryServer.subscribe``) and one on each shared
cache.  The server owns *when* to observe; the observatory owns *what*
gets recorded where, so instrument naming and event vocabulary live in
exactly one place.

The contract that keeps this honest: the fold is **passive**.  It
schedules no engine event, draws no randomness and mutates no server
state — observability reads the serve, never steers it — so a serve
with the observatory attached is event-for-event identical to one
without, and the serve digest cannot move (the acceptance suite and the
CLI sanitizer both assert exactly this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

from repro.observe.reuse import AccessTraceRecorder
from repro.server.resilience import (
    COMPLETED,
    DEADLINE_EXCEEDED,
    FAILED,
    SHED,
)
from repro.server.slo import SLOObjective, SLOTracker
from repro.telemetry.oplog import OpLog
from repro.telemetry.timeseries import TimeSeriesRecorder, counter_windows, window_edges

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
    #: run the reuse analysis (miss-ratio curves, working set) and emit
    #: it under ``observability.reuse``; off, the access trace still folds
    #: the cache hit/miss tracks
    reuse: bool = True

    def __post_init__(self) -> None:
        if not (math.isfinite(self.window) and self.window > 0):
            raise ValueError(
                f"observability window must be positive and finite, got {self.window}"
            )


class ServeObservatory:
    """Continuous observation of one serve, on the simulated clock.

    Attaches itself: one subscriber on ``server``'s lifecycle channel
    (:meth:`__call__`) and one on each of its shared caches.
    """

    def __init__(self, config: ObservabilityConfig, server) -> None:
        self.config = config
        cluster = server.cluster
        clock = self._clock = lambda: cluster.engine.now
        self._slots = server.slots
        self.series = TimeSeriesRecorder(clock, window=config.window)
        self.oplog = OpLog(clock)
        self.slo = SLOTracker(
            dict(config.slo),
            short_window=config.short_window,
            long_window=config.long_window,
            threshold=config.burn_threshold,
            min_events=config.min_events,
        )
        #: key-granular access recorder: the cache hit/miss tracks and,
        #: when config.reuse is on, the reuse analysis
        self.reuse = AccessTraceRecorder(clock, window=config.window, reuse=config.reuse)
        # level gauges start at their true t=0 values so the first
        # window's time-weighted means are defined from the origin
        self.series.set("server.queue_depth", 0.0)
        self.series.set("server.inflight", 0.0)
        self.series.set("server.slot_utilization", 0.0)
        for node, cache in enumerate(server.caches):
            self._watch_cache(node, cache)
        server.subscribe(self)

    def _watch_cache(self, node: int, cache) -> None:
        """Trace one compute node's shared cache, and sample its levels
        at each state change (every notification but a lookup)."""
        self.reuse.watch(node, cache)
        occupancy, staged = f"cache.j{node}.occupancy_bytes", f"cache.j{node}.staged_bytes"
        series = self.series
        series.set(occupancy, 0.0)
        series.set(staged, 0.0)

        def observe(op, key, nbytes, qid) -> None:
            if op != "hit" and op != "miss":
                series.set(occupancy, float(cache.used_bytes))
                series.set(staged, float(cache.prefetch_bytes))

        cache.subscribe(observe)

    # -- the lifecycle fold (QueryServer.subscribe) --------------------

    def __call__(self, kind, subject, slots_free, depth, fields) -> None:
        """Fold one lifecycle event into series, ops log and SLO state.

        Both levels are sampled on every event: each change of either is
        followed by an event at the same simulated instant, and a gauge
        replaces same-instant and drops same-value samples, so no change
        is missed and none is recorded twice.
        """
        series, emit = self.series, self.oplog.emit
        in_use = self._slots - slots_free
        series.set("server.queue_depth", float(depth))
        series.set("server.inflight", float(in_use))
        series.set("server.slot_utilization", in_use / self._slots)
        if kind == "terminal":
            self._terminal(subject)
            return
        who = {"qid": subject.qid, "tenant": subject.tenant}
        if kind == "retry":
            series.inc("server.retries")
            emit("retry", attempt=fields["attempt"], **who)
            emit("backoff", delay=fields["delay"], **who)
            return
        if kind == "submit":
            series.inc("server.submitted")
            self.reuse.note_query(subject.qid, subject.tenant)
        elif kind == "queue":
            fields = {"depth": depth}
        elif kind == "admit":
            series.inc("server.admitted")
            fields = dict(fields, depth=depth, slots_in_use=in_use)
        elif kind == "fault":
            series.inc("server.faults")
        emit(kind, **who, **fields)

    def _terminal(self, record) -> None:
        """Account one terminal disposition: series, SLO budget, oplog."""
        emit = self.oplog.emit
        who = {"qid": record.qid, "tenant": record.tenant}
        self.series.inc(f"server.disposition.{record.disposition}")
        fields: Dict[str, Any] = {}
        if record.disposition == COMPLETED:
            if record.retries > 0:
                emit("recovery", retries=record.retries, **who)
            fields["latency"] = record.latency
        elif record.failure is not None:
            fields["reason"] = record.failure
        emit(_TERMINAL_EVENT[record.disposition], **who, **fields)
        for kind, alert in self.slo.record(
            self._clock(), record.tenant, record.disposition, record.latency
        ):
            emit(
                kind,
                tenant=alert.tenant,
                short_burn=alert.short_burn,
                long_burn=alert.long_burn,
                threshold=alert.threshold,
            )

    # -- reporting ------------------------------------------------------

    def _lookup_tracks(self, timeseries: Dict[str, Any], makespan: float) -> List[Dict[str, Any]]:
        """Write each node's ``cache.j{n}.hits``/``.misses`` track (if not
        all zero) into ``timeseries`` from the access trace's per-window
        counts; returns the per-window hit rate across the nodes."""
        edges = window_edges(self.config.window, makespan)
        per_node = self.reuse.window_totals(makespan)
        counters = timeseries["counters"]
        for node, cells in per_node.items():
            for leaf, counts in zip(("hits", "misses"), zip(*cells)):
                if any(counts):
                    counters[f"cache.j{node}.{leaf}"] = {
                        "total": float(sum(counts)),
                        "windows": counter_windows(edges, counts),
                    }
        timeseries["counters"] = dict(sorted(counters.items()))
        rates = []
        for i, (t0, t1) in enumerate(edges):
            hits, misses = (sum(cells[i][k] for cells in per_node.values()) for k in (0, 1))
            rates.append({"t0": t0, "t1": t1, "hits": float(hits), "misses": float(misses),
                          "rate": hits / (hits + misses) if hits + misses else None})
        return rates

    def finalize(self, makespan: float) -> Dict[str, Any]:
        """Roll every track over ``[0, makespan]`` and assemble the
        ``observability`` section of the server report."""
        # the reuse analysis folds the trace's last rows first
        reuse = self.reuse.analyze(makespan) if self.config.reuse else None
        timeseries = self.series.to_payload(makespan)
        payload = {
            "timeseries": timeseries,
            "derived": {"cache_hit_rate": self._lookup_tracks(timeseries, makespan)},
            "slo": self.slo.summary(),
            "alerts": self.slo.alert_payload(),
            "oplog": {
                "records": len(self.oplog),
                "events": self.oplog.counts(),
            },
        }
        if reuse is not None:
            payload["reuse"] = reuse
        return payload
