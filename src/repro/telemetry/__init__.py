"""Causal span telemetry and metrics for the simulated join stack.

:class:`Telemetry` bundles the per-run observability state: a
:class:`~repro.telemetry.spans.SpanRecorder` (the causal span DAG), a
:class:`~repro.telemetry.metrics.MetricsRegistry` (counters, gauges,
histograms), and the resource→node mapping the exporters use to group
tracks.  A :class:`~repro.cluster.cluster.ClusterSim` built with
``telemetry=True`` owns one instance, ``cluster.telemetry``: instrumented
code opens spans on it, and it subscribes to the engine's event channel
for what the cluster layer does on its own (reservations, transfers,
faults).  When the flag is off the attribute is ``None`` and every
instrumentation site short-circuits — per-pair sites without building
their span arguments at all (see :func:`~repro.telemetry.spans.maybe_span`).

Everything recorded is a pure function of the simulation: spans stamp
``engine.now``, metrics are fed simulated timestamps, and no telemetry
code schedules events — a traced run is byte-identical in query output
to an untraced one.
"""

from __future__ import annotations

from typing import Dict

from repro.telemetry.latency import LatencyTracker, percentile
from repro.telemetry.metrics import DEFAULT_BYTE_BUCKETS, MetricsRegistry
from repro.telemetry.oplog import OpLog, validate_oplog
from repro.telemetry.spans import (
    NULL_SPAN,
    Span,
    SpanRecorder,
    maybe_span,
)
from repro.telemetry.timeseries import TimeSeriesRecorder, roll_gauge

__all__ = [
    "Telemetry",
    "Span",
    "SpanRecorder",
    "LatencyTracker",
    "MetricsRegistry",
    "TimeSeriesRecorder",
    "OpLog",
    "maybe_span",
    "percentile",
    "roll_gauge",
    "validate_oplog",
    "NULL_SPAN",
]


class Telemetry:
    """Per-run telemetry hub: span recorder + metrics + node mapping."""

    def __init__(self, engine=None, label: str = "") -> None:
        self.engine = engine
        self.label = label
        self.recorder = SpanRecorder(engine)
        self.metrics = MetricsRegistry()
        #: resource name (``s0.disk``, ``nic7``, ``backplane``) → logical
        #: node (``storage0``, ``compute2``, ``network``); populated by
        #: the cluster at construction, consumed by the exporters.
        self.resource_nodes: Dict[str, str] = {}

    def now(self) -> float:
        return self.recorder.now()

    def node_of(self, resource: str) -> str:
        return self.resource_nodes.get(resource, "global")

    # -- the fold over the engine's event channel ------------------------

    def watch_engine(self, engine, faults: bool) -> None:
        """Subscribe to ``engine``'s cluster-layer events, registering the
        ``net.*`` instruments — and, on a cluster with a fault plan
        installed, the ``faults.*`` counters — so they export at zero."""
        self.metrics.counter("net.transfers")
        self.metrics.histogram("net.transfer_bytes", bounds=DEFAULT_BYTE_BUCKETS)
        if faults:
            for counter in _FAULT_COUNTERS.values():
                self.metrics.counter(counter)
        engine.subscribe(self)

    def __call__(self, kind: str, *fields) -> None:
        metrics = self.metrics
        if kind == "reserve":
            # ``start - now`` is the FIFO queue delay: time spent behind
            # earlier reservations, so convoys show as sustained non-zero
            resource, now, start, end, nbytes = fields
            self.recorder.record_interval(resource, start, end)
            metrics.gauge(f"queue.{resource}").set(now, start - now)
            metrics.histogram(
                "resource.request_bytes", bounds=DEFAULT_BYTE_BUCKETS
            ).observe(nbytes)
        elif kind == "transfer":
            metrics.counter("net.transfers").inc()
            metrics.histogram(
                "net.transfer_bytes", bounds=DEFAULT_BYTE_BUCKETS
            ).observe(fields[2])
        elif kind == "fault":
            name, node, factor = fields
            metrics.counter(_FAULT_COUNTERS[name]).inc()
            attrs = {"fault_node": node}
            if factor is not None:
                attrs["factor"] = factor
            # zero-length marker span: visible as an instant in the trace
            span = self.recorder.begin(
                name, category="fault", node="global", track="faults",
                parent=None, detached=True, **attrs,
            )
            self.recorder.finish(span)

    def watch_cache(self, cache, prefix: str = "cache") -> None:
        """Feed ``<prefix>.hits``/``.misses`` counters and the
        ``<prefix>.occupancy_bytes`` gauge from ``cache``'s events.

        Occupancy is sampled now and after every mutating operation.
        Watching the same cache again under the same prefix — a warm
        cache handed to a later run, a per-query view of a cache its
        owner already wired — is a no-op: the cache drops a subscriber
        equal to one it already has.
        """
        feed = _CacheFeed(self, cache, prefix)
        feed.sample()
        cache.subscribe(feed)

    def span_until(self, event, span: Span) -> None:
        """Close ``span`` when ``event`` fires (at the firing time).

        Used for fire-and-forget work whose completion is observed only
        through an event callback (e.g. Grace Hash scratch writes posted
        by a storage streamer that does not wait for them).
        """

        def _close(_ev) -> None:
            if span.end is None:
                self.recorder.finish(span)

        event.callbacks.append(_close)


#: ``fault`` event name → the counter it bumps
_FAULT_COUNTERS = {
    "storage-crash": "faults.storage_crashes",
    "compute-crash": "faults.compute_crashes",
    "disk-degradation": "faults.degradations",
    "nic-degradation": "faults.degradations",
    "transient-fault": "faults.transient_failures",
}


class _CacheFeed:
    """Cache subscriber behind :meth:`Telemetry.watch_cache`; equal to
    any other feed of the same hub and prefix."""

    def __init__(self, hub: Telemetry, cache, prefix: str) -> None:
        self._hub = hub
        self._prefix = prefix
        self._cache = cache
        self._hits = hub.metrics.counter(f"{prefix}.hits")
        self._misses = hub.metrics.counter(f"{prefix}.misses")
        self._occupancy = hub.metrics.gauge(f"{prefix}.occupancy_bytes")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _CacheFeed)
            and other._hub is self._hub
            and other._prefix == self._prefix
        )

    def __hash__(self) -> int:
        return hash(self._prefix)

    def sample(self) -> None:
        self._occupancy.set(self._hub.now(), float(self._cache.used_bytes))

    def __call__(self, op, key, nbytes, qid) -> None:
        if op == "hit":
            self._hits.inc()
        elif op == "miss":
            self._misses.inc()
        else:
            self.sample()

