"""The block fold equals the whole-trace analysis it replaced.

:class:`repro.observe.reuse.AccessTraceRecorder` folds its trace a block
at a time while the serve runs; ``tests/observe/reference_whole_trace.py``
keeps the recorder that retained every event and analysed the whole
trace at the end.  At forced block sizes of 1, 2 and 7 rows — so every
drawn stream spans many folds — ``analyze`` must produce the same JSON
bytes, and ``reuse_distances`` the same distances, on drawn cache event
streams and on four scripted shapes the fold has to get right: a miss
folded apart from its put, a drop closing a block, a query that dies
between its miss and its put, and a key untouched for many blocks.

``REPRO_REUSE_EXAMPLES`` multiplies every example budget (CI runs the
module at 10); tier-1 keeps the default of 1.
"""

import json
import os
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.observe import reuse
from tests.observe import reference_whole_trace as whole
from tests.observe.test_reuse import oracle_distances
from tests.observe.test_reuse_equivalence import FakeCache, access_strings, cache_events

SCALE = int(os.environ.get("REPRO_REUSE_EXAMPLES", "1"))
BLOCKS = [1, 2, 7]


@contextmanager
def block_size(rows):
    saved = reuse._BLOCK
    reuse._BLOCK = rows
    try:
        yield
    finally:
        reuse._BLOCK = saved


class Replay:
    """The folding recorder and the whole-trace one on the same fake
    caches, fed ``(node, dt, op, key, nbytes, qid)`` events."""

    def __init__(self, nodes=(0, 1), window=0.5, capacity=1 << 12, tenants=None):
        self.now = 0.0
        self.caches = {node: FakeCache(capacity + node) for node in nodes}
        clock = lambda: self.now  # noqa: E731
        self.new = reuse.AccessTraceRecorder(clock, window=window)
        self.old = whole.WholeTraceRecorder(clock, window=window)
        for node, cache in self.caches.items():
            self.new.watch(node, cache)
            self.old.watch(node, cache)
        for qid, tenant in (tenants or {}).items():
            self.new.note_query(qid, tenant)
            self.old.note_query(qid, tenant)

    def feed(self, events):
        for node, dt, *args in events:
            self.now += dt
            for fn in self.caches[node].subscribers:
                fn(*args)

    @property
    def buffered(self):
        return len(self.new._times)

    def check(self, extra=0.0):
        ours = self.new.analyze(self.now + extra)
        assert json.dumps(ours) == json.dumps(self.old.analyze(self.now + extra))
        return ours


@st.composite
def serve_streams(draw):
    """Queries touching shared keys the way a serve does: a hit on a
    resident key, or a miss whose put comes some events later (or never:
    the query died), interleaved with other queries and invalidations."""
    events, resident, pending = [], {}, []
    for _ in range(draw(st.integers(0, 80))):
        node = draw(st.integers(0, 1))
        qid = draw(st.integers(0, 4))
        dt = draw(st.sampled_from([0.0, 0.0, 0.05, 0.3]))
        action = draw(st.sampled_from(["get", "get", "get", "put", "drop", "die"]))
        if action == "put" and pending:
            n, key, q = pending.pop(draw(st.integers(0, len(pending) - 1)))
            size = draw(st.sampled_from([16, 64, 4096]))
            resident[n, key] = size
            events.append((n, dt, "insert", key, size, q))
        elif action == "die" and pending:
            pending.pop(0)
        elif action == "drop" and resident:
            (n, key), size = sorted(resident.items())[draw(st.integers(0, len(resident) - 1))]
            del resident[n, key]
            events.append((n, dt, "drop", key, size, None))
        else:
            key = draw(st.integers(0, 9))
            if (node, key) in resident:
                events.append((node, dt, "hit", key, resident[node, key], qid))
            else:
                pending.append((node, key, qid))
                events.append((node, dt, "miss", key, None, qid))
    return events


@pytest.mark.parametrize("block", BLOCKS)
class TestFoldEqualsWholeTrace:
    @settings(max_examples=100 * SCALE, deadline=None)
    @given(access_strings())
    def test_distances(self, block, trace):
        with block_size(block):
            assert reuse.reuse_distances(trace) == whole.reuse_distances(trace) \
                == oracle_distances(trace)

    @settings(max_examples=100 * SCALE, deadline=None)
    @given(st.lists(cache_events(), max_size=60), st.floats(0, 1.0))
    def test_drawn_event_streams(self, block, events, extra):
        with block_size(block):
            replay = Replay(nodes=(0, 1, 2), tenants={0: "a", 1: "b", 2: "a", 99: "idle"})
            replay.feed(events)
            replay.check(extra)

    @settings(max_examples=40 * SCALE, deadline=None)
    @given(serve_streams(), st.sampled_from([0.25, 0.5, 1.0]))
    def test_serve_shaped_streams(self, block, events, window):
        with block_size(block):
            replay = Replay(window=window, tenants={0: "a", 1: "b", 2: "a", 3: "c"})
            replay.feed(events)
            replay.check()


@pytest.mark.parametrize("block", BLOCKS)
class TestScriptedShapes:
    def test_a_miss_folds_apart_from_its_put(self, block):
        with block_size(block):
            replay = Replay(tenants={1: "a", 2: "b"})
            replay.feed([(0, 0.1, "miss", "k", None, 1)])
            replay.feed([(1, 0.1, "miss", f"o{i}", None, 2) for i in range(3)])
            replay.feed([(1, 0.0, "insert", f"o{i}", 32, 2) for i in range(3)])
            # nothing past the unresolved miss on k has folded
            assert replay.buffered == 7
            replay.feed([(0, 0.2, "insert", "k", 64, 1)])
            replay.feed([(0, 0.1, "hit", "k", 64, 2)] * block)
            # the put resolved it: the next fold took everything
            assert replay.buffered < block
            payload = replay.check()
            assert payload["trace"]["per_node"][0]["footprint_bytes"] == 64

    def test_a_drop_closes_a_block(self, block):
        with block_size(block):
            replay = Replay(tenants={1: "a"})
            head = [(0, 0.1, "miss", "x", None, 1), (0, 0.0, "insert", "x", 8, 1)]
            head += [(0, 0.0, "hit", "x", 8, 1)] * ((-3) % block or block)
            replay.feed(head)
            assert replay.buffered == len(head) % block
            replay.feed([(0, 0.1, "drop", "x", 8, None)])
            # the drop was the block's last row and folded with it
            assert replay.buffered == 0
            replay.feed([(0, 0.1, "miss", "x", None, 1),
                         (0, 0.0, "insert", "x", 8, 1)])
            payload = replay.check()
            assert payload["mrc"]["global"][-1]["hits"] == len(head) - 2

    def test_a_query_dies_between_miss_and_put(self, block):
        with block_size(block):
            replay = Replay(tenants={1: "a", 2: "b"})
            replay.feed([(0, 0.1, "miss", "k", None, 1),
                         (0, 0.0, "insert", "k", 48, 1),
                         (0, 0.1, "drop", "k", 48, None)])
            # query 2 misses k and dies; k's size is never recorded again
            replay.feed([(0, 0.1, "miss", "k", None, 2)])
            replay.feed([(1, 0.1, "hit" if i else "miss", "z", None if i == 0 else 8, 1)
                         for i in range(3 * block)])
            assert replay.buffered >= 3 * block  # held behind the dead miss
            payload = replay.check()
            assert replay.buffered == 0
            # the dead miss takes k's last size, folded long before
            assert payload["trace"]["per_node"][0]["footprint_bytes"] == 48

    def test_a_key_untouched_for_many_blocks(self, block):
        with block_size(block):
            replay = Replay(tenants={1: "a"})
            replay.feed([(0, 0.1, "miss", "cold", None, 1),
                         (0, 0.0, "insert", "cold", 1000, 1)])
            for i in range(6 * block):
                replay.feed([(0, 0.01, "miss", f"w{i}", None, 1),
                             (0, 0.0, "insert", f"w{i}", 10, 1)])
            replay.feed([(0, 0.1, "hit", "cold", 1000, 1)])
            payload = replay.check()
            # the cold key's reuse distance is its own bytes plus every
            # key touched since: a hit from 1000 + 60 * block bytes on
            capacities = {p["capacity_bytes"]: p["hits"] for p in payload["mrc"]["global"]}
            assert capacities[max(capacities)] == 1


@pytest.mark.parametrize("block", BLOCKS)
def test_observed_serve(block):
    """A faulted observed serve folded at a forced block size."""
    from repro.server import ObservabilityConfig, QueryServer
    from repro.workloads import GridSpec, TenantSpec, build_oil_reservoir_dataset, generate_workload

    with block_size(block):
        dataset = build_oil_reservoir_dataset(
            GridSpec(g=(16, 16), p=(4, 4), q=(2, 2)), num_storage=2, functional=True, seed=7,
            replication=2,
        )
        server = QueryServer(dataset, num_compute=2, slots=2, faults="seed=3,storage_crash=1.0",
                             observe=ObservabilityConfig(window=0.5))
        ours = server.observatory.reuse
        old = whole.WholeTraceRecorder(ours._clock, window=ours.window)
        for node, cache in enumerate(server.caches):
            old.watch(node, cache)
        server.subscribe(lambda kind, subject, *_: old.note_query(subject.qid, subject.tenant)
                         if kind == "submit" else None)
        tenants = [
            TenantSpec("a", 6.0, 6, (("scan", 1.0), ("join", 1.0), ("aggregate", 1.0))),
            TenantSpec("b", 5.0, 5, (("join", 1.0), ("scan", 1.0)), process="bursty"),
            TenantSpec("c", 4.0, 2, (("scan", 1.0),), deadline=1e-12),
        ]
        report = server.serve(generate_workload(tenants, seed=42))
        assert json.dumps(report.observability["reuse"]) == json.dumps(old.analyze(report.makespan))
