"""The vectorised reuse analysis equals the tuple-walking one it replaced.

``tests/observe/reference_reuse.py`` keeps the Fenwick-tree stack
distances and the tuple-per-event recorder; these properties hold the
production kernel and fold to them byte for byte — the kernel also to
the O(n^2) LRU-stack oracle — on drawn access strings, drawn cache event
streams and drawn observed serves.

``REPRO_REUSE_EXAMPLES`` multiplies every example budget (CI runs the
module at 10); tier-1 keeps the default of 1.
"""

import json
import os
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.observe.reuse import (
    AccessTraceRecorder,
    EntryCostModel,
    miss_ratio_curve,
    reuse_distances,
    working_set_windows,
)
from repro.server import ObservabilityConfig, QueryServer
from repro.workloads import GridSpec, TenantSpec, build_oil_reservoir_dataset, generate_workload
from tests.observe import reference_reuse as frozen
from tests.observe.test_reuse import oracle_distances

SCALE = int(os.environ.get("REPRO_REUSE_EXAMPLES", "1"))

#: zero-byte entries, sizes that change between accesses, and one size
#: past 2**32 so nothing narrower than int64 would survive
SIZES = st.sampled_from([0, 0, 1, 7, 64, 4096, 2**40])
KEYS = st.one_of(st.integers(0, 7), st.sampled_from(["a", ("t", 1)]))


def access_strings(max_size=160):
    op = st.tuples(st.sampled_from(["access", "access", "access", "drop"]), KEYS, SIZES)
    return st.lists(op.map(lambda t: (t[0], t[1], 0 if t[0] == "drop" else t[2])),
                    max_size=max_size)


class TestKernel:
    @settings(max_examples=300 * SCALE, deadline=None)
    @given(access_strings())
    def test_equals_the_fenwick_walk_and_the_oracle(self, trace):
        assert reuse_distances(trace) == frozen.reuse_distances(trace) == oracle_distances(trace)

    @pytest.mark.parametrize("trace", [
        [],
        [("access", "a", 5)],
        [("access", "a", 0)],
        [("drop", "a", 0)],
        [("drop", "a", 0), ("access", "a", 3), ("drop", "a", 0), ("access", "a", 3)],
        [("access", "a", 4), ("access", "a", 9), ("access", "a", 2)],
    ])
    def test_edge_strings(self, trace):
        assert reuse_distances(trace) == frozen.reuse_distances(trace) == oracle_distances(trace)

    @settings(max_examples=100 * SCALE, deadline=None)
    @given(
        st.lists(st.one_of(st.none(), st.integers(0, 2**41)), max_size=60),
        st.lists(st.integers(0, 2**41), min_size=1, max_size=8),
    )
    def test_curve_equals_the_sorted_list_walk(self, distances, capacities):
        assert miss_ratio_curve(distances, capacities) == frozen.miss_ratio_curve(
            distances, capacities
        )

    @settings(max_examples=100 * SCALE, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0, 4.0), st.sampled_from(["hit", "miss"]), KEYS, SIZES),
            max_size=60,
        ),
        st.sampled_from([0.25, 0.7, 1.0]),
        st.floats(0, 1.0),
    )
    def test_windows_equal_the_dict_walk(self, events, width, extra):
        events = sorted(events, key=lambda e: e[0])
        t_end = (events[-1][0] if events else 0.0) + extra
        assert working_set_windows(events, width, t_end) == frozen.working_set_windows(
            events, width, t_end
        )


# ---------------------------------------------------------------------------
# the fold: analyze() against the frozen recorder on the same events
# ---------------------------------------------------------------------------


class FakeCache:
    """Just the surface the recorders read: a capacity, a policy name
    and the subscribe channel."""

    def __init__(self, capacity):
        self.capacity_bytes = capacity
        self.policy = SimpleNamespace(name="lru")
        self.subscribers = []

    def subscribe(self, fn):
        self.subscribers.append(fn)


OPS = ["hit", "miss", "miss", "insert", "drop", "reject", "pin", "unpin", "prefetch_begin",
       "invalidate_from"]


@st.composite
def cache_events(draw):
    """``(node, dt, op, key, nbytes, origin, qid)`` as a cache emits them:
    a miss has no size or origin, pins and invalidations no size, and
    nothing guarantees a miss is ever followed by its insert."""
    node = draw(st.integers(0, 2))
    op = draw(st.sampled_from(OPS))
    key = None if op == "invalidate_from" else draw(KEYS)
    sized = op in ("hit", "insert", "drop", "reject", "prefetch_begin")
    nbytes = draw(SIZES) if sized else None
    origin = draw(st.sampled_from(["base", "derived"])) if op in ("hit", "insert", "drop",
                                                                   "reject") else None
    qid = draw(st.one_of(st.none(), st.integers(0, 5)))
    return node, draw(st.sampled_from([0.0, 0.0, 0.1, 0.37, 1.0])), op, key, nbytes, origin, qid


COST = EntryCostModel(link_bw=1e8, read_io_bw=5e7, write_io_bw=4e7, build_cost=1e-7,
                      record_size=16.0, cpu_build=1.3)


def both_recorders(clock, window, nodes, capacity):
    caches = {node: FakeCache(capacity + node) for node in nodes}
    new = AccessTraceRecorder(clock, window=window)
    old = frozen.FrozenAccessTraceRecorder(clock, window=window)
    for node, cache in caches.items():
        new.watch(node, cache)
        old.watch(node, cache)
    return caches, new, old


def assert_same_payload(new, old, makespan):
    ours, theirs = new.analyze(makespan), old.analyze(makespan)
    assert json.dumps(ours) == json.dumps(theirs)
    assert json.dumps(ours, sort_keys=True) == json.dumps(theirs, sort_keys=True)
    return ours


class TestFold:
    @settings(max_examples=200 * SCALE, deadline=None)
    @given(
        st.lists(cache_events(), max_size=120),
        st.permutations([0, 1, 2]),
        st.dictionaries(st.integers(0, 5), st.sampled_from(["a", "b", "c"]), max_size=6),
        st.sampled_from([0.25, 0.7, 1.0]),
        st.floats(0, 2.0),
        st.booleans(),
        st.integers(1, 2**33),
    )
    def test_drawn_event_streams(self, events, order, tenants, window, extra, priced, capacity):
        now = [0.0]
        caches, new, old = both_recorders(lambda: now[0], window, order, capacity)
        if priced:
            new.cost_model = old.cost_model = COST
        # a tenant that submitted but never reached a cache
        for qid, tenant in list(tenants.items()) + [(99, "idle")]:
            new.note_query(qid, tenant)
            old.note_query(qid, tenant)
        for node, dt, *args in events:
            now[0] += dt
            for fn in caches[node].subscribers:
                fn(*args)
        payload = assert_same_payload(new, old, now[0] + extra)
        assert set(payload["mrc"]["per_tenant"]) >= {"idle"}

    def test_nothing_recorded(self):
        _, new, old = both_recorders(lambda: 0.0, 1.0, [], 1)
        assert_same_payload(new, old, 0.0)
        _, new, old = both_recorders(lambda: 0.0, 1.0, [0, 1], 64)
        new.note_query(0, "a")
        old.note_query(0, "a")
        assert_same_payload(new, old, 3.0)


SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))


def observed_serve(seed, faults, slots, idle):
    """One observed serve with the frozen recorder on the same caches."""
    dataset = build_oil_reservoir_dataset(
        SPEC, num_storage=2, functional=True, seed=7, replication=2
    )
    server = QueryServer(
        dataset, num_compute=2, slots=slots, faults=faults,
        observe=ObservabilityConfig(window=0.5),
    )
    ours = server.observatory.reuse
    old = frozen.FrozenAccessTraceRecorder(ours._clock, window=ours.window)
    old.cost_model = ours.cost_model
    for node, cache in enumerate(server.caches):
        old.watch(node, cache)
    server.subscribe(
        lambda kind, subject, *_: old.note_query(subject.qid, subject.tenant)
        if kind == "submit" else None
    )
    tenants = [
        TenantSpec("a", 6.0, 6, (("scan", 1.0), ("join", 1.0), ("aggregate", 1.0))),
        TenantSpec("b", 5.0, 5, (("join", 1.0), ("scan", 1.0)), process="bursty"),
    ]
    if idle:
        # an instant deadline: this tenant's queries end before any access
        tenants.append(TenantSpec("c", 4.0, 2, (("scan", 1.0),), deadline=1e-12))
    seen = {}
    for cache in server.caches:
        cache.subscribe(lambda op, *_: seen.__setitem__(op, seen.get(op, 0) + 1))
    report = server.serve(generate_workload(tenants, seed=seed))
    return report, ours, old, seen


class TestObservedServes:
    @settings(max_examples=25 * SCALE, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(0, 50),
        st.sampled_from([None, "seed=3,storage_crash=1.0", "seed=9,transient=0.5,max_attempts=2"]),
        st.integers(1, 3),
        st.booleans(),
    )
    @example(seed=42, faults="seed=3,storage_crash=1.0", slots=2, idle=True)
    def test_analyze_equals_the_frozen_recorder(self, seed, faults, slots, idle):
        report, ours, old, _ = observed_serve(seed, faults, slots, idle)
        payload = assert_same_payload(ours, old, report.makespan)
        assert json.dumps(report.observability["reuse"]) == json.dumps(payload)

    def test_the_pinned_example_invalidates_mid_serve(self):
        """The ``@example`` above is the serve whose storage crash drops
        cached entries part-way through, after some had been hit."""
        report, _, _, seen = observed_serve(42, "seed=3,storage_crash=1.0", 2, True)
        reuse = report.observability["reuse"]
        assert seen["drop"] > 0 and reuse["trace"]["drops"] == seen["drop"]
        assert reuse["trace"]["hits"] > 0
        assert set(reuse["mrc"]["per_tenant"]) == {"a", "b", "c"}
