"""The vectorised reuse analysis equals the tuple-walking one it replaced.

``tests/observe/reference_reuse.py`` keeps the Fenwick-tree stack
distances, the O(n^2) LRU-stack oracle and the tuple-per-event recorder;
these properties hold the production kernel and fold to them byte for
byte on drawn access strings, drawn cache event streams and drawn
observed serves.  The strategies, the :class:`Replay` of events into
both recorders and :func:`observed_serve` are shared with
``test_reuse_fold.py``, which runs the same comparisons at forced block
sizes.

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
    miss_ratio_curve,
    reuse_distances,
    working_set_windows,
)
from repro.server import ObservabilityConfig, QueryServer
from repro.workloads import TenantSpec, generate_workload
from tests.observe import reference_reuse as frozen
from tests.server.test_chaos import make_dataset

SCALE = int(os.environ.get("REPRO_REUSE_EXAMPLES", "1"))

#: zero-byte entries, sizes that change between accesses, and one size
#: past 2**32 so nothing narrower than int64 would survive
SIZES = st.sampled_from([0, 0, 1, 7, 64, 4096, 2**40])
KEYS = st.one_of(st.integers(0, 7), st.sampled_from(["a", ("t", 1)]))


def access_strings(max_size=160):
    op = st.tuples(st.sampled_from(["access", "access", "access", "drop"]), KEYS, SIZES)
    return st.lists(op.map(lambda t: (t[0], t[1], 0 if t[0] == "drop" else t[2])),
                    max_size=max_size)


def assert_same_distances(trace):
    assert reuse_distances(trace) == frozen.reuse_distances(trace) \
        == frozen.oracle_distances(trace)


class TestKernel:
    @settings(max_examples=300 * SCALE, deadline=None)
    @given(access_strings())
    def test_equals_the_fenwick_walk_and_the_oracle(self, trace):
        assert_same_distances(trace)

    @pytest.mark.parametrize("trace", [
        [],
        [("access", "a", 5)],
        [("access", "a", 0)],
        [("drop", "a", 0)],
        [("drop", "a", 0), ("access", "a", 3), ("drop", "a", 0), ("access", "a", 3)],
        [("access", "a", 4), ("access", "a", 9), ("access", "a", 2)],
    ])
    def test_edge_strings(self, trace):
        assert_same_distances(trace)

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
    """``(node, dt, op, key, nbytes, qid)`` as a cache emits them: a
    miss has no size, nor do pins and invalidations, and
    nothing guarantees a miss is ever followed by its insert."""
    node = draw(st.integers(0, 2))
    op = draw(st.sampled_from(OPS))
    key = None if op == "invalidate_from" else draw(KEYS)
    sized = op in ("hit", "insert", "drop", "reject", "prefetch_begin")
    nbytes = draw(SIZES) if sized else None
    qid = draw(st.one_of(st.none(), st.integers(0, 5)))
    return node, draw(st.sampled_from([0.0, 0.0, 0.1, 0.37, 1.0])), op, key, nbytes, qid


def assert_same_json(ours, theirs):
    """``json.dumps`` of both byte-equal, a mismatch named by its first
    differing byte: pytest's diff of two long payloads takes minutes per
    failing example once Hypothesis shrinks one."""
    a, b = json.dumps(ours), json.dumps(theirs)
    if a != b:
        at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"payloads differ at byte {at}: {a[at:at + 80]!r} != {b[at:at + 80]!r}")


def assert_same_payload(new, old, makespan):
    ours = new.analyze(makespan)
    assert_same_json(ours, old.analyze(makespan))
    return ours


class Replay:
    """The recorder and the frozen one on the same fake caches, fed
    ``(node, dt, op, key, nbytes, qid)`` events on one clock."""

    def __init__(self, nodes=(0, 1), window=0.5, capacity=1 << 12, tenants=None):
        self.now = 0.0
        self.caches = {node: FakeCache(capacity + node) for node in nodes}
        clock = lambda: self.now  # noqa: E731
        self.new = AccessTraceRecorder(clock, window=window)
        self.old = frozen.FrozenAccessTraceRecorder(clock, window=window)
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
        """Rows the recorder holds unfolded."""
        return len(self.new._times)

    def check(self, extra=0.0):
        return assert_same_payload(self.new, self.old, self.now + extra)


class TestFold:
    @settings(max_examples=200 * SCALE, deadline=None)
    @given(
        st.lists(cache_events(), max_size=120),
        st.permutations([0, 1, 2]),
        st.dictionaries(st.integers(0, 5), st.sampled_from(["a", "b", "c"]), max_size=6),
        st.sampled_from([0.25, 0.7, 1.0]),
        st.floats(0, 2.0),
        st.integers(1, 2**33),
    )
    def test_drawn_event_streams(self, events, order, tenants, window, extra, capacity):
        # a tenant that submitted but never reached a cache
        replay = Replay(order, window, capacity, {**tenants, 99: "idle"})
        replay.feed(events)
        payload = replay.check(extra)
        assert set(payload["mrc"]["per_tenant"]) >= {"idle"}

    def test_nothing_recorded(self):
        Replay(nodes=(), window=1.0, capacity=1).check()
        Replay(nodes=(0, 1), window=1.0, capacity=64, tenants={0: "a"}).check(3.0)


def observed_serve(seed, faults, slots, idle):
    """One observed serve with the frozen recorder on the same caches."""
    server = QueryServer(
        make_dataset(replication=2), num_compute=2, slots=slots, faults=faults,
        observe=ObservabilityConfig(window=0.5),
    )
    ours = server.observatory.reuse
    old = frozen.FrozenAccessTraceRecorder(ours._clock, window=ours.window)
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
        assert_same_json(report.observability["reuse"], payload)

    def test_the_pinned_example_invalidates_mid_serve(self):
        """The ``@example`` above is the serve whose storage crash drops
        cached entries part-way through, after some had been hit."""
        report, _, _, seen = observed_serve(42, "seed=3,storage_crash=1.0", 2, True)
        reuse = report.observability["reuse"]
        assert seen["drop"] > 0 and reuse["trace"]["drops"] == seen["drop"]
        assert reuse["trace"]["hits"] > 0
        assert set(reuse["mrc"]["per_tenant"]) == {"a", "b", "c"}
