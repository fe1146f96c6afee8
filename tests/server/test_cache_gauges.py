"""The observatory's cache tracks equal the per-operation hooks they
replaced.

The cache notifies lookups and state changes only: a pin, an unpin or a
completed prefetch moves neither ``used_bytes`` nor ``prefetch_bytes``
and notifies nobody.  ``ServeObservatory._watch_cache`` samples the
``occupancy_bytes`` and ``staged_bytes`` gauges on every notification
but a lookup, and the ``cache.j{n}.hits``/``.misses`` tracks and
``derived.cache_hit_rate`` are written at ``finalize`` from the access
trace's per-window counts.  Each test runs the observatory beside an
oracle on the same caches and the same clock — ``always_set`` for the
gauges, ``count_each`` and ``scan_hit_rate`` for the lookup tracks, the
hooks as they were when every lookup was counted as it arrived — and
requires equal samples or byte-equal tracks.
"""

import functools
import json
from types import SimpleNamespace

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.cluster import paper_cluster
from repro.joins import IndexedJoinQES
from repro.observe.reuse import AccessTraceRecorder
from repro.server import ObservabilityConfig, QueryServer, ServeObservatory
from repro.services.cache import CachingService, LRUPolicy
from repro.telemetry.timeseries import TimeSeriesRecorder, window_edges
from repro.workloads import GridSpec, TenantSpec, build_oil_reservoir_dataset, generate_workload

LEVELS = ("occupancy_bytes", "staged_bytes")
#: every notification a cache still makes
VOCABULARY = {
    "hit", "miss", "insert", "reject", "drop", "invalidate_from",
    "prefetch_begin", "prefetch_cancel", "take_prefetched",
}
SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))
CRASH = "seed=3,storage_crash=1.0"


def always_set(series, node, cache):
    """The gauge hook sampling both levels on every notification but a
    lookup."""
    occupancy, staged = (f"cache.j{node}.{leaf}" for leaf in LEVELS)
    series.set(occupancy, 0.0)
    series.set(staged, 0.0)

    def observe(op, key, nbytes, qid):
        if op not in ("hit", "miss"):
            series.set(occupancy, float(cache.used_bytes))
            series.set(staged, float(cache.prefetch_bytes))

    cache.subscribe(observe)


def count_each(series, node, cache):
    """The lookup hook before the tracks were folded: one counter
    increment per hit and per miss, as it arrives."""
    hits, misses = f"cache.j{node}.hits", f"cache.j{node}.misses"

    def observe(op, key, nbytes, qid):
        if op == "hit":
            series.inc(hits)
        elif op == "miss":
            series.inc(misses)

    cache.subscribe(observe)


def scan_hit_rate(payload, width, makespan):
    """The derived hit rate as it was: a scan over the counter names."""
    edges = window_edges(width, makespan)
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
            {"t0": t0, "t1": t1, "hits": h, "misses": m,
             "rate": h / accesses if accesses else None}
        )
    return out


def samples(series, nodes):
    return {
        (node, leaf): list(series.gauge(f"cache.j{node}.{leaf}").samples)
        for node in nodes
        for leaf in LEVELS
    }


def count_ops(caches):
    seen = {}

    def tally(op, *_):
        seen[op] = seen.get(op, 0) + 1

    for cache in caches:
        cache.subscribe(tally)
    return seen


def watch_both(caches, clock):
    """The observatory's hook and the old one, each on its own recorder."""
    current = SimpleNamespace(
        series=TimeSeriesRecorder(clock), reuse=AccessTraceRecorder(clock, reuse=False)
    )
    before = TimeSeriesRecorder(clock)
    for node, cache in enumerate(caches):
        ServeObservatory._watch_cache(current, node, cache)
        always_set(before, node, cache)
    return current.series, before


def serve(nodes, faults, observe, subscribe=lambda server: None):
    dataset = build_oil_reservoir_dataset(
        SPEC, num_storage=2, functional=True, seed=7, replication=2
    )
    server = QueryServer(dataset, num_compute=nodes, slots=2, faults=faults, observe=observe)
    subscribe(server)
    tenants = [
        TenantSpec("a", 6.0, 8, (("scan", 1.0), ("join", 1.0), ("aggregate", 1.0))),
        TenantSpec("b", 5.0, 6, (("join", 1.0),), process="bursty"),
    ]
    return server, server.serve(generate_workload(tenants, seed=42))


def test_observed_serve_gauges_equal_the_always_set_hook():
    befores = []

    def subscribe(server):
        before = TimeSeriesRecorder(lambda: server.cluster.engine.now)
        for node, cache in enumerate(server.caches):
            always_set(before, node, cache)
        befores.append((before, count_ops(server.caches)))

    server, report = serve(2, CRASH, ObservabilityConfig(window=0.5), subscribe)
    (before, seen), = befores
    # every hit pinned its entry, and no pin or unpin notified anyone
    assert set(seen) <= VOCABULARY
    assert seen.get("hit", 0) == report.cache_hits > 0
    assert seen.get("insert", 0) > 0 and seen.get("drop", 0) > 0
    nodes = range(len(server.caches))
    assert samples(server.observatory.series, nodes) == samples(before, nodes)


def test_pipelined_join_gauges_equal_the_always_set_hook():
    """A pipelined Indexed Join stages prefetches: every ``prefetch_begin``
    and ``take_prefetched`` moves ``staged_bytes``; a completion does not."""
    dataset = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=True, seed=7)
    cluster = paper_cluster(2, 2)
    caches = [CachingService(cluster.joiner(j).memory_bytes, LRUPolicy()) for j in range(2)]
    current, before = watch_both(caches, lambda: cluster.engine.now)
    seen = count_ops(caches)
    IndexedJoinQES(
        cluster, dataset.metadata, "T1", "T2", dataset.join_attrs, dataset.provider,
        caches=caches, pipeline=True,
    ).run()
    assert seen.get("prefetch_begin", 0) > 0 and seen.get("take_prefetched", 0) > 0
    assert set(seen) <= VOCABULARY
    assert sum(cache.stats.prefetches for cache in caches) > 0
    got = samples(current, range(2))
    assert any(len(set(v for _, v in got[j, "staged_bytes"])) > 1 for j in range(2))
    assert got == samples(before, range(2))


def test_refused_put_that_evicted_is_sampled():
    """A put can evict victims and still be refused: ``reject`` moves
    ``used_bytes`` then, so it is sampled like an insert or a drop."""
    now = [0.0]
    cache = CachingService(10, LRUPolicy(), prefetch_budget_bytes=4)
    current, before = watch_both([cache], lambda: now[0])
    seen = count_ops([cache])
    steps = [
        lambda: cache.put("a", "A", 4),
        lambda: cache.pin("a"),
        lambda: cache.put("b", "B", 4),
        lambda: cache.put("c", "C", 7),  # evicts b, then cannot fit beside pinned a
        lambda: cache.unpin("a"),
        lambda: cache.put("d", "D", 2),
        lambda: cache.prefetch_begin("e", 3),
        lambda: cache.prefetch_complete("e", "E"),
        lambda: cache.take_prefetched("e"),
        lambda: cache.remove("d"),
    ]
    for step in steps:
        now[0] += 1.0
        step()
    assert seen == {
        "insert": 3, "reject": 1, "drop": 1, "prefetch_begin": 1, "take_prefetched": 1,
    }
    got = samples(current, [0])
    assert got[0, "occupancy_bytes"] == [
        (0.0, 0.0), (1.0, 4.0), (3.0, 8.0), (4.0, 4.0), (6.0, 6.0), (10.0, 4.0)
    ]
    assert got[0, "staged_bytes"] == [(0.0, 0.0), (7.0, 3.0), (9.0, 0.0)]
    assert got == samples(before, [0])


# -- the lookup tracks --------------------------------------------------------


@functools.lru_cache(maxsize=None)
def probe(nodes, faults):
    """An unobserved serve's makespan and the distinct times of its
    lookups in the last seven eighths of it (the observatory is passive,
    so an observed serve of the same stream has the same ones)."""
    times = []

    def subscribe(server):
        clock = server.cluster.engine

        def lookup(op, *_):
            if op in ("hit", "miss"):
                times.append(clock.now)

        for cache in server.caches:
            cache.subscribe(lookup)

    _, report = serve(nodes, faults, False, subscribe)
    return report.makespan, sorted({t for t in times if t >= report.makespan / 8})


#: a free width, or ``(anchor, pick, j)``: the width ``t / 2**j`` that puts
#: the picked lookup time (or the makespan) exactly on the edge of window
#: ``2**j`` — a power-of-two divisor makes both quotients exact
WIDTHS = st.one_of(
    st.floats(0.05, 3.0),
    st.tuples(st.sampled_from(["lookup", "makespan"]), st.integers(0, 10**6), st.integers(0, 5)),
)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nodes=st.sampled_from([1, 2]), faults=st.sampled_from([None, CRASH]),
       reuse=st.booleans(), width=WIDTHS)
@example(nodes=2, faults=CRASH, reuse=True, width=("lookup", 7, 3))
@example(nodes=1, faults=CRASH, reuse=False, width=("lookup", 3, 5))
@example(nodes=1, faults=None, reuse=False, width=("makespan", 0, 4))
@example(nodes=2, faults=None, reuse=True, width=("makespan", 0, 2))
def test_folded_lookup_tracks_equal_per_access_counting(nodes, faults, reuse, width):
    """Observed serves drawn over window widths (a lookup or the makespan
    exactly on a window edge among them), storage crashes that invalidate
    cached entries, reuse on and off, and one or two compute nodes."""
    makespan, times = probe(nodes, faults)
    if isinstance(width, tuple):
        anchor, pick, j = width
        t = times[pick % len(times)] if anchor == "lookup" else makespan
        width = t / 2**j
        assert t / width == 2**j
    oracles = []

    def subscribe(server):
        oracle = TimeSeriesRecorder(lambda: server.cluster.engine.now, window=width)
        for node, cache in enumerate(server.caches):
            count_each(oracle, node, cache)
        oracles.append((oracle, count_ops(server.caches)))

    server, report = serve(
        nodes, faults, ObservabilityConfig(window=width, reuse=reuse), subscribe
    )
    (oracle, seen), = oracles
    assert report.makespan == makespan
    assert set(seen) <= VOCABULARY
    if faults is not None:
        assert seen.get("drop", 0) > 0
    # nothing is counted per lookup on the observatory's own series
    assert not [name for name in server.observatory.series.counter_names()
                if name.startswith("cache.")]
    expected = oracle.to_payload(makespan)
    assert expected["counters"]
    obs = report.observability
    tracks = {name: track for name, track in obs["timeseries"]["counters"].items()
              if name.startswith("cache.")}
    assert json.dumps(tracks) == json.dumps(expected["counters"])
    assert list(obs["timeseries"]["counters"]) == sorted(obs["timeseries"]["counters"])
    assert json.dumps(obs["derived"]["cache_hit_rate"]) == json.dumps(
        scan_hit_rate(expected, width, makespan)
    )
    assert ("reuse" in obs) == reuse


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from(["get", "put", "remove"]),
                  st.sampled_from("abcd"), st.integers(0, 3)),
        max_size=60,
    ),
    width=st.sampled_from([0.25, 0.1, 1 / 3, 1.0]),
    tail=st.integers(0, 2),
    reuse=st.booleans(),
)
def test_lookup_tracks_on_drawn_streams(steps, width, tail, reuse):
    """Drawn lookups on two caches, each stamped at a whole or a half
    window: those on whole windows lie exactly on a window edge.  The
    horizon lies ``tail`` half windows past the last step, so with
    ``tail == 0`` the last lookups are stamped at the horizon, which is
    itself a window edge when the last step is."""
    now = [0.0]
    clock = lambda: now[0]  # noqa: E731
    caches = [CachingService(30), CachingService(30)]
    observatory = SimpleNamespace(
        config=SimpleNamespace(window=width),
        reuse=AccessTraceRecorder(clock, window=width, reuse=reuse),
    )
    oracle = TimeSeriesRecorder(clock, window=width)
    for node, cache in enumerate(caches):
        observatory.reuse.watch(node, cache)
        count_each(oracle, node, cache)
    halves = 0
    for node, op, key, advance in steps:
        halves += advance
        now[0] = halves * (width / 2)
        cache = caches[node]
        if op == "get":
            cache.get(key)
        elif op == "put":
            cache.put(key, key, 10)
        else:
            cache.remove(key)
    makespan = (halves + tail) * (width / 2)
    payload = {"counters": {}}
    rates = ServeObservatory._lookup_tracks(observatory, payload, makespan)
    expected = oracle.to_payload(makespan)
    assert json.dumps(payload["counters"]) == json.dumps(expected["counters"])
    assert json.dumps(rates) == json.dumps(scan_hit_rate(expected, width, makespan))
