"""The observatory's cache level gauges skip the operations that cannot
move a level, and lose nothing by it.

``ServeObservatory._watch_cache`` samples ``occupancy_bytes`` and
``staged_bytes`` only for operations that can change ``used_bytes`` or
``prefetch_bytes``.  Each test runs the hook beside the hook as it was
before (every operation but a lookup re-sets both gauges) on the same
caches and the same clock, and requires equal sample lists.
"""

from types import SimpleNamespace

from repro.cluster import paper_cluster
from repro.joins import IndexedJoinQES
from repro.server import ObservabilityConfig, QueryServer, ServeObservatory
from repro.services.cache import CachingService, LRUPolicy
from repro.telemetry.timeseries import TimeSeriesRecorder
from repro.workloads import GridSpec, TenantSpec, build_oil_reservoir_dataset, generate_workload

LEVELS = ("occupancy_bytes", "staged_bytes")


def always_set(series, node, cache):
    """The hook before level-neutral operations were skipped."""
    occupancy, staged = (f"cache.j{node}.{leaf}" for leaf in LEVELS)
    series.set(occupancy, 0.0)
    series.set(staged, 0.0)

    def observe(op, key, nbytes, origin, qid):
        if op not in ("hit", "miss"):
            series.set(occupancy, float(cache.used_bytes))
            series.set(staged, float(cache.prefetch_bytes))

    cache.subscribe(observe)


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
    current = SimpleNamespace(series=TimeSeriesRecorder(clock), reuse=None)
    before = TimeSeriesRecorder(clock)
    for node, cache in enumerate(caches):
        ServeObservatory._watch_cache(current, node, cache)
        always_set(before, node, cache)
    return current.series, before


def test_observed_serve_gauges_equal_the_always_set_hook():
    spec = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))
    dataset = build_oil_reservoir_dataset(
        spec, num_storage=2, functional=True, seed=7, replication=2
    )
    server = QueryServer(
        dataset, num_compute=2, slots=2, faults="seed=3,storage_crash=1.0",
        observe=ObservabilityConfig(window=0.5),
    )
    before = TimeSeriesRecorder(lambda: server.cluster.engine.now)
    for node, cache in enumerate(server.caches):
        always_set(before, node, cache)
    seen = count_ops(server.caches)
    tenants = [
        TenantSpec("a", 6.0, 8, (("scan", 1.0), ("join", 1.0), ("aggregate", 1.0))),
        TenantSpec("b", 5.0, 6, (("join", 1.0),), process="bursty"),
    ]
    server.serve(generate_workload(tenants, seed=42))
    assert seen.get("pin", 0) > 0 and seen.get("unpin", 0) > 0
    assert seen.get("insert", 0) > 0 and seen.get("drop", 0) > 0
    nodes = range(len(server.caches))
    assert samples(server.observatory.series, nodes) == samples(before, nodes)


def test_pipelined_join_gauges_equal_the_always_set_hook():
    """A pipelined Indexed Join stages prefetches: every ``prefetch_*``
    and ``take_prefetched`` moves ``staged_bytes``."""
    spec = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))
    dataset = build_oil_reservoir_dataset(spec, num_storage=2, functional=True, seed=7)
    cluster = paper_cluster(2, 2)
    caches = [CachingService(cluster.joiner(j).memory_bytes, LRUPolicy()) for j in range(2)]
    current, before = watch_both(caches, lambda: cluster.engine.now)
    seen = count_ops(caches)
    IndexedJoinQES(
        cluster, dataset.metadata, "T1", "T2", dataset.join_attrs, dataset.provider,
        caches=caches, pipeline=True,
    ).run()
    assert seen.get("prefetch_begin", 0) > 0 and seen.get("take_prefetched", 0) > 0
    assert seen.get("pin", 0) > 0
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
        "insert": 3, "pin": 1, "reject": 1, "unpin": 1, "drop": 1,
        "prefetch_begin": 1, "prefetch_complete": 1, "take_prefetched": 1,
    }
    got = samples(current, [0])
    assert got[0, "occupancy_bytes"] == [
        (0.0, 0.0), (1.0, 4.0), (3.0, 8.0), (4.0, 4.0), (6.0, 6.0), (10.0, 4.0)
    ]
    assert got[0, "staged_bytes"] == [(0.0, 0.0), (7.0, 3.0), (9.0, 0.0)]
    assert got == samples(before, [0])
