"""A joiner's pins live one pair.

An Indexed Join joiner holds one :class:`~repro.services.cache.PinScope`
for its whole pair loop and releases it at the end of every pair
(DESIGN.md §3.3, "A pair's protocol").  Two clauses follow, and both are
held here from outside, by watching a single-query run:

* at every CPU reservation of joiner ``j`` its cache pins exactly what
  the pair in hand has pinned: nothing at a left load's hash build (the
  left is put, pinned, only after it), and the pair's ``2·c_R + c_S`` at
  its probe — never a byte of an earlier pair;
* when a fault unwinds the loop, the scope's pins go before the joiner
  hands back what its prefetchers had staged.

The property draws half the loaded Hypothesis profile's example budget;
CI reruns it under a wider profile, loaded before pytest starts.
"""

import sys

from hypothesis import given, settings, strategies as st

from repro.cluster import paper_cluster
from repro.joins import IndexedJoinQES
from repro.server.resilience import QueryAborted
from repro.workloads import GridSpec, build_oil_reservoir_dataset

#: per axis: (grid, chunk edges of T1 and T2 that divide it)
_AXES = [(16, (2, 4, 8)), (32, (4, 8, 16))]


@st.composite
def _runs(draw):
    axes = [draw(st.sampled_from(_AXES)) for _ in range(2)]
    return {
        "spec": GridSpec(
            g=tuple(g for g, _ in axes),
            p=tuple(draw(st.sampled_from(edges)) for _, edges in axes),
            q=tuple(draw(st.sampled_from(edges)) for _, edges in axes),
        ),
        "num_storage": draw(st.integers(1, 2)),
        "num_compute": draw(st.integers(1, 3)),
        "pipeline": draw(st.booleans()),
        # traced, the loop fetches through its spans and charges through
        # ``_charge_cpu``: the same pins
        "telemetry": draw(st.booleans()),
        "policy": draw(st.sampled_from(["lru", "fifo", "lfu", "belady"])),
        # None: the machine's memory; else a multiple of the largest pair,
        # so that every pair fits and smaller caches evict
        "room": draw(st.sampled_from([None, 1, 2, 4])),
    }


def _cpu_readings(spec, num_storage, num_compute, pipeline, telemetry, policy, room):
    """Run one Indexed Join; returns the execution, every sub-table's
    size and, per joiner, its cache's ``pinned_bytes`` at each reservation
    of its CPU."""
    ds = build_oil_reservoir_dataset(spec, num_storage=num_storage, functional=False)
    cluster = paper_cluster(num_storage, num_compute, telemetry=telemetry)
    left, right = (
        {c.id: c.size for c in ds.metadata.table(name).all_chunks()}
        for name in ("T1", "T2")
    )
    capacity = None
    if room is not None:
        capacity = room * (2 * max(left.values()) + max(right.values()))
    qes = IndexedJoinQES(
        cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider,
        cache_capacity=capacity, cache_policy=policy, pipeline=pipeline,
    )
    cpus = {f"c{j}.cpu": j for j in range(num_compute)}
    readings = {j: [] for j in range(num_compute)}

    def on_event(kind, *fields):
        if kind == "reserve" and fields[0] in cpus:
            j = cpus[fields[0]]
            readings[j].append(qes.caches[j].pinned_bytes)

    cluster.engine.subscribe(on_event)
    qes.run()
    return qes, {**left, **right}, readings


@settings(deadline=None, max_examples=max(1, settings.default.max_examples // 2))
@given(run=_runs())
def test_a_joiner_pins_only_the_pair_in_hand(run):
    qes, size, readings = _cpu_readings(**run)
    for j, pairs in enumerate(qes.schedule.per_joiner):
        probes = [pinned for pinned in readings[j] if pinned]
        # a left load's build reads zero; each probe reads its own pair
        assert probes == [2 * size[lid] + size[rid] for lid, rid in pairs], j
        assert qes.caches[j].pinned_bytes == 0


def test_the_pins_of_one_pair_are_gone_by_the_next():
    """One draw of the property, by hand: sixteen pairs on one joiner,
    with a cache that holds two of them, so it evicts."""
    qes, size, readings = _cpu_readings(
        GridSpec(g=(16, 16), p=(4, 4), q=(8, 8)), num_storage=1,
        num_compute=1, pipeline=False, telemetry=False, policy="lru", room=2,
    )
    pairs = qes.schedule.per_joiner[0]
    assert len(pairs) == 16 and qes.report.cache_stats[0].evictions > 0
    assert [r for r in readings[0] if r] == [2 * size[lid] + size[rid]
                                             for lid, rid in pairs]


def test_an_unwinding_joiner_unpins_before_its_staged_hand_back():
    """Abort a pipelined run in the middle of each of joiner 0's probes,
    when the pair's pins are held and the next pair is being staged;
    whenever a dying joiner hands back a staged sub-table, its cache
    already holds no pin."""
    ds = build_oil_reservoir_dataset(
        GridSpec(g=(16, 16), p=(2, 2), q=(4, 4)), num_storage=2, functional=False
    )

    def make():
        return IndexedJoinQES(
            paper_cluster(2, 2), ds.metadata, "T1", "T2", ds.join_attrs,
            ds.provider, pipeline=True,
        )

    first = make()
    probes = []
    first.cluster.engine.subscribe(
        lambda kind, *f: kind == "reserve" and f[0] == "c0.cpu"
        and first.caches[0].pinned_bytes and probes.append((f[2] + f[3]) / 2)
    )
    first.run()
    witnessed = 0
    for at in probes[:12]:
        qes = make()
        engine = qes.cluster.engine
        run = qes.begin()
        held_at_abort = []
        hand_backs = []

        def watch(cache):
            def on_op(op, key, nbytes, qid):
                # the joiner's own ``take_prefetched`` is the hand-back;
                # ``_fetch`` takes what it is about to put
                if op == "take_prefetched" and sys._getframe(3).f_code.co_name == "_joiner":
                    hand_backs.append(cache.pinned_bytes)

            cache.subscribe(on_op)

        for cache in qes.caches:
            watch(cache)

        def killer():
            yield engine.timeout(at)
            held_at_abort.append(qes.caches[0].pinned_bytes)
            run.abort(QueryAborted(0, "test"))

        engine.process(killer(), name="killer")
        engine.run()
        assert not run.process.ok
        assert hand_backs == [0] * len(hand_backs), at
        assert all(c.pinned_bytes == 0 and c.prefetch_bytes == 0 for c in qes.caches)
        witnessed += bool(held_at_abort[0] and hand_backs)
    # not vacuous: pins were held at the abort and staging was handed back
    assert witnessed >= 6
