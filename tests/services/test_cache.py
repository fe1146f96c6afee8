"""Tests for the Caching Service and its eviction policies."""

import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from repro.services import (
    BeladyPolicy,
    CachingService,
    FIFOPolicy,
    LFUPolicy,
    LRUPolicy,
    make_policy,
)
from repro.services.cache import QueryCacheView
from repro.telemetry import Telemetry


class TestBasicOperations:
    def test_put_get(self):
        c = CachingService(100)
        assert c.put("a", "va", 10)
        assert c.get("a") == "va"
        assert c.stats.hits == 1 and c.stats.misses == 0

    def test_miss(self):
        c = CachingService(100)
        assert c.get("a") is None
        assert c.stats.misses == 1

    def test_peek_does_not_count(self):
        c = CachingService(100)
        c.put("a", 1, 10)
        assert c.peek("a") == 1
        assert c.peek("b") is None
        assert c.stats.hits + c.stats.misses == 0

    def test_byte_budget_respected(self):
        c = CachingService(100)
        c.put("a", 1, 60)
        c.put("b", 2, 60)  # evicts a
        assert c.used_bytes <= 100
        assert "b" in c and "a" not in c
        assert c.stats.evictions == 1
        assert c.stats.bytes_evicted == 60

    def test_oversized_entry_rejected(self):
        c = CachingService(100)
        assert not c.put("big", 1, 101)
        assert len(c) == 0

    def test_replace_existing_key(self):
        c = CachingService(100)
        c.put("a", 1, 10)
        c.put("a", 2, 20)
        assert c.get("a") == 2
        assert c.used_bytes == 20
        assert len(c) == 1

    def test_remove_and_clear(self):
        c = CachingService(100)
        c.put("a", 1, 10)
        c.put("b", 2, 10)
        assert c.remove("a")
        assert not c.remove("a")
        assert c.used_bytes == 10
        assert c.stats.evictions == 0  # explicit removals aren't evictions

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CachingService(0)

    def test_negative_size_rejected(self):
        c = CachingService(10)
        with pytest.raises(ValueError):
            c.put("a", 1, -1)


class TestPinning:
    def test_pinned_entry_survives_pressure(self):
        c = CachingService(100)
        c.put("keep", 1, 60, pin=True)
        assert c.put("other", 2, 30)
        # needs to evict, but only "other" is evictable
        assert c.put("new", 3, 40)
        assert "keep" in c and "new" in c and "other" not in c

    def test_all_pinned_insert_fails(self):
        c = CachingService(100)
        c.put("a", 1, 60, pin=True)
        assert not c.put("b", 2, 60)
        assert "a" in c

    def test_unpin_allows_eviction(self):
        c = CachingService(100)
        c.put("a", 1, 60, pin=True)
        c.unpin("a")
        assert c.put("b", 2, 60)
        assert "a" not in c

    def test_pin_counting(self):
        c = CachingService(100)
        c.put("a", 1, 60)
        c.pin("a")
        c.pin("a")
        c.unpin("a")
        assert not c.put("b", 2, 60)  # still pinned once
        c.unpin("a")
        assert c.put("b", 2, 60)

    def test_pin_errors(self):
        c = CachingService(100)
        with pytest.raises(KeyError):
            c.pin("nope")
        with pytest.raises(KeyError):
            c.unpin("nope")
        c.put("a", 1, 10)
        with pytest.raises(ValueError):
            c.unpin("a")

    def test_a_pinned_entry_is_neither_removed_nor_cleared(self):
        """Removing a held entry once returned True, and the holder's
        release then raised ``KeyError``."""
        c = CachingService(1000)
        c.put("a", 1, 10)
        c.put("b", 2, 10)
        with c.pin_scope() as scope:
            scope.acquire("a")
            with pytest.raises(ValueError, match="cannot remove pinned key 'a'"):
                c.remove("a")
            assert list(c.keys()) == ["a", "b"] and c.used_bytes == 20
        assert c.remove("a")
        assert list(c.keys()) == ["b"] and c.used_bytes == 10


    def test_release_ends_the_pins_and_keeps_the_scope_open(self):
        c = CachingService(100)
        c.put("a", 1, 60)
        c.put("b", 2, 30)
        with c.pin_scope() as scope:
            assert scope.acquire("a") == 1 and scope.acquire("b") == 2
            assert c.pinned_bytes == 90
            scope.release()
            assert c.pinned_bytes == 0
            assert c.put("c", 3, 60)  # "a" is evictable again
            assert scope.acquire("b") == 2
            assert c.pinned_bytes == 30
        assert c.pinned_bytes == 0
        scope.close()  # idempotent, and releases nothing twice
        assert c._entries["b"].pins == 0

    def test_release_keeps_unpins_refusals(self):
        c = CachingService(100)
        c.put("a", 1, 10)
        scope = c.pin_scope()
        scope.pin("a")
        c.unpin("a")  # released behind the scope's back
        with pytest.raises(ValueError, match="'a' is not pinned"):
            scope.release()
        scope.pin("a")
        c.unpin("a")
        c.remove("a")
        with pytest.raises(KeyError, match="cannot unpin absent key 'a'"):
            scope.release()

    def test_the_policy_cannot_be_swapped(self):
        """The lookup's hooks are bound from the policy at construction:
        a reassigned policy would leave them on the old one."""
        c = CachingService(100, make_policy("fifo"))
        with pytest.raises(AttributeError):
            c.policy = make_policy("lru")
        assert c.policy.name == "fifo"


class TestLRU:
    def test_lru_evicts_least_recent(self):
        c = CachingService(30, LRUPolicy())
        c.put("a", 1, 10)
        c.put("b", 2, 10)
        c.put("c", 3, 10)
        c.get("a")  # refresh a; b is now LRU
        c.put("d", 4, 10)
        assert "b" not in c
        assert all(k in c for k in ("a", "c", "d"))


class TestFIFO:
    def test_fifo_ignores_access(self):
        c = CachingService(30, FIFOPolicy())
        c.put("a", 1, 10)
        c.put("b", 2, 10)
        c.put("c", 3, 10)
        c.get("a")  # does not refresh under FIFO
        c.put("d", 4, 10)
        assert "a" not in c


class TestLFU:
    def test_lfu_evicts_cold_entry(self):
        c = CachingService(30, LFUPolicy())
        c.put("a", 1, 10)
        c.put("b", 2, 10)
        c.put("c", 3, 10)
        for _ in range(3):
            c.get("a")
        c.get("b")
        c.put("d", 4, 10)  # c never accessed -> victim
        assert "c" not in c

    def test_lfu_tie_broken_by_age(self):
        c = CachingService(20, LFUPolicy())
        c.put("old", 1, 10)
        c.put("new", 2, 10)
        c.put("x", 3, 10)  # both untouched; "old" inserted first
        assert "old" not in c


class TestBelady:
    def test_belady_beats_lru_on_adversarial_trace(self):
        """Classic sequence where LRU thrashes but Belady does not."""
        # capacity 2 entries; trace: a b c a b c ... (cyclic over 3)
        trace = ["a", "b", "c"] * 5

        def run(policy):
            c = CachingService(20, policy)
            for key in trace:
                if c.get(key) is None:
                    c.put(key, key, 10)
            return c.stats

        lru_stats = run(LRUPolicy())
        belady_stats = run(BeladyPolicy(trace))
        assert belady_stats.hits > lru_stats.hits
        # LRU degenerates to zero hits on a cyclic scan of size capacity+1
        assert lru_stats.hits == 0

    def test_belady_never_evicts_imminently_needed(self):
        trace = ["a", "b", "a", "c", "a"]
        c = CachingService(20, BeladyPolicy(trace))
        for key in trace:
            if c.get(key) is None:
                c.put(key, key, 10)
        # "a" is used at indices 0,2,4 — it should have been kept throughout
        assert c.stats.hits >= 2


class TestReputGrowth:
    """Regression tests: re-putting a key at a larger size must run the
    same eviction loop as a fresh insert (it used to skip it, letting
    ``used_bytes`` exceed the capacity) and must account the growth in
    ``bytes_inserted``."""

    def test_grown_entry_triggers_eviction(self):
        c = CachingService(100)
        c.put("a", 1, 40)
        c.put("b", 2, 40)
        assert c.put("a", 1, 70)  # grows a by 30: must evict b to fit
        assert c.used_bytes <= 100
        assert "b" not in c
        assert c.stats.evictions == 1

    def test_grown_bytes_counted_in_inserted(self):
        c = CachingService(100)
        c.put("a", 1, 40)
        c.put("a", 1, 70)
        assert c.stats.bytes_inserted == 40 + 30

    def test_shrink_not_counted_as_insert(self):
        c = CachingService(100)
        c.put("a", 1, 40)
        c.put("a", 1, 10)
        assert c.used_bytes == 10
        assert c.stats.bytes_inserted == 40

    def test_regrow_beyond_capacity_rejected_keeps_old_entry(self):
        c = CachingService(100)
        c.put("a", 1, 40)
        assert not c.put("a", 2, 101)
        assert c.peek("a") == 1
        assert c.used_bytes == 40

    def test_grow_blocked_by_pins_keeps_old_entry(self):
        c = CachingService(100)
        c.put("a", 1, 40)
        c.put("b", 2, 30, pin=True)
        assert not c.put("a", 3, 80)  # would need to evict pinned b
        assert c.peek("a") == 1
        assert c.used_bytes == 70

    def test_grown_entry_is_never_its_own_victim(self):
        c = CachingService(100)
        c.put("a", 1, 40)
        assert c.put("a", 2, 100)  # exactly fills; nothing to evict
        assert c.used_bytes == 100
        assert c.stats.evictions == 0


class TestStatsSnapshots:
    def test_since_reports_deltas(self):
        c = CachingService(100)
        c.put("a", 1, 10)
        c.get("a")
        c.get("x")
        before = c.stats.snapshot()
        c.get("a")
        c.put("b", 2, 10)
        delta = c.stats.since(before)
        assert (delta.hits, delta.misses) == (1, 0)
        assert delta.bytes_inserted == 10
        # the snapshot is decoupled from the live counters
        assert before.hits == 1 and c.stats.hits == 2


class TestPrefetchStaging:
    def test_begin_complete_take_cycle(self):
        c = CachingService(200)
        assert c.prefetch_begin("a", 30)
        assert c.prefetch_bytes == 30
        assert c.take_prefetched("a") is None  # in flight, not ready
        c.prefetch_complete("a", "va")
        assert c.take_prefetched("a") == "va"
        assert c.prefetch_bytes == 0
        assert c.stats.prefetches == 1
        assert c.stats.bytes_prefetched == 30

    def test_budget_bounds_inflight_reservations(self):
        c = CachingService(200)
        assert c.prefetch_budget_bytes == 50  # a quarter of the capacity
        assert c.prefetch_begin("a", 30)
        assert not c.prefetch_begin("b", 30)  # 60 > 50, even before arrival
        assert c.prefetch_begin("c", 20)

    def test_resident_or_staged_key_rejected(self):
        c = CachingService(100)
        c.put("a", 1, 10)
        assert not c.prefetch_begin("a", 10)
        assert c.prefetch_begin("b", 10)
        assert not c.prefetch_begin("b", 10)

    def test_cancel_releases_budget(self):
        c = CachingService(120)
        c.prefetch_begin("a", 30)
        c.prefetch_cancel("a")
        assert c.prefetch_bytes == 0
        assert c.prefetch_begin("b", 30)

    def test_complete_errors(self):
        c = CachingService(100)
        with pytest.raises(KeyError):
            c.prefetch_complete("nope", 1)
        c.prefetch_begin("a", 10)
        c.prefetch_complete("a", 1)
        with pytest.raises(ValueError):
            c.prefetch_complete("a", 1)

    def test_staged_entries_do_not_touch_main_cache(self):
        c = CachingService(80)
        c.put("resident", 1, 80)
        assert c.prefetch_begin("staged", 20)
        c.prefetch_complete("staged", 2)
        # staging never evicts residents nor counts toward used_bytes
        assert "resident" in c
        assert c.used_bytes == 80
        assert c.stats.evictions == 0


class TestFactory:
    def test_make_policy(self):
        assert make_policy("lru").name == "lru"
        assert make_policy("FIFO").name == "fifo"
        assert make_policy("lfu").name == "lfu"
        assert make_policy("belady", future_references=["a"]).name == "belady"

    def test_belady_requires_future(self):
        with pytest.raises(ValueError):
            make_policy("belady")

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_policy("marvellous")


class TestAccessTraceFeed:
    """The one channel everything that watches a cache subscribes to:
    purely additive bookkeeping, no behavioural change."""

    @staticmethod
    def run_trace(c):
        for key in "abacbdaa":
            if c.get(key) is None:
                c.put(key, key.upper(), 10)
        c.remove("c")
        return c

    @staticmethod
    def watch(cache):
        """Subscribe a recorder; returns its ``(op, key, nbytes, qid)``
        list."""
        seen = []
        cache.subscribe(lambda *event: seen.append(event))
        return seen

    def test_observer_changes_no_stats_or_contents(self):
        # small enough to evict, so eviction order is compared too
        plain = self.run_trace(CachingService(25))
        watched = CachingService(25)
        seen = self.watch(watched)
        self.run_trace(watched)
        assert dataclasses.asdict(watched.stats) == \
            dataclasses.asdict(plain.stats)
        assert watched.stats.evictions > 0
        assert list(watched.keys()) == list(plain.keys())
        assert list(watched.policy._order) == list(plain.policy._order)
        assert watched.used_bytes == plain.used_bytes
        assert seen, "subscriber saw no events"

    def test_access_feed_reconciles_with_counters(self):
        c = CachingService(100)
        seen = self.watch(c)
        self.run_trace(c)
        ops = [op for op, *_ in seen]
        assert ops.count("hit") == c.stats.hits
        assert ops.count("miss") == c.stats.misses
        assert ops.count("insert") == 4  # a b c d
        assert ops.count("drop") == 1
        # misses carry no size yet (the value does not exist); hits,
        # inserts and drops always do
        assert all(n is None for op, _, n, _ in seen if op == "miss")
        assert all(n == 10 for op, _, n, _ in seen if op != "miss")

    def test_every_operation_notifies_exactly_once(self):
        """Every operation that moves the entries or a byte level
        notifies once; pins and a completed prefetch move neither."""
        c = CachingService(40)  # stages up to 10 bytes
        seen = self.watch(c)
        c.put("a", 1, 10, source=0)
        c.put("b", 2, 10, pin=True)
        c.put("big", 3, 41)  # refused, but subscribers still hear of it
        c.pin("a")
        c.unpin("a")
        c.prefetch_begin("p", 10)
        c.prefetch_complete("p", 4)
        c.take_prefetched("p")
        c.prefetch_begin("q", 10)
        c.prefetch_cancel("q")
        c.invalidate_from(0)  # drops a, then reports itself
        c.unpin("b")
        c.remove("b")
        assert [op for op, *_ in seen] == [
            "insert", "insert", "reject",
            "prefetch_begin", "take_prefetched",
            "prefetch_begin", "prefetch_cancel",
            "drop", "invalidate_from", "drop",
        ]
        # operations that change nothing tell nobody
        del seen[:]
        c.put("c", 5, 10)
        del seen[:]
        with c.pin_scope() as scope:
            assert scope.acquire("c") == 5  # one hit, and a silent pin
            del seen[:]
            scope.pin("c")
        assert c.prefetch_begin("r", 10)
        del seen[:]
        c.prefetch_complete("r", 6)
        c.remove("absent")
        c.prefetch_cancel("absent")
        c.take_prefetched("absent")
        assert not c.prefetch_begin("huge", 11)
        assert seen == []
        assert c.pinned_bytes == 0

    def test_view_tags_accesses_with_qid(self):
        shared = CachingService(100)
        seen = self.watch(shared)
        view = QueryCacheView(shared, qid=7)
        view.get("x")
        view.put("x", 1, 10)
        with view.pin_scope() as scope:
            scope.put("y", 2, 10)
        shared.get("x")
        by_op = {(op, key): qid for op, key, _, qid in seen}
        assert by_op[("miss", "x")] == 7
        assert by_op[("insert", "x")] == 7
        assert by_op[("insert", "y")] == 7
        assert by_op[("hit", "x")] is None  # direct access: no view

    def test_no_observer_costs_nothing_on_report_bytes(self):
        # the digest/report regression: stats snapshots are identical
        # whether the channel has subscribers or not
        plain = self.run_trace(CachingService(100))
        watched = CachingService(100)
        watched.subscribe(lambda *event: None)
        self.run_trace(watched)
        assert json.dumps(
            dataclasses.asdict(plain.stats), sort_keys=True
        ) == json.dumps(dataclasses.asdict(watched.stats), sort_keys=True)

    def test_watching_twice_with_the_same_telemetry_counts_once(self):
        # IndexedJoinQES.begin re-wires warm caches, and the views a
        # server hands it, to the hub their owner already wired
        hub = Telemetry()
        shared = CachingService(100)
        hub.watch_cache(shared, prefix="cache.j0")
        hub.watch_cache(shared, prefix="cache.j0")
        hub.watch_cache(QueryCacheView(shared, qid=1), prefix="cache.j0")
        self.run_trace(shared)
        assert hub.metrics.counter("cache.j0.hits").value == shared.stats.hits
        assert hub.metrics.counter("cache.j0.misses").value == shared.stats.misses
        assert hub.metrics.gauge("cache.j0.occupancy_bytes").last == shared.used_bytes
        other = Telemetry()  # a later run's hub is a different sink
        other.watch_cache(shared, prefix="cache.j0")
        shared.get("a")
        assert other.metrics.counter("cache.j0.hits").value == 1


# -- property tests -------------------------------------------------------------

keys = st.sampled_from(list("abcdefgh"))


@given(trace=st.lists(keys, max_size=200), policy_name=st.sampled_from(["lru", "fifo", "lfu"]))
def test_cache_invariants_under_random_trace(trace, policy_name):
    """Bytes never exceed capacity; hit+miss == accesses; entries coherent."""
    c = CachingService(35, make_policy(policy_name))
    for key in trace:
        if c.get(key) is None:
            c.put(key, key.upper(), 10)
        assert c.used_bytes <= 35
        assert len(c) * 10 == c.used_bytes
    assert c.stats.hits + c.stats.misses == len(trace)


_ops = st.lists(
    st.tuples(
        st.sampled_from(["get", "put", "grow", "pin", "unpin"]),
        keys,
        st.integers(min_value=1, max_value=60),
    ),
    max_size=300,
)


@given(ops=_ops, policy_name=st.sampled_from(["lru", "fifo", "lfu"]))
def test_capacity_invariant_under_random_op_sequence(ops, policy_name):
    """``used_bytes <= capacity_bytes`` must hold after *every* operation —
    including re-puts that grow an existing entry, the path that used to
    skip eviction and overflow the budget."""
    capacity = 100
    c = CachingService(capacity, make_policy(policy_name))
    pins = {k: 0 for k in "abcdefgh"}
    for op, key, size in ops:
        if op == "get":
            c.get(key)
        elif op in ("put", "grow"):
            # "grow" targets resident keys so re-put growth is exercised
            # even when the random key would have been absent
            if op == "grow" and key not in c:
                resident = next(iter(c.keys()), None)
                if resident is None:
                    continue
                key = resident
            c.put(key, key, size)
        elif op == "pin":
            if key in c:
                c.pin(key)
                pins[key] += 1
        elif op == "unpin":
            if key in c and pins[key] > 0:
                c.unpin(key)
                pins[key] -= 1
        assert c.used_bytes <= capacity
        assert sum(1 for k in "abcdefgh" if k in c) == len(c)


_view_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # which view
        # lookups and inserts weighted up, and no list too short, so that
        # most examples fill the cache and evict
        st.sampled_from([
            "get", "get", "get", "put", "put", "put", "put",
            "pin", "unpin", "remove", "invalidate_from",
            "prefetch_begin", "prefetch_complete", "prefetch_cancel",
            "take_prefetched",
        ]),
        keys,
        st.integers(min_value=5, max_value=20),
    ),
    min_size=20,
    max_size=200,
)


def _apply(shared, view, op, key, size):
    """Run one operation through ``view``; returns how many notifications
    it owes: one per lookup and per operation that moved the entries or a
    byte level, none for a pin, an unpin or a completed prefetch, and
    none for a refused remove of a pinned key."""
    if op == "get":
        view.get(key)
    elif op == "put":
        view.put(key, key, size, source=size % 2)
    elif op == "pin":
        if key in view:
            view.pin(key)
        return 0
    elif op == "unpin":
        if key in view and shared._entries[key].pins:
            view.unpin(key)
        return 0
    elif op == "remove":
        if key in view and shared._entries[key].pins:
            with pytest.raises(ValueError, match="pinned"):
                view.remove(key)
            return 0
        return int(view.remove(key))
    elif op == "invalidate_from":
        return view.invalidate_from(size % 2) + 1  # one drop each, then itself
    elif op == "prefetch_begin":
        return int(view.prefetch_begin(key, size))
    elif op == "prefetch_complete":
        staged = shared._staged.get(key)
        if staged is not None and not staged.ready:
            view.prefetch_complete(key, key)
        return 0
    elif op == "prefetch_cancel":
        staged = key in shared._staged
        view.prefetch_cancel(key)
        return int(staged)
    elif op == "take_prefetched":
        return int(view.take_prefetched(key) is not None)
    return 1


@given(ops=_view_ops)
def test_view_ledgers_partition_the_shared_counters(ops):
    """Any interleaving of operations through several views of one small
    (evicting) shared cache: the view ledgers sum to the shared counters,
    each view's hits/misses are exactly the events carrying its qid, every
    lookup and state change notifies once (a pin, an unpin or a completed
    prefetch notifies nobody, a pinned key is never removed), and none of
    it depends on being watched."""
    shared = CachingService(56)  # stages up to 14 bytes
    events = []
    shared.subscribe(lambda *event: events.append(event))
    views = [QueryCacheView(shared, qid=qid) for qid in range(3)]
    unwatched = CachingService(56)
    twins = [QueryCacheView(unwatched, qid=qid) for qid in range(3)]
    for v, op, key, size in ops:
        before = len(events)
        owed = _apply(shared, views[v], op, key, size)
        assert len(events) - before == owed, (op, events[before:])
        _apply(unwatched, twins[v], op, key, size)
        assert shared.used_bytes <= shared.capacity_bytes
    for field in dataclasses.fields(shared.stats):
        assert sum(getattr(v.stats, field.name) for v in views) == getattr(
            shared.stats, field.name
        ), field.name
    for view in views:
        mine = [op for op, _, _, qid in events if qid == view.qid]
        assert mine.count("hit") == view.stats.hits
        assert mine.count("miss") == view.stats.misses
    assert dataclasses.asdict(shared.stats) == dataclasses.asdict(unwatched.stats)
    assert list(shared.keys()) == list(unwatched.keys())
    assert list(shared.policy._order) == list(unwatched.policy._order)
    assert [dataclasses.asdict(v.stats) for v in views] == [
        dataclasses.asdict(t.stats) for t in twins
    ]


@given(trace=st.lists(keys, min_size=1, max_size=150))
def test_belady_hit_rate_at_least_lru(trace):
    """On identical reference strings Belady's offline policy never does
    worse than LRU (the claim the cache ablation rests on)."""

    def stats(policy):
        c = CachingService(25, policy)  # 2 entries of 10 bytes
        for key in trace:
            if c.get(key) is None:
                c.put(key, key, 10)
        return c.stats

    belady, lru = stats(BeladyPolicy(trace)), stats(LRUPolicy())
    assert belady.hits + belady.misses == lru.hits + lru.misses == len(trace)
    assert belady.hits >= lru.hits


@given(trace=st.lists(keys, max_size=120))
def test_belady_is_optimal_among_policies(trace):
    """Belady's hit count is >= every online policy's on the same trace
    (the property that makes it the ablation's upper bound)."""

    def hits(policy):
        c = CachingService(25, policy)  # capacity: 2 entries of 10 bytes
        for key in trace:
            if c.get(key) is None:
                c.put(key, key, 10)
        return c.stats.hits

    belady = hits(BeladyPolicy(trace))
    for name in ("lru", "fifo", "lfu"):
        assert belady >= hits(make_policy(name))
