"""The per-pair cache protocol: one ``acquire`` is a ``get`` plus a ``pin``.

A QES checks the cache for each sub-table of a pair with
``PinScope.acquire``, where it used to call ``get`` and then, on a hit,
``scope.pin``.  The properties below hold the one call to the two it
replaced, on drawn operation sequences over every eviction policy, with
and without a :class:`QueryCacheView` in front of the cache: the same
values, counters, pins, bytes, next victim and notifications, and the
same state again when nobody subscribes.

Tier-1 runs the default example budget; CI reruns the module under a
larger one by loading a wider Hypothesis profile before pytest starts.
"""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.services.cache import CachingService, QueryCacheView, make_policy

KEYS = "abcdef"

_ops = st.lists(
    st.tuples(
        # lookups weighted up, so that most of them hit a filling cache
        st.sampled_from([
            "lookup", "lookup", "lookup", "lookup", "get", "put", "put", "put",
            "pin", "unpin", "remove", "invalidate", "close",
        ]),
        st.sampled_from(KEYS),
        st.integers(min_value=5, max_value=20),
    ),
    min_size=10,
    max_size=120,
)


class _Twin:
    """One cache, driven directly or through a view, with the pin scope
    the lookups run under, the pins taken outside any scope, and what it
    notified."""

    def __init__(self, policy, future, with_view, subscribed):
        self.cache = CachingService(40, make_policy(policy, future))
        self.events = []
        if subscribed:
            self.cache.subscribe(lambda *event: self.events.append(event))
        self.view = QueryCacheView(self.cache, qid=3) if with_view else None
        self.front = self.cache if self.view is None else self.view
        self.scope = self.front.pin_scope()
        self.raw_pins = Counter()

    def apply(self, op, key, size, fused):
        """Run one operation; returns what it returned.  ``fused`` picks
        the protocol a ``lookup`` uses: ``scope.acquire`` or ``get`` then,
        on a hit, ``scope.pin``."""
        front, cache = self.front, self.cache
        if op == "lookup":
            if fused:
                return self.scope.acquire(key)
            value = front.get(key)
            if value is not None:
                self.scope.pin(key)
            return value
        if op == "get":
            return front.get(key)
        if op == "put":
            value = (key, size)
            if size % 2:
                return front.put(key, value, size, source=size % 3)
            return self.scope.put(key, value, size, pin=True, source=size % 3)
        if op == "pin" and key in front:
            front.pin(key)
            self.raw_pins[key] += 1
        elif op == "unpin" and self.raw_pins[key]:
            front.unpin(key)
            self.raw_pins[key] -= 1
        elif op == "remove" and key in cache and cache._entries[key].pins == 0:
            return front.remove(key)
        elif op == "invalidate":
            return front.invalidate_from(size % 3)
        elif op == "close":
            self.scope.close()
            self.scope = front.pin_scope()
        return None

    def state(self):
        cache = self.cache
        entries = cache._entries
        return {
            "stats": dataclasses.asdict(cache.stats),
            "view": None if self.view is None else dataclasses.asdict(self.view.stats),
            "pins": {k: e.pins for k, e in entries.items()},
            "resident": list(entries),
            "used_bytes": cache.used_bytes,
            "victim": cache.policy.victim(lambda k: entries[k].pins == 0),
            "held": self.scope.held,
        }


@settings(deadline=None)
@given(
    ops=_ops,
    policy=st.sampled_from(["lru", "fifo", "lfu", "belady"]),
    with_view=st.booleans(),
)
def test_acquire_is_get_then_pin(ops, policy, with_view):
    """``scope.acquire(k)`` and ``get(k)`` + ``scope.pin(k)`` on a hit
    leave everything a caller or subscriber can see equal, after every
    operation; an unsubscribed twin reaches the same state."""
    future = [key for op, key, _ in ops if op in ("lookup", "get")]
    fused = _Twin(policy, future, with_view, subscribed=True)
    split = _Twin(policy, future, with_view, subscribed=True)
    quiet = _Twin(policy, future, with_view, subscribed=False)
    for op, key, size in ops:
        got = fused.apply(op, key, size, fused=True)
        assert split.apply(op, key, size, fused=False) == got, (op, key)
        assert quiet.apply(op, key, size, fused=True) == got, (op, key)
        state = fused.state()
        assert split.state() == state, (op, key)
        assert quiet.state() == state, (op, key)
        assert split.events == fused.events, (op, key)
        if with_view:
            # every counted operation arrived through the one view
            assert state["view"] == state["stats"], (op, key)
    assert quiet.events == []
    for twin in (fused, split, quiet):
        twin.scope.close()
        for key, n in twin.raw_pins.items():
            for _ in range(n):
                twin.front.unpin(key)
        assert twin.cache.pinned_bytes == 0


def test_a_hit_notifies_hit_then_pin_and_a_miss_pins_nothing():
    """A hit notifies ``hit`` and pins silently; a miss notifies ``miss``
    and pins nothing; the release notifies nobody either."""
    cache = CachingService(100)
    seen = []
    cache.subscribe(lambda *event: seen.append(event))
    view = QueryCacheView(cache, qid=5)
    cache.put("a", "va", 10)
    del seen[:]
    with view.pin_scope() as scope:
        assert scope.acquire("a") == "va"
        assert scope.acquire("b") is None
        assert scope.held == ("a",)
        assert cache._entries["a"].pins == 1
    assert seen == [
        ("hit", "a", 10, 5),
        ("miss", "b", None, 5),
    ]
    assert (view.stats.hits, view.stats.misses) == (1, 1)
    assert cache.pinned_bytes == 0


def test_view_offers_only_what_it_spells_out():
    view = QueryCacheView(CachingService(100))
    for name in ("no_such_attribute", "peek", "capacity_bytes", "_entries"):
        with pytest.raises(AttributeError):
            getattr(view, name)
    with pytest.raises(AttributeError):
        view.extra = 1
