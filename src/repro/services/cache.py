"""Caching Service.

"The Caching Service can be used by the QES to store and access frequently
accessed objects" (Section 4).  Each compute node's QES instance owns one
:class:`CachingService` holding recently used sub-tables (and, for the
Indexed Join, the hash tables built on left sub-tables).

The paper fixes LRU ("a reasonable policy in many cases and commonly
used"); the OPAS discussion in Section 6.2 is all about what happens when
the scheduling order defeats the cache, so the ablation benchmarks swap in
FIFO, LFU and Belady's offline-optimal policy for comparison.

Entries are byte-budgeted (cache capacity is the compute node's memory) and
pinnable: a pinned entry is never chosen as a victim, which is how a QES
protects the pair of sub-tables it is actively joining.

The service also owns a *prefetch staging area* for the pipelined Indexed
Join: sub-tables transferred ahead of need are parked there — outside the
main entry map, so they can neither evict nor be evicted — under a bounded
byte budget (``prefetch_budget_bytes``, the double-buffer memory).  The
consumer later takes a staged entry and inserts it through the ordinary
:meth:`put` path, which keeps the cache's hit/miss/eviction sequence
byte-identical to a run without prefetching.

Everything that *watches* a cache — telemetry, the sanitizer's byte
ledger check, the observatory's time-series, the reuse trace — does so
through one channel, :meth:`CachingService.subscribe`: one notification
per lookup and per state change, after the change it describes, as
plain arguments ``fn(op, key, nbytes, qid)``.  ``op`` is the
operation's name (``prefetch_begin``, ``prefetch_cancel``,
``take_prefetched``, ``invalidate_from``) or, where the outcome matters,
the outcome: ``hit``/``miss`` for :meth:`~CachingService.get`,
``insert``/``reject`` for :meth:`~CachingService.put`, ``drop`` for
:meth:`~CachingService.remove` (an explicit remove or invalidation —
*not* a capacity eviction, which a what-if replay must re-derive
itself).  ``nbytes`` is the entry's size (``None`` on a miss: there is
no entry); ``qid`` is the query the operation is attributed to (see
:class:`QueryCacheView`).  An operation that moves no entry and
neither ``used_bytes`` nor ``prefetch_bytes`` notifies nobody: a pin, an
unpin, a ``prefetch_complete``, a refused ``prefetch_begin``, a
``remove`` of an absent key.  Subscribers are passive: they must treat
the cache as read-only, so subscribing changes no digest and no report
byte.  With no subscriber, nothing is built or called: every
notification site tests the subscriber list first.

A QES checks the cache once per sub-table of a pair (Section 4.1) and
pins what it found for as long as the pair is being joined.  That check
is one call, :meth:`CachingService.acquire` — usually through
:meth:`PinScope.acquire`, which also records the pin for release: a hit
is counted, moves the policy's recency and takes one pin, notifying
``hit`` exactly as a :meth:`~CachingService.get` followed by a
:meth:`~CachingService.pin` would; a miss is counted and notified as
``miss`` and pins nothing.  A pinned entry cannot be removed.  The
pins live one pair: a joiner opens one scope for its whole pair loop
and calls :meth:`PinScope.release` at the end of each pair, and the
scope's close releases the pair in hand when a fault unwinds the loop.
The lookup's policy hooks are bound once, when the service is built, so
:attr:`CachingService.policy` is read-only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    TypeVar,
)

__all__ = [
    "CacheStats",
    "CachingService",
    "EvictionPolicy",
    "LRUPolicy",
    "FIFOPolicy",
    "LFUPolicy",
    "BeladyPolicy",
    "PinScope",
    "QueryCacheView",
    "make_policy",
]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheStats:
    """Hit/miss/eviction counters plus byte traffic.

    Counters only ever grow, so one execution's activity on a long-lived
    (warm) cache is the difference between two snapshots — see
    :meth:`snapshot` and :meth:`since`.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_inserted: int = 0
    bytes_evicted: int = 0
    #: Entries staged ahead of need by the pipelined Indexed Join.
    prefetches: int = 0
    bytes_prefetched: int = 0
    #: Entries dropped because their source storage node failed.
    invalidations: int = 0

    def snapshot(self) -> "CacheStats":
        """An immutable-by-convention copy of the current counters."""
        return replace(self)

    def since(self, baseline: "CacheStats") -> "CacheStats":
        """Counter deltas accumulated after ``baseline`` was snapshotted.

        Execution reports use this so a run on a warmed (reused) cache
        reports only its own activity rather than the cache's lifetime
        totals.
        """
        return CacheStats(
            hits=self.hits - baseline.hits,
            misses=self.misses - baseline.misses,
            evictions=self.evictions - baseline.evictions,
            bytes_inserted=self.bytes_inserted - baseline.bytes_inserted,
            bytes_evicted=self.bytes_evicted - baseline.bytes_evicted,
            prefetches=self.prefetches - baseline.prefetches,
            bytes_prefetched=self.bytes_prefetched - baseline.bytes_prefetched,
            invalidations=self.invalidations - baseline.invalidations,
        )


class EvictionPolicy(Generic[K]):
    """Victim-selection strategy; the service tells it about every event."""

    name: str = ""

    def on_insert(self, key: K) -> None:
        raise NotImplementedError

    def on_access(self, key: K) -> None:
        raise NotImplementedError

    def on_remove(self, key: K) -> None:
        raise NotImplementedError

    def victim(self, evictable: Callable[[K], bool]) -> Optional[K]:
        """The resident key to evict next among those ``evictable`` accepts
        (the service's not-pinned test), or ``None`` when it accepts none."""
        raise NotImplementedError


class LRUPolicy(EvictionPolicy[K]):
    """Least-recently-used — the paper's policy."""

    name = "lru"

    def __init__(self) -> None:
        self._order: "OrderedDict[K, None]" = OrderedDict()
        #: an access moves the key to the young end: the OrderedDict's own
        #: C method, so a hit costs no Python frame here
        self.on_access = self._order.move_to_end

    def on_insert(self, key: K) -> None:
        self._order[key] = None
        self._order.move_to_end(key)

    def on_remove(self, key: K) -> None:
        self._order.pop(key, None)

    def victim(self, evictable: Callable[[K], bool]) -> Optional[K]:
        return next(filter(evictable, self._order), None)  # oldest first


class FIFOPolicy(EvictionPolicy[K]):
    """Evict in insertion order regardless of use."""

    name = "fifo"

    def __init__(self) -> None:
        self._order: "OrderedDict[K, None]" = OrderedDict()

    def on_insert(self, key: K) -> None:
        if key not in self._order:
            self._order[key] = None

    def on_access(self, key: K) -> None:
        pass

    def on_remove(self, key: K) -> None:
        self._order.pop(key, None)

    def victim(self, evictable: Callable[[K], bool]) -> Optional[K]:
        return next(filter(evictable, self._order), None)


class LFUPolicy(EvictionPolicy[K]):
    """Least-frequently-used; ties broken by age (insertion counter)."""

    name = "lfu"

    def __init__(self) -> None:
        self._counts: Dict[K, int] = {}
        self._age: Dict[K, int] = {}
        self._tick = 0

    def on_insert(self, key: K) -> None:
        self._tick += 1
        self._counts[key] = self._counts.get(key, 0)
        self._age[key] = self._tick

    def on_access(self, key: K) -> None:
        self._counts[key] = self._counts.get(key, 0) + 1

    def on_remove(self, key: K) -> None:
        self._counts.pop(key, None)
        self._age.pop(key, None)

    def victim(self, evictable: Callable[[K], bool]) -> Optional[K]:
        return min(
            filter(evictable, self._age),
            key=lambda k: (self._counts[k], self._age[k]),
            default=None,
        )


class BeladyPolicy(EvictionPolicy[K]):
    """Belady's offline-optimal policy: evict the entry whose next use is
    farthest in the future.

    Requires the full future reference string up front — available in our
    setting because the IJ scheduler knows the entire pair list before
    execution starts.  Used as the upper bound in the cache ablation.
    """

    name = "belady"

    def __init__(self, future_references: Sequence[K]):
        self._future: List[K] = list(future_references)
        self._cursor = 0
        # positions[key] = sorted list of future indices
        self._positions: Dict[K, List[int]] = {}
        for idx, key in enumerate(self._future):
            self._positions.setdefault(key, []).append(idx)
        self._heads: Dict[K, int] = {k: 0 for k in self._positions}
        self._resident: Dict[K, None] = {}

    def _advance(self, key: K) -> None:
        """Move the per-key head past the current cursor."""
        positions = self._positions.get(key)
        if positions is None:
            return
        head = self._heads[key]
        while head < len(positions) and positions[head] < self._cursor:
            head += 1
        self._heads[key] = head

    def note_reference(self, key: K) -> None:
        """Advance the reference cursor (the service calls this per access)."""
        self._cursor += 1

    def _next_use(self, key: K) -> int:
        self._advance(key)
        positions = self._positions.get(key)
        if positions is None:
            return 2**62
        head = self._heads[key]
        return positions[head] if head < len(positions) else 2**62

    def on_insert(self, key: K) -> None:
        self._resident[key] = None

    def on_access(self, key: K) -> None:
        pass

    def on_remove(self, key: K) -> None:
        self._resident.pop(key, None)

    def victim(self, evictable: Callable[[K], bool]) -> Optional[K]:
        return max(filter(evictable, self._resident), key=self._next_use, default=None)


def make_policy(name: str, future_references: Optional[Sequence] = None) -> EvictionPolicy:
    """Factory: ``lru`` / ``fifo`` / ``lfu`` / ``belady``."""
    name = name.lower()
    if name == "lru":
        return LRUPolicy()
    if name == "fifo":
        return FIFOPolicy()
    if name == "lfu":
        return LFUPolicy()
    if name == "belady":
        if future_references is None:
            raise ValueError("belady needs the future reference string")
        return BeladyPolicy(future_references)
    raise ValueError(f"unknown cache policy {name!r}")


@dataclass
class _Entry(Generic[V]):
    value: V
    nbytes: int
    pins: int = 0
    #: storage node the bytes came from (None when untracked)
    source: Optional[int] = None


@dataclass
class _Staged(Generic[V]):
    """A prefetch reservation: budget held from begin until take/cancel."""

    nbytes: int
    value: Optional[V] = None
    ready: bool = False


class CachingService(Generic[K, V]):
    """Byte-budgeted object cache with pluggable eviction, pinning and a
    bounded prefetch staging area.

    ``prefetch_budget_bytes`` caps the staging area at a quarter of the
    capacity — enough to double-buffer a pair of sub-tables without
    letting a deep prefetcher crowd out the cache's host memory.  Staged
    entries live outside the entry map: they are implicitly pinned (never
    eviction victims) and never evict resident entries.
    """

    def __init__(
        self,
        capacity_bytes: int,
        policy: Optional[EvictionPolicy[K]] = None,
    ):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = int(capacity_bytes)
        self.prefetch_budget_bytes = max(1, self.capacity_bytes // 4)
        if policy is None:
            policy = LRUPolicy()
        self._policy: EvictionPolicy[K] = policy
        # the lookup's two policy hooks, bound once: a hit calls
        # ``on_access`` directly, and only Belady counts references
        self._on_access = policy.on_access
        self._note_reference = (
            policy.note_reference if isinstance(policy, BeladyPolicy) else None
        )
        self._entries: Dict[K, _Entry[V]] = {}
        self._bytes = 0
        #: staged prefetches: key -> [value-or-None, nbytes, ready?]
        self._staged: Dict[K, _Staged[V]] = {}
        self._staged_bytes = 0
        self.stats = CacheStats()
        #: callables notified of lookups and state changes (:meth:`subscribe`)
        self._subscribers: List = []

    def subscribe(self, fn) -> None:
        """Register ``fn(op, key, nbytes, qid)`` to be notified of
        every lookup and state change, after it happens (module docstring
        has the vocabulary).

        The one attach point for everything that watches a cache.
        Subscribing a callable equal to one already subscribed is a
        no-op, so re-wiring a warm or shared cache to the same sink does
        not double-count.  Subscribers must treat the cache as read-only.
        """
        if fn not in self._subscribers:
            self._subscribers.append(fn)

    def _emit(
        self,
        op: str,
        key: Optional[K] = None,
        nbytes: Optional[int] = None,
        view: Optional[QueryCacheView[K, V]] = None,
    ) -> None:
        """Notify every subscriber; callers test ``self._subscribers``
        first, so an unwatched cache makes no call at all."""
        qid = None if view is None else view.qid
        for fn in self._subscribers:
            fn(op, key, nbytes, qid)

    # -- observers ----------------------------------------------------------------

    @property
    def policy(self) -> EvictionPolicy[K]:
        """The eviction policy, fixed at construction: the lookup's hooks
        are bound from it there, so it cannot be swapped afterwards."""
        return self._policy

    @property
    def used_bytes(self) -> int:
        return self._bytes

    @property
    def pinned_bytes(self) -> int:
        """Bytes held by entries with at least one outstanding pin.

        A quiesced cache (no query in flight) must report zero here —
        the sanitizer enforces exactly that at end of run, which is how
        leaked pins on error/recovery paths become loud failures instead
        of a shared cache that silently shrinks forever.
        """
        return sum(e.nbytes for e in self._entries.values() if e.pins > 0)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> Iterable[K]:
        return self._entries.keys()

    # -- core operations -------------------------------------------------------------

    def get(
        self, key: K, view: Optional[QueryCacheView[K, V]] = None
    ) -> Optional[V]:
        """Look up ``key``; counts a hit or miss and informs the policy.

        ``view``, here and on every other stat-changing operation, is the
        :class:`QueryCacheView` the operation arrived through: its
        private ledger is bumped alongside the shared counters and its
        ``qid`` rides on the notification.
        """
        value = self.acquire(key, view)
        if value is not None:
            # the hit's pin, handed straight back: a pin notifies nobody
            self._entries[key].pins -= 1
        return value

    def acquire(
        self, key: K, view: Optional[QueryCacheView[K, V]] = None
    ) -> Optional[V]:
        """:meth:`get` and, on a hit, :meth:`pin`, as one call: the same
        counters, policy update and notification (``hit``).  Returns the
        pinned value, or ``None`` on a miss, which pins nothing.  Each hit
        owes one :meth:`unpin`; :meth:`PinScope.acquire` records it.

        This is the counted lookup, in one frame: :meth:`get` is an
        acquire whose pin is handed back at once."""
        if self._note_reference is not None:
            self._note_reference(key)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            if view is not None:
                view.stats.misses += 1
            if self._subscribers:
                self._emit("miss", key, view=view)
            return None
        self.stats.hits += 1
        if view is not None:
            view.stats.hits += 1
        self._on_access(key)
        if self._subscribers:
            self._emit("hit", key, entry.nbytes, view)
        entry.pins += 1
        return entry.value

    def peek(self, key: K) -> Optional[V]:
        """Look up without touching statistics or recency state."""
        entry = self._entries.get(key)
        return entry.value if entry else None

    def put(
        self,
        key: K,
        value: V,
        nbytes: int,
        pin: bool = False,
        source: Optional[int] = None,
        view: Optional[QueryCacheView[K, V]] = None,
    ) -> bool:
        """Insert ``key``; evicts unpinned victims until the entry fits.

        Returns ``False`` (and does not insert) when the entry can never
        fit: larger than capacity, or everything else is pinned.  Re-putting
        an existing key replaces its value and size; a *grown* entry runs
        the same eviction loop as a fresh insert (the entry itself is never
        its own victim) so ``used_bytes`` can never exceed the capacity,
        and the growth delta is accounted in ``stats.bytes_inserted``.

        ``source`` records which storage node served the bytes, enabling
        :meth:`invalidate_from` when that node later fails.
        """
        # subscribers must also see failed puts: a put can evict victims and
        # still return False when the entry ultimately cannot fit
        ok = self._put(key, value, nbytes, pin, source, view)
        if self._subscribers:
            self._emit("insert" if ok else "reject", key, nbytes, view)
        return ok

    def _put(
        self,
        key: K,
        value: V,
        nbytes: int,
        pin: bool,
        source: Optional[int],
        view: Optional[QueryCacheView[K, V]],
    ) -> bool:
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if key in self._entries:
            old = self._entries[key]
            if nbytes > self.capacity_bytes:
                return False
            while self._bytes - old.nbytes + nbytes > self.capacity_bytes:
                if not self._evict_one(view, exclude=key):
                    return False
            self._bytes += nbytes - old.nbytes
            if nbytes > old.nbytes:
                self.stats.bytes_inserted += nbytes - old.nbytes
                if view is not None:
                    view.stats.bytes_inserted += nbytes - old.nbytes
            old.value = value
            old.nbytes = nbytes
            old.source = source
            if pin:
                old.pins += 1
            self._on_access(key)
            return True
        if nbytes > self.capacity_bytes:
            return False
        while self._bytes + nbytes > self.capacity_bytes:
            if not self._evict_one(view):
                return False
        self._entries[key] = _Entry(value, nbytes, pins=1 if pin else 0, source=source)
        self._bytes += nbytes
        self.stats.bytes_inserted += nbytes
        if view is not None:
            view.stats.bytes_inserted += nbytes
        self._policy.on_insert(key)
        return True

    def pin(self, key: K) -> None:
        """Protect ``key`` from eviction (counted; pair with :meth:`unpin`)."""
        try:
            self._entries[key].pins += 1
        except KeyError:
            raise KeyError(f"cannot pin absent key {key!r}") from None

    def unpin(self, key: K) -> None:
        entry = self._entries.get(key)
        if entry is None:
            raise KeyError(f"cannot unpin absent key {key!r}")
        if entry.pins <= 0:
            raise ValueError(f"key {key!r} is not pinned")
        entry.pins -= 1

    def pin_scope(self) -> "PinScope[K, V]":
        """A pin guard scoping every pin it acquires to a ``with`` block.

        Simulated processes receive faults as exceptions thrown *into*
        their generators (``gen.throw``), so ``with``/``finally`` blocks
        run even when a joiner is killed mid-pair — routing pins through
        a scope is therefore a guaranteed paired release on every error
        and recovery path.
        """
        return PinScope(self)

    # -- prefetch staging --------------------------------------------------------------

    @property
    def prefetch_bytes(self) -> int:
        """Bytes currently held (or reserved in flight) by the staging area."""
        return self._staged_bytes

    def prefetch_begin(self, key: K, nbytes: int) -> bool:
        """Reserve staging budget for an in-flight prefetch of ``key``.

        Returns ``False`` — and the caller must then skip the transfer —
        when the key is already resident or staged, or when the staging
        budget cannot hold ``nbytes`` more.  Reserving *before* the
        simulated transfer starts means the budget also bounds in-flight
        prefetch traffic, not just parked entries.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if key in self._entries or key in self._staged:
            return False
        if self._staged_bytes + nbytes > self.prefetch_budget_bytes:
            return False
        self._staged[key] = _Staged(nbytes=nbytes)
        self._staged_bytes += nbytes
        if self._subscribers:
            self._emit("prefetch_begin", key, nbytes)
        return True

    def prefetch_complete(
        self, key: K, value: V, view: Optional[QueryCacheView[K, V]] = None
    ) -> None:
        """Park the transferred value; it is now ready to be taken."""
        staged = self._staged.get(key)
        if staged is None:
            raise KeyError(f"no prefetch in flight for key {key!r}")
        if staged.ready:
            raise ValueError(f"prefetch for key {key!r} completed twice")
        staged.value = value
        staged.ready = True
        self.stats.prefetches += 1
        self.stats.bytes_prefetched += staged.nbytes
        if view is not None:
            view.stats.prefetches += 1
            view.stats.bytes_prefetched += staged.nbytes

    def prefetch_cancel(self, key: K) -> None:
        """Abandon a reservation (error paths); releases its budget."""
        staged = self._staged.pop(key, None)
        if staged is not None:
            self._staged_bytes -= staged.nbytes
            if self._subscribers:
                self._emit("prefetch_cancel", key, staged.nbytes)

    def take_prefetched(self, key: K) -> Optional[V]:
        """Remove and return a *ready* staged value (``None`` otherwise).

        Taking releases the staging budget; the caller is expected to
        re-insert the value through :meth:`put`, which is what keeps the
        main cache's behaviour identical to a run without prefetching.
        """
        staged = self._staged.get(key)
        if staged is None or not staged.ready:
            return None
        del self._staged[key]
        self._staged_bytes -= staged.nbytes
        if self._subscribers:
            self._emit("take_prefetched", key, staged.nbytes)
        return staged.value

    def invalidate_from(
        self, source: int, view: Optional[QueryCacheView[K, V]] = None
    ) -> int:
        """Drop every unpinned entry whose bytes came from storage node
        ``source``; returns how many were dropped.

        Called by recovery code when a storage node fails: its cached
        sub-tables can no longer be re-validated against the node, so they
        are discarded and future requests served from replicas.  Pinned
        entries (actively being joined) are spared — their bytes are
        already resident and in use.
        """
        victims = [
            k
            for k, e in self._entries.items()
            if e.source == source and e.pins == 0
        ]
        for key in victims:
            self.remove(key)
        self.stats.invalidations += len(victims)
        if view is not None:
            view.stats.invalidations += len(victims)
        if self._subscribers:
            self._emit("invalidate_from", view=view)
        return len(victims)

    def remove(self, key: K) -> bool:
        """Explicitly drop ``key`` (not counted as an eviction); ``False``
        when absent, a ``ValueError`` when pinned (its holder owes an unpin)."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        if entry.pins:
            raise ValueError(f"cannot remove pinned key {key!r}")
        del self._entries[key]
        self._bytes -= entry.nbytes
        self._policy.on_remove(key)
        if self._subscribers:
            self._emit("drop", key, entry.nbytes)
        return True

    # -- internals -----------------------------------------------------------------------

    def _evict_one(
        self,
        view: Optional[QueryCacheView[K, V]],
        exclude: Optional[K] = None,
    ) -> bool:
        entries = self._entries
        victim = self._policy.victim(lambda k: entries[k].pins == 0 and k != exclude)
        if victim is None:
            return False
        entry = entries.pop(victim)
        self._bytes -= entry.nbytes
        self.stats.evictions += 1
        self.stats.bytes_evicted += entry.nbytes
        if view is not None:
            view.stats.evictions += 1
            view.stats.bytes_evicted += entry.nbytes
        self._policy.on_remove(victim)
        return True


class PinScope(Generic[K, V]):
    """Context-managed pin guard over one :class:`CachingService`.

    Every pin acquired *through the scope* — a hit of :meth:`acquire`,
    :meth:`pin`, or a :meth:`put` with ``pin=True`` that actually
    inserted — is recorded, and every pin it holds is released when the
    scope closes, however it closes: a ``with cache.pin_scope()`` block
    bounds the lifetime of its pins.  :meth:`release` ends them sooner
    and keeps the scope open.  That is how an Indexed Join joiner holds
    one scope across its whole pair loop while each pair's pins live
    only as long as the pair: it releases at the end of every pair, and
    a fault thrown into any yield closes the scope with whatever the
    pair in hand had pinned.

    The scope holds only pins it acquired, so independent queries can
    each run their own scopes against the same shared cache without
    stealing each other's pins.  A scope opened on a
    :class:`QueryCacheView` keeps the shared cache and the view apart:
    its lookups and inserts are attributed to the view, its pins and
    unpins go to the shared cache directly.
    """

    __slots__ = ("_cache", "_view", "_held", "_closed")

    def __init__(
        self,
        cache: CachingService[K, V],
        view: Optional[QueryCacheView[K, V]] = None,
    ) -> None:
        self._cache = cache
        self._view = view
        self._held: List[K] = []
        self._closed = False

    def __enter__(self) -> "PinScope[K, V]":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        return None

    def acquire(self, key: K) -> Optional[V]:
        """:meth:`CachingService.acquire`: the value, pinned and tracked
        by this scope, or ``None`` on a miss (nothing pinned)."""
        value = self._cache.acquire(key, self._view)
        if value is not None:
            self._held.append(key)
        return value

    def pin(self, key: K) -> None:
        """Pin ``key`` on the underlying cache, tracked by this scope."""
        self._cache.pin(key)
        self._held.append(key)

    def put(
        self,
        key: K,
        value: V,
        nbytes: int,
        pin: bool = False,
        source: Optional[int] = None,
    ) -> bool:
        """Forwarding :meth:`CachingService.put`; a successful pinned
        insert is tracked exactly like an explicit :meth:`pin`."""
        ok = self._cache.put(key, value, nbytes, pin, source, self._view)
        if ok and pin:
            self._held.append(key)
        return ok

    def release(self) -> None:
        """Release every pin held so far and keep the scope open: the
        next pins it takes are released by the next ``release`` or by
        :meth:`close`.  Unpins in place, with :meth:`CachingService.unpin`'s
        two refusals: a ``KeyError`` for an absent key, a ``ValueError``
        for one that holds no pin."""
        entries, held = self._cache._entries, self._held
        while held:
            key = held.pop()
            try:
                entry = entries[key]
            except KeyError:
                raise KeyError(f"cannot unpin absent key {key!r}") from None
            if entry.pins <= 0:
                raise ValueError(f"key {key!r} is not pinned")
            entry.pins -= 1

    def close(self) -> None:
        """Release every pin still held; idempotent."""
        if self._closed:
            return
        self._closed = True
        self.release()


class QueryCacheView(Generic[K, V]):
    """Per-query handle on a shared :class:`CachingService`.

    Single-query code attributes cache activity with
    ``stats.snapshot()`` before the run and ``stats.since(before)``
    after — correct when the cache serves one query, wrong the moment
    two queries interleave on it (each would absorb the other's hits).
    A view carries a private :class:`CacheStats` ledger and a ``qid``
    and hands itself to the shared cache's stat-changing operations,
    which bump the ledger alongside the shared counters and put the qid
    on the notification, so the snapshot/since idiom keeps working
    unchanged per query and subscribers can attribute traffic per query
    (and, through the server's submit records, per tenant).

    Only stats are virtualised; entries, budgets and pins are the shared
    cache's own (that sharing is the point of a view server).  A view
    offers exactly the operations a query's execution uses, each written
    out below; anything else is read off :attr:`shared`.
    """

    __slots__ = ("shared", "qid", "stats")

    def __init__(
        self, shared: CachingService[K, V], qid: Optional[int] = None
    ) -> None:
        self.shared = shared
        self.qid = qid
        self.stats = CacheStats()

    def __contains__(self, key: K) -> bool:
        return key in self.shared

    def __len__(self) -> int:
        return len(self.shared)

    @property
    def used_bytes(self) -> int:
        return self.shared.used_bytes

    def subscribe(self, fn) -> None:
        self.shared.subscribe(fn)

    def get(self, key: K) -> Optional[V]:
        return self.shared.get(key, self)

    def acquire(self, key: K) -> Optional[V]:
        return self.shared.acquire(key, self)

    def pin(self, key: K) -> None:
        self.shared.pin(key)

    def unpin(self, key: K) -> None:
        self.shared.unpin(key)

    def remove(self, key: K) -> bool:
        return self.shared.remove(key)

    def put(
        self,
        key: K,
        value: V,
        nbytes: int,
        pin: bool = False,
        source: Optional[int] = None,
    ) -> bool:
        return self.shared.put(key, value, nbytes, pin, source, self)

    def prefetch_begin(self, key: K, nbytes: int) -> bool:
        return self.shared.prefetch_begin(key, nbytes)

    def prefetch_complete(self, key: K, value: V) -> None:
        self.shared.prefetch_complete(key, value, self)

    def prefetch_cancel(self, key: K) -> None:
        self.shared.prefetch_cancel(key)

    def take_prefetched(self, key: K) -> Optional[V]:
        return self.shared.take_prefetched(key)

    def invalidate_from(self, source: int) -> int:
        return self.shared.invalidate_from(source, self)

    def pin_scope(self) -> PinScope[K, V]:
        """A pin scope over the shared cache that attributes its lookups
        and pinned inserts to *this view*."""
        return PinScope(self.shared, self)
