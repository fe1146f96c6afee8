"""Cache reuse observatory: access traces, miss-ratio curves, working sets.

The serve counters say how often the shared caches hit; they cannot say
how the hit rate would move with the cache size, or how much the stream
touches per window.  This module answers both, in two layers, all
passive:

* :class:`AccessTraceRecorder` — subscribes to every shared cache
  (:meth:`~repro.services.cache.CachingService.subscribe`) and
  timestamps each hit/miss/insert/drop on the simulated clock.  It
  schedules nothing, draws no randomness and mutates no cache state, so
  a recorded serve is event-for-event identical to an unrecorded one.
  The trace is folded block by block while the serve runs, so memory is
  bounded by the keys, the windows and one block, not by the serve.
* Mattson-style **byte-weighted reuse distances** over the recorded
  access string, rolled into what-if miss-ratio curves (MRC) at
  alternative cache capacities — global and per tenant — plus windowed
  working-set estimation on the observatory's window grid.

Why replay-by-distance instead of replaying the op log against a smaller
cache?  A raw replay is wrong: keys that *hit* in the recorded run were
never re-inserted, so the replayed small cache would silently lose their
insertions.  The byte-weighted stack distance is exact for LRU under the
conditions the server satisfies on fault-free serves (eviction takes the
recency-order bottom; see DESIGN.md §14 for the argument and the pinning
caveat), and the exactness test pins the curve's value at the *actual*
configured capacity to the measured hit/miss counters.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.timeseries import horizon_counts, window_edges, window_index

__all__ = [
    "AccessTraceRecorder",
    "miss_ratio_curve",
    "reuse_distances",
    "working_set_windows",
]

#: default capacity grid for what-if curves, as fractions of the
#: configured capacity (the configured point itself included so the
#: curve is checkable against the measured counters)
CAPACITY_FRACTIONS = (0.125, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)

#: the key-granular cache events a trace keeps, by their op code; staging
#: traffic and refused puts move no entry in or out of the reference
#: string
_HIT, _MISS, _INSERT, _DROP = range(4)
_OP_CODES = {"hit": _HIT, "miss": _MISS, "insert": _INSERT, "drop": _DROP}

#: trace rows folded at a time (DESIGN.md §14 has the peak-RSS / wall
#: table it was chosen from); the recorder folds whenever this many rows
#: arrived since its last fold
_BLOCK = 8192


# ---------------------------------------------------------------------------
# reuse distances (Mattson, byte-weighted)
# ---------------------------------------------------------------------------


def _compact(keys) -> np.ndarray:
    """Hashable keys as int ids, numbered in first-seen order."""
    ids: Dict[Hashable, int] = {}
    return np.array([ids.setdefault(key, len(ids)) for key in keys], dtype=np.int64)


def _neighbours(kid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per op, the previous and the next op on the same key (-1 / n
    where there is none), from one stable sort by key."""
    n = len(kid)
    order = np.argsort(kid, kind="stable")
    same = kid[order[1:]] == kid[order[:-1]]
    prev = np.full(n, -1, dtype=np.int64)
    nxt = np.full(n, n, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    nxt[order[:-1][same]] = order[1:][same]
    return prev, nxt


def _dominance(upto: np.ndarray, after: np.ndarray, end: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``sum(w[j] for j <= upto[q] if end[j] > after[q])`` per query q.

    The prefix ``[0, upto]`` splits into one aligned power-of-two block
    per set bit of its length, as in a Fenwick walk.  Level by level, the
    weighted ops are stably re-sorted by ``(block, end)`` — each block is
    two sorted halves from the level below — so a block's share is the
    prefix weight up to the block's last position minus the cumulative
    weight up to ``(block, after)``, found by ``searchsorted``:
    O(n log^2 n), all of it integer arithmetic.
    """
    total = np.zeros(len(upto), dtype=np.int64)
    items = np.flatnonzero(w)
    if not len(items) or not len(upto):
        return total
    n = len(end)
    span = n + 2  # (block, end) -> block * span + end, end <= n
    prefix = np.concatenate(([0], np.cumsum(w)))
    weights, ends, length = w[items], end[items], upto + 1
    order = np.arange(len(items))
    level = 0
    while (1 << level) <= length.max():
        keys = (items >> level) * span + ends
        order = order[np.argsort(keys[order], kind="stable")]
        sel = np.flatnonzero((length >> level) & 1)
        if len(sel):
            cum = np.concatenate(([0], np.cumsum(weights[order])))
            top = length[sel] >> level  # the block is top - 1
            total[sel] += prefix[np.minimum(top << level, n)] - cum[
                np.searchsorted(keys[order], (top - 1) * span + after[sel], side="right")
            ]
        level += 1
    return total


def _stack_distances(
    kid: np.ndarray, nbytes: np.ndarray, access: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One distance per access (``-1`` for a compulsory miss) over int
    columns, where an op that is not an access is a drop; and, in order,
    the positions of the accesses that leave their key resident (no op on
    the key follows them).

    Access ``i`` re-touches the key's previous access ``p`` unless a
    drop came between.  An access's bytes stay on the stack until the
    next op on its key (``end``), so ``i`` sees ``w[p]`` plus every
    access ``j`` in ``(p, i)`` with ``end[j] > i``.  Summing over
    ``j < i`` first — ``cw[i]`` minus ``cew[i]``, the bytes whose
    residency ended by ``i`` — leaves only ``j <= p`` with
    ``end[j] > i`` to subtract: a dominance sum (:func:`_dominance`).
    """
    n = len(kid)
    prev, end = _neighbours(kid)
    w = np.where(access, nbytes, 0)
    ended = np.zeros(n + 1, dtype=np.int64)
    ended[end] = w  # each op ends at most one residency; slot n is unused
    live = np.cumsum(w) - w - np.cumsum(ended[:n])
    q = np.flatnonzero(access & (prev >= 0) & access[prev])
    p = prev[q]
    out = np.full(n, -1, dtype=np.int64)
    out[q] = w[p] + live[q] - _dominance(p, q, end, w)
    return out[access], np.flatnonzero(access & (end == n))


class _LruStack:
    """One access string's LRU stack between blocks: each resident key's
    last access, oldest first, with the bytes it left resident.

    :func:`_fold_stacks` prefixes the string's next rows with these as
    accesses, which makes their distances the ones a pass over the whole
    string gives: an access's distance counts its key's previous access
    and the resident keys' *last* accesses since, and a resident key
    keeps both its bytes and its recency order in the prefix; a key
    dropped since its last access is absent, so its next access is
    compulsory.
    """

    __slots__ = ("kid", "nbytes")

    def __init__(self) -> None:
        self.kid = self.nbytes = np.empty(0, dtype=np.int64)


def _fold_stacks(strings) -> List[np.ndarray]:
    """Each ``(stack, kid, nbytes, access)`` string's distances, its stack
    moved past its rows — all strings in one kernel pass.

    The strings are laid end to end, each behind its stack and with its
    key ids shifted to a range of its own.  An access's distance only
    counts ops after its key's previous access, which is in its own
    string, so the strings cannot see each other.
    """
    if not strings:
        return []
    span = 1 + max((int(k.max()) for s in strings for k in (s[0].kid, s[1]) if len(k)), default=0)
    parts, bounds, at = [], [], 0
    for i, (stack, kid, nbytes, access) in enumerate(strings):
        m = len(stack.kid)
        parts.append((stack.kid + i * span, stack.nbytes, np.ones(m, dtype=bool)))
        parts.append((kid + i * span, nbytes, access))
        bounds.append((at, at + m, at + m + len(kid)))  # stack, own rows, end
        at += m + len(kid)
    kid, nbytes, access = (np.concatenate(column) for column in zip(*parts))
    distances, resident = _stack_distances(kid, nbytes, access)
    rank = np.concatenate(([0], np.cumsum(access)))  # accesses before each position
    out = []
    for i, ((stack, *_), (begin, own, end)) in enumerate(zip(strings, bounds)):
        out.append(distances[rank[own] : rank[end]])
        keep = resident[np.searchsorted(resident, begin) : np.searchsorted(resident, end)]
        stack.kid, stack.nbytes = kid[keep] - i * span, nbytes[keep]
    return out


def reuse_distances(trace: Sequence[Tuple[str, Hashable, int]]) -> List[Optional[int]]:
    """Byte-weighted LRU stack distances for one cache's access string.

    ``trace`` items are ``("access", key, nbytes)`` or ``("drop", key,
    0)`` in trace order; ``nbytes`` is the size the entry has once this
    access is served.  Returns one distance per *access* item: ``None``
    for a compulsory miss (first touch, or first touch after a drop),
    otherwise the resident bytes of the key at its previous access plus
    the bytes of every distinct key touched in between.  Under LRU the
    access hits a cache of capacity ``C`` iff its distance is ``<= C``,
    so one pass prices every capacity at once — that is Mattson's stack
    algorithm, byte-weighted for variable-size entries, folded a block
    at a time (:class:`_LruStack`), O(n log^2 n) within a block.
    """
    items = list(trace)
    for kind, _, nbytes in items:
        if kind not in ("access", "drop"):
            raise ValueError(f"unknown trace op {kind!r}")
        if kind == "access" and nbytes < 0:
            raise ValueError("access bytes must be >= 0")
    access = np.array([kind == "access" for kind, _, _ in items], dtype=bool)
    nbytes = np.array([n if kind == "access" else 0 for kind, _, n in items], dtype=np.int64)
    kid = _compact(key for _, key, _ in items)
    stack = _LruStack()
    blocks = [slice(i, i + _BLOCK) for i in range(0, len(items), _BLOCK)]
    distances = [_fold_stacks([(stack, kid[b], nbytes[b], access[b])])[0] for b in blocks]
    out = np.concatenate([np.empty(0, dtype=np.int64)] + distances)
    return [None if d < 0 else d for d in out.tolist()]


def _points(capacities: Sequence[int], accesses: int, hits: Sequence[int]) -> List[Dict[str, Any]]:
    return [
        {
            "capacity_bytes": cap,
            "accesses": accesses,
            "hits": hit,
            "misses": accesses - hit,
            "miss_ratio": (accesses - hit) / accesses if accesses else 0.0,
        }
        for cap, hit in zip(capacities, hits)
    ]


#: a ``(distances, accesses)`` histogram with nothing in it
_NO_DISTANCES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _count(histogram, distances: np.ndarray):
    """A histogram — sorted distinct distances and how many accesses had
    each — with ``distances`` added."""
    values, counts = histogram
    merged, at = np.unique(np.concatenate((values, distances)), return_inverse=True)
    total = np.bincount(at[len(values):], minlength=len(merged))
    total[at[: len(values)]] += counts
    return merged, total


def _curve(histogram, capacities: Sequence[int]) -> List[Dict[str, Any]]:
    """What-if points at each capacity from a distance histogram: an
    access hits a capacity its distance fits in (compulsory: none)."""
    values, counts = histogram
    fits = values >= 0
    hits = np.concatenate(([0], np.cumsum(counts[fits])))
    at = np.searchsorted(values[fits], capacities, side="right")
    return _points(capacities, int(counts.sum()), hits[at].tolist())


def miss_ratio_curve(
    distances: Sequence[Optional[int]], capacities: Sequence[int]
) -> List[Dict[str, Any]]:
    """Evaluate the what-if miss ratio at each capacity.

    Monotone non-increasing in capacity by construction: a distance that
    fits in ``C`` fits in every larger capacity.
    """
    distances = np.array([-1 if d is None else d for d in distances], dtype=np.int64)
    return _curve(_count(_NO_DISTANCES, distances), sorted({int(c) for c in capacities}))


# ---------------------------------------------------------------------------
# working set
# ---------------------------------------------------------------------------


class _WorkingSet:
    """Working-set windows of one cache, folded as its accesses arrive.

    Access counts are kept per window.  Distinct keys and their bytes
    are kept for closed windows only (a window closes when an access
    falls in a later one), read off two per-key columns — the window of
    the key's last access and the size it had there — or, for a window
    that opens and closes within one fold, off that fold's rows.  The
    final window of a horizon absorbs every window after it, and its
    keys are those whose last access lies in that suffix, at their last
    size, so accesses stamped at or past the horizon need no retained
    window.
    """

    def __init__(self, width: float) -> None:
        self.width = width
        self.hits: List[int] = []
        self.misses: List[int] = []
        #: window -> (distinct keys, distinct bytes), once closed
        self.closed: Dict[int, Tuple[int, int]] = {}
        self.newest = -1
        self.last_window = np.empty(0, dtype=np.int64)
        self.last_bytes = np.empty(0, dtype=np.int64)

    def grow(self, keys: int) -> None:
        self.last_window = _grown(self.last_window, keys)
        self.last_bytes = _grown(self.last_bytes, keys)

    def add(self, t: np.ndarray, hit: np.ndarray, kid: np.ndarray, nbytes: np.ndarray) -> None:
        """Fold accesses in time order (key ids below :meth:`grow`'s)."""
        if not len(t):
            return
        window_index(t[-1], self.width)
        index = (t / self.width).astype(np.int64)
        first, top = int(index[0]), int(index[-1])
        if first < self.newest or np.any(np.diff(index) < 0):
            raise ValueError("working-set accesses must come in time order")
        hits = np.bincount(index[hit] - first, minlength=top - first + 1).tolist()
        counts = np.bincount(index - first).tolist()
        for column in (self.hits, self.misses):
            column.extend([0] * (top + 1 - len(column)))
        for w in range(first, top + 1):
            self.hits[w] += hits[w - first]
            self.misses[w] += counts[w - first] - hits[w - first]
        # each key's last access in each window, ordered by (window, key)
        span = int(kid.max()) + 1
        cells, last = _last(index * span + kid)
        window, key, size = cells // span, cells % span, nbytes[last]
        if first > self.newest >= 0:
            self.closed[self.newest] = self.since(self.newest)
        now = window == first
        self.last_window[key[now]] = first
        self.last_bytes[key[now]] = size[now]
        if top > first:
            self.closed[first] = self.since(first)
            later = ~now
            window, key, size = window[later] - first, key[later], size[later]
            distinct = np.bincount(window).tolist()
            nbytes_in = np.zeros(top - first + 1, dtype=np.int64)
            np.add.at(nbytes_in, window, size)
            for w in range(first + 1, top):
                self.closed[w] = (distinct[w - first], int(nbytes_in[w - first]))
            keys, at = _last(key)
            self.last_window[keys] = window[at] + first
            self.last_bytes[keys] = size[at]
        self.newest = top

    def since(self, window: int) -> Tuple[int, int]:
        """Distinct keys last accessed in ``window`` or later, and the
        sum of their sizes there."""
        mask = self.last_window >= window
        return int(np.count_nonzero(mask)), int(self.last_bytes[mask].sum())

    def totals(self, count: int) -> List[Tuple[int, int, int, int]]:
        """``(hits, misses, distinct keys, distinct bytes)`` for each of
        ``count`` windows, the last one absorbing any later windows."""
        distinct = [
            self.since(w) if w == self.newest else self.closed.get(w, (0, 0))
            for w in range(count - 1)
        ] + [self.since(count - 1)]
        hits, misses = (horizon_counts(c, count) for c in (self.hits, self.misses))
        return [(h, m) + d for h, m, d in zip(hits, misses, distinct)]


def _grown(column: np.ndarray, size: int) -> np.ndarray:
    """``column`` extended to at least ``size`` entries of -1 (nothing
    yet), doubling so growth is amortised."""
    if len(column) >= size:
        return column
    out = np.full(max(size, 2 * len(column)), -1, dtype=column.dtype)
    out[: len(column)] = column
    return out


def _last(kid: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each distinct key in ``kid`` and the position of its last row."""
    keys, first = np.unique(kid[::-1], return_index=True)
    return keys, len(kid) - 1 - first


def _window_rows(
    edges: List[Tuple[float, float]], totals: Sequence[Tuple[int, int, int, int]]
) -> List[Dict[str, Any]]:
    return [
        {
            "t0": t0,
            "t1": t1,
            "accesses": hits + misses,
            "hits": hits,
            "misses": misses,
            "distinct_keys": keys,
            "distinct_bytes": nbytes,
        }
        for (t0, t1), (hits, misses, keys, nbytes) in zip(edges, totals)
    ]


def working_set_windows(
    events: Sequence[Tuple[float, str, Hashable, int]], width: float, t_end: float
) -> List[Dict[str, Any]]:
    """Windowed working-set estimate over timestamped accesses.

    ``events`` are ``(t, op, key, nbytes)`` in time order with ``op`` in
    ``hit``/``miss``; the window grid is the observatory's own
    (:func:`repro.telemetry.timeseries.window_edges`, final window
    closed, an access at ``t`` in window ``int(t / width)``), so
    per-window access counts sum to the trace total exactly — the
    reconciliation the validator checks.  The last size seen in a window
    is the key's size there.
    """
    edges = window_edges(width, t_end)
    kid = _compact(e[2] for e in events)
    windows = _WorkingSet(width)
    windows.grow(int(kid.max()) + 1 if len(kid) else 0)
    windows.add(
        np.array([e[0] for e in events], dtype=np.float64),
        np.array([e[1] == "hit" for e in events], dtype=bool),
        kid,
        np.array([e[3] for e in events], dtype=np.int64),
    )
    return _window_rows(edges, windows.totals(len(edges)))


# ---------------------------------------------------------------------------
# the recorder
# ---------------------------------------------------------------------------


def _backfill(
    miss: np.ndarray, group: np.ndarray, nbytes: np.ndarray, before: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """A miss carries no size (nothing is resident); the size it *will*
    occupy is the next size recorded for its key, falling back to the
    last one seen before it, then 0 (a query that died between its miss
    and its put).  ``group`` identifies the key on its node and
    ``before`` is each row's last size among rows folded earlier (-1:
    none).  Returns the sizes, and which of them are final: all but a
    miss with no size after it yet, which stays provisional until the
    trace ends."""
    n = len(group)
    order = np.argsort(group, kind="stable")
    sized = ~miss[order]
    at = np.arange(n)
    nxt = np.minimum.accumulate(np.where(sized, at, n)[::-1])[::-1]
    prv = np.maximum.accumulate(np.where(sized, at, -1))
    # one sentinel slot answers both "none after" (n) and "none before" (-1)
    key = np.append(group[order], -1)
    size = np.append(nbytes[order], 0)
    ahead = key[nxt] == key[:-1]
    fill = np.where(
        ahead,
        size[nxt],
        np.where(key[prv] == key[:-1], size[prv], np.maximum(before[order], 0)),
    )
    out = np.empty_like(nbytes)
    out[order] = np.where(sized, size[:-1], fill)
    final = np.empty(n, dtype=bool)
    final[order] = sized | ahead
    return out, final


class _NodeFold:
    """One watched cache's share of the running analysis: its op counts,
    per key the last size recorded (the miss back-fill's fallback), its
    working set (whose last-access columns are also the footprint), and
    one LRU stack per access string — ``None`` for every access, a
    tenant's name for that tenant's accesses plus every drop."""

    __slots__ = ("ops", "last_size", "working_set", "stacks")

    def __init__(self, width: float) -> None:
        self.ops = np.zeros(4, dtype=np.int64)
        self.last_size = np.empty(0, dtype=np.int64)
        self.working_set = _WorkingSet(width)
        self.stacks: Dict[Optional[str], _LruStack] = {}

    def grow(self, keys: int) -> None:
        self.last_size = _grown(self.last_size, keys)
        self.working_set.grow(keys)

    def fold(self, t, op, kid, nbytes, label, labels):
        """Fold one block's rows on this node; returns its access strings
        that have rows to fold, as ``{name: (stack, kid, nbytes, access)}``
        for :func:`_fold_stacks` (none when ``labels`` is ``None``)."""
        access, drop, sized = op <= _MISS, op == _DROP, op != _MISS
        self.ops += np.bincount(op, minlength=4)
        keys, last = _last(kid[sized])
        self.last_size[keys] = nbytes[sized][last]
        self.working_set.add(t[access], op[access] == _HIT, kid[access], nbytes[access])
        if labels is None:
            return {}
        strings = {name: access & (label == j) for j, name in enumerate(labels)}
        strings[None] = access
        for name in self.stacks:
            strings.setdefault(name, np.zeros_like(access))
        out = {}
        for name, own in strings.items():
            if own.any() or (name in self.stacks and drop.any()):
                rows = own | drop
                stack = self.stacks.setdefault(name, _LruStack())
                out[name] = (stack, kid[rows], nbytes[rows], access[rows])
        return out


class AccessTraceRecorder:
    """Passive per-entry access trace over the server's shared caches.

    One recorder watches every compute node's cache; each key-granular
    event is stamped with the simulated clock and the query id the
    operation arrived under (the serving view's ``qid``), which the
    server's ``submit`` event maps to a tenant (:meth:`note_query`).
    Recording appends to one buffer — the float clock and four ints per
    event: the op code and the node packed in one, a compact key id (one
    ``key -> id`` dict over all nodes, whose ``str`` forms the trace
    summary counts), ``nbytes`` (-1 for a miss, which has no size yet)
    and ``qid`` (-1 for none).

    Every :data:`_BLOCK` rows the buffer is folded into running state:
    per-node op counts and footprints, working-set windows, and a
    histogram of the distances of each access string, exact across
    blocks (:class:`_LruStack`).  A fold stops at the earliest miss whose size
    is not known yet — the next size recorded for its key — so the
    buffer holds one block plus the rows since the oldest unresolved
    miss.  A query's tenant is the one noted when its accesses fold.
    :meth:`analyze` folds the rest (a miss that never saw a later size
    takes the back-fill's fallback) and prices the capacity grid, which
    only the whole trace's footprint fixes, from the histograms.
    """

    def __init__(self, clock: Callable[[], float], window: float = 1.0, reuse: bool = True):
        if not (math.isfinite(window) and window > 0):
            raise ValueError(f"window width must be positive and finite, got {window}")
        self._clock = clock
        self.window = window
        #: False: fold per-node counts and working sets only (what
        #: :meth:`window_totals` reads), no distances
        self.reuse = reuse
        #: the rows not folded yet: clock column and (op + 4 * node,
        #: key id, nbytes, qid) per row
        self._times = array("d")
        self._rows = array("q")
        self._fold_at = _BLOCK
        #: every traced key -> its compact id, in first-seen order
        self._key_ids: Dict[Hashable, int] = {}
        #: node -> configured capacity / policy of the watched cache
        self._watched: Dict[int, Dict[str, Any]] = {}
        self._nodes: Dict[int, _NodeFold] = {}
        self._tenants: Dict[int, str] = {}
        #: access string (None: all; else a tenant) -> distance histogram
        self._histograms: Dict[Optional[str], Tuple[np.ndarray, np.ndarray]] = {}

    # -- recording hooks ----------------------------------------------

    def watch(self, node: int, cache) -> None:
        """Subscribe to ``cache``'s access events as compute ``node``."""
        self._watched[node] = {"capacity_bytes": cache.capacity_bytes, "policy": cache.policy.name}
        self._nodes.setdefault(node, _NodeFold(self.window))
        times, rows, clock, ids = self._times, self._rows, self._clock, self._key_ids
        codes = {op: code + 4 * node for op, code in _OP_CODES.items()}

        def record(op, key, nbytes, qid) -> None:
            code = codes.get(op)
            if code is not None:
                times.append(clock())
                rows.extend((
                    code, ids.setdefault(key, len(ids)),
                    -1 if nbytes is None else nbytes, -1 if qid is None else qid,
                ))
                if len(times) >= self._fold_at:
                    self._fold()

        cache.subscribe(record)

    def note_query(self, qid: int, tenant: str) -> None:
        """Map a submitted query to its tenant (fed by ``submit`` events)."""
        self._tenants[qid] = tenant

    # -- the fold -------------------------------------------------------

    def _fold(self, final: bool = False) -> None:
        """Fold the buffered rows up to the earliest miss whose size is
        still unknown, or all of them when ``final``."""
        n = len(self._times)
        if n:
            for fold in self._nodes.values():
                fold.grow(len(self._key_ids))
            t = np.array(self._times, dtype=np.float64)
            packed, kid, nbytes, qid = np.array(self._rows, dtype=np.int64).reshape(-1, 4).T
            node, op = packed >> 2, packed & 3
            nodes, slot = np.unique(node, return_inverse=True)
            before = np.empty(n, dtype=np.int64)
            for j, watched in enumerate(nodes.tolist()):
                on = slot == j
                before[on] = self._nodes[watched].last_size[kid[on]]
            sizes, known = _backfill(op == _MISS, kid * len(nodes) + slot, nbytes, before)
            upto = n if final or known.all() else int(np.argmin(known))
            if upto:
                cut = slice(0, upto)
                self._fold_rows(t[cut], node[cut], op[cut], kid[cut], sizes[cut], qid[cut])
                del self._times[:upto]
                del self._rows[: 4 * upto]
        self._fold_at = len(self._times) + _BLOCK

    def _fold_rows(self, t, node, op, kid, nbytes, qid) -> None:
        label, labels = np.full(len(op), -1), None
        if self.reuse:
            qids, inverse = np.unique(qid, return_inverse=True)
            tenants = [self._tenants.get(q) for q in qids.tolist()]
            labels = list(dict.fromkeys(name for name in tenants if name is not None))
            label = np.array(
                [-1 if name is None else labels.index(name) for name in tenants], dtype=np.int64
            )[inverse]

        nodes, slot = np.unique(node, return_inverse=True)

        folded: Dict[Optional[str], List[np.ndarray]] = {}
        for j, node in enumerate(nodes.tolist()):
            on = slot == j
            strings = self._nodes[node].fold(t[on], op[on], kid[on], nbytes[on], label[on], labels)
            for name, distances in zip(strings, _fold_stacks(list(strings.values()))):
                folded.setdefault(name, []).append(distances)
        for name, parts in folded.items():
            self._histograms[name] = _count(
                self._histograms.get(name, _NO_DISTANCES), np.concatenate(parts)
            )

    # -- analysis -----------------------------------------------------

    def window_totals(self, makespan: float) -> Dict[int, List[Tuple[int, int, int, int]]]:
        """Each watched node's ``(hits, misses, distinct keys, distinct
        bytes)`` per window of ``[0, makespan]``; folds the buffer first."""
        self._fold(final=True)
        count = len(window_edges(self.window, makespan))
        return {n: self._nodes[n].working_set.totals(count) for n in sorted(self._watched)}

    def capacity_grid(self, footprint: int = 0) -> List[int]:
        """What-if capacities: fractions of the trace's largest per-node
        footprint (where the curve actually bends — a server-sized cache
        usually dwarfs one workload's bytes), plus the configured
        capacity so the curve is checkable against measured counters."""
        capacity = self.configured_capacity()
        base = footprint if footprint > 0 else capacity
        grid = {max(1, int(base * f)) for f in CAPACITY_FRACTIONS}
        grid.add(capacity)
        return sorted(grid)

    def configured_capacity(self) -> int:
        return max((w["capacity_bytes"] for w in self._watched.values()), default=0)

    def analyze(self, makespan: float) -> Dict[str, Any]:
        """Distil the trace into the ``observability.reuse`` payload.

        Folds what is still buffered first, so the trace ends here: a
        miss not followed by a size for its key by now keeps the
        back-fill's fallback.
        """
        edges = window_edges(self.window, makespan)
        per_node = self.window_totals(makespan)
        nodes = sorted(self._watched)
        tenants = sorted(set(self._tenants.values()))
        summary = self._trace_summary(nodes, len({str(key) for key in self._key_ids}))
        footprints = [n["footprint_bytes"] for n in summary["per_node"]]
        grid = self.capacity_grid(max(footprints, default=0))

        # the global access string and one per tenant (its own gets plus
        # every drop: an invalidation empties the key for all tenants
        # alike), each summed over the nodes — the what-if where every
        # node's cache has the same capacity
        curves = [
            _curve(self._histograms.get(name, _NO_DISTANCES), grid) for name in [None] + tenants
        ]

        totals = [tuple(map(sum, zip(*cells))) for cells in zip(*per_node.values())]
        windows = _window_rows(edges, totals or [(0, 0, 0, 0)] * len(edges))

        return {
            "capacity_bytes": self.configured_capacity(),
            "policy": next((w["policy"] for w in self._watched.values()), ""),
            "window_s": self.window,
            "trace": summary,
            "mrc": {"global": curves[0], "per_tenant": dict(zip(tenants, curves[1:]))},
            "working_set": {"window_s": self.window, "windows": windows},
        }

    # -- analysis internals -------------------------------------------

    def _trace_summary(self, nodes: List[int], distinct_keys: int) -> Dict[str, Any]:
        per_node = []
        for node in nodes:
            fold = self._nodes[node]
            keys, footprint = fold.working_set.since(0)
            ops = fold.ops.tolist()
            per_node.append({
                "node": node,
                "distinct_keys": keys,
                "footprint_bytes": footprint,
                "accesses": ops[_HIT] + ops[_MISS],
                "hits": ops[_HIT],
                "misses": ops[_MISS],
                "drops": ops[_DROP],
            })
        totals = ("accesses", "hits", "misses", "drops")
        return {
            **{name: sum(n[name] for n in per_node) for name in totals},
            "distinct_keys": distinct_keys,
            "footprint_bytes": sum(n["footprint_bytes"] for n in per_node),
            "per_node": per_node,
        }
