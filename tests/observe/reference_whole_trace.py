"""The whole-trace reuse analysis the folding recorder is tested against.

This is the columnar recorder an observed serve used before its trace
was folded block by block: it retained every key-granular cache event
(two growable columns per node) and analysed the whole trace once, at
``analyze``, with numpy — miss sizes back-filled over the full trace,
one Mattson stack-distance pass per access string and the working set
from the retained columns.  It shares the production module's capacity
fractions and nothing of its fold, so ``analyze`` payloads of the two can be
compared byte for byte on the same events.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.observe.reuse import CAPACITY_FRACTIONS
from tests.telemetry.reference_timeseries import window_edges

__all__ = ["WholeTraceRecorder", "reuse_distances"]

_HIT, _MISS, _INSERT, _DROP = range(4)
_OP_CODES = {"hit": _HIT, "miss": _MISS, "insert": _INSERT, "drop": _DROP}


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


def _stack_distances(kid: np.ndarray, nbytes: np.ndarray, access: np.ndarray) -> np.ndarray:
    """The kernel behind :func:`reuse_distances`, over int columns: one
    distance per access (``-1`` for a compulsory miss); an op that is
    not an access is a drop.

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
    return out[access]


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
    algorithm, byte-weighted for variable-size entries, computed offline
    in O(n log^2 n) by :func:`_stack_distances`.
    """
    items = list(trace)
    for kind, _, nbytes in items:
        if kind not in ("access", "drop"):
            raise ValueError(f"unknown trace op {kind!r}")
        if kind == "access" and nbytes < 0:
            raise ValueError("access bytes must be >= 0")
    access = np.array([kind == "access" for kind, _, _ in items], dtype=bool)
    nbytes = np.array([n if kind == "access" else 0 for kind, _, n in items], dtype=np.int64)
    distances = _stack_distances(_compact(key for _, key, _ in items), nbytes, access)
    return [None if d < 0 else d for d in distances.tolist()]


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


def _hits(distances: np.ndarray, capacities: Sequence[int]) -> np.ndarray:
    """How many accesses hit at each capacity (distance <= capacity)."""
    return np.searchsorted(np.sort(distances[distances >= 0]), capacities, side="right")


# ---------------------------------------------------------------------------
# working set
# ---------------------------------------------------------------------------


def _distinct(group: np.ndarray, ident: np.ndarray, nbytes: np.ndarray, count: int):
    """Per group in ``range(count)``: how many distinct ``ident`` occur in
    it, and the sum of each one's last ``nbytes`` there."""
    span = int(ident.max()) + 1 if len(ident) else 1
    # first occurrence in the reversed columns = last occurrence
    cells, last = np.unique((group * span + ident)[::-1], return_index=True)
    total = np.zeros(count, dtype=np.int64)
    np.add.at(total, cells // span, nbytes[::-1][last])
    return np.bincount(cells // span, minlength=count), total


def _windows(t, hit, ident, nbytes, width: float, t_end: float) -> List[Dict[str, Any]]:
    """Working-set windows over access columns (``ident`` distinguishes
    the keys; the last size seen in a window is the key's size there)."""
    edges = window_edges(width, t_end)
    count = len(edges)
    index = np.minimum((t / width).astype(np.int64), count - 1)
    hits = np.bincount(index[hit], minlength=count)
    misses = np.bincount(index[~hit], minlength=count)
    distinct, distinct_bytes = _distinct(index, ident, nbytes, count)
    return [
        {
            "t0": t0,
            "t1": t1,
            "accesses": int(hits[i] + misses[i]),
            "hits": int(hits[i]),
            "misses": int(misses[i]),
            "distinct_keys": int(distinct[i]),
            "distinct_bytes": int(distinct_bytes[i]),
        }
        for i, (t0, t1) in enumerate(edges)
    ]


# ---------------------------------------------------------------------------
# the recorder
# ---------------------------------------------------------------------------


#: every watched node's columns as one table, in node order, miss sizes
#: back-filled; ``node``/``tenant`` are positions in the sorted node and
#: tenant lists (tenant -1: none)
_Trace = namedtuple("_Trace", "t node op kid nbytes tenant")


def _backfill(miss: np.ndarray, group: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
    """A miss carries no size (nothing is resident); the size it *will*
    occupy is the next size recorded for its key, falling back to the
    last one seen before it, then 0 (a query that died between its miss
    and its put).  ``group`` identifies the key on its node."""
    n = len(group)
    order = np.argsort(group, kind="stable")
    sized = ~miss[order]
    at = np.arange(n)
    nxt = np.minimum.accumulate(np.where(sized, at, n)[::-1])[::-1]
    prv = np.maximum.accumulate(np.where(sized, at, -1))
    # one sentinel slot answers both "none after" (n) and "none before" (-1)
    key = np.append(group[order], -1)
    size = np.append(nbytes[order], 0)
    fill = np.where(
        key[nxt] == key[:-1], size[nxt], np.where(key[prv] == key[:-1], size[prv], 0)
    )
    out = np.empty_like(nbytes)
    out[order] = np.where(sized, size[:-1], fill)
    return out


class WholeTraceRecorder:
    """Passive per-entry access trace over the server's shared caches.

    One recorder watches every compute node's cache; each key-granular
    event is stamped with the simulated clock and the query id the
    operation arrived under (the serving view's ``qid``), which the
    server's ``submit`` event later maps to a tenant.  Recording is pure
    appending to two growable columns per node — the float clock and
    four ints per event: op code, a compact key id (one ``key -> id``
    dict over all nodes, whose ``str`` forms the trace summary counts),
    ``nbytes`` (-1 for a miss, which has no size yet) and ``qid`` (-1
    for none).  Everything analytical — back-filled miss sizes,
    distances, curves, windows — is computed once, after the run, as
    array operations over that table.
    """

    def __init__(self, clock: Callable[[], float], window: float = 1.0):
        self._clock = clock
        self.window = window
        #: node -> (clock column, (op, key id, nbytes, qid) rows)
        self._columns: Dict[int, Tuple[array, array]] = {}
        #: every traced key -> its compact id, in first-seen order
        self._key_ids: Dict[Hashable, int] = {}
        #: node -> configured capacity / policy of the watched cache
        self._watched: Dict[int, Dict[str, Any]] = {}
        self._tenants: Dict[int, str] = {}

    # -- recording hooks ----------------------------------------------

    def watch(self, node: int, cache) -> None:
        """Subscribe to ``cache``'s access events as compute ``node``."""
        times, rows = self._columns.setdefault(node, (array("d"), array("q")))
        self._watched[node] = {"capacity_bytes": cache.capacity_bytes, "policy": cache.policy.name}
        clock, ids = self._clock, self._key_ids

        def record(op, key, nbytes, qid) -> None:
            code = _OP_CODES.get(op)
            if code is not None:
                times.append(clock())
                rows.extend((
                    code, ids.setdefault(key, len(ids)), -1 if nbytes is None else nbytes,
                    -1 if qid is None else qid,
                ))

        cache.subscribe(record)

    def note_query(self, qid: int, tenant: str) -> None:
        """Map a submitted query to its tenant (fed by ``submit`` events)."""
        self._tenants[qid] = tenant

    # -- analysis -----------------------------------------------------

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
        """Distil the trace into the ``observability.reuse`` payload."""
        nodes = sorted(self._columns)
        tenants = sorted(set(self._tenants.values()))
        tr = self._table(nodes, tenants)
        access, drop = tr.op <= _MISS, tr.op == _DROP
        distinct_keys = len({str(key) for key in self._key_ids})
        summary = self._trace_summary(tr, access, nodes, distinct_keys)
        footprints = [n["footprint_bytes"] for n in summary["per_node"]]
        grid = self.capacity_grid(max(footprints, default=0))

        # per node, the global access string and one per tenant (its own
        # gets plus every drop: an invalidation empties the key for all
        # tenants alike); each curve sums its strings over the nodes —
        # the what-if where every node's cache has the same capacity
        accesses = [0] * (1 + len(tenants))
        hits = np.zeros((1 + len(tenants), len(grid)), dtype=np.int64)
        for i in range(len(nodes)):
            on = tr.node == i
            masks = [on & (access | drop)]
            masks += [on & (drop | (access & (tr.tenant == j))) for j in range(len(tenants))]
            for s, mask in enumerate(masks):
                distances = _stack_distances(tr.kid[mask], tr.nbytes[mask], access[mask])
                accesses[s] += len(distances)
                hits[s] += _hits(distances, grid)
        curves = [_points(grid, a, h) for a, h in zip(accesses, hits.tolist())]

        ident = tr.node[access] * len(self._key_ids) + tr.kid[access]
        windows = _windows(
            tr.t[access], tr.op[access] == _HIT, ident, tr.nbytes[access], self.window, makespan
        )

        return {
            "capacity_bytes": self.configured_capacity(),
            "policy": next((w["policy"] for w in self._watched.values()), ""),
            "window_s": self.window,
            "trace": summary,
            "mrc": {"global": curves[0], "per_tenant": dict(zip(tenants, curves[1:]))},
            "working_set": {"window_s": self.window, "windows": windows},
        }

    # -- analysis internals -------------------------------------------

    def _table(self, nodes: List[int], tenants: List[str]) -> _Trace:
        times = [np.array(self._columns[n][0], dtype=np.float64) for n in nodes]
        rows = np.concatenate(
            [np.empty(0, dtype=np.int64)]
            + [np.array(self._columns[n][1], dtype=np.int64) for n in nodes]
        )
        op, kid, nbytes, qid = rows.reshape(-1, 4).T
        node = np.repeat(np.arange(len(nodes)), [len(t) for t in times])
        index = {name: j for j, name in enumerate(tenants)}
        qids, inverse = np.unique(qid, return_inverse=True)
        tenant = np.array(
            [index.get(self._tenants.get(q), -1) for q in qids.tolist()], dtype=np.int64
        )[inverse]
        missed = _backfill(op == _MISS, node * len(self._key_ids) + kid, nbytes)
        return _Trace(
            np.concatenate([np.empty(0)] + times), node, op, kid, missed, tenant
        )

    @staticmethod
    def _trace_summary(
        tr: _Trace, access: np.ndarray, nodes: List[int], distinct_keys: int
    ) -> Dict[str, Any]:
        count = len(nodes)
        ops = np.bincount(tr.op * count + tr.node, minlength=4 * count).reshape(4, count)
        keys, footprint = _distinct(tr.node[access], tr.kid[access], tr.nbytes[access], count)
        per_node = [
            {
                "node": node,
                "distinct_keys": int(keys[i]),
                "footprint_bytes": int(footprint[i]),
                "accesses": int(ops[_HIT, i] + ops[_MISS, i]),
                "hits": int(ops[_HIT, i]),
                "misses": int(ops[_MISS, i]),
                "drops": int(ops[_DROP, i]),
            }
            for i, node in enumerate(nodes)
        ]
        totals = ("accesses", "hits", "misses", "drops")
        return {
            **{name: sum(n[name] for n in per_node) for name in totals},
            "distinct_keys": distinct_keys,
            "footprint_bytes": sum(n["footprint_bytes"] for n in per_node),
            "per_node": per_node,
        }


