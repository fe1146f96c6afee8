"""Optimal Page Access Sequence (OPAS) heuristics.

Section 3/6.2: "The Optimal Page Access Sequence (OPAS) involves minimizing
the number of page accesses in an indexed-join operation under buffer size
constraints" (Chan & Ooi; Fotouhi & Pramanik; Xiao et al.).  The paper
notes that such heuristics "may be used to schedule the sub-table pairs in
the IJ algorithms" and that IJ "suffers from the OPAS problem under high
edge ratio values" — when components exceed a node's cache, the *order* in
which a joiner visits its pairs determines how many sub-tables must be
fetched more than once.

This module provides pair-ordering heuristics and an exact cache-load
evaluator:

* :func:`order_lexicographic` — the paper's stage-2 order (baseline);
* :func:`order_bfs_clustered` — traverse the pair graph breadth-first from
  the lowest id, keeping adjacent pairs (which share a sub-table) together;
* :func:`order_greedy_opas` — the classic greedy: repeatedly pick the pair
  needing the fewest new bytes in cache, tie-broken toward smaller loads
  and lexicographic order, against a simulated LRU buffer;
* :func:`evaluate_order` — exact (load count, bytes loaded) of an order
  under a byte-budget LRU buffer, via the real Caching Service;
* :func:`optimal_order_bruteforce` — exhaustive minimum for tiny inputs,
  used by tests to certify the heuristics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.datamodel.subtable import SubTableId
from repro.services.cache import CachingService, LRUPolicy

__all__ = [
    "OrderCost",
    "evaluate_order",
    "order_lexicographic",
    "order_bfs_clustered",
    "order_greedy_opas",
    "optimal_order_bruteforce",
]

Pair = Tuple[SubTableId, SubTableId]


@dataclass(frozen=True)
class OrderCost:
    """Cost of executing a pair order under a bounded buffer."""

    loads: int
    bytes_loaded: int
    hits: int


def _entry_bytes(sid: SubTableId, sizes: Mapping[SubTableId, int], is_left: bool) -> int:
    # left sub-tables are charged double (sub-table + hash table), matching
    # the Indexed Join QES's cache accounting and the 2·c_R memory term
    return sizes[sid] * (2 if is_left else 1)


def evaluate_order(
    order: Sequence[Pair],
    sizes: Mapping[SubTableId, int],
    cache_bytes: int,
) -> OrderCost:
    """Exact loads/bytes of ``order`` under an LRU buffer of ``cache_bytes``."""
    cache: CachingService = CachingService(cache_bytes, LRUPolicy())
    loads = 0
    bytes_loaded = 0
    for left, right in order:
        pinned = []
        for sid, is_left in ((left, True), (right, False)):
            if cache.get(sid) is None:
                loads += 1
                bytes_loaded += sizes[sid]
                if cache.put(sid, sid, _entry_bytes(sid, sizes, is_left), pin=True):
                    pinned.append(sid)
            else:
                cache.pin(sid)
                pinned.append(sid)
        for sid in pinned:
            cache.unpin(sid)
    return OrderCost(loads=loads, bytes_loaded=bytes_loaded, hits=cache.stats.hits)


def order_lexicographic(pairs: Sequence[Pair]) -> List[Pair]:
    """The paper's stage-2 order: sort by ((i1,j1),(i2,j2))."""
    return sorted(pairs)


def order_bfs_clustered(pairs: Sequence[Pair]) -> List[Pair]:
    """Breadth-first traversal of the pair adjacency graph.

    Two pairs are adjacent when they share a sub-table; BFS emits runs of
    pairs that reuse whatever was just loaded.  Deterministic: frontiers
    are processed in sorted order.
    """
    remaining = set(pairs)
    by_subtable: Dict[SubTableId, List[Pair]] = {}
    for p in pairs:
        by_subtable.setdefault(p[0], []).append(p)
        by_subtable.setdefault(p[1], []).append(p)
    out: List[Pair] = []
    while remaining:
        root = min(remaining)
        queue = [root]
        remaining.discard(root)
        while queue:
            pair = queue.pop(0)
            out.append(pair)
            neighbours = sorted(
                q
                for sid in pair
                for q in by_subtable[sid]
                if q in remaining
            )
            for q in neighbours:
                if q in remaining:
                    remaining.discard(q)
                    queue.append(q)
    return out


def order_greedy_opas(
    pairs: Sequence[Pair],
    sizes: Mapping[SubTableId, int],
    cache_bytes: int,
) -> List[Pair]:
    """Greedy OPAS heuristic against a simulated LRU buffer.

    At each step, pick the remaining pair whose execution would load the
    fewest new bytes given the current buffer contents (ties: fewer new
    sub-tables, then lexicographic), then play it through the buffer.
    O(n²) in the pair count — intended for per-joiner pair lists.
    """
    cache: CachingService = CachingService(cache_bytes, LRUPolicy())
    remaining = sorted(pairs)
    out: List[Pair] = []
    while remaining:
        best_idx = 0
        best_key = None
        for idx, (left, right) in enumerate(remaining):
            new_bytes = 0
            new_loads = 0
            for sid in (left, right):
                if cache.peek(sid) is None:
                    new_bytes += sizes[sid]
                    new_loads += 1
            key = (new_bytes, new_loads, remaining[idx])
            if best_key is None or key < best_key:
                best_key = key
                best_idx = idx
            if new_bytes == 0:
                break  # cannot do better than a fully-cached pair
        pair = remaining.pop(best_idx)
        out.append(pair)
        for sid, is_left in ((pair[0], True), (pair[1], False)):
            if cache.get(sid) is None:
                cache.put(sid, sid, _entry_bytes(sid, sizes, is_left))
    return out


def reorder_schedule(
    schedule,
    sizes: Mapping[SubTableId, int],
    cache_bytes: int,
    method: str = "greedy",
):
    """Reorder every joiner's pair list with an OPAS heuristic.

    Returns a new :class:`~repro.joins.scheduler.PairSchedule` with the
    same joiner assignment (stage 1 untouched) but stage-2 order replaced
    by ``greedy`` (:func:`order_greedy_opas`) or ``bfs``
    (:func:`order_bfs_clustered`).
    """
    from repro.joins.scheduler import PairSchedule

    per_joiner: List[List[Pair]] = []
    for pairs in schedule.per_joiner:
        if method == "greedy":
            per_joiner.append(order_greedy_opas(pairs, sizes, cache_bytes))
        elif method == "bfs":
            per_joiner.append(order_bfs_clustered(pairs))
        else:
            raise ValueError(f"unknown OPAS method {method!r}")
    return PairSchedule(per_joiner=per_joiner, strategy=f"{schedule.strategy}+opas-{method}")


def optimal_order_bruteforce(
    pairs: Sequence[Pair],
    sizes: Mapping[SubTableId, int],
    cache_bytes: int,
) -> Tuple[List[Pair], OrderCost]:
    """Exhaustive minimum-loads order (factorial: tests/tiny inputs only)."""
    if len(pairs) > 8:
        raise ValueError("brute force limited to 8 pairs")
    best_order: List[Pair] = list(pairs)
    best_cost = evaluate_order(best_order, sizes, cache_bytes)
    for perm in itertools.permutations(pairs):
        cost = evaluate_order(perm, sizes, cache_bytes)
        if (cost.loads, cost.bytes_loaded) < (best_cost.loads, best_cost.bytes_loaded):
            best_cost = cost
            best_order = list(perm)
    return best_order, best_cost
