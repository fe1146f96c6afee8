"""Pair scheduling for the Indexed Join.

The paper's two-stage strategy (Section 5.1): "In the first stage, each QES
instance in the compute cluster is assigned equal number of components.
Then, local id pairs is sorted in lexicographic order of
((i1, j1), (i2, j2)) ... This ensures that each QES instance in the compute
cluster gets the same amount of work."

Component-granular assignment is what makes the memory assumption
(``mem ≥ 2·c_R + b·c_S``) sufficient to avoid cache misses: all pairs
touching a sub-table land on one node, and the lexicographic order finishes
one left sub-table's pairs before moving on.

Alternative orders exist for the scheduling ablation:

* :func:`schedule_random` — pairs shuffled across and within nodes; the
  OPAS pathology (Section 6.2) on demand.
* :func:`schedule_interleaved` — components *split* across nodes
  (edge-granular round-robin), demonstrating why stage 1 deals whole
  components.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.rng import deterministic_shuffle
from repro.datamodel.subtable import SubTableId
from repro.joins.join_index import PageJoinIndex

__all__ = [
    "PairSchedule",
    "schedule_two_stage",
    "schedule_random",
    "schedule_interleaved",
]

Pair = Tuple[SubTableId, SubTableId]


@dataclass
class PairSchedule:
    """Per-joiner ordered pair lists."""

    per_joiner: List[List[Pair]]
    strategy: str

    @property
    def num_joiners(self) -> int:
        return len(self.per_joiner)

    @property
    def total_pairs(self) -> int:
        return sum(len(p) for p in self.per_joiner)

    def imbalance(self) -> float:
        """max/mean pair count across joiners (1.0 = perfectly balanced)."""
        counts = [len(p) for p in self.per_joiner]
        mean = sum(counts) / len(counts) if counts else 0.0
        return max(counts) / mean if mean else 1.0

    def span_attrs(self) -> "Dict[str, object]":
        """Structured attributes for the telemetry ``schedule`` span."""
        return {
            "strategy": self.strategy,
            "joiners": self.num_joiners,
            "pairs": self.total_pairs,
            "imbalance": round(self.imbalance(), 6),
        }

    def reference_string(self, joiner: int) -> List[SubTableId]:
        """The cache reference string of one joiner (left id then right id
        per pair) — the input Belady's policy needs."""
        refs: List[SubTableId] = []
        for l, r in self.per_joiner[joiner]:
            refs.append(l)
            refs.append(r)
        return refs

    def reassign(
        self, pairs: List[Pair], survivors: List[int]
    ) -> "Dict[int, List[Pair]]":
        """Redistribute a dead joiner's unfinished ``pairs`` over
        ``survivors``, round-robin in schedule order.

        Pure planning — the schedule itself is not mutated (``per_joiner``
        keeps the original assignment for reference strings and reports);
        the QES launches the returned per-survivor batches as fresh joiner
        processes.
        """
        if not survivors:
            raise ValueError("no surviving joiners to reassign pairs to")
        out: Dict[int, List[Pair]] = {}
        for i, pair in enumerate(pairs):
            out.setdefault(survivors[i % len(survivors)], []).append(pair)
        return out


def schedule_two_stage(index: PageJoinIndex, num_joiners: int) -> PairSchedule:
    """The paper's strategy: deal components, sort pairs lexicographically.

    Components are dealt in *size order* (largest first, round-robin over
    the currently least-loaded joiner) so that "equal number of components"
    also yields near-equal pair counts when component sizes are uniform —
    which they are under the paper's regular-partitioning assumption —
    and degrades gracefully when they are not.

    Runs on the index's int form (component label per pair) and is
    remembered on the index per joiner count: an index is immutable, an
    execution copies its joiner's list at launch and :meth:`PairSchedule.
    reassign` is pure, so every join over one index shares one schedule.
    """
    if num_joiners <= 0:
        raise ValueError("num_joiners must be positive")
    schedule = index.schedules.get(num_joiners)
    if schedule is None:
        labels = index.component_labels()
        sizes = np.bincount(labels).tolist()
        owner = np.zeros(len(sizes), dtype=np.intp)
        loads = [0] * num_joiners
        # stable greedy: biggest component to least-loaded joiner; ties keep
        # deterministic component order
        for c in sorted(range(len(sizes)), key=lambda c: -sizes[c]):
            owner[c] = target = loads.index(min(loads))
            loads[target] += sizes[c]
        # the index's pairs are lexicographic ((i1,j1),(i2,j2)), so each
        # joiner's share taken in index order already is
        pairs, joiner_of_pair = index.pairs, owner[labels]
        schedule = index.schedules[num_joiners] = PairSchedule(
            per_joiner=[
                [pairs[k] for k in np.flatnonzero(joiner_of_pair == j).tolist()]
                for j in range(num_joiners)
            ],
            strategy="two-stage",
        )
    return schedule


def schedule_random(index: PageJoinIndex, num_joiners: int, seed: int = 0) -> PairSchedule:
    """Ablation: pairs shuffled, then dealt round-robin ignoring components.

    The shuffle is a counter-based splitmix64 Fisher–Yates
    (:func:`repro.core.rng.deterministic_shuffle`) rather than
    ``random.Random(seed).shuffle``: the draw order — and therefore the
    schedule — is a pure function of ``(pairs, seed)`` and the repo's own
    mixer, immune to stdlib RNG implementation details.
    """
    if num_joiners <= 0:
        raise ValueError("num_joiners must be positive")
    pairs = deterministic_shuffle(index.pairs, seed)
    per_joiner: List[List[Pair]] = [[] for _ in range(num_joiners)]
    for i, pair in enumerate(pairs):
        per_joiner[i % num_joiners].append(pair)
    return PairSchedule(per_joiner=per_joiner, strategy="random")


def schedule_interleaved(index: PageJoinIndex, num_joiners: int) -> PairSchedule:
    """Ablation: lexicographic pair list dealt round-robin — splits
    components across joiners, causing the duplicate transfers Section 6.2
    warns about."""
    if num_joiners <= 0:
        raise ValueError("num_joiners must be positive")
    per_joiner: List[List[Pair]] = [[] for _ in range(num_joiners)]
    for i, pair in enumerate(index.pairs):
        per_joiner[i % num_joiners].append(pair)
    return PairSchedule(per_joiner=per_joiner, strategy="interleaved")
