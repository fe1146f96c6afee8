"""Join layer: the Query Execution Systems and their building blocks.

* :mod:`~repro.joins.hash_join` — the in-memory hash join both distributed
  algorithms use as their inner kernel (vectorised and sort-based), with
  operation counting aligned with the cost models' ``α_build`` /
  ``α_lookup``.
* :mod:`~repro.joins.join_index` — the page-level join index: the
  sub-table connectivity graph over chunk bounding boxes, its connected
  components, and the dataset statistics (``n_e``, component ``(a, b)``)
  the cost models consume.
* :mod:`~repro.joins.scheduler` — pair scheduling for the Indexed Join:
  the paper's two-stage strategy (components dealt equally, pairs in
  lexicographic order) plus alternative orders for the scheduling
  ablation.
* :mod:`~repro.joins.qes` — what a QES *is*: one execution, with the
  lifecycle (``run``/``begin``/``abort``/``finish``) and the
  fetch-with-recovery every execution shares.
* :mod:`~repro.joins.indexed_join` — the distributed page-level Indexed
  Join QES.
* :mod:`~repro.joins.grace_hash` — the distributed Grace Hash QES
  (modified, as in the paper, so bucket joins are node-local).
* :mod:`~repro.joins.scan` — the range-scan QES: one table, one box, one
  compute node, through the same caches.
* :mod:`~repro.joins.baselines` — single-node reference joins used as
  correctness oracles and comparison baselines.
* :mod:`~repro.joins.report` — execution reports: simulated time
  breakdowns, resource counters, cache statistics.
"""

from repro.joins.baselines import reference_join
from repro.joins.grace_hash import GraceHashQES
from repro.joins.hash_join import JoinKernelStats, vectorized_hash_join
from repro.joins.indexed_join import IndexedJoinQES
from repro.joins.join_index import (
    Component,
    PageJoinIndex,
    build_join_index,
)
from repro.joins.report import ExecutionReport, PhaseBreakdown
from repro.joins.scan import ScanQES
from repro.joins.scheduler import (
    PairSchedule,
    schedule_interleaved,
    schedule_random,
    schedule_two_stage,
)

__all__ = [
    "Component",
    "ExecutionReport",
    "GraceHashQES",
    "IndexedJoinQES",
    "JoinKernelStats",
    "PageJoinIndex",
    "PairSchedule",
    "PhaseBreakdown",
    "ScanQES",
    "build_join_index",
    "reference_join",
    "schedule_interleaved",
    "schedule_random",
    "schedule_two_stage",
    "vectorized_hash_join",
]
