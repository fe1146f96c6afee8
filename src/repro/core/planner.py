"""The Query Planning Service.

"The Query Planning service (QPS) incorporates logic to choose between
different Query Execution Systems (QES) based on cost models" (Section 4).
The planner derives the dataset half of Table 1 from the MetaData Service
(record counts, chunk cardinalities, record sizes, and ``n_e`` from the —
possibly precomputed — page-level join index), takes the system half from
the machine spec and topology, evaluates both Section 5 models, and picks
the cheaper QES.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.cluster.nodes import MachineSpec, PAPER_MACHINE
from repro.core.cost_models import (
    TOSSUP_MARGIN,
    CostBreakdown,
    CostParameters,
    grace_hash_cost,
    indexed_join_cost,
    models_are_tossup,
)
from repro.core.view import JoinView
from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.chunk import ChunkDescriptor
from repro.joins.join_index import PageJoinIndex, build_join_index
from repro.metadata.service import MetaDataService

__all__ = ["Plan", "ScanPlan", "QueryPlanningService"]


@dataclass(frozen=True)
class Plan:
    """Outcome of planning one join view."""

    view: JoinView
    algorithm: str
    params: CostParameters
    ij_cost: CostBreakdown
    gh_cost: CostBreakdown
    index: PageJoinIndex
    #: Whether the Indexed Join was costed in its pipelined execution mode.
    pipeline: bool = False

    #: Relative gap below which the two models are considered a toss-up:
    #: the plan choice is fragile and worth flagging in drift reports.
    TOSSUP_MARGIN = TOSSUP_MARGIN

    @property
    def chosen_cost(self) -> CostBreakdown:
        """The cost breakdown of the algorithm the planner picked."""
        return self.ij_cost if self.algorithm == "indexed-join" else self.gh_cost

    @property
    def predicted_time(self) -> float:
        """The *chosen* algorithm's predicted total.

        Reads ``algorithm`` explicitly rather than recomputing
        ``min(...)`` so the two can never silently disagree (e.g. if a
        caller constructs a Plan with a forced algorithm choice).
        """
        return self.chosen_cost.total

    @property
    def is_tossup(self) -> bool:
        """True when the two models land within :attr:`TOSSUP_MARGIN` of
        each other — either QES could win, so observed drift on any
        shared term can silently flip the choice."""
        return models_are_tossup(
            self.ij_cost.total, self.gh_cost.total, self.TOSSUP_MARGIN
        )

    def describe(self) -> str:
        ij_mode = " (pipelined)" if self.pipeline else ""
        text = (
            f"plan for {self.view.describe()}:\n"
            f"  predicted IJ total: {self.ij_cost.total:.3f}s{ij_mode} "
            f"(transfer {self.ij_cost.transfer:.3f}, cpu {self.ij_cost.cpu:.3f})\n"
            f"  predicted GH total: {self.gh_cost.total:.3f}s "
            f"(transfer {self.gh_cost.transfer:.3f}, write {self.gh_cost.write:.3f}, "
            f"read {self.gh_cost.read:.3f}, cpu {self.gh_cost.cpu:.3f})\n"
            f"  chosen QES: {self.algorithm}"
        )
        if self.is_tossup:
            text += (
                f"\n  note: toss-up — the models are within "
                f"{self.TOSSUP_MARGIN:.0%} of each other; the choice is "
                f"sensitive to cost-model drift"
            )
        return text


@dataclass(frozen=True)
class ScanPlan:
    """Outcome of planning one range scan.

    No QES choice to make — a scan is chunk pruning plus transfers — but
    an admission controller ordering mixed workloads by
    ``Plan.predicted_time`` needs the same property on every query kind,
    so scans get a plan object with a transfer-model estimate too.
    """

    table: str
    where: Optional[BoundingBox]
    #: the chunks pruning kept, in chunk-id order: what the scan reads, and
    #: what the chunk count and byte total that ``transfer`` prices derive from
    chunks: Tuple[ChunkDescriptor, ...]
    #: modelled transfer seconds (bandwidth + per-chunk latency)
    transfer: float

    @property
    def predicted_time(self) -> float:
        return self.transfer


@dataclass
class _HeldIndex:
    """The built unconstrained join index a MetaData Service entry holds,
    and what planning over all of it comes to for this planner."""

    index: PageJoinIndex
    #: ``pipeline`` → the plan of a view without a range constraint; its
    #: parameters and costs are frozen and shared by every such Plan
    plans: Dict[bool, Plan] = field(default_factory=dict)


class QueryPlanningService:
    """Plans join views for a fixed deployment (machine spec + topology).

    A planner plans once (DESIGN.md §3.5): the MetaData Service's entry
    under a view's key *is* the built join index, which every planner on
    the catalog adopts, and this planner keeps the costed plan of the
    unconstrained view per ``pipeline`` for as long as the entry is that
    index.  A range constraint is not memoised; it is one
    ``find_chunks`` per table and a mask over the held index.
    """

    def __init__(
        self,
        metadata: MetaDataService,
        num_storage: int,
        num_compute: int,
        machine: MachineSpec = PAPER_MACHINE,
        shared_nfs: bool = False,
    ):
        if num_storage <= 0 or num_compute <= 0:
            raise ValueError("need at least one storage and one compute node")
        self.metadata = metadata
        self.num_storage = num_storage
        self.num_compute = num_compute
        self.machine = machine
        self.shared_nfs = shared_nfs
        self._held: Dict[str, _HeldIndex] = {}

    # -- join index management ----------------------------------------------------

    def _index_key(self, view: JoinView) -> str:
        return f"join_index/{view.left}/{view.right}/{','.join(view.on)}"

    def precompute_index(self, view: JoinView) -> PageJoinIndex:
        """Build the *unconstrained* page index for the view's join
        attributes and keep it in the MetaData Service — "the page-index
        can be precomputed for common join attributes" (Section 4.1)."""
        index = build_join_index(
            self.metadata.table(view.left).all_chunks(),
            self.metadata.table(view.right).all_chunks(),
            view.on,
        )
        key = self._index_key(view)
        self.metadata.put(key, index)
        self._held[key] = _HeldIndex(index)
        return index

    def _held_index(self, view: JoinView) -> _HeldIndex:
        """The unconstrained index for ``view`` — whatever index the
        MetaData Service holds under its key, built if there is none —
        with this planner's plans over it."""
        key = self._index_key(view)
        index = self.metadata.get(key)
        if index is None:
            self.precompute_index(view)
        elif key not in self._held or self._held[key].index is not index:
            self._held[key] = _HeldIndex(index)  # type: ignore[arg-type]
        return self._held[key]

    # -- planning ---------------------------------------------------------------------

    def derive_parameters(
        self, view: JoinView, index: Optional[PageJoinIndex] = None
    ) -> Tuple[CostParameters, PageJoinIndex]:
        """Fill Table 1 from metadata for ``view`` under this deployment."""
        left = self.metadata.table(view.left)
        right = self.metadata.table(view.right)
        constrained = view.where is not None and len(view.where)
        if constrained:
            left_chunks = left.find_chunks(view.where)
            right_chunks = right.find_chunks(view.where)
        else:
            left_chunks = left.all_chunks()
            right_chunks = right.all_chunks()
        if index is None:
            index = self._held_index(view).index
            if constrained:
                # ``find_chunks`` keeps exactly the chunks whose boxes
                # overlap the constraint: the endpoints a pair may have
                index = index.select(
                    [c.id for c in left_chunks], [c.id for c in right_chunks]
                )
        T_left = sum(c.num_records for c in left_chunks)
        c_R = max(1, round(T_left / len(left_chunks))) if left_chunks else 1
        T_right = sum(c.num_records for c in right_chunks)
        c_S = max(1, round(T_right / len(right_chunks))) if right_chunks else 1
        params = CostParameters.from_machine(
            self.machine,
            T=T_left,
            c_R=c_R,
            c_S=c_S,
            n_e=index.num_edges,
            RS_R=left.schema.record_size,
            RS_S=right.schema.record_size,
            n_s=self.num_storage,
            n_j=self.num_compute,
            shared_nfs=self.shared_nfs,
        )
        return params, index

    def plan_scan(
        self, table: int | str, where: Optional[BoundingBox] = None
    ) -> ScanPlan:
        """Plan a range scan: chunk pruning via the R-tree, then the
        transfer model for moving the surviving chunks to one compute
        node (disk→link pipeline bounded by the slower stage, plus
        per-chunk latency)."""
        catalog = self.metadata.table(table)
        if where is not None and len(where):
            chunks = catalog.find_chunks(where)
        else:
            chunks = catalog.all_chunks()
        nbytes = sum(c.size for c in chunks)
        bw = min(self.machine.disk_read_bw, self.machine.link_bw)
        latency = self.machine.disk_latency + self.machine.net_latency
        return ScanPlan(
            table=catalog.name,
            where=where,
            chunks=tuple(chunks),
            transfer=nbytes / bw + latency * len(chunks),
        )

    def plan(self, view: JoinView, pipeline: bool = False) -> Plan:
        """Evaluate both cost models and choose the QES.

        ``pipeline`` plans the Indexed Join in its overlapped execution
        mode (``Total_IJ_pipe = max(Transfer, Cpu)``), which can flip the
        choice towards IJ on transfer-bound deployments.
        """
        if view.where is not None and len(view.where):
            return self._costed(view, pipeline)
        plans = self._held_index(view).plans
        if pipeline not in plans:
            plans[pipeline] = self._costed(view, pipeline)
        return replace(plans[pipeline], view=view)

    def _costed(self, view: JoinView, pipeline: bool) -> Plan:
        params, index = self.derive_parameters(view)
        ij = indexed_join_cost(params, pipelined=pipeline)
        gh = grace_hash_cost(params)
        algorithm = "indexed-join" if ij.total <= gh.total else "grace-hash"
        return Plan(
            view=view,
            algorithm=algorithm,
            params=params,
            ij_cost=ij,
            gh_cost=gh,
            index=index,
            pipeline=pipeline,
        )
