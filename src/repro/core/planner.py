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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
from repro.datamodel.subtable import SubTableId
from repro.joins.join_index import PageJoinIndex, build_join_index, label_components
from repro.metadata.service import MetaDataService, TableCatalog

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


def _chunk_masks(catalog: TableCatalog, wheres: Sequence[Optional[BoundingBox]]) -> np.ndarray:
    """:meth:`TableCatalog.chunk_masks` for a block of range constraints,
    of which ``None`` or an empty box constrains nothing: every chunk."""
    rows = [k for k, where in enumerate(wheres) if where is not None and len(where)]
    if len(rows) == len(wheres):
        return catalog.chunk_masks(wheres)  # type: ignore[arg-type]
    masks = np.ones((len(wheres), len(catalog.chunks)), dtype=bool)
    if rows:
        masks[rows] = catalog.chunk_masks([wheres[k] for k in rows])
    return masks


@dataclass
class _HeldIndex:
    """The built unconstrained join index a MetaData Service entry holds,
    and what planning over all of it comes to for this planner."""

    index: PageJoinIndex
    #: ``pipeline`` → the plan of a view without a range constraint; its
    #: parameters and costs are frozen and shared by every such Plan
    plans: Dict[bool, Plan] = field(default_factory=dict)
    #: table id → (the catalog's chunk count, and each index ordinal's
    #: column in its chunk masks, or None where the two orders coincide)
    columns: Dict[int, Tuple[int, Optional[np.ndarray]]] = field(default_factory=dict)

    def endpoint_masks(
        self, catalog: TableCatalog, ids: List[SubTableId], masks: np.ndarray
    ) -> np.ndarray:
        """``masks`` over ``catalog``'s chunks as masks over the index's
        id list ``ids`` (an id the catalog lacks is never kept).  A
        catalog only grows, so its chunk count dates the column map."""
        count, cols = self.columns.get(catalog.table_id, (-1, None))
        if count != len(catalog.chunks):
            chunk_ids = [c.id for c in catalog.all_chunks()]
            cols = None
            if chunk_ids != ids:
                pos = {sid: k for k, sid in enumerate(chunk_ids)}
                cols = np.array([pos.get(sid, len(pos)) for sid in ids], dtype=np.intp)
            self.columns[catalog.table_id] = (len(catalog.chunks), cols)
        if cols is None:
            return masks
        return np.pad(masks, ((0, 0), (0, 1)))[:, cols]


class QueryPlanningService:
    """Plans join views for a fixed deployment (machine spec + topology).

    A planner plans once (DESIGN.md §3.5): the MetaData Service's entry
    under a view's key *is* the built join index, which every planner on
    the catalog adopts, and this planner keeps the costed plan of the
    unconstrained view per ``pipeline`` for as long as the entry is that
    index.  Range constraints are planned a block at a time
    (:meth:`plan_many`, :meth:`plan_scans`): one R-tree walk per table
    for the block's boxes, one mask over the held index per query, one
    component-labelling pass for the block.  :meth:`plan` and
    :meth:`plan_scan` are the blocks of one.
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

    def derive_parameters(self, view: JoinView) -> Tuple[CostParameters, PageJoinIndex]:
        """Fill Table 1 from metadata for ``view`` under this deployment."""
        return self._derive([view])[0]

    def _derive(
        self, views: Sequence[JoinView]
    ) -> List[Tuple[CostParameters, PageJoinIndex]]:
        """:meth:`derive_parameters` for a block of views.

        Per table, one :meth:`~TableCatalog.chunk_masks` walk for the
        block's boxes (no box: every chunk); per range-constrained view,
        its row of the held index's pair mask — the pairs whose two
        endpoints' boxes overlap the constraint.  T, c_R, c_S and n_e are
        integer sums of the masks.
        """
        out: List[Tuple[CostParameters, PageJoinIndex]] = [None] * len(views)  # type: ignore[list-item]
        groups: Dict[str, List[int]] = {}
        for k, view in enumerate(views):
            groups.setdefault(self._index_key(view), []).append(k)
        for ks in groups.values():
            first = views[ks[0]]
            held = self._held_index(first)
            left = self.metadata.table(first.left)
            right = self.metadata.table(first.right)
            wheres = [views[k].where for k in ks]
            left_masks, right_masks = _chunk_masks(left, wheres), _chunk_masks(right, wheres)
            cut = [row for row, where in enumerate(wheres) if where is not None and len(where)]
            if len(cut) < len(wheres):
                left_cut, right_cut = left_masks[cut], right_masks[cut]
            else:
                left_cut, right_cut = left_masks, right_masks
            keep = held.index.endpoint_masks(
                held.endpoint_masks(left, held.index._left_ids, left_cut),
                held.endpoint_masks(right, held.index._right_ids, right_cut),
            )
            left_n, left_t = left.mask_records(left_masks)
            right_n, right_t = right.mask_records(right_masks)
            cut_row = dict(zip(cut, keep))
            for row, k in enumerate(ks):
                index = held.index
                if row in cut_row:
                    index = index.subset(cut_row[row])
                params = CostParameters.from_machine(
                    self.machine,
                    T=left_t[row],
                    c_R=max(1, round(left_t[row] / left_n[row])) if left_n[row] else 1,
                    c_S=max(1, round(right_t[row] / right_n[row])) if right_n[row] else 1,
                    n_e=index.num_edges,
                    RS_R=left.schema.record_size,
                    RS_S=right.schema.record_size,
                    n_s=self.num_storage,
                    n_j=self.num_compute,
                    shared_nfs=self.shared_nfs,
                )
                out[k] = (params, index)
        return out

    def plan_scan(
        self, table: int | str, where: Optional[BoundingBox] = None
    ) -> ScanPlan:
        """Plan a range scan: chunk pruning via the R-tree, then the
        transfer model for moving the surviving chunks to one compute
        node (disk→link pipeline bounded by the slower stage, plus
        per-chunk latency)."""
        return self.plan_scans([(table, where)])[0]

    def plan_scans(
        self, scans: Sequence[Tuple[int | str, Optional[BoundingBox]]]
    ) -> List[ScanPlan]:
        """:meth:`plan_scan` for a block of ``(table, where)`` scans: one
        R-tree walk per table."""
        out: List[ScanPlan] = [None] * len(scans)  # type: ignore[list-item]
        groups: Dict[str, List[int]] = {}
        for k, (table, _) in enumerate(scans):
            groups.setdefault(self.metadata.table(table).name, []).append(k)
        bw = min(self.machine.disk_read_bw, self.machine.link_bw)
        latency = self.machine.disk_latency + self.machine.net_latency
        for name, ks in groups.items():
            catalog = self.metadata.table(name)
            masks = _chunk_masks(catalog, [scans[k][1] for k in ks])
            for row, k in enumerate(ks):
                chunks = tuple(catalog.masked_chunks(masks[row]))
                out[k] = ScanPlan(
                    table=name,
                    where=scans[k][1],
                    chunks=chunks,
                    transfer=sum(c.size for c in chunks) / bw + latency * len(chunks),
                )
        return out

    def plan(self, view: JoinView, pipeline: bool = False) -> Plan:
        """Evaluate both cost models and choose the QES.

        ``pipeline`` plans the Indexed Join in its overlapped execution
        mode (``Total_IJ_pipe = max(Transfer, Cpu)``), which can flip the
        choice towards IJ on transfer-bound deployments.
        """
        return self.plan_many([view], pipeline)[0]

    def plan_many(self, views: Sequence[JoinView], pipeline: bool = False) -> List[Plan]:
        """:meth:`plan` for a block of views, range constraints derived
        together (:meth:`_derive`); costs stay one scalar evaluation per
        view."""
        out: List[Plan] = [None] * len(views)  # type: ignore[list-item]
        constrained = []
        for k, view in enumerate(views):
            if view.where is not None and len(view.where):
                constrained.append(k)
                continue
            plans = self._held_index(view).plans
            if pipeline not in plans:
                plans[pipeline] = self._costed(view, pipeline, *self.derive_parameters(view))
            out[k] = replace(plans[pipeline], view=view)
        if constrained:
            derived = self._derive([views[k] for k in constrained])
            for k, (params, index) in zip(constrained, derived):
                out[k] = self._costed(views[k], pipeline, params, index)
            # one labelling pass for the cut indexes a schedule will deal; a
            # lone one is labelled when it is first scheduled
            dealt = [out[k].index for k in constrained if out[k].algorithm == "indexed-join"]
            if len(dealt) > 1:
                label_components(dealt)
        return out

    def _costed(
        self, view: JoinView, pipeline: bool, params: CostParameters, index: PageJoinIndex
    ) -> Plan:
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
