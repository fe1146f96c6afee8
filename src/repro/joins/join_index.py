"""Page-level join index: the sub-table connectivity graph.

"If a relational table is stored as pages ..., a list of page pairs (i, j)
such that page i and page j contain at least one record with the same value
of join attribute k.  When these two tables are required to be joined on
the attribute, only these page pairs are checked for matches." (Section 4.1)

Basic sub-tables play the role of pages; *candidate pairs* are sub-tables
whose bounding boxes overlap on the join attributes.  The index is built
by one sort-and-sweep over both tables' chunk boxes (the box join by
sorting of "Faster Relational Algorithms Using Geometric Data
Structures") and held as two int arrays of endpoint ordinals; connected
components are a union-find label pass over those ints — "independent
components of this graph are identified" (Section 5.1), the unit the
two-stage scheduler deals out to compute nodes.

:class:`ConnectivityStats` exposes the dataset parameters of Table 1 the
index determines: ``n_e``, the per-component ``(a, b)`` counts, and the
edge ratio ``n_e · c_R · c_S / T²``.

"The page-index can be precomputed for common join attributes" (Section
4.1): the planner keeps the built :class:`PageJoinIndex` itself in the
MetaData Service's key-value store, so there is no serialised form.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.chunk import ChunkDescriptor
from repro.datamodel.subtable import SubTableId

__all__ = ["PageJoinIndex", "Component", "ConnectivityStats", "build_join_index"]


@dataclass
class Component:
    """One connected component of the sub-table connectivity graph."""

    left_ids: List[SubTableId] = field(default_factory=list)
    right_ids: List[SubTableId] = field(default_factory=list)
    pairs: List[Tuple[SubTableId, SubTableId]] = field(default_factory=list)

    @property
    def a(self) -> int:
        """Left sub-tables in the component (Table 1's ``a``)."""
        return len(self.left_ids)

    @property
    def b(self) -> int:
        """Right sub-tables in the component (Table 1's ``b``)."""
        return len(self.right_ids)

    @property
    def num_edges(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class ConnectivityStats:
    """Dataset parameters derived from the connectivity graph."""

    num_edges: int            # n_e
    num_components: int       # N_C (for fully regular partitions)
    num_left: int             # sub-tables of R
    num_right: int            # m_S: sub-tables of S
    avg_left_degree: float
    avg_right_degree: float   # n_e / m_S — the IJ lookup multiplier
    max_component_a: int
    max_component_b: int

    def edge_ratio(self, c_r: float, c_s: float, total_tuples: float) -> float:
        """``n_e · c_R · c_S / T²`` (the parameter earlier works target)."""
        if total_tuples == 0:
            return 0.0
        return self.num_edges * c_r * c_s / (total_tuples**2)


class PageJoinIndex:
    """The precomputed join index for one (left table, right table, attrs).

    Pairs are two int arrays of endpoint *ordinals* into two sorted id
    lists — one :class:`SubTableId` object per chunk, shared by every
    pair, component and schedule made from the index — in lexicographic
    ``(left id, right id)`` order.  Pruning is a boolean mask over the
    arrays (:meth:`select`), component extraction a union/label pass over
    ints (:meth:`component_labels`); the tuple forms (:attr:`pairs`,
    :meth:`components`) are materialised on demand.  An index is never
    mutated once built, which is what lets the MetaData Service hold one
    and every planner hand it, and the schedules remembered on it, to
    every query (DESIGN.md §3.5).
    """

    @classmethod
    def from_ordinals(
        cls,
        left_table: int,
        right_table: int,
        on: Tuple[str, ...],
        left_ids: List[SubTableId],
        right_ids: List[SubTableId],
        li: np.ndarray,
        ri: np.ndarray,
    ) -> "PageJoinIndex":
        """An index over two sorted id lists, its pairs given as endpoint
        ordinals into them, already lexicographic by ``(li, ri)``: the one
        constructor (:func:`build_join_index` calls it)."""
        index = cls.__new__(cls)
        index.left_table = left_table
        index.right_table = right_table
        index.on = tuple(on)
        # sorted id lists (a superset of the endpoints) and each id's
        # ordinal in them
        index._left_ids = left_ids
        index._right_ids = right_ids
        index._left_pos = {sid: k for k, sid in enumerate(left_ids)}
        index._right_pos = {sid: k for k, sid in enumerate(right_ids)}
        index._set_pairs(li, ri)
        return index

    def _set_pairs(self, li: np.ndarray, ri: np.ndarray) -> None:
        # endpoint ordinals of every pair, lexicographic by (li, ri)
        self._li = li
        self._ri = ri
        self._pairs: Optional[List[Tuple[SubTableId, SubTableId]]] = None
        self._labels: Optional[np.ndarray] = None
        #: two-stage schedules by joiner count, remembered by
        #: :func:`~repro.joins.scheduler.schedule_two_stage`
        self.schedules: Dict[int, object] = {}

    # -- graph structure -------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self._li)

    @property
    def pairs(self) -> List[Tuple[SubTableId, SubTableId]]:
        """The candidate pairs, lexicographic by ``(left id, right id)``."""
        if self._pairs is None:
            left, right = self._left_ids, self._right_ids
            self._pairs = [
                (left[i], right[j])
                for i, j in zip(self._li.tolist(), self._ri.tolist())
            ]
        return self._pairs

    def component_labels(self) -> np.ndarray:
        """Per pair, the ordinal of its component in :meth:`components`
        order: union-find over endpoint ordinals, roots numbered by first
        appearance (pairs are lexicographic, so by smallest left id)."""
        if self._labels is None:
            n_left = len(self._left_ids)
            parent = list(range(n_left + len(self._right_ids)))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]  # path halving
                    x = parent[x]
                return x

            lefts = self._li.tolist()
            for l, r in zip(lefts, (self._ri + n_left).tolist()):
                parent[find(r)] = find(l)
            numbering: Dict[int, int] = {}
            self._labels = np.fromiter(
                (numbering.setdefault(find(l), len(numbering)) for l in lefts),
                np.intp, len(lefts),
            )
        return self._labels

    @property
    def num_components(self) -> int:
        return int(self.component_labels().max(initial=-1)) + 1

    def _endpoint_components(self, ordinals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One side's distinct endpoint ordinals, ascending, and the
        component label of each (that of the first pair it appears in)."""
        present, first = np.unique(ordinals, return_index=True)
        return present, self.component_labels()[first]

    def components(self) -> List[Component]:
        """Connected components, deterministic order (by smallest left id)."""
        comps = [Component() for _ in range(self.num_components)]
        for c, pair in zip(self.component_labels().tolist(), self.pairs):
            comps[c].pairs.append(pair)
        for ids, ordinals, side in (
            (self._left_ids, self._li, "left_ids"),
            (self._right_ids, self._ri, "right_ids"),
        ):
            present, labels = self._endpoint_components(ordinals)
            for o, c in zip(present.tolist(), labels.tolist()):
                getattr(comps[c], side).append(ids[o])
        return comps

    def stats(self) -> ConnectivityStats:
        lefts, left_labels = self._endpoint_components(self._li)
        rights, right_labels = self._endpoint_components(self._ri)
        n_e = self.num_edges
        return ConnectivityStats(
            num_edges=n_e,
            num_components=self.num_components,
            num_left=len(lefts),
            num_right=len(rights),
            avg_left_degree=n_e / len(lefts) if len(lefts) else 0.0,
            avg_right_degree=n_e / len(rights) if len(rights) else 0.0,
            max_component_a=int(np.bincount(left_labels).max(initial=0)),
            max_component_b=int(np.bincount(right_labels).max(initial=0)),
        )

    # -- pruning ---------------------------------------------------------------

    def select(
        self, left_ids: Iterable[SubTableId], right_ids: Iterable[SubTableId]
    ) -> "PageJoinIndex":
        """The pairs whose left endpoint is in ``left_ids`` and right
        endpoint in ``right_ids`` (ids the index does not know are
        ignored), as one mask over the ordinal arrays."""

        def member(pos: Dict[SubTableId, int], ids: Iterable[SubTableId]) -> np.ndarray:
            mask = np.zeros(len(pos), dtype=bool)
            mask[[k for k in map(pos.get, ids) if k is not None]] = True
            return mask

        keep = (
            member(self._left_pos, left_ids)[self._li]
            & member(self._right_pos, right_ids)[self._ri]
        )
        out = copy.copy(self)  # shares the id lists and their ordinals
        out._set_pairs(self._li[keep], self._ri[keep])
        return out

    def restrict(self, query: BoundingBox, chunk_boxes: Dict[SubTableId, BoundingBox]) -> "PageJoinIndex":
        """Prune pairs whose union box misses ``query``.

        "Any additional range constraints may be applied at the sub-table
        level to prune away unwanted edges (and nodes)."  A pair survives
        only if *both* endpoints' boxes intersect the constraint — tested
        once per distinct endpoint.
        """

        def overlapping(ids: List[SubTableId], ordinals: np.ndarray) -> List[SubTableId]:
            endpoints = (ids[o] for o in np.unique(ordinals).tolist())
            return [i for i in endpoints if chunk_boxes[i].overlaps(query)]

        return self.select(
            overlapping(self._left_ids, self._li), overlapping(self._right_ids, self._ri)
        )


def _ordinals(ids: Sequence[SubTableId]) -> Tuple[List[SubTableId], np.ndarray]:
    """The distinct ``ids`` sorted, and each given id's ordinal in them."""
    distinct = sorted(set(ids))
    pos = {sid: k for k, sid in enumerate(distinct)}
    return distinct, np.fromiter((pos[sid] for sid in ids), np.intp, len(ids))


def _boxes(chunks: Sequence[ChunkDescriptor], on: Tuple[str, ...]) -> np.ndarray:
    """Each chunk's box on ``on`` as ``[k, 0]`` lower and ``[k, 1]`` upper
    bounds (``-inf``/``inf`` where the box does not mention an attribute)."""
    flat = np.array([c.bbox.bounds(on) for c in chunks], dtype=np.float64)
    return flat.reshape(len(chunks), 2, len(on))


def build_join_index(
    left_chunks: Sequence[ChunkDescriptor],
    right_chunks: Sequence[ChunkDescriptor],
    on: Sequence[str],
) -> PageJoinIndex:
    """Construct the connectivity graph from chunk metadata.

    Candidate pairs are chunks whose bounding boxes overlap on every join
    attribute, as closed intervals (:meth:`Interval.overlaps`).  One
    sort-and-sweep finds them: the lefts sorted by lower bound on the first
    join attribute, beside the running maximum of their upper bounds, give
    each right chunk a window of sorted positions by two binary searches —
    no left outside it can overlap — and one vectorised filter over every
    join attribute keeps the windows' overlapping pairs.  Memory is the
    candidate count.  A view's WHERE range prunes the built index
    (:meth:`PageJoinIndex.restrict`).  The index keeps its pairs in
    lexicographic ``(left id, right id)`` order.
    """
    on = tuple(on)
    if not on:
        raise ValueError("join index needs at least one join attribute")

    left_table = left_chunks[0].table_id if left_chunks else -1
    right_table = right_chunks[0].table_id if right_chunks else -1
    left_ids, left_rank = _ordinals([c.id for c in left_chunks])
    right_ids, right_rank = _ordinals([c.id for c in right_chunks])
    left, right = _boxes(left_chunks, on), _boxes(right_chunks, on)

    by_low = np.argsort(left[:, 0, 0], kind="stable")
    lows = left[by_low, 0, 0]
    reach = np.maximum.accumulate(left[by_low, 1, 0])
    # the window of right k: from the first sorted left whose reach meets
    # its lower bound, to the last whose lower bound is within its upper
    first = np.searchsorted(reach, right[:, 0, 0], side="left")
    stop = np.searchsorted(lows, right[:, 1, 0], side="right")
    counts = np.maximum(stop - first, 0)
    r = np.repeat(np.arange(len(right_chunks)), counts)
    window_start = np.cumsum(counts) - counts
    l = by_low[np.arange(len(r)) - np.repeat(window_start - first, counts)]
    overlap = np.all((left[l, 0] <= right[r, 1]) & (right[r, 0] <= left[l, 1]), axis=1)
    li, ri = left_rank[l[overlap]], right_rank[r[overlap]]
    order = np.lexsort((ri, li))
    return PageJoinIndex.from_ordinals(
        left_table, right_table, on, left_ids, right_ids, li[order], ri[order]
    )
