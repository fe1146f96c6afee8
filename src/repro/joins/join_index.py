"""Page-level join index: the sub-table connectivity graph.

"If a relational table is stored as pages ..., a list of page pairs (i, j)
such that page i and page j contain at least one record with the same value
of join attribute k.  When these two tables are required to be joined on
the attribute, only these page pairs are checked for matches." (Section 4.1)

Basic sub-tables play the role of pages; *candidate pairs* are sub-tables
whose bounding boxes overlap on the join attributes.  The index is built
with an R-tree over the left table's chunk boxes (one range query per right
chunk), and connected components are extracted with union-find —
"independent components of this graph are identified" (Section 5.1), the
unit the two-stage scheduler deals out to compute nodes.

:class:`ConnectivityStats` exposes the dataset parameters of Table 1 the
index determines: ``n_e``, the per-component ``(a, b)`` counts, and the
edge ratio ``n_e · c_R · c_S / T²``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.chunk import ChunkDescriptor
from repro.datamodel.subtable import SubTableId
from repro.metadata.rtree import RTree

__all__ = ["PageJoinIndex", "Component", "ConnectivityStats", "build_join_index"]


class _UnionFind:
    """Path-halving union-find over arbitrary hashable items."""

    def __init__(self) -> None:
        self._parent: Dict[object, object] = {}

    def add(self, x: object) -> None:
        self._parent.setdefault(x, x)

    def find(self, x: object) -> object:
        parent = self._parent
        while parent[x] is not x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: object, b: object) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra is not rb:
            self._parent[ra] = rb


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
    """The precomputed join index for one (left table, right table, attrs)."""

    def __init__(
        self,
        left_table: int,
        right_table: int,
        on: Tuple[str, ...],
        pairs: List[Tuple[SubTableId, SubTableId]],
    ):
        self.left_table = left_table
        self.right_table = right_table
        self.on = tuple(on)
        self.pairs = pairs
        self._components: Optional[List[Component]] = None

    # -- graph structure -------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.pairs)

    def components(self) -> List[Component]:
        """Connected components, deterministic order (by smallest left id)."""
        if self._components is None:
            uf = _UnionFind()
            for l, r in self.pairs:
                uf.add(("L", l))
                uf.add(("R", r))
                uf.union(("L", l), ("R", r))
            groups: Dict[object, Component] = {}
            seen_left: Dict[object, set] = {}
            seen_right: Dict[object, set] = {}
            for l, r in self.pairs:
                root = uf.find(("L", l))
                comp = groups.get(root)
                if comp is None:
                    comp = groups[root] = Component()
                    seen_left[root] = set()
                    seen_right[root] = set()
                if l not in seen_left[root]:
                    seen_left[root].add(l)
                    comp.left_ids.append(l)
                if r not in seen_right[root]:
                    seen_right[root].add(r)
                    comp.right_ids.append(r)
                comp.pairs.append((l, r))
            comps = list(groups.values())
            for comp in comps:
                comp.left_ids.sort()
                comp.right_ids.sort()
                comp.pairs.sort()
            comps.sort(key=lambda c: c.left_ids[0])
            self._components = comps
        return self._components

    def stats(self) -> ConnectivityStats:
        comps = self.components()
        lefts = {l for l, _ in self.pairs}
        rights = {r for _, r in self.pairs}
        n_e = self.num_edges
        return ConnectivityStats(
            num_edges=n_e,
            num_components=len(comps),
            num_left=len(lefts),
            num_right=len(rights),
            avg_left_degree=n_e / len(lefts) if lefts else 0.0,
            avg_right_degree=n_e / len(rights) if rights else 0.0,
            max_component_a=max((c.a for c in comps), default=0),
            max_component_b=max((c.b for c in comps), default=0),
        )

    def restrict(self, query: BoundingBox, chunk_boxes: Dict[SubTableId, BoundingBox]) -> "PageJoinIndex":
        """Prune pairs whose union box misses ``query``.

        "Any additional range constraints may be applied at the sub-table
        level to prune away unwanted edges (and nodes)."  A pair survives
        only if *both* endpoints' boxes intersect the constraint.
        """
        kept = [
            (l, r)
            for l, r in self.pairs
            if chunk_boxes[l].overlaps(query) and chunk_boxes[r].overlaps(query)
        ]
        return PageJoinIndex(self.left_table, self.right_table, self.on, kept)

    # -- persistence (MetaData Service key-value store) ------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "left_table": self.left_table,
            "right_table": self.right_table,
            "on": list(self.on),
            "pairs": [
                [l.table_id, l.chunk_id, r.table_id, r.chunk_id] for l, r in self.pairs
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PageJoinIndex":
        pairs = [
            (SubTableId(int(p[0]), int(p[1])), SubTableId(int(p[2]), int(p[3])))
            for p in data["pairs"]  # type: ignore[union-attr]
        ]
        return cls(
            int(data["left_table"]),
            int(data["right_table"]),
            tuple(str(s) for s in data["on"]),  # type: ignore[union-attr]
            pairs,
        )


def build_join_index(
    left_chunks: Sequence[ChunkDescriptor],
    right_chunks: Sequence[ChunkDescriptor],
    on: Sequence[str],
) -> PageJoinIndex:
    """Construct the connectivity graph from chunk metadata.

    Candidate pairs are chunks whose bounding boxes overlap on every join
    attribute.  A view's WHERE range prunes the built index
    (:meth:`PageJoinIndex.restrict`).  The pair list is produced in
    lexicographic ``(left id, right id)`` order.
    """
    on = tuple(on)
    if not on:
        raise ValueError("join index needs at least one join attribute")

    left_table = left_chunks[0].table_id if left_chunks else -1
    right_table = right_chunks[0].table_id if right_chunks else -1

    pairs: List[Tuple[SubTableId, SubTableId]] = []
    if left_chunks and right_chunks:
        tree = RTree(ndim=len(on), max_entries=16)
        for c in left_chunks:
            tree.insert(c.bbox.bounds(on), c)
        for rc in right_chunks:
            pairs.extend((lc.id, rc.id) for lc in tree.search(rc.bbox.bounds(on)))
    pairs.sort()
    return PageJoinIndex(left_table, right_table, on, pairs)
