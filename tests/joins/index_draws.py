"""Hypothesis draws shared by the join-index and scheduler tests.

One case is the chunk descriptors of two tables over the same grid, the
join attributes, and range boxes to prune with.  Partitionings are regular
grids in every p/q relation (``p<q`` and ``p>q`` nest one table's chunks in
the other's, ``p=q`` aligns them, ``mixed`` crosses them) or independent
KD tilings (:func:`tests.joins.irregular.kd_tiles`); the join runs on
all coordinates or a subset.  Sizes keep each table at 64 chunks or fewer,
so the all-pairs oracle stays cheap.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from hypothesis import strategies as st

from repro.datamodel import BoundingBox, ChunkDescriptor, ChunkRef, SubTableId
from repro.workloads import GridSpec, make_grid_chunk_descriptors
from repro.workloads.generator import dim_names
from .irregular import kd_tiles

INF = float("inf")
#: grid extent → the chunk extents drawn for it (at most 4 chunks a dimension)
PARTS = {4: (1, 2, 4), 8: (2, 4, 8)}


@dataclass
class IndexCase:
    left: List[ChunkDescriptor]
    right: List[ChunkDescriptor]
    g: Tuple[int, ...]
    on: Tuple[str, ...]
    #: the regular grid's closed forms; ``None`` for KD tilings
    spec: Optional[GridSpec]
    boxes: List[BoundingBox]

    @property
    def chunk_boxes(self):
        return {c.id: c.bbox for c in self.left + self.right}


def kd_chunks(table_id: int, g, max_records: int, seed: int) -> List[ChunkDescriptor]:
    names = dim_names(len(g))
    return [
        ChunkDescriptor(
            id=SubTableId(table_id, cid),
            ref=ChunkRef(storage_node=0, path=f"t{table_id}.dat", offset=cid * 8, size=8),
            attributes=names,
            extractors=("e",),
            bbox=BoundingBox(
                {n: (float(lo), float(hi - 1)) for n, (lo, hi) in zip(names, tile)}
            ),
            num_records=1,
        )
        for cid, tile in enumerate(kd_tiles(g, max_records, seed=seed))
    ]


@st.composite
def range_boxes(draw, g, names, on) -> List[BoundingBox]:
    """A drawn box (bounds in and around the grid, some left out, some
    infinite), a box outside the grid, and — when the join leaves a
    coordinate out — a box bounding only that non-join attribute."""
    bounds = {}
    for name, extent in zip(names, g):
        if draw(st.booleans()):
            lo = draw(st.integers(-2, extent + 1))
            hi = draw(st.integers(lo, extent + 2))
            bounds[name] = (
                -INF if draw(st.integers(0, 4)) == 0 else float(lo),
                INF if draw(st.integers(0, 4)) == 0 else float(hi),
            )
    extent = dict(zip(names, g))
    boxes = [BoundingBox(bounds), BoundingBox({on[0]: (extent[on[0]] + 3.0, INF)})]
    off_join = [n for n in names if n not in on]
    if off_join:
        name = draw(st.sampled_from(off_join))
        lo = draw(st.integers(0, extent[name] - 1))
        boxes.append(BoundingBox({name: (float(lo), float(lo + 1))}))
    return boxes


@st.composite
def index_cases(draw) -> IndexCase:
    if draw(st.integers(0, 2)) == 0:  # KD tilings, one in three
        g = draw(st.sampled_from([(16, 16), (8, 8, 8)]))
        seed = draw(st.integers(0, 2**16))
        left = kd_chunks(1, g, draw(st.integers(8, 64)), seed)
        right = kd_chunks(2, g, draw(st.integers(8, 64)), seed + 1)
        spec = None
    else:
        relation = draw(st.sampled_from(["p<q", "p=q", "p>q", "mixed"]))
        g, p, q = [], [], []
        for _ in range(draw(st.integers(1, 3))):
            extent = draw(st.sampled_from(sorted(PARTS)))
            a = draw(st.sampled_from(PARTS[extent]))
            b = draw(st.sampled_from(PARTS[extent]))
            if relation == "p=q":
                b = a
            elif relation != "mixed":
                a, b = (min(a, b), max(a, b)) if relation == "p<q" else (max(a, b), min(a, b))
            g.append(extent), p.append(a), q.append(b)
        g = tuple(g)
        spec = GridSpec(g=g, p=tuple(p), q=tuple(q))
        left = make_grid_chunk_descriptors(1, g, spec.p, 16, 2)
        right = make_grid_chunk_descriptors(2, g, spec.q, 16, 2)
    names = dim_names(len(g))
    joined = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    on = tuple(n for n in names if n in joined)
    return IndexCase(left, right, g, on, spec, draw(range_boxes(g, names, on)))
