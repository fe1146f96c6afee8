"""Irregular (KD-split) dataset partitionings.

The paper's evaluation uses regular grid partitions — that is what makes
its closed-form statistics exact — but nothing in the *framework* requires
regularity: the page-level join index pairs chunks by bounding-box overlap
whatever their shapes.  Real simulation outputs are frequently irregular
(adaptive mesh refinement, load-balanced domain decomposition), so this
module generates KD-tree partitionings of a grid: recursively split the
widest dimension at a pseudo-random cut until every tile holds at most
``max_records`` points.

The generated tiles exactly cover the grid without overlap (property-
tested), so a selectivity-1 equi-join over two *different* irregular
partitionings of the same grid still yields exactly ``T`` result tuples —
the invariant integration tests verify through both QES algorithms.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.schema import Schema
from repro.metadata.service import MetaDataService
from repro.services.bds import BasicDataSourceService, FunctionalProvider
from repro.storage.chunkstore import InMemoryChunkStore
from repro.storage.extractor import ExtractorRegistry, build_extractor
from repro.storage.writer import DatasetWriter, TablePartition
from repro.workloads.generator import dim_names
from repro.workloads.oilres import (
    OilReservoirDataset,
    _layout_descriptor_text,
    oil_reservoir_schemas,
)

__all__ = ["kd_tiles", "make_irregular_partitions", "build_irregular_dataset"]

#: A tile: per-dimension (lo, hi_exclusive) integer bounds.
Tile = Tuple[Tuple[int, int], ...]


def kd_tiles(
    g: Tuple[int, ...], max_records: int, seed: int = 0
) -> List[Tile]:
    """KD-split the grid ``[0, g)`` into tiles of ≤ ``max_records`` points.

    Splits always pick the widest dimension; the cut position is drawn
    uniformly from the middle half of the extent (so tiles stay reasonably
    balanced but genuinely irregular).  Deterministic per seed.
    """
    if max_records <= 0:
        raise ValueError("max_records must be positive")
    if any(gd <= 0 for gd in g):
        raise ValueError("grid dimensions must be positive")
    rng = np.random.default_rng(seed)
    out: List[Tile] = []
    stack: List[Tile] = [tuple((0, gd) for gd in g)]
    while stack:
        tile = stack.pop()
        records = math.prod(hi - lo for lo, hi in tile)
        if records <= max_records:
            out.append(tile)
            continue
        # split the widest splittable dimension
        widths = [hi - lo for lo, hi in tile]
        dim = max(range(len(tile)), key=lambda d: widths[d])
        lo, hi = tile[dim]
        if hi - lo < 2:
            out.append(tile)  # cannot split further; accept oversize point-col
            continue
        span = hi - lo
        low_cut = lo + max(1, span // 4)
        high_cut = hi - max(1, span // 4)
        if low_cut >= high_cut:
            cut = lo + span // 2
        else:
            cut = int(rng.integers(low_cut, high_cut + 1))
        cut = min(max(cut, lo + 1), hi - 1)
        left = tuple((l, cut) if d == dim else (l, h) for d, (l, h) in enumerate(tile))
        right = tuple((cut, h) if d == dim else (l, h) for d, (l, h) in enumerate(tile))
        stack.append(left)
        stack.append(right)
    out.sort()
    return out


def make_irregular_partitions(
    g: Tuple[int, ...],
    tiles: List[Tile],
    schema: Schema,
    value_fns: Optional[Dict[str, object]] = None,
    seed: int = 0,
) -> List[TablePartition]:
    """Materialise one table partition per KD tile (same conventions as
    :func:`repro.workloads.generator.make_grid_partitions`)."""
    names = dim_names(len(g))
    value_fns = value_fns or {}
    rng = np.random.default_rng(seed)
    out: List[TablePartition] = []
    for tile in tiles:
        axes = [np.arange(lo, hi, dtype=np.float32) for lo, hi in tile]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = {name: m.reshape(-1) for name, m in zip(names, mesh)}
        n = coords[names[0]].shape[0]
        columns: Dict[str, np.ndarray] = dict(coords)
        for attr in schema:
            if attr.name in columns:
                continue
            fn = value_fns.get(attr.name)
            if fn is not None:
                columns[attr.name] = np.asarray(fn(coords), dtype=attr.np_dtype)
            else:
                columns[attr.name] = rng.random(n).astype(attr.np_dtype)
        bbox = BoundingBox(
            {name: (float(lo), float(hi - 1)) for name, (lo, hi) in zip(names, tile)}
        )
        out.append(TablePartition(columns=columns, bbox=bbox))
    return out


def build_irregular_dataset(
    g: Tuple[int, ...],
    max_records_t1: int,
    max_records_t2: int,
    num_storage: int,
    seed: int = 0,
) -> OilReservoirDataset:
    """The oil-reservoir two-table dataset over *independent* KD
    partitionings of the same grid (functional build).

    Because the two trees differ, chunk boundaries interleave arbitrarily —
    the stress case for the bounding-box join index.  Returns an
    :class:`OilReservoirDataset` whose ``spec`` is ``None``-free only in
    ``g`` terms; closed-form statistics do not apply to irregular tilings,
    so callers should use the join index's measured stats instead.
    """
    from repro.workloads.generator import GridSpec

    if num_storage <= 0:
        raise ValueError("num_storage must be positive")
    t1_schema, t2_schema = oil_reservoir_schemas(len(g))
    ex1 = build_extractor(_layout_descriptor_text("irr_t1", t1_schema))
    ex2 = build_extractor(_layout_descriptor_text("irr_t2", t2_schema))
    registry = ExtractorRegistry([ex1, ex2])
    stores = [InMemoryChunkStore(i) for i in range(num_storage)]
    writer = DatasetWriter(stores)
    t1_parts = make_irregular_partitions(
        g, kd_tiles(g, max_records_t1, seed=seed), t1_schema, seed=seed + 10
    )
    t2_parts = make_irregular_partitions(
        g, kd_tiles(g, max_records_t2, seed=seed + 1), t2_schema, seed=seed + 11
    )
    metadata = MetaDataService()
    metadata.register_written_table("T1", writer.write_table(1, ex1, t1_parts))
    metadata.register_written_table("T2", writer.write_table(2, ex2, t2_parts))
    bds = [BasicDataSourceService(i, stores[i], registry) for i in range(num_storage)]
    # a degenerate regular spec records the grid; irregular statistics come
    # from the join index, not the closed forms
    placeholder = GridSpec(g=tuple(g), p=tuple(g), q=tuple(g))
    return OilReservoirDataset(
        spec=placeholder,
        metadata=metadata,
        provider=FunctionalProvider(bds),
        num_storage=num_storage,
    )
