"""Tests for the MetaData Service."""

import numpy as np
import pytest

from repro.datamodel import (
    BoundingBox,
    ChunkDescriptor,
    ChunkRef,
    Schema,
    SubTableId,
)
from repro.metadata import MetaDataService
from repro.storage import DatasetWriter, build_extractor
from repro.storage.chunkstore import InMemoryChunkStore
from repro.storage.writer import TablePartition


def make_chunk(table_id, chunk_id, node, xlo, xhi, ylo, yhi, n=100):
    return ChunkDescriptor(
        id=SubTableId(table_id, chunk_id),
        ref=ChunkRef(storage_node=node, path=f"t{table_id}.dat", offset=chunk_id * 800, size=800),
        attributes=("x", "y", "wp"),
        extractors=("t_ex",),
        bbox=BoundingBox({"x": (xlo, xhi), "y": (ylo, yhi)}),
        num_records=n,
    )


@pytest.fixture
def service():
    svc = MetaDataService()
    schema = Schema.of("x", "y", "wp", coordinates=("x", "y"))
    cat = svc.register_table(1, "T1", schema)
    # 4x4 grid of 16x16 cells
    cid = 0
    for i in range(4):
        for j in range(4):
            cat.add_chunk(
                make_chunk(1, cid, node=cid % 3, xlo=i * 16, xhi=(i + 1) * 16, ylo=j * 16, yhi=(j + 1) * 16)
            )
            cid += 1
    return svc


class TestRegistration:
    def test_duplicate_table_id(self, service):
        with pytest.raises(ValueError):
            service.register_table(1, "other", Schema.of("x", coordinates=("x",)))

    def test_duplicate_table_name(self, service):
        with pytest.raises(ValueError):
            service.register_table(2, "T1", Schema.of("x", coordinates=("x",)))

    def test_duplicate_chunk_rejected(self, service):
        cat = service.table("T1")
        with pytest.raises(ValueError):
            cat.add_chunk(make_chunk(1, 0, 0, 0, 16, 0, 16))

    def test_chunk_wrong_table_rejected(self, service):
        cat = service.table("T1")
        with pytest.raises(ValueError):
            cat.add_chunk(make_chunk(2, 99, 0, 0, 16, 0, 16))

    def test_lookup_by_name_and_id(self, service):
        assert service.table("T1") is service.table(1)
        with pytest.raises(KeyError):
            service.table("nope")
        with pytest.raises(KeyError):
            service.table(99)

    def test_chunk_lookup(self, service):
        c = service.chunk(SubTableId(1, 5))
        assert c.chunk_id == 5
        with pytest.raises(KeyError):
            service.chunk(SubTableId(1, 999))


class TestCatalogStats:
    def test_totals(self, service):
        cat = service.table("T1")
        assert cat.num_records == 1600
        assert cat.nbytes == 16 * 800


class TestRangeQueries:
    def test_paper_style_range_query(self, service):
        # "SELECT * FROM T1 WHERE x in [0, 256], y in [0, 512]" style pruning:
        # query window covering only the lower-left 2x2 cells
        hits = service.find_chunks("T1", BoundingBox({"x": (0, 31.9), "y": (0, 31.9)}))
        assert len(hits) == 4
        for h in hits:
            assert h.bbox.interval("x").lo < 32 and h.bbox.interval("y").lo < 32

    def test_full_range_returns_all(self, service):
        hits = service.find_chunks("T1", BoundingBox.empty())
        assert len(hits) == 16
        # results sorted by chunk id
        assert [h.chunk_id for h in hits] == sorted(h.chunk_id for h in hits)

    def test_matches_linear_scan(self, service):
        cat = service.table("T1")
        query = BoundingBox({"x": (10, 40), "y": (20, 20)})
        expected = [c for c in cat.all_chunks() if c.bbox.overlaps(query)]
        assert service.find_chunks("T1", query) == expected

    def test_independent_of_registration_order(self):
        """Same chunks, three registration orders, boxes that touch, repeat
        and are unbounded: every query answers the same, sorted by id."""
        inf = float("inf")
        rng = np.random.default_rng(5)
        chunks = []
        for cid in range(150):
            xlo, ylo = (float(v) for v in rng.integers(0, 12, size=2))
            xhi = inf if cid % 17 == 0 else xlo + float(rng.integers(0, 3))
            ylo = -inf if cid % 23 == 0 else ylo
            chunks.append(make_chunk(1, cid, 0, xlo, xhi, ylo, ylo + 2.0 if ylo > -inf else 3.0))
        queries = [
            BoundingBox.empty(),
            BoundingBox({"x": (3, 5)}),
            BoundingBox({"x": (4, 4), "y": (6, 6)}),
            BoundingBox({"x": (11, inf), "y": (-inf, 0)}),
            BoundingBox({"x": (100, 200)}),
        ]
        answers = []
        for order in (chunks, chunks[::-1], [chunks[i] for i in rng.permutation(150)]):
            svc = MetaDataService()
            cat = svc.register_table(1, "T", Schema.of("x", "y", "wp", coordinates=("x", "y")))
            for c in order:
                cat.add_chunk(c)
            answers.append([svc.find_chunks("T", q) for q in queries])
        assert answers[0] == answers[1] == answers[2]
        for q, hits in zip(queries, answers[0]):
            assert hits == [c for c in chunks if c.bbox.overlaps(q)]
        assert len(answers[0][3]) > 0  # the half-infinite window does select chunks

    def test_chunk_added_after_first_query_is_found(self, service):
        window = BoundingBox({"x": (100, 110), "y": (100, 110)})
        assert service.find_chunks("T1", window) == []  # builds the index
        late = make_chunk(1, 99, node=0, xlo=105, xhi=120, ylo=90, yhi=100)
        service.table("T1").add_chunk(late)
        assert service.find_chunks("T1", window) == [late]
        assert len(service.find_chunks("T1", BoundingBox.empty())) == 17

    def test_scalar_attribute_refinement(self):
        svc = MetaDataService()
        schema = Schema.of("x", "wp", coordinates=("x",))
        cat = svc.register_table(1, "T", schema)
        cat.add_chunk(
            ChunkDescriptor(
                id=SubTableId(1, 0),
                ref=ChunkRef(0, "f", 0, 8),
                attributes=("x", "wp"),
                extractors=("e",),
                bbox=BoundingBox({"x": (0, 10), "wp": (0.5, 0.9)}),
                num_records=1,
            )
        )
        # x matches, but the wp bound excludes the chunk
        assert svc.find_chunks("T", BoundingBox({"x": (0, 5), "wp": (0.0, 0.4)})) == []
        assert len(svc.find_chunks("T", BoundingBox({"x": (0, 5), "wp": (0.6, 0.7)}))) == 1

    def test_refinement_sees_only_what_the_rtree_did_not(self):
        """The R-tree answers the coordinate bounds exactly; the refinement
        runs over the query's other attributes only — and the answer is
        still the linear scan's, whichever side leaves an attribute out."""
        inf = float("inf")
        rng = np.random.default_rng(11)
        svc = MetaDataService()
        cat = svc.register_table(1, "T", Schema.of("x", "y", "wp", coordinates=("x", "y")))
        for cid in range(120):
            xlo, ylo = (float(v) for v in rng.integers(0, 12, size=2))
            bounds = {"x": (xlo, xlo + float(rng.integers(0, 3))), "y": (ylo, ylo + 1.0)}
            if cid % 5:  # one chunk in five carries no wp bound: unbounded
                wlo = float(rng.integers(0, 8)) / 10
                bounds["wp"] = (wlo, wlo + 0.2)
            chunk = make_chunk(1, cid, 0, 0, 0, 0, 0)
            cat.add_chunk(
                ChunkDescriptor(
                    id=chunk.id, ref=chunk.ref, attributes=chunk.attributes,
                    extractors=chunk.extractors, bbox=BoundingBox(bounds), num_records=1,
                )
            )
        for query in [
            BoundingBox({"wp": (0.3, 0.5)}),
            BoundingBox({"wp": (-inf, 0.1)}),
            BoundingBox({"x": (3, 6), "wp": (0.3, 0.5)}),
            BoundingBox({"x": (3, 6), "y": (2, inf), "wp": (0.65, 0.65)}),
            BoundingBox({"wp": (5.0, 6.0)}),
        ]:
            expected = [c for c in cat.all_chunks() if c.bbox.overlaps(query)]
            assert svc.find_chunks("T", query) == expected
        assert 0 < len(svc.find_chunks("T", BoundingBox({"wp": (5.0, 6.0)}))) < 120

    def test_chunks_on_node(self, service):
        on0 = service.chunks_on_node("T1", 0)
        assert all(c.ref.storage_node == 0 for c in on0)
        assert len(on0) == 6  # 16 chunks round-robin over 3 nodes -> 6,5,5

    def test_no_coordinates_raises(self):
        svc = MetaDataService()
        schema = Schema.of("a", "b")  # no coordinate attributes
        cat = svc.register_table(1, "T", schema)
        cat.add_chunk(
            ChunkDescriptor(
                id=SubTableId(1, 0),
                ref=ChunkRef(0, "f", 0, 8),
                attributes=("a", "b"),
                extractors=("e",),
                bbox=BoundingBox({"a": (0, 1)}),
                num_records=1,
            )
        )
        with pytest.raises(ValueError):
            svc.find_chunks("T", BoundingBox.empty())


class TestPersistence:
    def test_kv_default(self, service):
        assert service.get("missing", default=42) == 42


class TestEndToEndWithWriter:
    def test_register_written_table(self):
        ex = build_extractor(
            "layout oil {\n order: row_major;\n field x float32 coordinate;\n field oilp float32;\n}"
        )
        stores = [InMemoryChunkStore(i) for i in range(2)]
        writer = DatasetWriter(stores)
        parts = [
            TablePartition(
                columns={
                    "x": np.arange(i * 10, (i + 1) * 10, dtype=np.float32),
                    "oilp": np.full(10, i, dtype=np.float32),
                }
            )
            for i in range(4)
        ]
        written = writer.write_table(3, ex, parts)
        svc = MetaDataService()
        cat = svc.register_written_table("T_oil", written)
        assert cat.num_records == 40
        # range query that hits exactly the second partition (x in [10,20))
        hits = svc.find_chunks("T_oil", BoundingBox({"x": (10, 19.5)}))
        assert [h.chunk_id for h in hits] == [1]
