"""Tests for view materialisation and DDS-over-DDS layering."""

import numpy as np
import pytest

from repro.cluster import MachineSpec
from repro.core import DerivedDataSource, JoinView, materialize_table
from repro.datamodel import BoundingBox, Schema, SubTable, SubTableId
from repro.joins import reference_join
from repro.joins.baselines import sort_merge_join
from repro.storage import DatasetWriter, build_extractor
from repro.workloads import GridSpec, build_oil_reservoir_dataset
from repro.workloads.generator import make_grid_partitions

MACHINE = MachineSpec()
SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))


@pytest.fixture
def dataset_with_t3():
    """The standard two tables plus a third (soil saturation) table."""
    ds = build_oil_reservoir_dataset(SPEC, num_storage=2)
    t3_schema = Schema.of("x", "y", "soil", coordinates=("x", "y"))
    ex3 = build_extractor(
        "layout t3 {\n    order: row_major;\n"
        "    field x float32 coordinate;\n    field y float32 coordinate;\n"
        "    field soil float32;\n}"
    )
    ds.registry.register(ex3)
    writer = DatasetWriter(ds.stores)
    parts = make_grid_partitions(
        SPEC.g, (8, 8), t3_schema,
        value_fns={"soil": lambda c: (c["x"] + c["y"]) / 32.0},
    )
    ds.metadata.register_written_table("T3", writer.write_table(3, ex3, parts))
    return ds


def execute_view(ds, view, **kw):
    dds = DerivedDataSource(
        view, ds.metadata, ds.provider, num_storage=2, num_compute=2,
        machine=MACHINE, **kw,
    )
    return dds.execute()


class TestMaterialize:
    def test_materialized_table_queryable(self, dataset_with_t3):
        ds = dataset_with_t3
        v1 = execute_view(ds, JoinView("V1", "T1", "T2", on=("x", "y")))
        cat = materialize_table(
            v1.table, "V1mat", table_id=10,
            metadata=ds.metadata, stores=ds.stores, registry=ds.registry,
            chunk_records=32,
        )
        assert cat.num_records == SPEC.T
        assert cat.schema.names == ("x", "y", "oilp", "wp")
        # range query against the materialised view works via the R-tree
        hits = ds.metadata.table("V1mat").find_chunks(BoundingBox({"x": (0, 3)}))
        assert hits
        for h in hits:
            assert h.bbox.interval("x").lo <= 3

    def test_materialized_chunks_roundtrip_through_bds(self, dataset_with_t3):
        ds = dataset_with_t3
        v1 = execute_view(ds, JoinView("V1", "T1", "T2", on=("x", "y")))
        materialize_table(
            v1.table, "V1mat", 10, ds.metadata, ds.stores, ds.registry,
            chunk_records=50,
        )
        parts = [
            ds.provider.fetch(c) for c in ds.metadata.table("V1mat").all_chunks()
        ]
        from repro.datamodel.subtable import concat_subtables

        back = concat_subtables(parts, id=SubTableId(10, -1))
        assert back.equals_unordered(v1.table)

    def test_layered_join_matches_threeway_oracle(self, dataset_with_t3):
        """V2 = (T1 ⊕ T2) ⊕ T3, executed as DDS over materialised DDS."""
        ds = dataset_with_t3
        v1 = execute_view(ds, JoinView("V1", "T1", "T2", on=("x", "y")))
        materialize_table(
            v1.table, "V1mat", 10, ds.metadata, ds.stores, ds.registry,
            chunk_records=SPEC.c_R,
        )
        for algorithm in ("indexed-join", "grace-hash"):
            v2 = execute_view(
                ds, JoinView("V2", "V1mat", "T3", on=("x", "y"))
            )
            # oracle: sort-merge the oracle join of T1,T2 against T3 directly
            t12 = reference_join(ds.metadata, ds.provider, "T1", "T2", ("x", "y"))
            from repro.datamodel.subtable import concat_subtables

            t3_whole = concat_subtables(
                [ds.provider.fetch(c) for c in ds.metadata.table("T3").all_chunks()],
                id=SubTableId(3, -1),
            )
            oracle = sort_merge_join(t12, t3_whole, on=("x", "y"))
            assert v2.table.equals_unordered(oracle)
            assert v2.num_records == SPEC.T
            assert set(v2.table.schema.names) == {"x", "y", "oilp", "wp", "soil"}

    def test_planner_plans_layered_view(self, dataset_with_t3):
        ds = dataset_with_t3
        v1 = execute_view(ds, JoinView("V1", "T1", "T2", on=("x", "y")))
        materialize_table(
            v1.table, "V1mat", 10, ds.metadata, ds.stores, ds.registry,
            chunk_records=SPEC.c_R,
        )
        dds = DerivedDataSource(
            JoinView("V2", "V1mat", "T3", on=("x", "y")),
            ds.metadata, ds.provider, num_storage=2, num_compute=2,
            machine=MACHINE,
        )
        plan = dds.plan()
        assert plan.params.T == SPEC.T
        assert plan.params.RS_R == 16  # x, y, oilp, wp
        assert plan.index.num_edges > 0

    def test_empty_view_materialises(self, dataset_with_t3):
        ds = dataset_with_t3
        schema = Schema.of("x", "v", coordinates=("x",))
        empty = SubTable(
            SubTableId(-1, 0), schema,
            {"x": np.empty(0, np.float32), "v": np.empty(0, np.float32)},
        )
        cat = materialize_table(
            empty, "EmptyV", 11, ds.metadata, ds.stores, ds.registry,
            chunk_records=10,
        )
        assert cat.num_records == 0

    def test_validation(self, dataset_with_t3):
        ds = dataset_with_t3
        v1 = execute_view(ds, JoinView("V1", "T1", "T2", on=("x", "y")))
        with pytest.raises(ValueError):
            materialize_table(v1.table, "V1mat", 10, ds.metadata, ds.stores,
                              ds.registry, chunk_records=0)
        with pytest.raises(ValueError):
            materialize_table(v1.table, "bad name", 10, ds.metadata, ds.stores,
                              ds.registry, chunk_records=10)

    def test_chunk_bboxes_tight_after_sorting(self, dataset_with_t3):
        """Sorting by coordinates before chunking keeps x-extents narrow,
        which is what makes the materialised view range-prunable."""
        ds = dataset_with_t3
        v1 = execute_view(ds, JoinView("V1", "T1", "T2", on=("x", "y")))
        cat = materialize_table(
            v1.table, "V1mat", 10, ds.metadata, ds.stores, ds.registry,
            chunk_records=16,  # one x-column of the 16x16 grid per chunk
        )
        for chunk in cat.all_chunks():
            iv = chunk.bbox.interval("x")
            assert iv.lo == iv.hi  # each chunk holds exactly one x plane


class TestEmptyViewMaterialization:
    """Regression: the empty and non-empty registration paths are one
    path.  An empty view must register with a real schema (from the
    generated extractor), answer range queries, and be joinable — not
    crash in the writer or register a schema-less husk."""

    def _empty_result(self, ds):
        # a region entirely outside the grid: chunk pruning leaves nothing
        view = JoinView(
            "Vempty", "T1", "T2", on=("x", "y"),
            where=BoundingBox({"x": (100.0, 200.0)}),
        )
        res = execute_view(ds, view)
        assert res.table.num_records == 0
        return res

    def test_empty_view_registers_with_schema(self, dataset_with_t3):
        ds = dataset_with_t3
        res = self._empty_result(ds)
        cat = materialize_table(
            res.table, "Vem", 11, ds.metadata, ds.stores, ds.registry,
            chunk_records=16,
        )
        assert cat.num_records == 0
        assert cat.schema.names == ("x", "y", "oilp", "wp")
        # schema provenance: the catalog serves the generated extractor's
        # schema object, same as any non-empty materialisation
        assert cat.schema is ds.registry.resolve_first(["mat_Vem"]).schema

    def test_empty_view_range_query_round_trip(self, dataset_with_t3):
        ds = dataset_with_t3
        res = self._empty_result(ds)
        materialize_table(
            res.table, "Vem", 11, ds.metadata, ds.stores, ds.registry,
            chunk_records=16,
        )
        hits = ds.metadata.table("Vem").find_chunks(BoundingBox({"x": (0, 15)}))
        assert hits == []

    def test_empty_view_joins_like_a_base_table(self, dataset_with_t3):
        ds = dataset_with_t3
        res = self._empty_result(ds)
        materialize_table(
            res.table, "Vem", 11, ds.metadata, ds.stores, ds.registry,
            chunk_records=16,
        )
        joined = execute_view(ds, JoinView("V2", "Vem", "T3", on=("x", "y")))
        assert joined.table is not None
        assert joined.table.num_records == 0
