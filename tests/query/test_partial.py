"""Tests for distributed (partial) aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import MachineSpec
from repro.core import Aggregate, AggregationView, DerivedDataSource, JoinView
from repro.datamodel import Schema, SubTable, SubTableId
from repro.query.aggregate import aggregate
from repro.query.partial import decompose, merge_partials, partial_aggregate
from repro.workloads import GridSpec, build_oil_reservoir_dataset
from tests.datamodel.key_draws import column, key_columns, typed_table


def table_of(values_by_col):
    names = list(values_by_col)
    schema = Schema.of(*names)
    return SubTable(
        SubTableId(0, 0),
        schema,
        {k: np.asarray(v, dtype=np.float32) for k, v in values_by_col.items()},
    )


ALL_AGGS = (
    Aggregate("sum", "v"),
    Aggregate("avg", "v"),
    Aggregate("min", "v"),
    Aggregate("max", "v"),
    Aggregate("count", "*"),
)


class TestDecompose:
    def test_avg_decomposes_to_sum_count(self):
        partials = decompose([Aggregate("avg", "v")])
        assert {(p.func, p.attr) for p in partials} == {("sum", "v"), ("count", "*")}

    def test_deduplication(self):
        partials = decompose([Aggregate("avg", "v"), Aggregate("sum", "v"),
                              Aggregate("count", "*")])
        assert len(partials) == 2  # sum__v and count__all, shared

    def test_simple_aggregates_pass_through(self):
        partials = decompose([Aggregate("min", "v"), Aggregate("max", "w")])
        assert [(p.func, p.attr) for p in partials] == [("min", "v"), ("max", "w")]


class TestMergeEqualsCentral:
    def test_two_partitions_grouped(self):
        a = table_of({"g": [0, 1, 0], "v": [1, 2, 3]})
        b = table_of({"g": [1, 1, 2], "v": [4, 6, 5]})
        whole = table_of({"g": [0, 1, 0, 1, 1, 2], "v": [1, 2, 3, 4, 6, 5]})
        central = aggregate(whole, ALL_AGGS, group_by=["g"]).sort_by(["g"])
        parts = [partial_aggregate(t, ALL_AGGS, ["g"]) for t in (a, b)]
        merged = merge_partials(parts, ALL_AGGS, ["g"]).sort_by(["g"])
        assert merged.schema.names == central.schema.names
        for name in central.schema.names:
            np.testing.assert_allclose(merged.column(name), central.column(name))

    def test_ungrouped(self):
        a = table_of({"v": [1, 2]})
        b = table_of({"v": [3, 4, 5]})
        whole = table_of({"v": [1, 2, 3, 4, 5]})
        central = aggregate(whole, ALL_AGGS)
        merged = merge_partials(
            [partial_aggregate(t, ALL_AGGS) for t in (a, b)], ALL_AGGS
        )
        for name in central.schema.names:
            np.testing.assert_allclose(merged.column(name), central.column(name))

    def test_single_partition_identity(self):
        t = table_of({"g": [0, 0, 1], "v": [1, 2, 3]})
        central = aggregate(t, ALL_AGGS, ["g"]).sort_by(["g"])
        merged = merge_partials(
            [partial_aggregate(t, ALL_AGGS, ["g"])], ALL_AGGS, ["g"]
        ).sort_by(["g"])
        for name in central.schema.names:
            np.testing.assert_allclose(merged.column(name), central.column(name))

    def test_empty_parts_rejected(self):
        with pytest.raises(ValueError):
            merge_partials([], ALL_AGGS)

    def test_groups_unique_to_one_partition(self):
        a = table_of({"g": [0], "v": [1]})
        b = table_of({"g": [7], "v": [9]})
        merged = merge_partials(
            [partial_aggregate(t, ALL_AGGS, ["g"]) for t in (a, b)],
            ALL_AGGS, ["g"],
        ).sort_by(["g"])
        np.testing.assert_array_equal(merged.column("g"), [0, 7])
        np.testing.assert_array_equal(merged.column("max_v"), [1, 9])

    @settings(max_examples=120, deadline=None)
    @given(
        keys=key_columns(max_columns=3, min_records=1),
        groups=st.data(),
        num_parts=st.integers(min_value=1, max_value=5),
    )
    def test_merge_equals_central_random(self, keys, groups, num_parts):
        """Over ``key_ids``' value classes (NaN, signed zeros, infinities,
        mixed dtypes — every drawn value dyadic, so sums are exact in any
        order).  A NaN key is its own group on both sides but in a
        different place, so the two are compared sorted on every column."""
        n = len(keys[0])
        group_by = [f"k{i}" for i in range(len(keys))]
        columns = dict(zip(group_by, keys), v=groups.draw(column(n)))
        # random partition into num_parts pieces
        assignment = np.array(
            [groups.draw(st.integers(min_value=0, max_value=num_parts - 1)) for _ in range(n)]
        )
        parts = [
            typed_table({name: c[assignment == p] for name, c in columns.items()})
            for p in range(num_parts)
            if (assignment == p).any()
        ]
        with np.errstate(invalid="ignore"):  # inf - inf in a drawn value column
            central = aggregate(typed_table(columns), ALL_AGGS, group_by)
            merged = merge_partials(
                [partial_aggregate(t, ALL_AGGS, group_by) for t in parts], ALL_AGGS, group_by
            )
        assert merged.schema == central.schema
        assert merged.num_records == central.num_records
        names = central.schema.names
        central, merged = central.sort_by(names), merged.sort_by(names)
        for name in names:
            np.testing.assert_array_equal(merged.column(name), central.column(name))


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def dataset(self):
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
        return build_oil_reservoir_dataset(spec, num_storage=2)

    def make_dds(self, dataset, mode):
        join = JoinView("V1", "T1", "T2", on=dataset.join_attrs)
        view = AggregationView(
            "A1", join,
            aggregates=(Aggregate("avg", "wp"), Aggregate("count", "*"),
                        Aggregate("max", "oilp")),
            group_by=("y",),
        )
        return DerivedDataSource(
            view, dataset.metadata, dataset.provider,
            num_storage=2, num_compute=2, machine=MachineSpec(),
            aggregate_mode=mode,
        )

    def test_modes_agree(self, dataset):
        central = self.make_dds(dataset, "central").execute()
        distributed = self.make_dds(dataset, "distributed").execute()
        c = central.table.sort_by(["y"])
        d = distributed.table.sort_by(["y"])
        assert c.schema.names == d.schema.names
        for name in c.schema.names:
            np.testing.assert_allclose(c.column(name), d.column(name), rtol=1e-9)

    def test_distributed_ships_fewer_bytes(self, dataset):
        result = self.make_dds(dataset, "distributed").execute()
        raw = result.report.extras["agg_raw_result_bytes"]
        partial = result.report.extras["agg_partial_bytes"]
        assert partial < raw / 2  # partials are dramatically smaller

    def test_invalid_mode_rejected(self, dataset):
        join = JoinView("V1", "T1", "T2", on=dataset.join_attrs)
        with pytest.raises(ValueError):
            DerivedDataSource(
                join, dataset.metadata, dataset.provider,
                num_storage=2, num_compute=2, aggregate_mode="magic",
            )
