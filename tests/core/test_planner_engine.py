"""Tests for the Query Planning Service and the Derived Data Source engine."""

import numpy as np
import pytest

from repro.cluster import MachineSpec
from repro.core import (
    Aggregate,
    AggregationView,
    DerivedDataSource,
    JoinView,
    QueryPlanningService,
)
from repro.core import planner as planner_module
from repro.datamodel import BoundingBox
from repro.joins import build_join_index, reference_join
from repro.workloads import GridSpec, build_oil_reservoir_dataset

MACHINE = MachineSpec()


@pytest.fixture(scope="module")
def dataset():
    spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
    return build_oil_reservoir_dataset(spec, num_storage=2)


@pytest.fixture(scope="module")
def high_degree_dataset():
    # degree 16 left-per-right: IJ lookups dominate
    spec = GridSpec(g=(16, 16), p=(1, 1), q=(4, 4))
    return build_oil_reservoir_dataset(spec, num_storage=2, functional=False)


class TestViews:
    def test_join_view_describe(self):
        v = JoinView("V1", "T1", "T2", on=("x", "y"),
                     where=BoundingBox({"x": (0, 256)}))
        assert "T1 ⊕_xy T2" in v.describe()
        assert "x ∈ [0, 256]" in v.describe()

    def test_join_view_validation(self):
        with pytest.raises(ValueError):
            JoinView("bad name", "T1", "T2", on=("x",))
        with pytest.raises(ValueError):
            JoinView("V1", "T1", "T2", on=())

    def test_aggregate_defaults(self):
        a = Aggregate("AVG", "wp")
        assert a.func == "avg" and a.alias == "avg_wp"
        assert Aggregate("count", "*").alias == "count_all"
        with pytest.raises(ValueError):
            Aggregate("sum", "*")
        with pytest.raises(ValueError):
            Aggregate("median", "wp")

    def test_aggregation_view_validation(self):
        src = JoinView("V1", "T1", "T2", on=("x",))
        with pytest.raises(ValueError):
            AggregationView("A1", src, aggregates=())


class TestPlanner:
    def test_derives_table1_parameters(self, dataset):
        qps = QueryPlanningService(dataset.metadata, 2, 2, machine=MACHINE)
        view = JoinView("V1", "T1", "T2", on=dataset.join_attrs)
        params, index = qps.derive_parameters(view)
        spec = dataset.spec
        assert params.T == spec.T
        assert params.c_R == spec.c_R
        assert params.c_S == spec.c_S
        assert params.n_e == spec.n_e
        # 2-D grid: (x, y, oilp) and (x, y, wp) — 3 float32 attributes
        assert params.RS_R == 12 and params.RS_S == 12
        assert index.num_edges == spec.n_e

    def test_plan_picks_ij_at_low_degree(self, dataset):
        qps = QueryPlanningService(dataset.metadata, 2, 2, machine=MACHINE)
        plan = qps.plan(JoinView("V1", "T1", "T2", on=dataset.join_attrs))
        assert plan.algorithm == "indexed-join"
        assert plan.ij_cost.total < plan.gh_cost.total
        assert plan.predicted_time == plan.ij_cost.total
        assert "chosen QES: indexed-join" in plan.describe()

    def test_plan_picks_gh_at_high_degree(self, high_degree_dataset):
        ds = high_degree_dataset
        qps = QueryPlanningService(ds.metadata, 2, 2, machine=MACHINE)
        plan = qps.plan(JoinView("V1", "T1", "T2", on=ds.join_attrs))
        assert ds.spec.n_e / ds.spec.m_S == 16
        assert plan.algorithm == "grace-hash"

    def test_precomputed_index_is_reused(self, dataset):
        qps = QueryPlanningService(dataset.metadata, 2, 2, machine=MACHINE)
        view = JoinView("V1", "T1", "T2", on=dataset.join_attrs)
        idx = qps.precompute_index(view)
        key = f"join_index/T1/T2/{','.join(dataset.join_attrs)}"
        assert dataset.metadata.get(key) is not None
        plan = qps.plan(view)
        assert plan.index.pairs == idx.pairs

    def test_range_constraint_shrinks_parameters(self, dataset):
        qps = QueryPlanningService(dataset.metadata, 2, 2, machine=MACHINE)
        full = qps.plan(JoinView("V1", "T1", "T2", on=dataset.join_attrs))
        constrained = qps.plan(
            JoinView(
                "V2", "T1", "T2", on=dataset.join_attrs,
                where=BoundingBox({"x": (0, 7)}),
            )
        )
        assert constrained.params.T == full.params.T // 2
        assert constrained.params.n_e == full.params.n_e // 2

    def test_scan_plan_holds_the_chunks_it_priced(self, dataset):
        qps = QueryPlanningService(dataset.metadata, 2, 2, machine=MACHINE)
        catalog = dataset.metadata.table("T2")
        box = BoundingBox({"x": (0, 7)})
        for where, expected in [
            (box, catalog.find_chunks(box)),
            (None, catalog.all_chunks()),
            (BoundingBox({}), catalog.all_chunks()),
        ]:
            plan = qps.plan_scan("T2", where)
            assert list(plan.chunks) == expected
            assert [c.chunk_id for c in plan.chunks] == sorted(c.chunk_id for c in expected)
            nbytes = sum(c.size for c in expected)
            assert plan.transfer == pytest.approx(
                nbytes / min(MACHINE.disk_read_bw, MACHINE.link_bw)
                + len(expected) * (MACHINE.disk_latency + MACHINE.net_latency)
            )
        assert 0 < len(qps.plan_scan("T2", box).chunks) < len(catalog.all_chunks())

    def test_validation(self, dataset):
        with pytest.raises(ValueError):
            QueryPlanningService(dataset.metadata, 0, 1)

    def test_predicted_time_follows_forced_algorithm(self, dataset):
        """predicted_time reads the chosen algorithm explicitly — a Plan
        constructed with a forced (non-minimal) choice reports that
        algorithm's cost, not min(...)."""
        from dataclasses import replace

        qps = QueryPlanningService(dataset.metadata, 2, 2, machine=MACHINE)
        plan = qps.plan(JoinView("V1", "T1", "T2", on=dataset.join_attrs))
        assert plan.algorithm == "indexed-join"
        forced = replace(plan, algorithm="grace-hash")
        assert forced.predicted_time == plan.gh_cost.total
        assert forced.chosen_cost == plan.gh_cost

    def test_tossup_flagged_in_describe(self, dataset):
        from dataclasses import replace

        qps = QueryPlanningService(dataset.metadata, 2, 2, machine=MACHINE)
        plan = qps.plan(JoinView("V1", "T1", "T2", on=dataset.join_attrs))
        assert not plan.is_tossup
        assert "toss-up" not in plan.describe()
        near = replace(
            plan,
            gh_cost=replace(
                plan.ij_cost, transfer=plan.ij_cost.transfer * 1.01
            ),
        )
        assert near.is_tossup
        assert "toss-up" in near.describe()


class TestPlansOnce:
    """The MetaData Service entry is the built index, and a planner holds
    the unconstrained plan over it; what it hands out twice must be equal,
    shared where that is safe, and never outlive the entry."""

    SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))
    BOXES = [
        BoundingBox({"x": (0, 7)}),
        BoundingBox({"x": (3, 9), "y": (5, float("inf"))}),
        BoundingBox({"y": (40, 50)}),  # beyond the grid: no chunk, no pair
    ]

    def fresh(self):
        ds = build_oil_reservoir_dataset(self.SPEC, num_storage=2, functional=False)
        view = JoinView("V1", "T1", "T2", on=ds.join_attrs)
        return ds, view, QueryPlanningService(ds.metadata, 2, 2, machine=MACHINE)

    @staticmethod
    def chunk_boxes(ds):
        return {
            c.id: c.bbox
            for t in ("T1", "T2") for c in ds.metadata.table(t).all_chunks()
        }

    @staticmethod
    def same_plan(a, b):
        assert (a.algorithm, a.params, a.ij_cost, a.gh_cost, a.pipeline) == (
            b.algorithm, b.params, b.ij_cost, b.gh_cost, b.pipeline
        )
        assert a.index.pairs == b.index.pairs

    def test_second_plan_is_equal_and_shares_the_base_index(self, monkeypatch):
        ds, view, qps = self.fresh()
        built = []
        monkeypatch.setattr(
            planner_module, "build_join_index",
            lambda *args: built.append(1) or build_join_index(*args),
        )
        first = qps.plan(view)
        again = qps.plan(JoinView("V2", "T1", "T2", on=ds.join_attrs))
        self.same_plan(first, again)
        assert first is not again and again.view.name == "V2"
        assert first.index is again.index
        assert first.params is again.params  # frozen, so shareable
        piped = qps.plan(view, pipeline=True)
        assert piped.pipeline and piped.index is first.index
        assert piped.ij_cost.total <= first.ij_cost.total
        # a planner that finds the entry already there adopts that index
        # and builds nothing; its plans are its own
        other = QueryPlanningService(ds.metadata, 2, 2, machine=MACHINE)
        plans = [other.plan(view) for _ in range(3)]
        assert built == [1]
        assert plans[0].index is plans[2].index is first.index
        assert plans[0].params is plans[2].params is not first.params
        self.same_plan(plans[0], first)

    def test_constrained_plans_are_cut_from_the_held_index(self):
        ds, view, qps = self.fresh()
        base = qps.plan(view).index
        boxes = self.chunk_boxes(ds)
        for where in self.BOXES:
            constrained = JoinView("V2", "T1", "T2", on=ds.join_attrs, where=where)
            a, b = qps.plan(constrained), qps.plan(constrained)
            self.same_plan(a, b)
            assert a.index is not b.index and a.index is not base
            assert a.index.pairs == base.restrict(where, boxes).pairs == [
                (l, r) for l, r in base.pairs
                if boxes[l].overlaps(where) and boxes[r].overlaps(where)
            ]
            left = ds.metadata.table("T1").find_chunks(where)
            assert a.params.T == sum(c.num_records for c in left)
            assert a.params.n_e == a.index.num_edges
        assert a.index.num_edges == 0 and a.params.T == 0
        # the index they were cut from is as it was
        assert qps.plan(view).index is base and base.num_edges == self.SPEC.n_e

    def test_replaced_entry_is_rebuilt(self):
        ds, view, qps = self.fresh()
        first = qps.plan(view)
        key = f"join_index/T1/T2/{','.join(ds.join_attrs)}"
        assert ds.metadata.get(key) is first.index
        boxes = self.chunk_boxes(ds)
        other = first.index.restrict(self.BOXES[0], boxes)
        ds.metadata.put(key, other)
        second = qps.plan(view)
        assert second.index is other
        assert second.params.n_e == other.num_edges == first.params.n_e // 2
        assert qps.plan(view).index is other
        # an equal entry that is another object is a new entry all the same
        equal = first.index.restrict(self.BOXES[0], boxes)
        ds.metadata.put(key, equal)
        third = qps.plan(view)
        assert third.index is equal and third.params is not second.params
        self.same_plan(third, second)


class TestDerivedDataSource:
    def test_execute_auto_matches_oracle(self, dataset):
        view = JoinView("V1", "T1", "T2", on=dataset.join_attrs)
        dds = DerivedDataSource(
            view, dataset.metadata, dataset.provider,
            num_storage=2, num_compute=2, machine=MACHINE,
        )
        result = dds.execute()
        oracle = reference_join(
            dataset.metadata, dataset.provider, "T1", "T2", dataset.join_attrs
        )
        assert result.table.equals_unordered(oracle)
        assert result.report.algorithm == result.plan.algorithm
        assert result.num_records == dataset.spec.T

    def test_forced_algorithms_agree(self, dataset):
        view = JoinView("V1", "T1", "T2", on=dataset.join_attrs)
        dds = DerivedDataSource(
            view, dataset.metadata, dataset.provider,
            num_storage=2, num_compute=2, machine=MACHINE,
        )
        ij = dds.execute(algorithm="indexed-join")
        gh = dds.execute(algorithm="grace-hash")
        assert ij.table.equals_unordered(gh.table)
        with pytest.raises(ValueError):
            dds.execute(algorithm="nested-loop")

    def test_range_view_record_level_selection(self, dataset):
        """WHERE x ∈ [2, 9]: chunk pruning alone would keep whole 4-wide
        tiles; the engine must trim to exact records."""
        view = JoinView(
            "V1", "T1", "T2", on=dataset.join_attrs,
            where=BoundingBox({"x": (2, 9)}),
        )
        dds = DerivedDataSource(
            view, dataset.metadata, dataset.provider,
            num_storage=2, num_compute=2, machine=MACHINE,
        )
        for algorithm in ("indexed-join", "grace-hash"):
            result = dds.execute(algorithm=algorithm)
            xs = result.table.column("x")
            assert xs.min() == 2.0 and xs.max() == 9.0
            assert result.num_records == 8 * 16  # 8 x-planes of 16 rows

    def test_aggregation_view(self, dataset):
        join = JoinView("V1", "T1", "T2", on=dataset.join_attrs)
        agg_view = AggregationView(
            "A1", join,
            aggregates=(Aggregate("avg", "wp"), Aggregate("count", "*")),
            group_by=("x",),
        )
        dds = DerivedDataSource(
            agg_view, dataset.metadata, dataset.provider,
            num_storage=2, num_compute=2, machine=MACHINE,
        )
        result = dds.execute()
        assert result.table.schema.names == ("x", "avg_wp", "count_all")
        assert result.num_records == 16  # one group per x plane
        np.testing.assert_array_equal(result.table.column("count_all"), [16.0] * 16)

    def test_model_only_execution(self):
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
        ds = build_oil_reservoir_dataset(spec, num_storage=2, functional=False)
        view = JoinView("V1", "T1", "T2", on=ds.join_attrs)
        dds = DerivedDataSource(
            view, ds.metadata, ds.provider, num_storage=2, num_compute=2,
            machine=MACHINE,
        )
        result = dds.execute()
        assert result.table is None
        assert result.report.total_time > 0
