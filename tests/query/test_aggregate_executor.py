"""Tests for grouped aggregation and the query executor."""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import MachineSpec
from repro.core import Aggregate, AggregationView, DerivedDataSource, JoinView
from repro.datamodel import BoundingBox, Schema, SubTable, SubTableId
from repro.query import QueryExecutor, aggregate, parse_query
from repro.workloads import GridSpec, build_oil_reservoir_dataset
from tests.datamodel.key_draws import column, key_columns, typed_table
from tests.query.reference_aggregate import reference_aggregate

agg_module = importlib.import_module("repro.query.aggregate")
engine_module = importlib.import_module("repro.core.engine")

#: example budgets are multiples of the loaded Hypothesis profile's (100 by
#: default), so a wider profile widens every draw here
BUDGET = settings.default.max_examples


def table_of(values_by_col, dtypes=None):
    names = list(values_by_col)
    schema = Schema.of(*names)
    return SubTable(
        SubTableId(0, 0),
        schema,
        {k: np.asarray(v, dtype=np.float32) for k, v in values_by_col.items()},
    )


class TestAggregate:
    def test_ungrouped_all_functions(self):
        t = table_of({"v": [1, 2, 3, 4]})
        out = aggregate(
            t,
            [
                Aggregate("sum", "v"),
                Aggregate("avg", "v"),
                Aggregate("min", "v"),
                Aggregate("max", "v"),
                Aggregate("count", "*"),
            ],
        )
        assert out.num_records == 1
        assert out.column("sum_v")[0] == 10
        assert out.column("avg_v")[0] == 2.5
        assert out.column("min_v")[0] == 1
        assert out.column("max_v")[0] == 4
        assert out.column("count_all")[0] == 4

    def test_grouped(self):
        t = table_of({"g": [0, 1, 0, 1, 1], "v": [1, 2, 3, 4, 6]})
        out = aggregate(t, [Aggregate("sum", "v"), Aggregate("count", "*")], group_by=["g"])
        srt = out.sort_by(["g"])
        np.testing.assert_array_equal(srt.column("g"), [0, 1])
        np.testing.assert_array_equal(srt.column("sum_v"), [4, 12])
        np.testing.assert_array_equal(srt.column("count_all"), [2, 3])

    def test_multi_key_grouping(self):
        t = table_of({"a": [0, 0, 1, 1], "b": [0, 1, 0, 1], "v": [1, 2, 3, 4]})
        out = aggregate(t, [Aggregate("max", "v")], group_by=["a", "b"])
        assert out.num_records == 4

    def test_empty_input_count_sum(self):
        t = table_of({"v": []})
        out = aggregate(t, [Aggregate("count", "*"), Aggregate("sum", "v")])
        assert out.column("count_all")[0] == 0
        assert out.column("sum_v")[0] == 0

    def test_empty_input_min_rejected(self):
        t = table_of({"v": []})
        with pytest.raises(ValueError):
            aggregate(t, [Aggregate("min", "v")])

    def test_empty_grouped_input(self):
        t = table_of({"g": [], "v": []})
        out = aggregate(t, [Aggregate("avg", "v")], group_by=["g"])
        assert out.num_records == 0

    def test_unknown_columns(self):
        t = table_of({"v": [1]})
        with pytest.raises(KeyError):
            aggregate(t, [Aggregate("sum", "nope")])
        with pytest.raises(KeyError):
            aggregate(t, [Aggregate("sum", "v")], group_by=["nope"])

    def test_no_aggregates_rejected(self):
        with pytest.raises(ValueError):
            aggregate(table_of({"v": [1]}), [])

    @settings(max_examples=BUDGET * 3 // 5, deadline=None)
    @given(
        groups=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=60),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_grouped_aggregation_matches_python(self, groups, seed):
        rng = np.random.default_rng(seed)
        vals = rng.integers(0, 100, size=len(groups)).astype(float)
        t = table_of({"g": groups, "v": vals})
        out = aggregate(
            t, [Aggregate("sum", "v"), Aggregate("avg", "v"), Aggregate("max", "v")],
            group_by=["g"],
        ).sort_by(["g"])
        from collections import defaultdict

        ref = defaultdict(list)
        for g, v in zip(groups, vals):
            ref[g].append(float(np.float32(v)))
        keys = sorted(ref)
        np.testing.assert_allclose(out.column("g"), keys)
        np.testing.assert_allclose(out.column("sum_v"), [sum(ref[k]) for k in keys], rtol=1e-6)
        np.testing.assert_allclose(out.column("avg_v"), [np.mean(ref[k]) for k in keys], rtol=1e-6)
        np.testing.assert_allclose(out.column("max_v"), [max(ref[k]) for k in keys], rtol=1e-6)


FUNCS = ("count", "sum", "avg", "min", "max")


def outcome(fn, *args):
    """What a call answers, down to the bytes — or what it refuses with."""
    try:
        with np.errstate(all="ignore"):  # inf - inf in a drawn value column
            out = fn(*args)
    except (ValueError, KeyError) as exc:
        return type(exc), str(exc)
    return out.id, out.schema.attributes, [
        (out.column(n).dtype, out.column(n).tobytes()) for n in out.schema.names
    ]


class TestAggregateEqualsTheStructuredSort:
    """``aggregate`` groups by ``key_ids``; ``reference_aggregate`` is the
    structured-dtype sort it replaced.  Same schema, dtypes, group order and
    column bytes (so the same within-group summation order), same refusals."""

    @settings(max_examples=3 * BUDGET, deadline=None)
    @given(data=st.data())
    def test_zero_to_three_keys_all_functions(self, data):
        keys = data.draw(key_columns(min_columns=0, max_columns=3))
        n = len(keys[0]) if keys else data.draw(st.integers(min_value=0, max_value=24))
        group_by = [f"k{i}" for i in range(len(keys))]
        columns = dict(zip(group_by, keys), v=data.draw(column(n)), w=data.draw(column(n)))
        aggs = [
            Aggregate(f, "*" if f == "count" and data.draw(st.booleans()) else attr)
            for f in data.draw(st.lists(st.sampled_from(FUNCS), min_size=1, max_size=5, unique=True))
            for attr in data.draw(st.sampled_from((["v"], ["w"], ["v", "w"])))
        ]
        table = typed_table(columns)
        assert outcome(aggregate, table, aggs, group_by) == outcome(
            reference_aggregate, table, aggs, group_by
        )

    def both(self, columns, aggs, group_by=()):
        table = typed_table({k: np.asarray(v) for k, v in columns.items()})
        got = outcome(aggregate, table, aggs, group_by)
        assert got == outcome(reference_aggregate, table, aggs, group_by)
        return aggregate(table, aggs, group_by)

    def test_every_nan_key_is_its_own_group_at_the_end(self):
        nan = float("nan")
        out = self.both(
            {"k0": [nan, 2.0, nan, 1.0, 2.0], "v": [10.0, 20.0, 30.0, 40.0, 50.0]},
            [Aggregate("sum", "v"), Aggregate("count", "*")], ["k0"],
        )
        np.testing.assert_array_equal(out.column("k0"), [1.0, 2.0, nan, nan])
        np.testing.assert_array_equal(out.column("sum_v"), [40.0, 70.0, 10.0, 30.0])
        np.testing.assert_array_equal(out.column("count_all"), [1, 2, 1, 1])

    def test_nan_in_the_first_key_ties_so_the_second_key_orders(self):
        nan = float("nan")
        out = self.both(
            {"k0": [nan, nan, nan], "k1": [5, 3, 5], "v": [1.0, 2.0, 4.0]},
            [Aggregate("max", "v")], ["k0", "k1"],
        )
        np.testing.assert_array_equal(out.column("k1"), [3, 5, 5])
        np.testing.assert_array_equal(out.column("max_v"), [2.0, 1.0, 4.0])

    def test_signed_zeros_are_one_group_carrying_the_first_seen(self):
        out = self.both(
            {"k0": [-0.0, 0.0, 1.0, 0.0], "v": [1.0, 2.0, 3.0, 4.0]},
            [Aggregate("avg", "v")], ["k0"],
        )
        assert out.num_records == 2
        assert np.signbit(out.column("k0")[0])  # -0.0 came first
        np.testing.assert_array_equal(out.column("avg_v"), [7.0 / 3.0, 3.0])

    def test_empty_grouped_input_has_no_group_and_refuses_nothing(self):
        empty = {"k0": np.empty(0, dtype=np.int32), "v": np.empty(0, dtype=np.float32)}
        out = self.both(empty, [Aggregate(f, "v") for f in FUNCS], ["k0"])
        assert out.num_records == 0 and out.column("k0").dtype == np.int32

    def test_ungrouped_empty_input(self):
        empty = {"v": np.empty(0, dtype=np.float32)}
        out = self.both(empty, [Aggregate("count", "*"), Aggregate("sum", "v")])
        assert out.column("count_all").tolist() == out.column("sum_v").tolist() == [0.0]
        with pytest.raises(ValueError, match="MIN over an empty input is undefined"):
            self.both(empty, [Aggregate("count", "v"), Aggregate("min", "v")])

    def test_duplicate_output_name_is_refused_before_an_empty_input(self):
        empty = {"v": np.empty(0, dtype=np.float64)}
        twice = [Aggregate("count", "*"), Aggregate("count", "*"), Aggregate("avg", "v")]
        with pytest.raises(ValueError, match="duplicate attribute name 'count_all'"):
            self.both(empty, twice)


#: value columns of the counted-path draw, each from a seeded generator: the
#: first four add exactly in float64, the last two do not
VALUE_KINDS = {
    "int32": lambda rng, n: rng.integers(-1000, 1000, n).astype(np.int32),
    "int64": lambda rng, n: rng.integers(-(2**40), 2**40, n),
    "whole float32": lambda rng, n: rng.integers(-1000, 1000, n).astype(np.float32),
    "signed zeros": lambda rng, n: rng.choice(np.array([-0.0, -0.0, 0.0, 1.5]), n),
    "uniform float32": lambda rng, n: rng.random(n).astype(np.float32),
    "wide float64": lambda rng, n: rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n),
}


@st.composite
def counted_tables(draw):
    """512–640 records grouped by one or two keys over a small span (so
    the id space straddles the counting bound), with value columns that
    add exactly and ones that do not."""
    n = draw(st.integers(min_value=512, max_value=640))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    keys = {
        f"k{i}": rng.integers(0, draw(st.sampled_from((1, 4, 40, n // 2))), n).astype(
            draw(st.sampled_from(("int32", "float32", "float64")))
        )
        for i in range(draw(st.integers(min_value=1, max_value=2)))
    }
    values = {name: VALUE_KINDS[draw(st.sampled_from(sorted(VALUE_KINDS)))](rng, n)
              for name in ("v", "w")}
    if draw(st.booleans()):  # a -0.0 or, now and then, a non-finite value
        values["v"] = values["v"].astype(np.float64)
        values["v"][rng.integers(0, n, 3)] = draw(st.sampled_from((-0.0, np.inf, np.nan)))
    return {**keys, **values}


class TestCountedGroupBy:
    """GROUP BY by counting, held to the structured sort byte for byte."""

    both = TestAggregateEqualsTheStructuredSort.both

    @settings(max_examples=BUDGET, deadline=None)
    @given(columns=counted_tables(), data=st.data())
    def test_counted_draw_equals_the_structured_sort(self, columns, data):
        aggs = [
            Aggregate(f, attr)
            for f in data.draw(st.lists(st.sampled_from(FUNCS[:3] * 3 + FUNCS[3:]),
                                        min_size=1, max_size=3, unique=True))
            for attr in data.draw(st.sampled_from((["v"], ["w"], ["v", "w"])))
        ]
        group_by = sorted(k for k in columns if k.startswith("k"))
        self.both(columns, aggs, group_by)

    def test_counting_takes_exact_sums_only(self):
        """COUNT and exact SUM/AVG are counted.  Values spread over
        sixteen decades make the sums round, so that column is sorted and
        summed pairwise, as the reference does — a count in record order
        would have given other bits."""
        rng = np.random.default_rng(3)
        g = rng.integers(0, 64, 4096).astype(np.float32)
        exact = {"g": g, "v": rng.random(4096).astype(np.float32)}
        rounds = {"g": g, "v": rng.random(4096) * 10.0 ** rng.integers(-8, 8, 4096)}
        aggs = [Aggregate("count", "*"), Aggregate("sum", "v"), Aggregate("avg", "v")]
        spy = mock.patch.object(agg_module, "_counted", wraps=agg_module._counted)
        with spy as counted:
            self.both(exact, aggs, ["g"])
            assert counted.called
            counted.reset_mock()
            out = self.both(rounds, aggs, ["g"])
            assert not counted.called
        in_record_order = np.bincount(g.astype(np.intp), weights=rounds["v"])
        assert in_record_order.tobytes() != out.column("sum_v").tobytes()

    def test_whole_float64_columns_are_counted(self):
        """Whole numbers, or signed zeros and twos, sum exactly in float64
        too, so they are counted, in the sorted path's bits."""
        columns = {"g": np.arange(1000, dtype=np.int32) % 7, "v": np.arange(1, 1001.0),
                   "w": np.array([-0.0, 0.0, -0.0, -0.0, 2.0] * 200)}
        aggs = [Aggregate("sum", "v"), Aggregate("avg", "v"), Aggregate("sum", "w")]
        answers = []
        for space, counts in ((agg_module._COUNTED_SPACE, True), (0, False)):
            with mock.patch.object(agg_module, "_COUNTED_SPACE", space), \
                    mock.patch.object(agg_module, "_counted", wraps=agg_module._counted) as spy:
                out = self.both(columns, aggs, ["g"])
            assert spy.called == counts, space
            answers.append([out.column(n).tobytes() for n in out.schema.names])
        assert answers[0] == answers[1]

    def test_sum_of_an_all_negative_zero_group_is_negative_zero(self):
        """Counting starts from +0.0, and +0.0 + -0.0 is +0.0; the sorted
        sum of only -0.0s is -0.0.  The same column is counted, then sorted
        with the counting bound forced to zero."""
        for space, counts in ((agg_module._COUNTED_SPACE, True), (0, False)):
            with mock.patch.object(agg_module, "_COUNTED_SPACE", space), \
                    mock.patch.object(agg_module, "_counted", wraps=agg_module._counted) as spy:
                out = self.both(
                    {"g": np.array([1, 2, 1, 2, 3] * 128, dtype=np.int32),
                     "v": np.array([-0.0, 0.0, -0.0, -0.0, 2.0] * 128, dtype=np.float32)},
                    [Aggregate("sum", "v"), Aggregate("avg", "v")], ["g"],
                )
            assert spy.called == counts, space
            assert np.signbit(out.column("sum_v")).tolist() == [True, False, False]
            assert np.signbit(out.column("avg_v")).tolist() == [True, False, False]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_non_finite_value_columns_keep_the_sort(self, bad):
        v = np.arange(1024, dtype=np.float64)
        v[[5, 700]] = bad, -bad if bad == bad else 1.0
        with mock.patch.object(agg_module, "_counted", wraps=agg_module._counted) as counted:
            self.both({"g": np.arange(1024) % 8, "v": v},
                      [Aggregate("sum", "v"), Aggregate("avg", "v")], ["g"])
        assert not counted.called


@pytest.fixture(scope="module")
def executor_setup():
    spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
    ds = build_oil_reservoir_dataset(spec, num_storage=2)
    ex = QueryExecutor(ds.metadata, ds.provider)
    view = JoinView("V1", "T1", "T2", on=ds.join_attrs)
    dds = DerivedDataSource(
        view, ds.metadata, ds.provider, num_storage=2, num_compute=2,
        machine=MachineSpec(),
    )
    ex.register_dds(dds)
    return ds, ex, dds


class TestQueryExecutor:
    def test_base_table_range_query(self, executor_setup):
        ds, ex, _ = executor_setup
        out = ex.execute("SELECT * FROM T1 WHERE x IN [0, 3] AND y IN [0, 3]")
        assert out.num_records == 16
        assert out.schema.names == ("x", "y", "oilp")

    @pytest.mark.parametrize("source", ["T1", "V1"])
    def test_unknown_algorithm_refused_before_any_work(self, source, executor_setup,
                                                       monkeypatch):
        ds, ex, dds = executor_setup

        def no_work(*args, **kwargs):
            raise AssertionError("planned or fetched before refusing")

        monkeypatch.setattr(ds.provider, "fetch", no_work)
        monkeypatch.setattr(dds, "plan", no_work)
        with pytest.raises(ValueError, match="unknown algorithm 'nope'"):
            ex.execute(f"SELECT * FROM {source}", algorithm="nope")

    def test_base_table_projection(self, executor_setup):
        _, ex, _ = executor_setup
        out = ex.execute("SELECT oilp FROM T1 WHERE x = 0 AND y = 0")
        assert out.schema.names == ("oilp",)
        assert out.num_records == 1

    def test_base_table_full_scan(self, executor_setup):
        ds, ex, _ = executor_setup
        out = ex.execute("SELECT * FROM T1")
        assert out.num_records == ds.spec.T

    def test_base_table_empty_result(self, executor_setup):
        _, ex, _ = executor_setup
        out = ex.execute("SELECT * FROM T1 WHERE x > 1000")
        assert out.num_records == 0

    def test_a_table_without_chunks_is_the_empty_answer(self):
        ds = build_oil_reservoir_dataset(GridSpec(g=(8, 8), p=(4, 4), q=(4, 4)), num_storage=2)
        ds.metadata.register_table(77, "E", ds.metadata.table("T1").schema)
        ex = QueryExecutor(ds.metadata, ds.provider)
        assert ex.execute("SELECT oilp FROM E WHERE x < 3").schema.names == ("oilp",)
        assert ex.execute("SELECT COUNT(*) FROM E").column("count_all").tolist() == [0.0]

    def test_view_query(self, executor_setup):
        ds, ex, _ = executor_setup
        out = ex.execute("SELECT * FROM V1")
        assert out.num_records == ds.spec.T
        assert "oilp" in out.schema and "wp" in out.schema

    def test_view_query_with_predicate(self, executor_setup):
        _, ex, _ = executor_setup
        out = ex.execute("SELECT * FROM V1 WHERE x IN [0, 1] AND wp > 0")
        assert out.num_records <= 2 * 16
        assert (out.column("x") <= 1).all()

    def test_view_aggregate_query(self, executor_setup):
        ds, ex, _ = executor_setup
        out = ex.execute("SELECT COUNT(*) FROM V1")
        assert out.column("count_all")[0] == ds.spec.T

    def test_view_grouped_aggregate(self, executor_setup):
        _, ex, _ = executor_setup
        out = ex.execute("SELECT y, AVG(wp) AS mean_wp FROM V1 GROUP BY y")
        assert out.num_records == 16
        assert out.schema.names == ("y", "mean_wp")

    def test_unknown_source(self, executor_setup):
        _, ex, _ = executor_setup
        with pytest.raises(KeyError):
            ex.execute("SELECT * FROM Nope")

    @pytest.mark.parametrize("sql, source", [
        ("SELECT nope FROM T1", "T1"),
        ("SELECT AVG(nope) FROM T1", "T1"),
        ("SELECT x, COUNT(*) FROM T1 GROUP BY x, nope", "T1"),
        ("SELECT * FROM T1 WHERE x < 3 OR (y > 2 AND nope = 1)", "T1"),
        ("SELECT * FROM V1 WHERE nope < 3", "V1"),
        ("SELECT MAX(nope) FROM V1", "V1"),
    ])
    def test_unknown_column_names_the_column_the_source_and_its_attributes(
        self, executor_setup, sql, source
    ):
        """Was ``ValueError: a schema needs at least one attribute`` on a
        table and a ``KeyError`` blaming ``sub-table (-1,0)`` on a view."""
        _, ex, _ = executor_setup
        has = "x, y, oilp" + (", wp" if source == "V1" else "")
        with pytest.raises(KeyError, match=f"unknown column 'nope': {source} has {has}"):
            ex.execute(sql)

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM V1 WHERE nope < 3",
        "SELECT MAX(nope) FROM V1",
        "SELECT * FROM A1 WHERE wp > 0.5",
    ])
    def test_unknown_column_in_a_view_query_runs_no_qes(self, executor_setup,
                                                        monkeypatch, sql):
        """The view's schema comes from the catalogs: an unknown column is
        refused before anything is joined (the aggregation view has y and
        its aggregates, not the records' wp)."""
        ds, _, dds = executor_setup
        ex = QueryExecutor(ds.metadata, ds.provider)
        ex.register_dds(dds)
        ex.register_dds(DerivedDataSource(
            AggregationView("A1", dds.view, (Aggregate("avg", "wp"),), group_by=("y",)),
            ds.metadata, ds.provider, num_storage=2, num_compute=2,
        ))

        def no_work(*args, **kwargs):
            raise AssertionError("a QES ran before the column was refused")

        monkeypatch.setattr(engine_module, "view_qes", no_work)
        with pytest.raises(KeyError, match="unknown column"):
            ex.execute(sql)

    @pytest.mark.parametrize("sql", [
        "SELECT * FROM V2 WHERE x > 9",
        "SELECT oilp FROM V2 WHERE y IN [0, 3] AND x IN [-5, 1]",
        "SELECT COUNT(*) FROM V2 WHERE x > 7.5",
    ])
    def test_a_box_disjoint_from_the_views_range_runs_no_qes(self, executor_setup,
                                                             monkeypatch, sql):
        """V2 keeps x in [2, 7]: a query outside it is the empty answer with
        the view's schema, from no cluster and no QES."""
        ds, whole_view, _ = executor_setup
        expected = whole_view.execute(
            sql.replace("V2", "V1").replace("WHERE", "WHERE x < 0 AND")
        )
        view = JoinView("V2", "T1", "T2", on=ds.join_attrs,
                        where=BoundingBox({"x": (2, 7)}))
        ex = QueryExecutor(ds.metadata, ds.provider)
        ex.register_dds(DerivedDataSource(
            view, ds.metadata, ds.provider, num_storage=2, num_compute=2,
        ))

        def no_work(*args, **kwargs):
            raise AssertionError("built a cluster or ran a QES for a disjoint box")

        monkeypatch.setattr(engine_module, "view_qes", no_work)
        monkeypatch.setattr(engine_module, "ClusterSim", no_work)
        out = ex.execute(sql)
        assert out.schema == expected.schema
        assert out.equals_unordered(expected)

    def test_an_aggregation_view_is_never_restricted(self, executor_setup, monkeypatch):
        """Its WHERE filters groups: ``x`` below is each y-group's largest
        x (15), so nothing passes ``x < 8`` — restricting the records to
        x < 8 first would make every group pass, with x = 7."""
        ds, _, dds = executor_setup
        grouped = AggregationView(
            "A1", dds.view, (Aggregate("max", "x", alias="x"),), group_by=("y",)
        )
        agg_dds = DerivedDataSource(
            grouped, ds.metadata, ds.provider, num_storage=2, num_compute=2,
        )
        ex = QueryExecutor(ds.metadata, ds.provider)
        ex.register_dds(agg_dds)
        ran = []
        view_qes = engine_module.view_qes
        monkeypatch.setattr(
            engine_module, "view_qes",
            lambda *args, **kw: ran.append(args[4]) or view_qes(*args, **kw),
        )
        assert ex.execute("SELECT * FROM A1 WHERE x < 8").num_records == 0
        assert ex.execute("SELECT * FROM A1 WHERE x > 8").num_records == 16
        whole = agg_dds.execute(box=BoundingBox({"x": (0, 7)})).table
        assert (whole.column("x") == 15).all() and whole.num_records == 16
        assert ran == [grouped] * 3

    @pytest.mark.parametrize("algorithm", ["indexed-join", "grace-hash"])
    @pytest.mark.parametrize("where", [
        "y IN [1, 2]", "y < 3 AND x > 4", "y_r > 5", "attr0 > 0.5", "attr0_r < 0.3",
    ])
    def test_a_bound_on_a_column_both_tables_have_prunes_neither(self, where, algorithm):
        """V3 joins on x alone, so both tables keep a y and an attr0: in
        the answer ``y``/``attr0`` are T1's and ``y_r``/``attr0_r`` T2's.
        A bound on T1's y must not prune T2's chunks by T2's own y."""
        ds = build_oil_reservoir_dataset(
            GridSpec(g=(8, 8), p=(4, 4), q=(4, 4)), num_storage=2, extra_attributes=1,
        )
        ex = QueryExecutor(ds.metadata, ds.provider)
        ex.register_dds(DerivedDataSource(
            JoinView("V3", "T1", "T2", on=("x",)), ds.metadata, ds.provider,
            num_storage=2, num_compute=2,
        ))
        whole = ex.execute("SELECT * FROM V3", algorithm=algorithm)
        assert whole.num_records == 8 * 8 * 8
        out = ex.execute(f"SELECT * FROM V3 WHERE {where}", algorithm=algorithm)
        expected = whole.select(parse_query(f"SELECT * FROM V3 WHERE {where}").where.mask(whole))
        assert expected.num_records > 0
        assert out.equals_unordered(expected)

    def test_duplicate_dds_rejected(self, executor_setup):
        _, ex, dds = executor_setup
        with pytest.raises(ValueError):
            ex.register_dds(dds)

    @pytest.mark.parametrize("sql, keep", [
        ("SELECT * FROM T1 WHERE x < 4", lambda x: x < 4),
        ("SELECT * FROM T1 WHERE x > 11", lambda x: x > 11),
    ])
    def test_strict_bound_fetches_one_slab(self, executor_setup, monkeypatch, sql, keep):
        """A strict comparison prunes to the x-slab inside its bound (4 of
        16 chunks); the slab that only touches the bound at its edge (4
        more) is not fetched, and the answer is the full scan's."""
        ds, ex, _ = executor_setup
        full = ex.execute("SELECT * FROM T1")
        fetched = []
        fetch = ds.provider.fetch
        monkeypatch.setattr(
            ds.provider, "fetch", lambda desc, **kw: fetched.append(desc) or fetch(desc, **kw)
        )
        out = ex.execute(sql)
        assert len(fetched) == 4
        assert out.equals_unordered(full.select(keep(full.column("x"))))

    def test_base_table_agrees_between_pruned_and_full_scan(self, executor_setup):
        """Chunk pruning must not change results, only work."""
        _, ex, _ = executor_setup
        pruned = ex.execute("SELECT * FROM T2 WHERE x IN [3, 9]")
        full = ex.execute("SELECT * FROM T2")
        mask = (full.column("x") >= 3) & (full.column("x") <= 9)
        assert pruned.equals_unordered(full.select(mask))
