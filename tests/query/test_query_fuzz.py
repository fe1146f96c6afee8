"""Metamorphic fuzzing of the SQL path.

Hypothesis generates random (but valid) queries against a small base
table; the full executor pipeline (parse → chunk pruning via bbox
relaxation → BDS fetch with projection pushdown → record filter →
projection/aggregation) must agree with a direct NumPy evaluation of the
same semantics on the fully materialised table.  View queries, which join
only the part of the view inside their box, are held to the same
evaluation over the whole sort-merge join under both QES.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Aggregate, AggregationView, DerivedDataSource, JoinView
from repro.datamodel import BoundingBox, SubTableId
from repro.datamodel.subtable import bbox_mask, concat_subtables
from repro.joins.baselines import reference_join
from repro.query import QueryExecutor, aggregate, parse_query
from repro.workloads import GridSpec, build_oil_reservoir_dataset

SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
#: example budgets are multiples of the loaded Hypothesis profile's
BUDGET = settings.default.max_examples


@pytest.fixture(scope="module")
def setup():
    ds = build_oil_reservoir_dataset(SPEC, num_storage=2)
    executor = QueryExecutor(ds.metadata, ds.provider)
    whole = concat_subtables(
        [ds.provider.fetch(c) for c in ds.metadata.table("T1").all_chunks()],
        id=SubTableId(1, -1),
    )
    return ds, executor, whole


ATTRS = ("x", "y", "oilp")
OPS = ("<", "<=", ">", ">=", "=", "!=")
#: values a drawn condition compares a non-grid attribute with: both sides
#: of the [0, 1) the generator fills value columns from, and inside it
FRACTIONS = (-0.5, 0.0, 0.2, 0.45, 0.5, 0.8, 1.0, 1.5)


def values(attr):
    if attr in ("x", "y", "y_r"):
        return st.integers(min_value=-2, max_value=17)
    return st.sampled_from(FRACTIONS)


@st.composite
def conditions(draw, depth=0, attrs=ATTRS):
    kind = draw(st.sampled_from(
        ["cmp", "range"] if depth >= 2 else ["cmp", "range", "and", "or"]
    ))
    attr = draw(st.sampled_from(attrs))
    if kind == "cmp":
        op = draw(st.sampled_from(OPS))
        return f"{attr} {op} {draw(values(attr))}"
    if kind == "range":
        lo, hi = sorted((draw(values(attr)), draw(values(attr))))
        return f"{attr} IN [{lo}, {hi}]"
    a = draw(conditions(depth=depth + 1, attrs=attrs))
    b = draw(conditions(depth=depth + 1, attrs=attrs))
    return f"({a} {'AND' if kind == 'and' else 'OR'} {b})"


def eval_condition(text, table):
    """Independent evaluation: parse the predicate, but apply it with plain
    NumPy against the fully materialised table."""
    q = parse_query(f"SELECT * FROM T1 WHERE {text}")
    return q.where.mask(table)


@settings(max_examples=3 * BUDGET // 5, deadline=None)
@given(cond=conditions(), projection=st.sets(st.sampled_from(ATTRS), min_size=1))
def test_select_where_matches_direct_evaluation(setup, cond, projection):
    ds, executor, whole = setup
    cols = sorted(projection, key=ATTRS.index)
    query = f"SELECT {', '.join(cols)} FROM T1 WHERE {cond}"
    out = executor.execute(query)
    expected = whole.select(eval_condition(cond, whole)).project(cols)
    assert out.equals_unordered(expected), query


@settings(max_examples=2 * BUDGET // 5, deadline=None)
@given(cond=conditions(), func=st.sampled_from(["sum", "avg", "min", "max"]))
def test_grouped_aggregate_matches_direct_evaluation(setup, cond, func):
    ds, executor, whole = setup
    query = f"SELECT y, {func.upper()}(oilp) AS agg FROM T1 WHERE {cond} GROUP BY y"
    out = executor.execute(query).sort_by(["y"])
    mask = eval_condition(cond, whole)
    filtered = whole.select(mask)
    ys = filtered.column("y")
    vals = filtered.column("oilp").astype(np.float64)
    expect = {}
    for y in np.unique(ys):
        group = vals[ys == y]
        expect[float(y)] = {
            "sum": group.sum(),
            "avg": group.mean(),
            "min": group.min(),
            "max": group.max(),
        }[func]
    assert out.num_records == len(expect), query
    for y, v in zip(out.column("y"), out.column("agg")):
        assert v == pytest.approx(expect[float(y)], rel=1e-6), query


# -- views: the part inside the query's box, joined ----------------------------

#: both tables carry ``attr0``, so a join's answer has T1's as ``attr0`` and
#: T2's as ``attr0_r``.  V1 joins on every coordinate; V2 has a range of
#: its own, on a grid coordinate and on an attribute only T2 has; V3 joins
#: on x alone, so T2's y is ``y_r``; A1 aggregates V1, one of its outputs
#: named like the record attribute it is the maximum of
RANGE = BoundingBox({"x": (2, 11), "wp": (0.2, 0.9)})
JOINED = ("x", "y", "oilp", "attr0", "wp", "attr0_r")
VIEW_ATTRS = {"V1": JOINED, "V2": JOINED, "V3": JOINED + ("y_r",)}
GROUP_ATTRS = ("y", "x", "avg_wp")
ALGORITHMS = ("indexed-join", "grace-hash")


@pytest.fixture(scope="module")
def views():
    ds = build_oil_reservoir_dataset(SPEC, num_storage=2, extra_attributes=1)
    executor = QueryExecutor(ds.metadata, ds.provider)
    join = JoinView("V1", "T1", "T2", on=ds.join_attrs)
    grouped = AggregationView(
        "A1", join, (Aggregate("avg", "wp"), Aggregate("max", "x", alias="x")),
        group_by=("y",),
    )
    for view in (
        join,
        JoinView("V2", "T1", "T2", on=ds.join_attrs, where=RANGE),
        JoinView("V3", "T1", "T2", on=("x",)),
        grouped,
    ):
        executor.register_dds(DerivedDataSource(
            view, ds.metadata, ds.provider, num_storage=2, num_compute=3,
        ))
    whole = reference_join(ds.metadata, ds.provider, "T1", "T2", ds.join_attrs)
    answers = {
        "V1": whole,
        "V2": whole.select(bbox_mask(whole, RANGE)),
        "V3": reference_join(ds.metadata, ds.provider, "T1", "T2", ("x",)),
        "A1": aggregate(whole, grouped.aggregates, grouped.group_by),
    }
    return executor, answers


@settings(max_examples=BUDGET, deadline=None)
@given(
    data=st.data(),
    source=st.sampled_from(sorted(VIEW_ATTRS)),
    algorithm=st.sampled_from(ALGORITHMS),
)
def test_view_select_where_matches_direct_evaluation(views, data, source, algorithm):
    """Ranges, boxes disjoint from V2's, ``OR`` (its union box), ``!=``
    (no box), bounds on one table's attributes and on a column both tables
    have: the join of the part inside the box, filtered, is the whole view
    filtered."""
    executor, answers = views
    attrs = VIEW_ATTRS[source]
    cond = data.draw(conditions(attrs=attrs), label="cond")
    projection = data.draw(st.sets(st.sampled_from(attrs), min_size=1), label="projection")
    cols = sorted(projection, key=attrs.index)
    query = f"SELECT {', '.join(cols)} FROM {source} WHERE {cond}"
    out = executor.execute(query, algorithm=algorithm)
    whole = answers[source]
    expected = whole.select(eval_condition(cond, whole)).project(cols)
    assert out.equals_unordered(expected), query


#: V3's columns whose names both tables have, and its one join key
CLASHING = ("x", "y", "y_r", "attr0", "attr0_r")


@settings(max_examples=BUDGET, deadline=None)
@given(cond=conditions(attrs=CLASHING), algorithm=st.sampled_from(ALGORITHMS))
def test_a_bound_on_a_column_both_tables_have_keeps_every_match(views, cond, algorithm):
    """``y`` is T1's y and ``y_r`` T2's: a bound on one of them restricts
    only that table's records, never the other table's chunks."""
    executor, answers = views
    out = executor.execute(f"SELECT * FROM V3 WHERE {cond}", algorithm=algorithm)
    whole = answers["V3"]
    assert out.equals_unordered(whole.select(eval_condition(cond, whole))), cond


@settings(max_examples=BUDGET // 2, deadline=None)
@given(cond=conditions(attrs=GROUP_ATTRS), algorithm=st.sampled_from(ALGORITHMS))
def test_aggregation_view_where_filters_groups(views, cond, algorithm):
    """A WHERE over an aggregation view keeps whole groups of the whole
    view: ``x`` is each group's largest x, not a record's."""
    executor, answers = views
    out = executor.execute(f"SELECT * FROM A1 WHERE {cond}", algorithm=algorithm)
    whole = answers["A1"]
    expected = whole.select(eval_condition(cond, whole)).sort_by(["y"])
    out = out.sort_by(["y"])
    assert out.schema == expected.schema and out.num_records == expected.num_records
    for name in expected.schema.names:
        np.testing.assert_allclose(out.column(name), expected.column(name), rtol=1e-12)
