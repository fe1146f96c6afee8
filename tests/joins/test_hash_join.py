"""Tests for the in-memory hash join kernels."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel import Attribute, Schema, SubTable, SubTableId
from repro.joins import hash_join, vectorized_hash_join
from repro.joins.baselines import sort_merge_join

from .reference_kernel import dict_hash_join

#: example budgets are multiples of the loaded Hypothesis profile's (100 by
#: default), so a wider profile widens every draw here
BUDGET = settings.default.max_examples


def make_table(table_id, xs, ys, vals, value_name="v"):
    schema = Schema.of("x", "y", value_name, coordinates=("x", "y"))
    return SubTable(
        SubTableId(table_id, 0),
        schema,
        {
            "x": np.asarray(xs, dtype=np.float32),
            "y": np.asarray(ys, dtype=np.float32),
            value_name: np.asarray(vals, dtype=np.float32),
        },
    )


KERNELS = [dict_hash_join, vectorized_hash_join]


@pytest.mark.parametrize("kernel", KERNELS, ids=["dict", "vectorized"])
class TestKernels:
    def test_selectivity_one_join(self, kernel):
        """The paper's assumption: each left record has exactly one partner."""
        left = make_table(1, [0, 1, 2], [0, 0, 0], [10, 11, 12], "oilp")
        right = make_table(2, [2, 0, 1], [0, 0, 0], [22, 20, 21], "wp")
        out, stats = kernel(left, right, on=("x", "y"))
        assert stats.builds == 3 and stats.probes == 3 and stats.matches == 3
        assert out.schema.names == ("x", "y", "oilp", "wp")
        srt = out.sort_by(["x"])
        np.testing.assert_array_equal(srt.column("oilp"), [10, 11, 12])
        np.testing.assert_array_equal(srt.column("wp"), [20, 21, 22])

    def test_no_matches(self, kernel):
        left = make_table(1, [0], [0], [1], "a")
        right = make_table(2, [5], [5], [2], "b")
        out, stats = kernel(left, right, on=("x", "y"))
        assert out.num_records == 0
        assert stats.matches == 0

    def test_multiplicity(self, kernel):
        """Duplicate keys on both sides produce the cross product per key."""
        left = make_table(1, [1, 1, 2], [0, 0, 0], [10, 11, 12], "a")
        right = make_table(2, [1, 1], [0, 0], [20, 21], "b")
        out, stats = kernel(left, right, on=("x", "y"))
        assert out.num_records == 4  # 2 left x 2 right for key (1, 0)
        assert stats.matches == 4

    def test_empty_left(self, kernel):
        left = make_table(1, [], [], [], "a")
        right = make_table(2, [1], [0], [2], "b")
        out, stats = kernel(left, right, on=("x",))
        assert out.num_records == 0
        assert stats.builds == 0 and stats.probes == 1

    def test_empty_right(self, kernel):
        left = make_table(1, [1], [0], [2], "a")
        right = make_table(2, [], [], [], "b")
        out, stats = kernel(left, right, on=("x",))
        assert out.num_records == 0

    def test_single_attribute_join(self, kernel):
        left = make_table(1, [0, 1], [9, 9], [1, 2], "a")
        right = make_table(2, [1, 0], [7, 7], [3, 4], "b")
        out, _ = kernel(left, right, on=("x",))
        # join only on x: y from both sides kept (right's suffixed)
        assert out.schema.names == ("x", "y", "a", "y_r", "b")
        assert out.num_records == 2

    def test_name_clash_suffix(self, kernel):
        left = make_table(1, [1], [0], [5], "v")
        right = make_table(2, [1], [0], [6], "v")
        out, _ = kernel(left, right, on=("x", "y"))
        assert out.schema.names == ("x", "y", "v", "v_r")
        assert out.column("v")[0] == 5
        assert out.column("v_r")[0] == 6

    def test_errors(self, kernel):
        left = make_table(1, [1], [0], [5], "a")
        right = make_table(2, [1], [0], [6], "b")
        with pytest.raises(ValueError):
            kernel(left, right, on=())
        with pytest.raises(ValueError):
            kernel(left, right, on=("nope",))

    def test_dtype_mismatch_rejected(self, kernel):
        left = make_table(1, [1], [0], [5], "a")
        schema = Schema([Attribute("x", "float64"), Attribute("b", "float32")])
        right = SubTable(
            SubTableId(2, 0),
            schema,
            {"x": np.ones(1, np.float64), "b": np.ones(1, np.float32)},
        )
        with pytest.raises(ValueError):
            kernel(left, right, on=("x",))

    def test_result_id(self, kernel):
        left = make_table(1, [1], [0], [5], "a")
        right = make_table(2, [1], [0], [6], "b")
        out, _ = kernel(left, right, on=("x", "y"), result_id=SubTableId(99, 7))
        assert out.id == SubTableId(99, 7)


    def test_keys_join_by_value(self, kernel):
        """The contract both kernels share: ``-0.0 == 0.0`` and a NaN key
        matches nothing, itself included.  (The dict reference used to
        compare key *bytes* and returned 3 matches here, not 4.)"""
        nan = float("nan")
        left = make_table(1, [0.0, -0.0, nan, 1.0], [0, 0, 0, 0], [10, 11, 12, 13], "a")
        right = make_table(2, [-0.0, nan, 0.0], [0, 0, 0], [20, 21, 22], "b")
        out, stats = kernel(left, right, on=("x",))
        assert stats.matches == out.num_records == 4
        np.testing.assert_array_equal(out.column("a"), [10, 11, 10, 11])
        np.testing.assert_array_equal(out.column("b"), [20, 20, 22, 22])
        out2, _ = kernel(left, right, on=("x", "y"))
        np.testing.assert_array_equal(out2.column("a"), out.column("a"))
        np.testing.assert_array_equal(out2.column("b"), out.column("b"))

    def test_many_wide_key_columns(self, kernel):
        """Eight key columns of 256 distinct values each: the mixed-radix
        product passes 2**63, so the packed ids must be re-ranked on the
        way — and equality must survive it."""
        on = tuple(f"k{i}" for i in range(8))
        schema = Schema.of(*on, "v", dtype="int32")
        rng = np.random.default_rng(5)
        base = np.arange(256, dtype=np.int32)

        def table(table_id, rows):
            cols = {name: rng.permutation(base)[rows] for name in on}
            cols["v"] = rows.astype(np.int32)
            return cols, SubTable(SubTableId(table_id, 0), schema, cols)

        _, left = table(1, np.arange(256))
        # the right side repeats 64 of the left's key tuples, twice each
        take = np.repeat(rng.choice(256, size=64, replace=False), 2)
        right = SubTable(
            SubTableId(2, 0),
            Schema.of(*on, "w", dtype="int32"),
            {**{name: left.column(name)[take] for name in on}, "w": take.astype(np.int32)},
        )
        out, stats = kernel(left, right, on=on)
        assert stats.matches == 128
        np.testing.assert_array_equal(out.column("v"), take)
        np.testing.assert_array_equal(out.column("w"), take)


# -- differential tests: dict vs vectorized vs sort-merge ------------------------------

coords = st.integers(min_value=0, max_value=6)


@st.composite
def random_table(draw, table_id, value_name):
    n = draw(st.integers(min_value=0, max_value=40))
    xs = [draw(coords) for _ in range(n)]
    ys = [draw(coords) for _ in range(n)]
    vals = list(range(n))
    return make_table(table_id, xs, ys, vals, value_name)


@settings(max_examples=BUDGET * 6 // 5, deadline=None)
@given(left=random_table(1, "a"), right=random_table(2, "b"))
def test_kernels_agree_exactly(left, right):
    """dict and vectorized kernels return identical rows in identical order."""
    out_d, st_d = dict_hash_join(left, right, on=("x", "y"))
    out_v, st_v = vectorized_hash_join(left, right, on=("x", "y"))
    assert st_d.matches == st_v.matches
    assert st_d.builds == st_v.builds and st_d.probes == st_v.probes
    assert out_d.num_records == out_v.num_records
    for name in out_d.schema.names:
        np.testing.assert_array_equal(out_d.column(name), out_v.column(name))


@settings(max_examples=BUDGET * 6 // 5, deadline=None)
@given(left=random_table(1, "a"), right=random_table(2, "b"))
def test_hash_join_agrees_with_sort_merge(left, right):
    """Hash kernels agree (as multisets) with the independent sort-merge."""
    out_h, _ = vectorized_hash_join(left, right, on=("x", "y"))
    out_m = sort_merge_join(left, right, on=("x", "y"))
    assert out_h.equals_unordered(out_m)


def test_sort_merge_keys_join_by_value():
    """The oracle keeps the kernels' key contract: ``-0.0 == 0.0``, and a
    NaN key joins nothing, another NaN included (it used to match)."""
    nan = float("nan")
    left = make_table(1, [nan, 1, -0.0], [0, 0, 0], [10, 11, 12], "a")
    right = make_table(2, [nan, 1, 0.0], [0, 0, 0], [20, 21, 22], "b")
    out = sort_merge_join(left, right, on=("x", "y"))
    assert out.equals_unordered(vectorized_hash_join(left, right, on=("x", "y"))[0])
    np.testing.assert_array_equal(out.column("a"), [12, 11])
    np.testing.assert_array_equal(out.column("b"), [22, 21])


@settings(max_examples=BUDGET * 3 // 5, deadline=None)
@given(left=random_table(1, "a"), right=random_table(2, "b"))
def test_match_count_equals_key_multiplicity_product(left, right):
    """|result| == sum over keys of count_left(k) * count_right(k)."""
    from collections import Counter

    lc = Counter(zip(left.column("x").tolist(), left.column("y").tolist()))
    rc = Counter(zip(right.column("x").tolist(), right.column("y").tolist()))
    expected = sum(c * rc.get(k, 0) for k, c in lc.items())
    out, stats = vectorized_hash_join(left, right, on=("x", "y"))
    assert out.num_records == expected == stats.matches


# -- the two probe paths: direct build and sorted search ------------------------------

KEY_POOLS = {
    # a few values, so keys repeat and the id space stays dense
    "narrow": (float("nan"), -0.0, 0.0, 1.0, 2.0),
    # many values, so a few key columns multiply past the direct-build bound
    "wide": tuple(float(v) for v in range(-40, 400, 7)) + (float("nan"), -0.0, 0.0),
}


@st.composite
def keyed_table(draw, table_id, value_name, on, unique):
    """A table keyed on ``on`` (float64, values from a drawn pool per
    column); with ``unique``, no two of its keys are equal by value."""
    n = draw(st.integers(min_value=0, max_value=40))
    pools = [KEY_POOLS[draw(st.sampled_from(sorted(KEY_POOLS)))] for _ in on]
    cols = {
        k: np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=np.float64)
        for k, pool in zip(on, pools)
    }
    if unique:  # keep each key's first record; NaN keys equal nothing, so all stay
        seen, keep = set(), []
        for i, key in enumerate(zip(*(cols[k].tolist() for k in on))):
            if any(v != v for v in key) or key not in seen:
                seen.add(key)
                keep.append(i)
        cols = {k: c[keep] for k, c in cols.items()}
    cols[value_name] = np.arange(len(cols[on[0]]), dtype=np.float64)
    schema = Schema(
        [Attribute(k, "float64", coordinate=True) for k in on] + [Attribute(value_name, "float64")]
    )
    return SubTable(SubTableId(table_id, 0), schema, cols)


@settings(max_examples=2 * BUDGET, deadline=None)
@given(data=st.data())
def test_both_probe_paths_equal_the_reference_row_for_row(data):
    """Unique and repeated left keys, NaN and signed-zero keys, empty
    sides, one to three key columns, with the direct-build bound drawn
    below, at and far above the drawn id space: row for row the dict
    hash join, and the direct build taken exactly when the left keys are
    unique and the space is within the bound."""
    on = ("x", "y", "z")[: data.draw(st.integers(min_value=1, max_value=3))]
    unique = data.draw(st.booleans())
    left = data.draw(keyed_table(1, "a", on, unique))
    right = data.draw(keyed_table(2, "b", on, False))
    bound = data.draw(st.sampled_from((0, 1, 4, hash_join._DIRECT_SPACE)))
    taken = []

    def spy(lkeys, rkeys, space):
        matched = direct(lkeys, rkeys, space)
        taken.append((matched is not None, len(np.unique(lkeys)) == len(lkeys),
                      space <= bound * (len(lkeys) + len(rkeys))))
        return matched

    direct = hash_join._direct_probe
    with mock.patch.object(hash_join, "_DIRECT_SPACE", bound), \
            mock.patch.object(hash_join, "_direct_probe", spy):
        out_v, st_v = vectorized_hash_join(left, right, on=on)
    out_d, st_d = dict_hash_join(left, right, on=on)
    assert (st_v.builds, st_v.probes, st_v.matches) == (st_d.builds, st_d.probes, st_d.matches)
    assert out_v.schema == out_d.schema
    for name in out_d.schema.names:
        assert out_v.column(name).tobytes() == out_d.column(name).tobytes(), name
    for was_direct, left_unique, within in taken:
        assert was_direct == (left_unique and within)
    if unique:
        assert not taken or taken[0][1]


def test_repeated_left_keys_take_the_sorted_search():
    left = make_table(1, [0, 1, 0], [0, 0, 0], [10, 11, 12], "a")
    right = make_table(2, [0, 1], [0, 0], [20, 21], "b")
    with mock.patch.object(hash_join, "_sorted_probe", wraps=hash_join._sorted_probe) as searched:
        out, _ = vectorized_hash_join(left, right, on=("x", "y"))
    assert searched.call_count == 1
    np.testing.assert_array_equal(out.column("a"), [10, 12, 11])
    unique = make_table(1, [0, 1, 2], [0, 0, 0], [10, 11, 12], "a")
    with mock.patch.object(hash_join, "_sorted_probe", wraps=hash_join._sorted_probe) as searched:
        out, _ = vectorized_hash_join(unique, right, on=("x", "y"))
    assert searched.call_count == 0
    np.testing.assert_array_equal(out.column("a"), [10, 11])


def test_the_direct_table_is_built_up_to_its_bound_and_not_past_it():
    """An id space of exactly ``_DIRECT_SPACE`` times the ids is addressed
    directly; one id past it, the left ids are sorted and searched."""
    left = make_table(1, [0, 1], [0, 1], [10, 11], "a")
    at = make_table(2, [2], [1], [20], "b"), ("x",)  # ids 0, 1, 2: a space of 3
    past = make_table(2, [0], [1], [20], "b"), ("x", "y")  # ids 0, 3, 1: a space of 4
    for (right, on), direct in ((at, True), (past, False)):
        with mock.patch.object(hash_join, "_DIRECT_SPACE", 1), mock.patch.object(
            hash_join, "_sorted_probe", wraps=hash_join._sorted_probe
        ) as searched:
            vectorized_hash_join(left, right, on=on)
        assert searched.called != direct, on
