"""Tests for SubTable / SubTableStub / concat."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.datamodel import BoundingBox, Schema, SubTable, SubTableId, SubTableStub
from repro.datamodel.subtable import concat_subtables


@pytest.fixture
def schema():
    return Schema.of("x", "y", "wp", coordinates=("x", "y"))


def make_st(schema, n=10, chunk_id=0, seed=0):
    rng = np.random.default_rng(seed)
    return SubTable(
        SubTableId(1, chunk_id),
        schema,
        {
            "x": np.arange(n, dtype=np.float32),
            "y": np.arange(n, dtype=np.float32) * 2,
            "wp": rng.random(n).astype(np.float32),
        },
    )


class TestSubTableBasics:
    def test_construction(self, schema):
        st_ = make_st(schema)
        assert st_.num_records == 10
        assert len(st_) == 10
        assert st_.nbytes == 10 * schema.record_size

    def test_column_mismatch_rejected(self, schema):
        with pytest.raises(ValueError):
            SubTable(SubTableId(1, 0), schema, {"x": np.zeros(3)})

    def test_ragged_columns_rejected(self, schema):
        with pytest.raises(ValueError):
            SubTable(
                SubTableId(1, 0),
                schema,
                {"x": np.zeros(3), "y": np.zeros(4), "wp": np.zeros(3)},
            )

    @pytest.mark.parametrize(
        "bad", [np.zeros((3, 2)), np.float32(1.0)], ids=["2-d", "0-d"]
    )
    def test_a_column_must_be_one_dimensional(self, bad):
        with pytest.raises(ValueError, match="column 'x' has shape"):
            SubTable(SubTableId(0, 0), Schema.of("x", "v"), {"x": bad, "v": np.zeros(3)})

    def test_columns_cast_to_schema_dtype(self, schema):
        t = SubTable(
            SubTableId(1, 0),
            schema,
            {"x": np.arange(3), "y": np.arange(3), "wp": np.arange(3)},
        )
        assert t.column("x").dtype == np.float32

    def test_unknown_column_keyerror(self, schema):
        with pytest.raises(KeyError):
            make_st(schema).column("nope")

    def test_bbox_computed_from_data(self, schema):
        t = make_st(schema, n=5)
        bbox = t.bbox
        assert bbox.interval("x").lo == 0.0
        assert bbox.interval("x").hi == 4.0

    def test_bbox_explicit_wins(self, schema):
        given_box = BoundingBox({"x": (0, 100)})
        t = SubTable(
            SubTableId(1, 0),
            schema,
            {"x": np.zeros(2), "y": np.zeros(2), "wp": np.zeros(2)},
            bbox=given_box,
        )
        assert t.bbox == given_box

    def test_empty_subtable_bbox(self, schema):
        t = SubTable(
            SubTableId(1, 0),
            schema,
            {"x": np.zeros(0), "y": np.zeros(0), "wp": np.zeros(0)},
        )
        assert t.num_records == 0
        assert t.bbox == BoundingBox.empty()

    def test_iter_records(self, schema):
        t = make_st(schema, n=3)
        recs = list(t.iter_records())
        assert len(recs) == 3
        assert recs[1][0] == 1.0 and recs[1][1] == 2.0


class TestSubTableOperators:
    def test_select(self, schema):
        t = make_st(schema)
        sel = t.select(t.column("x") < 3)
        assert sel.num_records == 3
        assert list(sel.column("x")) == [0, 1, 2]

    def test_select_bad_mask(self, schema):
        with pytest.raises(ValueError):
            make_st(schema).select(np.ones(3, dtype=bool))

    def test_take_reorders(self, schema):
        t = make_st(schema)
        taken = t.take(np.array([2, 0, 2]))
        assert list(taken.column("x")) == [2, 0, 2]

    def test_project(self, schema):
        t = make_st(schema)
        p = t.project(["wp"])
        assert p.schema.names == ("wp",)
        assert p.num_records == t.num_records

    def test_sort_by(self, schema):
        t = make_st(schema).take(np.array([3, 1, 2, 0]))
        s = t.sort_by(["x"])
        assert list(s.column("x")) == [0, 1, 2, 3]

    def test_equals_unordered(self, schema):
        t = make_st(schema)
        shuffled = t.take(np.random.default_rng(1).permutation(t.num_records))
        assert t.equals_unordered(shuffled)
        assert not t.equals_unordered(t.select(t.column("x") > 0))


class TestSubTableId:
    def test_ordering_is_lexicographic(self):
        ids = [SubTableId(2, 0), SubTableId(1, 5), SubTableId(1, 2)]
        assert sorted(ids) == [SubTableId(1, 2), SubTableId(1, 5), SubTableId(2, 0)]

    def test_repr(self):
        assert repr(SubTableId(1, 2)) == "(1,2)"

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=12))
    def test_hash_order_text_and_pickle(self, pairs):
        """An id hashes as its ``(table_id, chunk_id)`` tuple, so no set or
        dict order depends on its type; it sorts as the field-by-field
        order did; it reads ``(t,c)``; and it survives a pickle."""
        ids = [SubTableId(t, c) for t, c in pairs]
        for sid, (t, c) in zip(ids, pairs):
            assert hash(sid) == hash((t, c))
            assert (sid.table_id, sid.chunk_id) == (t, c)
            assert repr(sid) == str(sid) == f"{sid}" == f"({t},{c})"
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(sid, protocol))
                assert back == sid and type(back) is SubTableId
            assert type(copy.deepcopy(sid)) is SubTableId
        assert [(s.table_id, s.chunk_id) for s in sorted(ids)] == sorted(pairs)
        assert list(set(ids)) == [SubTableId(*p) for p in set(pairs)]

    def test_ids_are_immutable(self):
        sid = SubTableId(1, 2)
        with pytest.raises(AttributeError):
            sid.table_id = 3
        with pytest.raises(AttributeError):
            sid.extra = 1


class TestStub:
    def test_stub_sizes(self):
        stub = SubTableStub(SubTableId(1, 0), 100, 16, BoundingBox({"x": (0, 1)}))
        assert stub.nbytes == 1600
        assert len(stub) == 100


class TestConcat:
    def test_concat(self, schema):
        a = make_st(schema, n=3, chunk_id=0)
        b = make_st(schema, n=4, chunk_id=1)
        c = concat_subtables([a, b], id=SubTableId(9, 9))
        assert c.num_records == 7
        assert c.id == SubTableId(9, 9)

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            concat_subtables([])

    def test_concat_schema_mismatch(self, schema):
        a = make_st(schema)
        b = a.project(["x"])
        with pytest.raises(ValueError):
            concat_subtables([a, b])


# -- property tests -------------------------------------------------------------


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=2**31 - 1))
def test_select_then_concat_partition_roundtrip(n, seed):
    """Splitting a sub-table by a predicate and concatenating the parts
    yields the same multiset of records."""
    schema = Schema.of("x", "y", "wp")
    rng = np.random.default_rng(seed)
    t = SubTable(
        SubTableId(0, 0),
        schema,
        {k: rng.random(n).astype(np.float32) for k in ("x", "y", "wp")},
    )
    mask = t.column("x") < 0.5
    if n == 0:
        assert t.num_records == 0
        return
    parts = [t.select(mask), t.select(~mask)]
    merged = concat_subtables(parts)
    assert merged.equals_unordered(t)


@given(st.integers(min_value=1, max_value=100), st.integers(min_value=0, max_value=2**31 - 1))
def test_computed_bbox_contains_all_records(n, seed):
    schema = Schema.of("x", "wp")
    rng = np.random.default_rng(seed)
    t = SubTable(
        SubTableId(0, 0),
        schema,
        {k: (rng.random(n) * 100).astype(np.float32) for k in ("x", "wp")},
    )
    box = t.compute_bbox()
    for name in ("x", "wp"):
        iv, col = box.interval(name), t.column(name)
        assert np.all((iv.lo <= col) & (col <= iv.hi))
