"""``key_ids``: the one answer to "which records have equal keys", held to
both halves of its contract — the join kernel needs the equality, GROUP BY
the order as well."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datamodel import keys
from repro.datamodel.keys import id_order, key_ids
from tests.datamodel.key_draws import key_columns
from tests.datamodel.reference_keys import reference_key_ids

#: example budgets are multiples of the loaded Hypothesis profile's (100 by
#: default), so a wider profile widens every draw here
BUDGET = settings.default.max_examples


def _tuples(columns):
    return list(zip(*(c.tolist() for c in columns)))


def _lexicographic(columns):
    """Stable sort of the records by key tuple, NaN last and tied, in
    plain Python (``-0.0 == 0.0`` there too)."""
    def sort_key(i):
        return [(math.isnan(c[i]), 0 if math.isnan(c[i]) else c[i].item()) for c in columns]

    return sorted(range(len(columns[0])), key=sort_key)


def _check(columns, ids):
    n = len(columns[0])
    assert ids.dtype == np.int64 and ids.shape == (n,)
    rows = _tuples(columns)
    for i in range(n):
        for j in range(n):
            # by value: NaN equals nothing, itself included
            same = i == j or all(a == b for a, b in zip(rows[i], rows[j]))
            assert (ids[i] == ids[j]) == same, (rows[i], rows[j])
    assert np.argsort(ids, kind="stable").tolist() == _lexicographic(columns)


@settings(max_examples=3 * BUDGET, deadline=None)
@given(columns=key_columns())
def test_ids_are_equal_as_the_tuples_are_and_sort_as_they_do(columns):
    _check(columns, key_ids(columns))


@settings(max_examples=2 * BUDGET, deadline=None)
@given(columns=key_columns(min_columns=2))
def test_the_rerank_keeps_partition_and_order(columns):
    """With the int64 limit pulled down to 1 every digit after the first
    overflows, so the packed prefix is re-ranked each time."""
    plain = key_ids(columns)
    with mock.patch.object(keys, "_INT64_MAX", 1):
        reranked = key_ids(columns)
    _check(columns, reranked)
    np.testing.assert_array_equal(
        np.argsort(reranked, kind="stable"), np.argsort(plain, kind="stable")
    )


@st.composite
def whole_column(draw, n):
    """A column the counting path takes, or one at its edges: whole
    numbers of every int and float dtype, far from zero, at ±2**53, over a
    span just inside or just past the counting limit; now and then with a
    ``-0.0``, a fraction, a ``NaN`` or an ``inf`` mixed in."""
    dtype = np.dtype(draw(st.sampled_from(
        ("int8", "uint8", "int16", "int32", "int64", "uint64", "float32", "float64")
    )))
    if dtype.kind in "iu":
        lo_bound = max(int(np.iinfo(dtype).min), -(2**53) - 8)
        hi_bound = min(int(np.iinfo(dtype).max), 2**53 + 8)
    else:
        lo_bound, hi_bound = (-(2**24), 2**24) if dtype == np.float32 else (-(2**53), 2**53)
    base = draw(st.integers(min_value=lo_bound, max_value=hi_bound))
    limit = keys._COUNTED_SPAN * n
    span = draw(st.sampled_from((1, 3, limit, limit + 1)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    offsets = rng.integers(0, span + 1, n)
    if n >= 2 and draw(st.booleans()):
        offsets[:2] = (0, span)  # the whole span, so a limit + 1 span is refused
    column = np.minimum(base + offsets, hi_bound).astype(dtype)
    if n and dtype.kind == "f" and draw(st.booleans()):
        column[draw(st.integers(min_value=0, max_value=n - 1))] = draw(
            st.sampled_from((-0.0, 0.5, float("nan"), float("inf")))
        )
    return column


#: short columns, the empty one included, and columns of about 512 values
LENGTHS = st.integers(min_value=0, max_value=40) | st.integers(min_value=488, max_value=536)


@st.composite
def whole_columns(draw):
    """One to three equally long columns, of any length from none up."""
    n = draw(LENGTHS)
    return [draw(whole_column(n)) for _ in range(draw(st.integers(min_value=1, max_value=3)))]


@settings(max_examples=3 * BUDGET, deadline=None)
@given(columns=whole_columns() | key_columns(min_records=1))
def test_counted_ranks_are_the_sorted_ranks(columns):
    """Byte for byte the ids of the frozen ``np.unique`` ranking."""
    got = key_ids(columns)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, reference_key_ids(columns))


@st.composite
def occupied_column(draw, n, full):
    """A column the counting path takes: ``n`` whole numbers over a span
    that holds every value (``full``: its offsets are its ranks) or has a
    hole inside it (its ranks skip one value)."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if full:
        span = draw(st.integers(min_value=0, max_value=n - 1))
        offsets = rng.permutation(
            np.concatenate([np.arange(span + 1), rng.integers(0, span + 1, n - span - 1)])
        )
    else:
        span = draw(st.integers(min_value=2, max_value=keys._COUNTED_SPAN * n))
        hole = draw(st.integers(min_value=1, max_value=span - 1))
        offsets = rng.integers(0, span, n)
        offsets[offsets >= hole] += 1
        offsets[:2] = (0, span)
    base = draw(st.integers(min_value=-1000, max_value=1000))
    return (base + offsets).astype(draw(st.sampled_from(("int32", "float32", "float64"))))


@st.composite
def occupied_columns(draw):
    """A fully occupied span beside a partly occupied one, in either order,
    and now and then a third of either kind."""
    n = draw(LENGTHS.filter(lambda n: n >= 2))  # a holed span's two ends
    kinds = draw(st.permutations([True, False])) + draw(st.lists(st.booleans(), max_size=1))
    return [draw(occupied_column(n, full)) for full in kinds]


@settings(max_examples=BUDGET, deadline=None)
@given(columns=occupied_columns())
def test_full_and_partly_occupied_spans_pack_to_the_sorted_ids(columns):
    """A full span's offsets go in as its ranks and a holed span's ranks
    are gathered; packed in place, byte for byte the frozen ids."""
    for column in columns:
        assert keys._counted_ranks(column) is not None
    np.testing.assert_array_equal(key_ids(columns), reference_key_ids(columns))


@settings(max_examples=2 * BUDGET, deadline=None)
@given(
    top=st.sampled_from((1, 2**8, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**62)),
    draws=st.lists(st.integers(min_value=0, max_value=2**62), max_size=60),
)
def test_id_order_is_the_stable_argsort(top, draws):
    """One radix pass below 2**16, two below 2**32, a comparison sort past
    it: each the stable order, ties in record order."""
    ids = np.array([d % (top + 1) for d in draws] + [top] * (len(draws) % 3), dtype=np.int64)
    np.testing.assert_array_equal(id_order(ids), np.argsort(ids, kind="stable"))


def test_named_cases():
    nan = float("nan")
    ids = key_ids([np.array([0.0, nan, -0.0, nan, -np.inf, np.inf])])
    assert ids[0] == ids[2]  # -0.0 == 0.0
    assert ids[1] != ids[3]  # every NaN its own
    assert ids[4] < ids[0] < ids[5] < ids[1] < ids[3]  # NaN last, in record order
    # a NaN in the first column ties there: the second column decides
    ids = key_ids([np.array([nan, nan, 1.0]), np.array([5, 3, 9])])
    assert ids[2] < ids[1] < ids[0]
    assert key_ids([np.empty(0), np.empty(0, dtype=np.int32)]).shape == (0,)


@pytest.mark.parametrize("dtypes", [("int8",), ("uint64",), ("float32",), ("float64", "int32")])
def test_empty_key_columns_are_the_empty_answer(dtypes):
    """Counting ranks any column that holds a value; an empty one has no
    least value to count from and goes to ``np.unique``."""
    columns = [np.empty(0, dtype=d) for d in dtypes]
    assert keys._counted_ranks(columns[0]) is None
    ids = key_ids(columns)
    assert ids.dtype == np.int64 and ids.shape == (0,)
