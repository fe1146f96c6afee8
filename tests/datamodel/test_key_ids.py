"""``key_ids``: the one answer to "which records have equal keys", held to
both halves of its contract — the join kernel needs the equality, GROUP BY
the order as well."""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings

from repro.datamodel import keys
from repro.datamodel.keys import key_ids
from tests.datamodel.key_draws import key_columns


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


@settings(max_examples=300, deadline=None)
@given(columns=key_columns())
def test_ids_are_equal_as_the_tuples_are_and_sort_as_they_do(columns):
    _check(columns, key_ids(columns))


@settings(max_examples=200, deadline=None)
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
