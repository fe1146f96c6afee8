"""Hypothesis draws of key columns, shared by the ``key_ids`` contract test
and the GROUP BY / partial-merge tests built on it.

Small value pools, so duplicates are the rule, with every class the
contract names: ``NaN``, ``-0.0`` beside ``0.0``, ``±inf``, negative and
positive numbers, over int and float dtypes.
"""

import numpy as np
from hypothesis import strategies as st

from repro.datamodel import Attribute, Schema, SubTable, SubTableId

FLOATS = (float("nan"), -0.0, 0.0, float("inf"), float("-inf"), -1.5, 1.0, 2.0)
INTS = (-3, 0, 1, 2, 7)
DTYPES = ("float64", "float32", "int32", "int64")


@st.composite
def column(draw, n, dtype=None):
    """One length-``n`` array of a drawn (or the given) dtype."""
    dtype = np.dtype(dtype or draw(st.sampled_from(DTYPES)))
    pool = FLOATS if dtype.kind == "f" else INTS
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=dtype)


@st.composite
def key_columns(draw, min_columns=1, max_columns=4, min_records=0, max_records=24):
    """``min_columns``–``max_columns`` equally long columns of
    ``min_records``–``max_records`` records."""
    n = draw(st.integers(min_value=min_records, max_value=max_records))
    k = draw(st.integers(min_value=min_columns, max_value=max_columns))
    return [draw(column(n)) for _ in range(k)]


def typed_table(columns):
    """A sub-table over ``{name: array}``, each attribute of its array's dtype."""
    schema = Schema(
        Attribute(name, c.dtype.name, coordinate=name == "k0") for name, c in columns.items()
    )
    return SubTable(SubTableId(0, 0), schema, columns)
