"""Where counting beats sorting: the cutoffs of the key path, measured.

Four places choose between a pass over a key space and a sort or binary
search over the records, and each choice is a bound on the input:

* ``build`` — how the join kernel (``repro.joins.hash_join``) matches
  unique left ids: a direct-address table over the id space
  (``_direct_probe``, taken while the space is at most ``_DIRECT_SPACE``
  times the ids), against the stable sort of the left ids with either two
  ``searchsorted`` sweeps (``_sorted_probe``) or a counted probe — one
  ``bincount`` over the id space and its running total, the kernel's path
  at or below 4x until the direct build replaced it, frozen here as
  ``_counted_probe``.  Timed on the ids of the first kernel call of each
  QES of ``view_query``'s view (64³ grid, 16³ chunks, four nodes, seed 7)
  and of every 2nd, 4th, ... record of both sides, which widens Grace
  Hash's id space against its records (the Indexed Join's grid-ordered
  keys keep theirs at 8x).
* ``probe`` — the same calls with every left record twice, so no left id
  is unique and the direct build cannot take them: the kernel's sorted
  search against the frozen counted probe.
* ``ranks`` — ranking one key column (``repro.datamodel.keys``): counting
  one flag per value of its span (``_counted_ranks``) for a column of at
  least ``_COUNTED_MIN`` values whose span is at most ``_COUNTED_SPAN``
  times its length, else ``np.unique``.  Timed on prefixes of that Indexed
  Join call's key columns (grid order) and on float32 whole numbers drawn
  uniformly over ``ratio`` times the column's length.
* ``groupby`` — GROUP BY (``repro.query.aggregate``): COUNT and exact
  SUM/AVG counted over the id space while the largest id is below
  ``_COUNTED_SPACE`` times the records, against the sort and segmented
  reduction, with the bound forced to each path.  Timed on
  ``view_query``'s ``GROUP BY z`` over the whole of T1 and on two int64
  keys drawn uniformly, their id space about ``ratio`` times the records.

Each cell alternates the paths ``--reps`` times and prints their medians
and how many of the rounds the first path won against each other::

    PYTHONPATH=src python benchmarks/key_crossover.py build
    PYTHONPATH=src python benchmarks/key_crossover.py probe
    PYTHONPATH=src python benchmarks/key_crossover.py ranks
    PYTHONPATH=src python benchmarks/key_crossover.py groupby
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import time
from unittest import mock

import numpy as np

from repro.core.engine import DerivedDataSource
from repro.core.view import Aggregate, JoinView
from repro.datamodel import Attribute, Schema, SubTable, SubTableId, keys
from repro.datamodel.subtable import concat_subtables
from repro.joins import grace_hash, hash_join, indexed_join
from repro.workloads.generator import GridSpec
from repro.workloads.oilres import build_oil_reservoir_dataset

#: the module, which ``repro.query``'s ``aggregate`` function shadows
aggregate = importlib.import_module("repro.query.aggregate")


def _alternate(calls, reps, inner=1):
    """Run ``calls`` in turn, rotating which goes first; each one's median
    (ms), and how many rounds the first beat each of the others."""
    times = [[] for _ in calls]
    for rep in range(reps):
        for side in np.roll(np.arange(len(calls)), rep):
            start = time.perf_counter()
            for _ in range(inner):
                calls[side]()
            times[side].append((time.perf_counter() - start) / inner * 1e3)
    wins = [sum(a < b for a, b in zip(times[0], other)) for other in times[1:]]
    return [statistics.median(t) for t in times], wins


def _dataset():
    """``view_query``'s dataset, in memory."""
    return build_oil_reservoir_dataset(
        GridSpec((64,) * 3, (16,) * 3, (16,) * 3), num_storage=4, functional=True, seed=7
    )


def _view_query_calls():
    """The first kernel call of each QES on ``view_query``'s view."""
    dataset = _dataset()
    calls = {}
    for name, module in (("indexed-join", indexed_join), ("grace-hash", grace_hash)):
        def spy(left, right, on, *args, _name=name, **kwargs):
            calls.setdefault(_name, (left, right, tuple(on)))
            return hash_join.vectorized_hash_join(left, right, on, *args, **kwargs)

        with mock.patch.object(module, "vectorized_hash_join", spy):
            DerivedDataSource(
                JoinView("V1", dataset.left, dataset.right, on=dataset.join_attrs),
                dataset.metadata, dataset.provider, num_storage=4, num_compute=4,
            ).execute(algorithm=name)
    return calls


def _counted_probe(lkeys, rkeys):
    """The kernel's counted probe before the direct build replaced it:
    left rows grouped by a stable sort, each right id's run located by
    counting left ids over the whole id space."""
    order = keys.id_order(lkeys)
    per_key = np.bincount(lkeys, minlength=int(max(lkeys.max(), rkeys.max())) + 1)
    starts = (np.cumsum(per_key) - per_key)[rkeys]
    counts = per_key[rkeys]
    total = int(counts.sum())
    right_idx = np.repeat(np.arange(len(rkeys), dtype=np.intp), counts)
    cum = np.concatenate(([0], np.cumsum(counts)))
    within = np.arange(total, dtype=np.intp) - np.repeat(cum[:-1], counts)
    return order[np.repeat(starts, counts) + within], right_idx


def _strided_ids(twice):
    """``(call, left records, space/ids, space, left ids, right ids)`` per
    cell; with ``twice``, every picked left record appears twice."""
    for name, (left, right, on) in _view_query_calls().items():
        for stride in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            picks = np.arange(0, left.num_records, stride)
            lt = left.take(np.repeat(picks, 2) if twice else picks)
            rt = right.take(np.arange(0, right.num_records, stride))
            ids = keys.key_ids([np.concatenate([lt.column(k), rt.column(k)]) for k in on])
            space, n = int(ids.max()) + 1, lt.num_records
            yield name, n, space / len(ids), space, ids[:n], ids[n:]


def build(reps):
    print("call          records/side  space/ids  direct_ms  searched_ms  counted_ms  direct_wins")
    with mock.patch.object(hash_join, "_DIRECT_SPACE", float("inf")):
        for name, n, ratio, space, lkeys, rkeys in _strided_ids(twice=False):
            medians, wins = _alternate([
                lambda: hash_join._direct_probe(lkeys, rkeys, space),
                lambda: hash_join._sorted_probe(lkeys, rkeys),
                lambda: _counted_probe(lkeys, rkeys),
            ], reps)
            d, s, c = medians
            print(f"{name:12s}  {n:12d}  {ratio:9.1f}  {d:9.3f}  {s:11.3f}  {c:10.3f}  "
                  f"{wins[0]:2d}/{reps}, {wins[1]:2d}/{reps}")


def probe(reps):
    print("call          left records  space/ids  counted_ms  searched_ms  counted_wins")
    for name, n, ratio, _, lkeys, rkeys in _strided_ids(twice=True):
        (c, s), (wins,) = _alternate([
            lambda: _counted_probe(lkeys, rkeys),
            lambda: hash_join._sorted_probe(lkeys, rkeys),
        ], reps)
        print(f"{name:12s}  {n:12d}  {ratio:9.1f}  {c:10.3f}  {s:11.3f}  {wins:6d}/{reps}")


def _ranks_row(label, column, reps):
    inner = max(1, 20_000 // len(column))
    with mock.patch.object(keys, "_COUNTED_MIN", 0), mock.patch.object(keys, "_COUNTED_SPAN", np.inf):
        assert keys._counted_ranks(column) is not None
        (c, u), (wins,) = _alternate([
            lambda: keys._counted_ranks(column), lambda: np.unique(column, return_inverse=True),
        ], reps, inner)
    span = int(column.max() - column.min())
    print(f"{label:16s}  {len(column):7d}  {span / len(column):10.3g}  {c:10.4f}  {u:9.4f}  {wins:6d}/{reps}")


def ranks(reps):
    print("column            records  span/len  counted_ms  unique_ms  counted_wins")
    left, right, on = _view_query_calls()["indexed-join"]
    for name in on:
        full = np.concatenate([left.column(name), right.column(name)])
        for n in (16, 256, 512, 1024, 4096, len(full)):
            _ranks_row(f"view_query {name}", full[:n].copy(), reps)
    rng = np.random.default_rng(7)
    for n in (16, 256, 512, 1024, 4096, 65536, 262144):
        for ratio in (0.1, 1, 2, 4, 8, 32):
            span = max(1, round(ratio * n))
            column = rng.integers(0, span + 1, n)
            column[:2] = (0, span)
            _ranks_row("uniform float32", column.astype(np.float32), reps)


def _groupby_row(label, sub, aggs, group_by, reps):
    def forced(bound):
        def call():
            with mock.patch.object(aggregate, "_COUNTED_SPACE", bound):
                aggregate.aggregate(sub, aggs, group_by)
        return call

    (c, s), (wins,) = _alternate([forced(float("inf")), forced(0)], reps)
    ids = keys.key_ids([sub.column(g) for g in group_by])
    ratio = (int(ids.max()) + 1) / len(ids)
    print(f"{label:18s}  {sub.num_records:7d}  {ratio:13.4f}  {c:10.3f}  {s:9.3f}  {wins:6d}/{reps}")


def groupby(reps):
    print("table               records  space/records  counted_ms  sorted_ms  counted_wins")
    dataset = _dataset()
    t1 = concat_subtables([
        dataset.provider.fetch(c) for c in dataset.metadata.table(dataset.left).all_chunks()
    ])
    _groupby_row("view_query T1", t1, [Aggregate("avg", "oilp")], ["z"], reps)
    rng = np.random.default_rng(7)
    aggs = [Aggregate("count", "*"), Aggregate("avg", "v")]
    schema = Schema([Attribute("g", "int64"), Attribute("h", "int64"), Attribute("v", "float32")])
    for n in (512, 4096, 65536, 262144):
        for ratio in (0.001, 0.05, 0.5, 1, 2, 4, 8):
            # two keys of about sqrt(ratio * n) values each: ids over ratio * n
            k = max(1, round((ratio * n) ** 0.5))
            columns = {
                "g": rng.integers(0, k, n), "h": rng.integers(0, k, n),
                "v": rng.integers(-1000, 1000, n).astype(np.float32),
            }
            _groupby_row("uniform int64 x2", SubTable(SubTableId(0, 0), schema, columns),
                         aggs, ["g", "h"], reps)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = {"build": build, "probe": probe, "ranks": ranks, "groupby": groupby}
    parser.add_argument("which", choices=tuple(modes))
    parser.add_argument("--reps", type=int, default=11)
    args = parser.parse_args(argv)
    modes[args.which](args.reps)


if __name__ == "__main__":
    main()
