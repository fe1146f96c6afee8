"""Where counting beats sorting: the two cutoffs of the key path, measured.

Two places choose between a pass over a key space and a sort or binary
search over the records, and each choice is a bound on the input:

* ``probe`` — the join kernel's probe (``repro.joins.hash_join``).  Each
  right row's run of matching left rows is either counted (one
  ``bincount`` over the id space and its running total) while the id space
  is at most ``_COUNTED_SPACE`` times the ids, or found by two
  ``searchsorted`` sweeps of the sorted left ids.  Timed as whole
  ``vectorized_hash_join`` calls with the bound forced to each path, on
  the first kernel call of each QES of ``view_query``'s view (64³ grid,
  16³ chunks, four nodes, seed 7) and on every 2nd, 4th, ... record of
  both sides, which widens Grace Hash's id space against its records.
* ``ranks`` — ranking one key column (``repro.datamodel.keys``): counting
  one flag per value of its span (``_counted_ranks``) for a column of at
  least ``_COUNTED_MIN`` values whose span is at most ``_COUNTED_SPAN``
  times its length, else ``np.unique``.  Timed on prefixes of that Indexed
  Join call's key columns (grid order) and on float32 whole numbers drawn
  uniformly over ``ratio`` times the column's length.

Each cell alternates the two paths ``--reps`` times and prints both
medians and how many of the pairs counting won::

    PYTHONPATH=src python benchmarks/key_crossover.py probe
    PYTHONPATH=src python benchmarks/key_crossover.py ranks
"""

from __future__ import annotations

import argparse
import statistics
import time
from unittest import mock

import numpy as np

from repro.core.engine import DerivedDataSource
from repro.core.view import JoinView
from repro.datamodel import keys
from repro.joins import grace_hash, hash_join, indexed_join
from repro.workloads.generator import GridSpec
from repro.workloads.oilres import build_oil_reservoir_dataset


def _pairs(first, second, reps, inner=1):
    """Alternate two calls; their medians (ms) and the first one's wins."""
    times = ([], [])
    for rep in range(reps):
        for side in (0, 1) if rep % 2 == 0 else (1, 0):
            fn = (first, second)[side]
            start = time.perf_counter()
            for _ in range(inner):
                fn()
            times[side].append((time.perf_counter() - start) / inner * 1e3)
    wins = sum(a < b for a, b in zip(*times))
    return statistics.median(times[0]), statistics.median(times[1]), wins


def _view_query_calls():
    """The first kernel call of each QES on ``view_query``'s view."""
    dataset = build_oil_reservoir_dataset(
        GridSpec((64,) * 3, (16,) * 3, (16,) * 3), num_storage=4, functional=True, seed=7
    )
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


def probe(reps):
    print("call          records/side  space/ids  counted_ms  searched_ms  counted_wins")
    for name, (left, right, on) in _view_query_calls().items():
        for stride in (1, 2, 4, 8, 16):
            lt = left.take(np.arange(0, left.num_records, stride))
            rt = right.take(np.arange(0, right.num_records, stride))
            ids = keys.key_ids([np.concatenate([lt.column(k), rt.column(k)]) for k in on])
            ratio = (int(ids.max()) + 1) / len(ids)

            def forced(bound):
                def call():
                    with mock.patch.object(hash_join, "_COUNTED_SPACE", bound):
                        hash_join.vectorized_hash_join(lt, rt, on)
                return call

            c, s, wins = _pairs(forced(float("inf")), forced(0), reps)
            print(f"{name:12s}  {lt.num_records:12d}  {ratio:9.1f}  {c:10.2f}  {s:11.2f}  {wins:6d}/{reps}")


def _ranks_row(label, column, reps):
    inner = max(1, 20_000 // len(column))
    with mock.patch.object(keys, "_COUNTED_MIN", 0), mock.patch.object(keys, "_COUNTED_SPAN", np.inf):
        assert keys._counted_ranks(column) is not None
        c, u, wins = _pairs(
            lambda: keys._counted_ranks(column), lambda: np.unique(column, return_inverse=True),
            reps, inner,
        )
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("which", choices=("probe", "ranks"))
    parser.add_argument("--reps", type=int, default=11)
    args = parser.parse_args(argv)
    (probe if args.which == "probe" else ranks)(args.reps)


if __name__ == "__main__":
    main()
