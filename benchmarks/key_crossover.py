"""Where counting beats sorting: the cutoffs of the key path, measured,
and what each fast path of the data path wins end to end.

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
  one flag per value of its span (``_counted_ranks``), taken on a column
  of any length whose span is at most ``_COUNTED_SPAN`` times its length,
  against ``np.unique``.  Timed on prefixes of that Indexed Join call's
  key columns (grid order) and on float32 whole numbers drawn uniformly
  over ``ratio`` times the column's length.
* ``groupby`` — GROUP BY (``repro.query.aggregate``): COUNT and exact
  SUM/AVG counted over the id space while the largest id is below
  ``_COUNTED_SPACE`` times the records, against the sort and segmented
  reduction, with the bound forced to each path.  Timed on
  ``view_query``'s ``GROUP BY z`` over the whole of T1 and on two int64
  keys drawn uniformly, their id space about ``ratio`` times the records.

Each cell alternates the paths ``--reps`` times and prints their medians
and how many of the rounds the first path won against each other.

``census`` asks the question the kernel-level cells cannot: does a path
pay on the workloads?  It runs the six ``bench`` workloads in this
process, each fast path of :data:`FAST_PATHS` forced off in turn by
``mock.patch`` (nothing in ``src/`` switches one off), in ``--pairs``
alternating on/off pairs, each side of a pair the median of
:data:`RUNS` runs, each run set up afresh.  A workload whose spied first run never
takes the path is ``not taken``; on the others it prints the seconds of
the timed region per side and the off/on ratio per pair (quartiles and
median of each), raw and then normalised to the reference host by
``bench``'s pilot, how many pairs ran slower with the path off, and a
verdict from the pairs, since the host drifts between them: ``win`` when
the lower quartile of the ratios is above 1 (three pairs in four slower
off), ``loss`` when the upper one is below 1, else ``noise``.  Every run
must keep the workload's digest, and the first forced-off run must pass
its oracles.  Last, the host microseconds per chunk of a
model-only ``ScanQES`` over the chunks ``view_query``'s base-table
SELECTs read, set-up included::

    PYTHONPATH=src python benchmarks/key_crossover.py build
    PYTHONPATH=src python benchmarks/key_crossover.py probe
    PYTHONPATH=src python benchmarks/key_crossover.py ranks
    PYTHONPATH=src python benchmarks/key_crossover.py groupby
    PYTHONPATH=src python benchmarks/key_crossover.py census [--pairs 10] [--scale 1.0]
"""

from __future__ import annotations

import argparse
import gc
import importlib
import statistics
import sys
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np

from repro.cluster.cluster import ClusterSim, ClusterTopology
from repro.cluster.nodes import PAPER_MACHINE
from repro.core.engine import DerivedDataSource
from repro.core.view import Aggregate, JoinView
from repro.datamodel import Attribute, Schema, SubTable, SubTableId, keys
from repro.datamodel.bounding_box import BoundingBox
from repro.datamodel.subtable import concat_subtables
from repro.joins import grace_hash, hash_join, indexed_join
from repro.joins.scan import ScanQES
from repro.query.parser import parse_query
from repro.query.predicate import TruePredicate
from repro.workloads.generator import GridSpec
from repro.workloads.oilres import build_oil_reservoir_dataset

#: the modules, which ``repro.query``'s ``aggregate`` function and
#: ``QueryExecutor`` class shadow
aggregate = importlib.import_module("repro.query.aggregate")
executor = importlib.import_module("repro.query.executor")


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
    with mock.patch.object(keys, "_COUNTED_SPAN", np.inf):
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


# -- census: each kept fast path's end-to-end win ------------------------------

#: the census's seed, and the runs each side of a pair is the median of
SEED, RUNS = 7, 3


def _stable_argsort(ids):
    return np.argsort(ids, kind="stable")


class _NoPredicate:
    """A class no predicate is an instance of."""


_real_scan = executor.QueryExecutor._scan


def _masked_scan(self, query, catalog):
    """``QueryExecutor._scan`` with its sink deciding as if every query
    had a WHERE: the whole-answer sink off, and nothing else."""
    executor.TruePredicate = _NoPredicate
    try:
        return _real_scan(self, query, catalog)
    finally:
        executor.TruePredicate = TruePredicate


@dataclass(frozen=True)
class FastPath:
    """One data-path fast path, as the census forces it off."""

    #: ``(target, attribute, replacement)`` patches that force it off
    off: tuple
    #: ``(targets, attribute, hit)``: a spy on ``attribute`` of each target
    #: counting the calls for which ``hit(args, result)`` says it was taken
    spy: tuple
    #: ``view_query`` templates whose per-query time its rows also report
    templates: tuple = ()
    #: patches both sides run under: the setting it is measured in
    base: tuple = ()


#: the census's paths, forced off one at a time
FAST_PATHS = {
    "counted ranks": FastPath(
        [(keys, "_counted_ranks", lambda column: None)],
        ([keys], "_counted_ranks", lambda args, out: out is not None),
    ),
    "direct-address probe": FastPath(
        [(hash_join, "_direct_probe", lambda lkeys, rkeys, space: None)],
        ([hash_join], "_direct_probe", lambda args, out: out is not None),
    ),
    "counted GROUP BY": FastPath(
        [(aggregate, "_COUNTED_SPACE", 0)],
        ([aggregate], "_counted", lambda args, out: True), ("groupby",),
    ),
    # taken by a GROUP BY that sorts (MIN, MAX, an inexact SUM) and by a
    # join of repeated left keys; no workload runs either, so it is
    # measured on view_query's GROUP BY with the counting forced off
    "radix id_order": FastPath(
        [(aggregate, "id_order", _stable_argsort), (hash_join, "id_order", _stable_argsort)],
        ([aggregate, hash_join], "id_order", lambda args, out: len(args[0]) > 0), ("groupby",),
        base=[(aggregate, "_COUNTED_SPACE", 0)],
    ),
    "scan whole-chunk count": FastPath(
        [(BoundingBox, "contains_box", lambda box, other: False)],
        ([BoundingBox], "contains_box", lambda args, out: out),
    ),
    "SELECT whole sink": FastPath(
        [(executor.QueryExecutor, "_scan", _masked_scan)],
        ([executor.QueryExecutor], "_scan",
         lambda args, out: isinstance(args[1].where, TruePredicate)),
        ("scan", "project"),
    ),
}


def _spy(targets, attr, hit):
    """Patches wrapping ``attr`` of each of ``targets``, and the one-element
    list they count the calls for which ``hit(args, result)`` holds in."""
    count = [0]

    def wrap(real):
        def spied(*args, **kwargs):
            out = real(*args, **kwargs)
            count[0] += bool(hit(args, out))
            return out
        return spied

    return [mock.patch.object(t, attr, wrap(getattr(t, attr))) for t in targets], count


def _repetition(workload, seed, scale, patches, verify=False):
    """Set ``workload`` up in a fresh directory and time its region once
    under ``patches`` and ``bench``'s pilot: raw seconds (net of the
    pilot's own), reference-host seconds and the outcome.  With
    ``verify``, its oracles must find no wrong answer."""
    from bench.hostclock import Pilot

    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        state = workload.setup(seed, scale, Path(tmp))
        gc.collect()
        with ExitStack() as stack:
            for patch in patches:
                stack.enter_context(patch)
            pilot = stack.enter_context(Pilot())
            start = time.perf_counter()
            outcome = workload.run(state)
            wall = time.perf_counter() - start
            reading = pilot.read()
        failures = workload.verify(state) if verify else []
    assert not failures, failures[:3]
    return wall - reading.handler_s, reading.normalise(wall), outcome


def _spread(values, scale=1.0):
    q1, median, q3 = np.percentile(values, (25, 50, 75)) * scale
    return f"{q1:.4g} {median:.4g} {q3:.4g}"


def _census_row(path, name, workload, scale, pairs):
    fast = FAST_PATHS[path]
    templates = fast.templates if name == "view_query" else ()
    spies, taken = _spy(*fast.spy)

    def patches(on):
        return [mock.patch.object(*p) for p in (fast.base if on else [*fast.base, *fast.off])]

    *_, first = _repetition(workload, SEED, scale, [*patches(True), *spies], verify=True)
    if not taken[0]:
        print(f"{path:24s}  {name:16s}  not taken")
        return
    walls = {(clock, on): [] for clock in ("raw", "normalised") for on in (True, False)}
    per_query = {(t, on): [] for t in templates for on in (True, False)}
    for pair in range(pairs):
        for on in (True, False) if pair % 2 == 0 else (False, True):
            side = []
            for run in range(RUNS):
                verify = not (on or pair or run)
                *seconds, outcome = _repetition(workload, SEED, scale, patches(on), verify)
                assert outcome.digest == first.digest, f"{path} moved {name}'s digest"
                side.append(seconds)
                for t in templates:
                    per_query[t, on].append(statistics.median(outcome.timings[t]))
            for clock, values in zip(("raw", "normalised"), zip(*side)):
                walls[clock, on].append(statistics.median(values))
    for clock in ("raw", "normalised"):
        on, off = np.array(walls[clock, True]), np.array(walls[clock, False])
        ratios = off / on
        low, _, high = np.percentile(ratios, (25, 50, 75))
        verdict = "win" if low > 1 else "loss" if high < 1 else "noise"
        print(f"{path if clock == 'raw' else '':24s}  {name:16s}  "
              f"{taken[0] if clock == 'raw' else clock[:4]:>6}  {_spread(on):22s}  "
              f"{_spread(off):22s}  {_spread(ratios):22s}  {sum(ratios > 1):3d}/{pairs}  {verdict}")
    for t in templates:
        print(f"{'':24s}  {name + ' ' + t:16s}  {'ms/q':>6s}  "
              f"{_spread(per_query[t, True], 1e3):22s}  {_spread(per_query[t, False], 1e3):22s}")


def _stub_scan(reps):
    """Host microseconds per chunk of a model-only ``ScanQES``, set-up
    included, over the chunks ``view_query``'s base-table SELECTs read:
    raw, and normalised to the reference host by ``bench``'s pilot."""
    from bench.hostclock import Pilot
    from bench.workloads import WORKLOADS

    dataset = build_oil_reservoir_dataset(
        GridSpec((64,) * 3, (16,) * 3, (16,) * 3), num_storage=4, functional=False, seed=SEED
    )
    catalog = dataset.metadata.table(dataset.left)
    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        plan = WORKLOADS["view_query"].setup(SEED, 1.0, Path(tmp))["plan"]
    scans = []
    for _, _, sql in (q for queries in plan for q in queries):
        box = parse_query(sql).where.bbox()
        scans.append((box, catalog.find_chunks(box) if len(box) else catalog.all_chunks()))
    chunks = sum(len(c) for _, c in scans)

    def run():
        for box, found in scans:
            ScanQES(
                ClusterSim(ClusterTopology(4, 1), spec=PAPER_MACHINE), dataset.metadata,
                catalog.table_id, box, dataset.provider, chunks=found,
            ).run()

    raw, normalised = [], []
    with Pilot() as pilot:
        for _ in range(reps):
            before = pilot.read()
            start = time.perf_counter()
            run()
            wall = time.perf_counter() - start
            reading = pilot.read().since(before)
            raw.append((wall - reading.handler_s) / chunks * 1e6)
            normalised.append(reading.normalise(wall) / chunks * 1e6)
    print(f"stub ScanQES: {len(scans)} SELECTs, {chunks} chunks, µs per chunk "
          f"(q1 median q3 of {reps}): raw {_spread(raw)}, normalised {_spread(normalised)}")


def census(reps, pairs=10, scale=1.0):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # the bench package
    from bench.workloads import WORKLOADS

    print(f"{'path':24s}  {'workload':16s}  {'taken':>6s}  {'on s (q1 med q3)':22s}  "
          f"{'off s (q1 med q3)':22s}  {'off/on per pair':22s}  slower  verdict")
    for path in FAST_PATHS:
        for name, workload in WORKLOADS.items():
            _census_row(path, name, workload, scale, pairs)
    _stub_scan(reps)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modes = {"build": build, "probe": probe, "ranks": ranks, "groupby": groupby, "census": census}
    parser.add_argument("which", choices=tuple(modes))
    parser.add_argument("--reps", type=int, default=11)
    census_args = parser.add_argument_group("census")
    census_args.add_argument("--pairs", type=int, default=10)
    census_args.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.which == "census":
        census(args.reps, args.pairs, args.scale)
    else:
        modes[args.which](args.reps)


if __name__ == "__main__":
    main()
