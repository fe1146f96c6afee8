"""The mutation matrix: which gate catches a broken protocol, a lost
replay guarantee or a malformed trace?

Each cell of :data:`CELLS` breaks one clause at one real ``src/`` site
with anchored ``(old, new)`` edits — an anchor that does not match
exactly once is an :class:`AnchorError`, never a silently skipped cell —
and records which gate notices.  Cells come in five families, one
results file each (``results/MUTATION_<family>.json``):

* ``protocol``: the Section 4.1 joiner loop and the server around it
  keep five protocols: a cache entry stays pinned while in use
  (``pin``), prefetch staging is taken or cancelled (``stage``), an
  admission slot is handed back (``slot``), an event reaches exactly one
  terminal (``event``), and a byte ledger is credited only after its
  transfer (``ledger``);
* ``determinism``: one or more cells per rule the deleted ``simlint``
  linter had (the clause is the rule id) — a wall clock or an unseeded
  generator, a set iterated into a schedule, a float sum over a set, a
  leaked event, a ``yield`` in an ``except Interrupt`` handler, a
  container mutated while iterated, an unobserved ``fail_after``, a raw
  ``heapq`` push;
* ``trace``: a span never closed, a flow event with no source, an ops
  log written out of ``seq`` order;
* ``answers``: each data-path fast path that computes an answer more
  cheaply — counted ranks and radix order in ``key_ids``/``id_order``,
  the kernel's direct-address table, the counted GROUP BY and its
  exact-sum and ``-0.0`` rules, a scan counting a chunk inside its
  box whole, the SELECT's whole-answer sink, Grace Hash's ``-0.0`` key
  normalisation, a view query's box pushdown and a serve's join
  buffer, whose answers land after the query completed — broken where
  it decides, so that a wrong answer or a wrong path shows.  It runs its
  own suite, :data:`ANSWERS_SUITE`, and has only a ``change`` side.
* ``folds``: each running fold of the observatory — the reuse trace's
  miss back-fill, its stop at an unresolved miss, the LRU stack carried
  across blocks and the working set's window index, the gauge roll's
  segment weight and the counter horizon — broken where it folds, and
  which lifecycle kind increments which server counter.  It runs
  :data:`FOLDS_SUITE`, whose oracles are the frozen reuse and time-series
  references and a recount of the lifecycle channel.  A test file that
  was merged into another is named in :data:`SUCCESSORS`, so a catch it
  recorded on the ``parent`` side is owed by its successor on the
  ``change`` side.

Two columns per cell and side:

* the *lint* column: for ``trace``, the validators (:data:`VALIDATED`)
  that flag the CI smoke artifacts (:data:`ARTIFACT_RUNS`) regenerated
  from the edited tree and not those of the unedited one.  The other
  families have no static tool and record ``[]``; the ``parent``
  columns of ``protocol`` and ``determinism`` keep what the simlint
  rules flagged while they existed;
* the *runtime* column: the test files of the family's suite (for all
  but ``answers`` and ``folds``, :data:`SUITE`: the sanitizer, the QES
  contract, chaos quiescence, the fence, ...) with at least one
  failing test, and how many.  A cell with ``hashseeds`` runs the suite
  once per ``PYTHONHASHSEED`` and is caught only if every seed fails a
  test (the per-seed counts are kept under ``hashseeds``).  Every run
  passes pytest the one :data:`HYPOTHESIS_SEED`, so a property draws the
  same examples in ``measure`` and in ``check``, and loads
  ``benchmarks/mutation_plugin.py``, so a failing property neither
  shrinks nor explains its example.

::

    python benchmarks/protocol_mutations.py measure --tree PARENT --side parent --cell trace
    python benchmarks/protocol_mutations.py measure --side change --cell determinism
    python benchmarks/protocol_mutations.py check

``measure`` copies a tree (``src``, ``tests``, ``benchmarks``,
``examples``, ``pyproject.toml``) into a scratch directory, runs each
measured family's suite there unedited (it must pass), then per cell applies the
edits, fills both columns and restores the file; they go under
``cells[name][side]`` of the cell's family file, other sides untouched.
A suite run that outlives :data:`TIMEOUT_S` is *not caught, timed out*:
``measure`` records no failing file for it (and ``timed_out``).  ``check``
re-runs each cell's recorded ``change`` test files against this tree,
prints each file's recorded and current failure counts, and exits 1
naming every recorded file that no longer fails a test (a cell with none
recorded escapes every gate) and every cell whose run timed out; with
``--counts`` also every file whose failure count is not the recorded
one.  ``--cell``
(repeatable) takes a cell name or a family name and restricts either
command.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
FAMILIES = ("protocol", "determinism", "trace", "answers", "folds")

#: what a cell's test run imports and reads, copied per measured tree
TREE = ("src", "tests", "benchmarks", "examples", "pyproject.toml")

#: the runtime gates: every suite that drives a QES, a server or the fence
SUITE = (
    "tests/server",
    "tests/joins",
    "tests/faults",
    "tests/services",
    "tests/core",
    "tests/analysis/test_sanitizer.py",
    "tests/test_determinism.py",
    "tests/test_invariants.py",
    "tests/test_fence.py",
)

#: the answers family's gates: the kernel, key, scan, aggregate and SQL
#: suites, whose oracles compare answers byte for byte, and the fence
ANSWERS_SUITE = (
    "tests/joins",
    "tests/datamodel",
    "tests/query",
    "tests/test_fence.py",
)


#: the folds family's gates: the reuse and time-series suites and the
#: server tests that read the folded tracks and the reuse payload
FOLDS_SUITE = (
    "tests/observe",
    "tests/telemetry",
    "tests/server/test_counter_tracks.py",
    "tests/server/test_cache_gauges.py",
    "tests/server/test_observed_memory.py",
    "tests/server/test_reuse_observatory.py",
)

#: per family, each test file merged into another -> the file its tests
#: went to; a parent-side catch of the first is owed by the second
SUCCESSORS: Dict[str, Dict[str, str]] = {
    "folds": {
        "tests/telemetry/test_counter_fold.py": "tests/telemetry/test_timeseries.py",
        "tests/telemetry/test_gauge_roll.py": "tests/telemetry/test_timeseries.py",
    },
}


def suite_of(family: str) -> Tuple[str, ...]:
    return {"answers": ANSWERS_SUITE, "folds": FOLDS_SUITE}.get(family, SUITE)


#: the one Hypothesis seed of every suite run: a property that draws
#: afresh per run would catch a mutant in one run and miss it in the next
HYPOTHESIS_SEED = "0"


#: per test run; a mutation that hangs the suite is not caught, timed out
TIMEOUT_S = 900

#: the CI smoke runs ("Traced smoke run", "Observed serve smoke run")
#: whose artifacts the trace family's validators read
ARTIFACT_RUNS = (
    ("trace", "--grid", "16,16", "--p", "4,4", "--q", "4,4", "--storage", "2",
     "--compute", "2", "--out", "traces/run.json"),
    ("trace", "--grid", "16,16", "--p", "4,4", "--q", "4,4", "--storage", "2",
     "--compute", "2", "--replication", "2", "--faults",
     "seed=7,transient=0.2,storage_crash=0.05", "--sanitize",
     "--out", "traces/faulted.json"),
    ("serve", "--grid", "16,16", "--p", "4,4", "--q", "2,2", "--storage", "2",
     "--compute", "2", "--seed", "7", "--functional", "--replication", "2",
     "--faults", "seed=7,storage_crash=0.3", "--sanitize", "--observe",
     "--json-out", "observatory/report.json",
     "--oplog-out", "observatory/ops.jsonl"),
)

#: ``repro.telemetry.validate`` function → the artifacts it reads
VALIDATED = {
    "validate_chrome_trace": (
        "traces/run.ij.json", "traces/run.gh.json",
        "traces/faulted.ij.json", "traces/faulted.gh.json",
    ),
    "validate_oplog": ("observatory/ops.jsonl",),
    "validate_report": ("observatory/report.json",),
}


class AnchorError(ValueError):
    """A cell's anchor no longer matches its file exactly once."""


@dataclass(frozen=True)
class Cell:
    name: str
    clause: str
    #: file under ``src/repro`` and the function the edits break
    file: str
    site: str
    mutation: str
    edits: Tuple[Tuple[str, str], ...]
    #: what a reader of the matrix needs beyond the columns
    note: str = ""
    family: str = "protocol"
    #: ``PYTHONHASHSEED`` values the suite runs under; caught only if
    #: every one of them fails a test
    hashseeds: Tuple[str, ...] = ()


CELLS: Tuple[Cell, ...] = (
    Cell(
        "pin/ij-joiner/never-closed", "pin", "joins/indexed_join.py",
        "IndexedJoinQES._joiner",
        "the joiner's `with cache.pin_scope()` becomes a bare scope nobody "
        "closes: the per-pair `release()` still runs, so the pins of the pair "
        "in hand leak only when a fault unwinds the loop",
        (("with cache.pin_scope() as scope:",
          "for scope in (cache.pin_scope(),):"),),
    ),
    Cell(
        "pin/ij-joiner/normal-path-close", "pin", "joins/indexed_join.py",
        "IndexedJoinQES._joiner",
        "a bare scope, closed only when the joiner completes its pair loop "
        "normally",
        (("with cache.pin_scope() as scope:",
          "for scope in (cache.pin_scope(),):"),
         ("                    progress[0] = seq + 1\n",
          "                    progress[0] = seq + 1\n"
          "                scope.close()\n")),
    ),
    Cell(
        "pin/ij-joiner/pair-pins-kept", "pin", "joins/indexed_join.py",
        "IndexedJoinQES._joiner",
        "the per-pair `scope.release()` is dropped: a joiner carries every "
        "pair's pins into the next until its scope closes",
        (("                    scope.release()\n", ""),),
        note=(
            "no parent column: the parent tree opened one scope per pair, so "
            "there was no per-pair release to drop"
        ),
    ),
    Cell(
        "pin/scan-driver/normal-path-close", "pin", "joins/scan.py",
        "ScanQES._driver",
        "a bare scope, closed only when the scan completes normally",
        (("        ), nullcontext() if cache is None else cache.pin_scope() as scope:\n",
          "        ):\n            scope = None if cache is None else cache.pin_scope()\n"),
         ("                    self.selected += int(bbox_mask(value, self.where).sum())\n",
          "                    self.selected += int(bbox_mask(value, self.where).sum())\n"
          "            if scope is not None:\n"
          "                scope.close()\n")),
    ),
    Cell(
        "stage/prefetch-pair/unwind-cancel", "stage", "joins/indexed_join.py",
        "IndexedJoinQES._prefetch_pair",
        "the `except BaseException` arm drops its `prefetch_cancel`",
        (("                    # back — reservations don't survive their prefetcher\n"
          "                    cache.prefetch_cancel(sid)\n",
          "                    # back — reservations don't survive their prefetcher\n"),),
    ),
    Cell(
        "stage/prefetch-pair/fault-cancel", "stage", "joins/indexed_join.py",
        "IndexedJoinQES._prefetch_pair",
        "the `except FaultError` arm drops its `prefetch_cancel`",
        (("                    rec.wasted_seconds += cluster.engine.now - t0\n"
          "                    cache.prefetch_cancel(sid)\n",
          "                    rec.wasted_seconds += cluster.engine.now - t0\n"),),
    ),
    Cell(
        "stage/ij-joiner/unwind-take", "stage", "joins/indexed_join.py",
        "IndexedJoinQES._joiner",
        "a killed joiner no longer takes back what was staged for its pairs",
        (("                    for sid in pair:\n"
          "                        cache.take_prefetched(sid)\n",
          "                    for sid in pair:\n"
          "                        pass\n"),),
    ),
    Cell(
        "slot/dispatcher/yield-before-grant", "slot", "server/server.py",
        "QueryServer._dispatcher",
        "a `yield` between taking the slot and `admitted.succeed()`",
        (("                self._slots_free -= 1\n"
          "                entry.admitted_at = engine.now\n",
          "                self._slots_free -= 1\n"
          "                yield engine.timeout(0)\n"
          "                entry.admitted_at = engine.now\n"),),
    ),
    Cell(
        "slot/await-admission/hand-back", "slot", "server/server.py",
        "QueryServer._await_admission",
        "the same-instant hand-back drops its `+= 1`",
        (("                self._slots_free += 1\n"
          "                self._kick()\n"
          "            else:\n",
          "                self._kick()\n"
          "            else:\n"),),
    ),
    Cell(
        "slot/finalize/never-release", "slot", "server/server.py",
        "QueryServer._finalize",
        "`release_slot=True` no longer returns the slot",
        (("        if release_slot:\n            self._slots_free += 1\n",
          "        if release_slot:\n            pass\n"),),
    ),
    Cell(
        "slot/supervise/top-of-loop-deadline", "slot", "server/server.py",
        "QueryServer._supervise",
        "the top-of-loop `deadline_ev.triggered` finalize drops `release_slot=True`",
        (('retries=attempt - 1, note="deadline", release_slot=True,',
          'retries=attempt - 1, note="deadline",'),),
        note=(
            "reachable under the fifo tie-break: a positive deadline below half "
            "an ulp of its arrival time (at + deadline == at), delivered while "
            "the dispatcher's wake is already pending, fires after the admission "
            "race settles for the slot and before the lifecycle resumes; "
            "test_absorbed_deadline_returns_the_slot pins the hand-back"
        ),
    ),
    Cell(
        "event/guard-transfer/crash-guard", "event", "faults/injector.py",
        "FaultInjector.guard_transfer",
        "`on_crash` drops its `out.triggered` guard",
        (("            if out.triggered:\n"
          "                return  # transfer completed at this same instant first\n",
          ""),),
    ),
    Cell(
        "event/guard-transfer/never-triggered", "event", "faults/injector.py",
        "FaultInjector.guard_transfer",
        "the transfer callback never triggers the guarded event",
        (("        def on_transfer(ev: Event) -> None:\n            if out.triggered:\n",
          "        def on_transfer(ev: Event) -> None:\n            if True:\n"),),
    ),
    Cell(
        "event/dispatcher/wake-unset", "event", "server/server.py",
        "QueryServer._dispatcher",
        "the park event is never published as `self._wake`",
        (("            self._wake = wake\n", ""),),
    ),
    Cell(
        "ledger/prefetch-pair/credit-early", "ledger", "joins/indexed_join.py",
        "IndexedJoinQES._prefetch_pair",
        "`bytes_from_storage` credited before `yield transfer`",
        (("                try:\n"
          "                    yield transfer\n"
          "                except FaultError as exc:\n",
          "                report.bytes_from_storage += desc.size\n"
          "                try:\n"
          "                    yield transfer\n"
          "                except FaultError as exc:\n"),
         ("                pb.transfer += cluster.engine.now - t0\n"
          "                report.bytes_from_storage += desc.size\n",
          "                pb.transfer += cluster.engine.now - t0\n")),
    ),
    Cell(
        "ledger/transfer-with-recovery/credit-early", "ledger", "joins/qes.py",
        "QES._transfer_with_recovery",
        "`bytes_from_storage` credited before `yield transfer`",
        (("                try:\n"
          "                    yield transfer\n"
          "                except TransientTransferFault:\n",
          "                report.bytes_from_storage += size\n"
          "                try:\n"
          "                    yield transfer\n"
          "                except TransientTransferFault:\n"),
         ("                pb.stall += dt  # the control loop waits out every byte\n"
          "                report.bytes_from_storage += size\n",
          "                pb.stall += dt  # the control loop waits out every byte\n")),
    ),
    Cell(
        "ledger/gh-ship-batch/no-credit", "ledger", "joins/grace_hash.py",
        "GraceHashQES._ship_batch",
        "a shipped batch is never credited to `bytes_from_storage`",
        (("            report.bytes_from_storage += nbytes\n", ""),),
    ),
    # -- determinism: at least one cell per former simlint rule -------------------
    Cell(
        "D001/dispatcher/wall-clock-admission", "D001", "server/server.py",
        "QueryServer._dispatcher",
        "a query's admission time is the host's wall clock, not `engine.now`",
        (("import hashlib\n", "import hashlib\nimport time\n"),
         ("                entry.admitted_at = engine.now\n",
          "                entry.admitted_at = time.time()\n")),
        family="determinism",
    ),
    Cell(
        "D001/generator/unseeded-values", "D001", "workloads/generator.py",
        "make_grid_partitions",
        "the value columns are drawn from an unseeded `default_rng()`",
        (("    rng = np.random.default_rng(seed)\n",
          "    rng = np.random.default_rng()\n"),),
        family="determinism",
    ),
    Cell(
        "D002/join-index/ordinals-from-set", "D002", "joins/join_index.py",
        "_ordinals",
        "the distinct sub-table ids, which order the join index's pairs and "
        "so the schedule, come out of a set unsorted",
        (("    distinct = sorted(set(ids))\n",
          "    distinct = [sid for sid in set(ids)]\n"),),
        family="determinism", hashseeds=("0", "1"),
    ),
    Cell(
        "D002/chrome-trace/node-pids-from-set", "D002", "telemetry/export.py",
        "chrome_trace",
        "trace process ids are handed out in the hash order of a set of "
        "node names",
        (("    nodes = sorted({_span_node(tel, s) for s in spans}, key=_node_sort_key)\n",
          "    nodes = [n for n in {_span_node(tel, s) for s in spans}]\n"),),
        family="determinism", hashseeds=("0", "1"),
    ),
    Cell(
        "D003/latency/mean-over-set", "D003", "telemetry/latency.py",
        "LatencyTracker.summary",
        "a served report's mean latency sums a set of the samples",
        (('                "mean": sum(vals) / len(vals),\n',
          '                "mean": sum(set(vals)) / len(vals),\n'),),
        family="determinism", hashseeds=("0", "1"),
    ),
    Cell(
        "P001/injector/crash-signal-leaked", "P001", "faults/injector.py",
        "FaultInjector.__init__",
        "a storage node's crash signal is created but never registered, so "
        "nothing can trigger it and no transfer waits on it",
        (("                self._storage_crash_events[node] = self.engine.event()\n",
          "                crash_signal = self.engine.event()\n"),),
        family="determinism",
    ),
    Cell(
        "P002/ij-driver/yield-in-interrupt", "P002", "joins/indexed_join.py",
        "IndexedJoinQES._driver",
        "the dead-joiner handler waits a zero timeout before reassigning its "
        "pairs",
        (("                # the dead joiner handed back what its prefetchers had\n",
          "                yield cluster.engine.timeout(0)\n"
          "                # the dead joiner handed back what its prefetchers had\n"),),
        family="determinism",
    ),
    Cell(
        "P003/cache/invalidate-over-live-dict", "P003", "services/cache.py",
        "CachingService.invalidate_from",
        "the victims are popped from the entry dict the loop walks",
        (("        for key in victims:\n"
          "            self.remove(key)\n",
          "        for key in self._entries:\n"
          "            if key in victims:\n"
          "                entry = self._entries.pop(key)\n"
          "                self._bytes -= entry.nbytes\n"
          "                self.policy.on_remove(key)\n"
          "                if self._subscribers:\n"
          '                    self._emit("drop", key, entry.nbytes)\n'),),
        family="determinism",
    ),
    Cell(
        "P004/injector/dead-node-refusal-dropped", "P004", "faults/injector.py",
        "FaultInjector.check_storage",
        "the fail-fast `fail_after` for a dead storage node is created and "
        "discarded instead of returned",
        (("            return self.engine.fail_after(0.0, StorageNodeDown(node))\n",
          "            self.engine.fail_after(0.0, StorageNodeDown(node))\n"),),
        family="determinism",
    ),
    Cell(
        "C001/spf-admission/raw-heappush", "C001", "server/admission.py",
        "ShortestPredictedFirst.submit",
        "the shortest-predicted-first queue is a raw `heapq` heap popped "
        "from the front",
        (("from bisect import insort\n", "from heapq import heappush\n"),
         ("        insort(self._queue, (entry.predicted_time, entry.qid, entry))\n",
          "        heappush(self._queue, (entry.predicted_time, entry.qid, entry))\n")),
        family="determinism",
    ),
    # -- trace: what the Chrome-trace and ops-log validators exist to catch -------
    Cell(
        "trace/gh-partition/span-never-closed", "span", "joins/grace_hash.py",
        "GraceHashQES._driver",
        "the partition-phase span is never finished",
        (("        if tel is not None:\n"
          "            tel.recorder.finish(self.pspan)\n",
          "        if tel is not None:\n"
          "            pass\n"),),
        family="trace",
    ),
    Cell(
        "trace/export/flow-without-source", "flow", "telemetry/export.py",
        "chrome_trace",
        "a follows-from edge exports its flow end (`ph: f`) without the start",
        (('            events.append(\n'
          '                {\n'
          '                    "name": "follows-from",\n'
          '                    "cat": "flow",\n'
          '                    "ph": "s",\n'
          '                    "id": flow_id,\n'
          '                    "ts": min(ts, _us(src.end)),\n'
          '                    "pid": pid_of[src_node],\n'
          '                    "tid": tid_of[(src_node, src.track)],\n'
          '                }\n'
          '            )\n', ''),),
        family="trace",
    ),
    Cell(
        "trace/oplog/written-out-of-seq", "oplog", "telemetry/oplog.py",
        "OpLog.to_jsonl",
        "the ops log is written sorted by (t, event), not in `seq` order",
        (('            json.dumps(record, sort_keys=True) + "\\n" for record in self.records\n',
          '            json.dumps(record, sort_keys=True) + "\\n"\n'
          '            for record in sorted(self.records, key=lambda r: (r["t"], r["event"]))\n'),),
        family="trace",
    ),
    # -- answers: each kept data-path fast path, broken where it decides --------
    Cell(
        "keys/counted-ranks/offset", "ranks", "datamodel/keys.py", "_counted_ranks",
        "a holed span's running count of flags starts at 1: every rank is one "
        "too high, so the largest equals the base and spills into the next digit",
        (("    rank_of = np.cumsum(seen, dtype=np.intp) - 1\n",
          "    rank_of = np.cumsum(seen, dtype=np.intp)\n"),),
        family="answers",
    ),
    Cell(
        "keys/radix/high-digit-dropped", "radix", "datamodel/keys.py", "id_order",
        "ids below 2**32 are sorted by their low 16 bits only",
        (("        return order[np.argsort((ids[order] >> 16).astype(np.uint16), "
          "kind=\"stable\")]\n",
          "        return order\n"),),
        family="answers",
    ),
    Cell(
        "kernel/direct-address/skip-readback", "direct", "joins/hash_join.py",
        "_direct_probe",
        "the uniqueness read-back is skipped: of two left rows sharing an id "
        "the later one overwrites the slot and the earlier never matches",
        (("    if not np.array_equal(slot[lkeys], rows):\n        return None\n", ""),),
        family="answers",
    ),
    Cell(
        "kernel/direct-address/span-bound-off-by-one", "direct", "joins/hash_join.py",
        "_direct_probe",
        "an id space of exactly `_DIRECT_SPACE` times the ids is refused the "
        "table; the answer is the same, the path is not",
        (("    if space > _DIRECT_SPACE * (len(lkeys) + len(rkeys)):\n",
          "    if space >= _DIRECT_SPACE * (len(lkeys) + len(rkeys)):\n"),),
        family="answers",
    ),
    Cell(
        "groupby/counted/inexact-sum-taken", "groupby", "query/aggregate.py",
        "_exact_sums",
        "every value column counts as exact: a SUM that rounds, a NaN or an "
        "infinity is counted in record order instead of summed pairwise",
        (("    return bound < math.inf and np.array_equal(np.floor(magnitude / unit) * unit, "
          "magnitude)\n", "    return True\n"),),
        family="answers",
    ),
    Cell(
        "groupby/counted/neg-zero-sign", "groupby", "query/aggregate.py", "_counted",
        "a counted group of only `-0.0` values sums to `+0.0`",
        (("        if not sums.all():  # an exact zero is -0.0 when every value was -0.0\n"
          "            negative = np.bincount(ids, weights=np.signbit(values))[present]\n"
          "            sums[(sums == 0) & (negative == counts)] = -0.0\n", ""),),
        family="answers",
    ),
    Cell(
        "scan/whole-chunk-count/overlaps-not-contains", "scan", "joins/scan.py",
        "ScanQES._driver",
        "a chunk whose bounds merely cross the box counts whole",
        (("                elif self.where.contains_box(desc.bbox):\n",
          "                elif self.where.overlaps(desc.bbox):\n"),),
        family="answers",
    ),
    Cell(
        "sql/whole-sink/offset", "sink", "query/executor.py", "QueryExecutor._scan",
        "the whole-answer sink's write offset lags a record behind each chunk: "
        "every chunk overwrites the last record of the one before",
        (("                at = end\n", "                at = end - 1\n"),),
        family="answers",
    ),
    Cell(
        "grace-hash/neg-zero/unnormalised", "neg-zero", "joins/grace_hash.py",
        "hash_records",
        "a float key's `-0.0` is hashed by its own bits, so it reaches another "
        "joiner or bucket than the `0.0` it joins",
        (("        if col.dtype.kind == \"f\":\n"
          "            col = col + col.dtype.type(0)  # -0.0 + 0.0 is 0.0; all else as it was\n",
          ""),),
        family="answers",
    ),
    Cell(
        "view/pushdown/into-aggregation-view", "pushdown", "core/engine.py",
        "DerivedDataSource.execute",
        "a box is pushed into an aggregation view's join, so its WHERE filters "
        "the records the groups aggregate instead of the groups",
        (("        if box is not None and isinstance(view, JoinView):\n",
          "        if box is not None and isinstance(view, AggregationView):\n"
          "            view = replace(view, source=replace(\n"
          "                view.source, where=self._prunable(box) or None))\n"
          "        if box is not None and isinstance(view, JoinView):\n"),),
        family="answers",
    ),
    Cell(
        "view/pushdown/disjoint-box-runs-qes", "pushdown", "core/engine.py",
        "DerivedDataSource.execute",
        "a box disjoint from the view's range runs the whole view's QES, "
        "its range dropped",
        (("                if where is None:\n"
          "                    empty = SubTable.empty(SubTableId(-1, 0), self.schema)\n"
          "                    return QueryResult(table=empty, report=None, plan=None)\n",
          ""),),
        family="answers",
    ),
    Cell(
        "serve/join-buffer/final-flush-lost", "flush", "server/server.py",
        "QueryServer.serve",
        "the join buffer is not flushed when the serve ends: each completed "
        "Indexed Join whose pairs still wait there reports no answer",
        (("            )\n        self._flush_joins()\n", "            )\n"),),
        family="answers",
    ),
    # -- folds: each running fold of the observatory, broken where it folds ---
    Cell(
        "backfill/earlier-fold/fallback-zero", "backfill", "observe/reuse.py", "_backfill",
        "a miss with no size after it and none before it in its block takes 0, "
        "not the last size its key had in an earlier fold",
        (("np.where(key[prv] == key[:-1], size[prv], np.maximum(before[order], 0)),\n",
          "np.where(key[prv] == key[:-1], size[prv], 0),\n"),),
        family="folds",
    ),
    Cell(
        "fold/unresolved-miss/folded-early", "fold", "observe/reuse.py",
        "AccessTraceRecorder._fold",
        "a fold takes every buffered row, so a miss whose put has not come yet "
        "is folded at its provisional size",
        (("            upto = n if final or known.all() else int(np.argmin(known))\n",
          "            upto = n\n"),),
        family="folds",
    ),
    Cell(
        "lru/block-carry/stack-dropped", "lru", "observe/reuse.py", "_fold_stacks",
        "no key stays on an access string's LRU stack past its block: the first "
        "re-access in each later block is a compulsory miss",
        (("        keep = resident[np.searchsorted(resident, begin) : "
          "np.searchsorted(resident, end)]\n",
          "        keep = resident[:0]\n"),),
        family="folds",
    ),
    Cell(
        "working-set/window-index/rounded", "window", "observe/reuse.py", "_WorkingSet.add",
        "an access goes to the nearest window edge's window, not the window "
        "holding it: the second half of each window counts in the next",
        (("        index = (t / self.width).astype(np.int64)\n",
          "        index = np.rint(t / self.width).astype(np.int64)\n"),),
        family="folds",
    ),
    Cell(
        "gauge/segment-weight/whole-segment", "gauge", "telemetry/timeseries.py",
        "roll_gauge",
        "a segment weighs its level by its whole length in every window it "
        "overlaps, not by the overlap",
        (("                weighted += value * (hi - lo)\n",
          "                weighted += value * (s1 - s0)\n"),),
        family="folds",
    ),
    Cell(
        "horizon/counts/past-horizon-dropped", "horizon", "telemetry/timeseries.py",
        "horizon_counts",
        "counts in windows past the horizon are dropped instead of joining its "
        "final window, so a counter's windows no longer sum to its total",
        (("+ [sum(counts[windows - 1 :])]\n", "+ [sum(counts[windows - 1 : windows])]\n"),),
        family="folds",
    ),
    Cell(
        "wiring/lifecycle-track/admit-as-submitted", "wiring", "server/observatory.py",
        "ServeObservatory.__call__",
        "an admission is counted under `server.submitted`, not `server.admitted`: "
        "each track still rolls its increments right, but the wrong lifecycle "
        "kind feeds it",
        (('            series.inc("server.admitted")\n',
          '            series.inc("server.submitted")\n'),),
        family="folds",
    ),
)

CELLS_BY_NAME = {cell.name: cell for cell in CELLS}


def mutate(text: str, cell: Cell) -> str:
    """``text`` with every edit of ``cell`` applied, each anchor checked."""
    for old, new in cell.edits:
        found = text.count(old)
        if found != 1:
            raise AnchorError(
                f"{cell.name}: anchor matches {found} times in {cell.file}, "
                f"not once: {old.strip()!r}"
            )
        text = text.replace(old, new)
    return text


def copy_tree(tree: str, dest: str) -> None:
    for name in TREE:
        src = os.path.join(tree, name)
        if os.path.isdir(src):
            shutil.copytree(
                src, os.path.join(dest, name),
                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"),
            )
        else:
            shutil.copy2(src, os.path.join(dest, name))
    # this harness's plugin, which an older measured tree may not have
    shutil.copy2(os.path.join(HERE, "mutation_plugin.py"), os.path.join(dest, "benchmarks"))


def _env(root: str, hashseed: Optional[str] = None) -> Dict[str, str]:
    # no bytecode: a restored file must never be shadowed by a stale .pyc
    env = dict(
        os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1"
    )
    if hashseed is not None:
        env["PYTHONHASHSEED"] = hashseed
    return env


def run_tests(
    root: str, paths: Sequence[str], hashseed: Optional[str] = None
) -> Optional[Dict[str, int]]:
    """Failing (or erroring) tests per file of ``paths`` run under ``root``;
    ``None`` when the run outlived :data:`TIMEOUT_S`."""
    with tempfile.TemporaryDirectory(prefix="mutation-junit-") as tmp:
        xml = os.path.join(tmp, "junit.xml")
        try:
            subprocess.run(
                [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                 "-p", "benchmarks.mutation_plugin", f"--hypothesis-seed={HYPOTHESIS_SEED}",
                 "-o", "junit_family=xunit1", f"--junitxml={xml}", *paths],
                cwd=root, env=_env(root, hashseed), capture_output=True,
                check=False, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None
        failed: Counter = Counter()
        for case in ET.parse(xml).iter("testcase"):
            if case.find("failure") is not None or case.find("error") is not None:
                failed[case.get("file") or "<collection>"] += 1
    return dict(sorted(failed.items()))


def run_cell_tests(
    root: str, paths: Sequence[str], cell: Cell
) -> Tuple[Optional[Dict[str, int]], Dict[str, Dict[str, int]]]:
    """The cell's runtime column, and per hash seed what it was drawn from:
    empty unless every one of ``cell.hashseeds`` fails a test, else each
    file that failed under some seed with its largest count; ``None`` if
    a run timed out."""
    if not cell.hashseeds:
        return run_tests(root, paths), {}
    per_seed = {seed: run_tests(root, paths, seed) for seed in cell.hashseeds}
    if any(failed is None for failed in per_seed.values()):
        return None, {}
    if not all(per_seed.values()):
        return {}, per_seed
    files = sorted(set().union(*per_seed.values()))
    return {f: max(failed.get(f, 0) for failed in per_seed.values()) for f in files}, per_seed


#: run in the measured tree: each ``VALIDATED`` function it still has →
#: how many violations it finds over its artifacts (a missing one: none)
_VALIDATE = """
import json, sys
from repro.telemetry import validate
out = {}
for name, paths in json.loads(sys.argv[1]).items():
    check = getattr(validate, name, None)
    if check is None:
        continue
    out[name] = 0
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                if path.endswith(".jsonl"):
                    doc = [json.loads(line) for line in fh if line.strip()]
                else:
                    doc = json.load(fh)
        except (OSError, ValueError):
            continue
        out[name] += len(check(doc))
print(json.dumps(out))
"""


def validator_counts(root: str) -> Counter:
    """Violations per validator over the CI smoke artifacts, regenerated
    from ``root``'s ``src``; the keys are the validators ``root`` has."""
    with tempfile.TemporaryDirectory(prefix="mutation-artifacts-") as out:
        for path in {os.path.dirname(p) for ps in VALIDATED.values() for p in ps}:
            os.makedirs(os.path.join(out, path))
        for argv in ARTIFACT_RUNS:
            subprocess.run(
                [sys.executable, "-m", "repro", *argv], cwd=out, env=_env(root),
                capture_output=True, check=False, timeout=TIMEOUT_S,
            )
        proc = subprocess.run(
            [sys.executable, "-c", _VALIDATE, json.dumps(VALIDATED)],
            cwd=out, env=_env(root), capture_output=True, text=True, check=True,
        )
    return Counter(json.loads(proc.stdout))


def tool_counts(root: str, cell: Cell) -> Counter:
    """What the cell's family's static tool reports on the current tree:
    only ``trace`` has one."""
    return validator_counts(root) if cell.family == "trace" else Counter()


@contextmanager
def mutated(root: str, cell: Cell) -> Iterator[str]:
    """``root``'s copy of the cell's file, edited for the ``with`` body and
    restored after it; yields the file's path."""
    path = os.path.join(root, "src", "repro", cell.file)
    with open(path, encoding="utf-8") as fh:
        original = fh.read()
    edited = mutate(original, cell)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edited)
    try:
        yield path
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(original)


def _select(names: Optional[Sequence[str]]) -> List[Cell]:
    """Cells by name or by family, in :data:`CELLS` order."""
    if not names:
        return list(CELLS)
    unknown = sorted(set(names) - set(CELLS_BY_NAME) - set(FAMILIES))
    if unknown:
        raise SystemExit(f"unknown cell(s): {', '.join(unknown)}")
    return [c for c in CELLS if c.name in names or c.family in names]


def results_path(family: str) -> str:
    return os.path.join(HERE, "results", f"MUTATION_{family}.json")


def load_results(family: str) -> dict:
    path = results_path(family)
    if not os.path.exists(path):
        return {"suite": list(suite_of(family)), "sides": {}, "cells": {}}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def measure(tree: str, side: str, cells: List[Cell]) -> int:
    families = sorted({cell.family for cell in cells}, key=FAMILIES.index)
    results = {family: load_results(family) for family in families}
    with tempfile.TemporaryDirectory(prefix="mutation-tree-") as root:
        copy_tree(tree, root)
        for seed in sorted({None, *(s for c in cells for s in c.hashseeds)}, key=str):
            for suite in sorted({suite_of(family) for family in families}):
                clean = run_tests(root, suite, seed)
                if clean is None or clean:
                    what = "times out" if clean is None else f"fails: {clean}"
                    print(f"the unedited suite {what} (PYTHONHASHSEED={seed})", file=sys.stderr)
                    return 1
        for family in families:
            rules = sorted(validator_counts(root)) if family == "trace" else []
            results[family]["sides"][side] = {"rules": rules}
            if family in SUCCESSORS:
                results[family]["successors"] = SUCCESSORS[family]
        for cell in cells:
            before = tool_counts(root, cell)
            with mutated(root, cell):
                after = tool_counts(root, cell)
                failed, per_seed = run_cell_tests(root, suite_of(cell.family), cell)
            flagged = sorted(rule for rule in after if after[rule] > before[rule])
            row = results[cell.family]["cells"].setdefault(cell.name, {})
            row.update(
                clause=cell.clause, site=f"{cell.file} {cell.site}",
                mutation=cell.mutation, note=cell.note,
            )
            row[side] = {"lint": flagged, "failed": failed or {}}
            if failed is None:
                row[side]["timed_out"] = TIMEOUT_S
            if per_seed:
                row[side]["hashseeds"] = per_seed
            caught = (f"not caught, timed out after {TIMEOUT_S} s" if failed is None else
                      f"{sum(failed.values())} failing test(s) in {len(failed)} file(s)")
            print(f"{cell.name}: lint {flagged or '-'}; {caught}", file=sys.stderr)
    for family, data in results.items():
        data["cells"] = dict(sorted(data["cells"].items()))
        with open(results_path(family), "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def check(cells: List[Cell], counts: bool = False) -> int:
    """Re-run each cell against its recorded change-side test files: each
    of them must still fail at least one test, within :data:`TIMEOUT_S`,
    and with ``counts`` exactly as many tests as recorded."""
    rows = {}
    for family in {cell.family for cell in cells}:
        rows.update(load_results(family)["cells"])
    escaped, drifted, timed_out, moved = [], [], [], []
    with tempfile.TemporaryDirectory(prefix="mutation-tree-") as root:
        copy_tree(REPO, root)
        for cell in cells:
            recorded = rows[cell.name]["change"]["failed"]
            with mutated(root, cell):
                failed = run_cell_tests(root, sorted(recorded), cell)[0] if recorded else {}
            if failed is None:
                print(f"{cell.name}: not caught, timed out after {TIMEOUT_S} s")
                timed_out.append(cell.name)
                continue
            print(f"{cell.name}: {sum(failed.values())} failing test(s) in "
                  f"{len(failed)} file(s)")
            for path, count in sorted(recorded.items()):
                now = failed.get(path, 0)
                print(f"  {path}: recorded {count}, now {now}")
                if not now:
                    drifted.append(f"{cell.name} {path}")
                elif counts and now != count:
                    moved.append(f"{cell.name} {path} ({count} -> {now})")
            if not failed:
                escaped.append(cell.name)
    if escaped:
        print(f"{len(escaped)} cell(s) escaped every gate: {', '.join(escaped)}")
    if timed_out:
        print(f"{len(timed_out)} cell(s) not caught, timed out: {', '.join(timed_out)}")
    if moved:
        print(f"{len(moved)} recorded count(s) moved: {'; '.join(moved)}")
    if drifted:
        print(f"{len(drifted)} recorded file(s) no longer fail: {'; '.join(drifted)}")
    if escaped or drifted or timed_out or moved:
        return 1
    print(f"every one of {len(cells)} cell(s) caught by every recorded file")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_measure = sub.add_parser("measure", help="test every cell on one tree")
    p_measure.add_argument("--tree", default=REPO, help="tree to measure (default: this one)")
    p_measure.add_argument("--side", required=True, choices=("parent", "change"))
    p_check = sub.add_parser("check", help="re-run the recorded runtime column")
    p_check.add_argument("--counts", action="store_true",
                         help="also fail when a file's failure count is not the recorded one")
    for p in (p_measure, p_check):
        p.add_argument("--cell", action="append", metavar="NAME|FAMILY")
    args = parser.parse_args(argv)
    cells = _select(args.cell)
    if args.command == "measure":
        return measure(os.path.abspath(args.tree), args.side, cells)
    return check(cells, args.counts)


if __name__ == "__main__":
    sys.exit(main())
