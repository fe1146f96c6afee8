"""The protocol mutation matrix: which gate catches a broken protocol?

The Section 4.1 joiner loop and the server around it keep five
protocols: a cache entry stays pinned while in use (``pin``), prefetch
staging is taken or cancelled (``stage``), an admission slot is handed
back (``slot``), an event reaches exactly one terminal (``event``), and
a byte ledger is credited only after its transfer (``ledger``).  Each
cell of :data:`CELLS` breaks one clause at one real ``src/`` site with
anchored ``(old, new)`` edits — an anchor that does not match exactly
once is an :class:`AnchorError`, never a silently skipped cell — and
records which gate notices:

* the *lint* column: the simlint rules that flag the edited file and
  not the unedited one, with whatever rules the measured tree
  registers;
* the *runtime* column: the test files of :data:`SUITE` (the sanitizer,
  the QES contract, chaos quiescence, the fence, ...) with at least one
  failing test, and how many.

::

    python benchmarks/protocol_mutations.py measure --tree PARENT --side parent
    python benchmarks/protocol_mutations.py measure --side change
    python benchmarks/protocol_mutations.py check

``measure`` copies a tree (``src``, ``tests``, ``benchmarks``,
``examples``, ``pyproject.toml``) into a scratch directory, runs
:data:`SUITE` there unedited (it must pass), then per cell applies the
edits, lints, runs the suite and restores the file; both columns go under
``cells[name][side]`` of ``results/MUTATION_protocol.json``, other sides
untouched.  A suite run that outlives :data:`TIMEOUT_S` counts as caught.
``check`` re-runs only the runtime column: each cell's recorded
``change`` test files against this tree, exit 1 if any cell escapes them.
``--cell NAME`` (repeatable) restricts either command.
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
RESULTS = os.path.join(HERE, "results", "MUTATION_protocol.json")

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

#: per test run; a mutation that hangs the suite is recorded as caught
TIMEOUT_S = 900


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


CELLS: Tuple[Cell, ...] = (
    Cell(
        "pin/ij-joiner/never-closed", "pin", "joins/indexed_join.py",
        "IndexedJoinQES._joiner",
        "the pair's `with cache.pin_scope()` becomes a bare scope nobody closes",
        (("with cache.pin_scope() as scope:",
          "for scope in (cache.pin_scope(),):"),),
    ),
    Cell(
        "pin/ij-joiner/normal-path-close", "pin", "joins/indexed_join.py",
        "IndexedJoinQES._joiner",
        "a bare scope, closed only when the pair completes normally",
        (("with cache.pin_scope() as scope:",
          "for scope in (cache.pin_scope(),):"),
         ("                            probed.append((left_entry, right_entry))\n",
          "                            probed.append((left_entry, right_entry))\n"
          "                        scope.close()\n")),
    ),
    Cell(
        "pin/scan-driver/normal-path-close", "pin", "joins/scan.py",
        "ScanQES._driver",
        "a bare scope, closed only when the scan completes normally",
        (("        ), cache.pin_scope() as scope:\n",
          "        ):\n            scope = cache.pin_scope()\n"),
         ("                    self.selected += int(bbox_mask(value, self.where).sum())\n",
          "                    self.selected += int(bbox_mask(value, self.where).sum())\n"
          "            scope.close()\n")),
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
          "                report.bytes_from_storage += desc.size\n"
          "                try:\n"
          "                    yield transfer\n"
          "                except TransientTransferFault:\n"),
         ("                pb.stall += dt  # the control loop waits out every byte\n"
          "                report.bytes_from_storage += desc.size\n",
          "                pb.stall += dt  # the control loop waits out every byte\n")),
    ),
    Cell(
        "ledger/gh-ship-batch/no-credit", "ledger", "joins/grace_hash.py",
        "GraceHashQES._ship_batch",
        "a shipped batch is never credited to `bytes_from_storage`",
        (("            report.bytes_from_storage += nbytes\n", ""),),
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


def _env(root: str) -> Dict[str, str]:
    # no bytecode: a restored file must never be shadowed by a stale .pyc
    return dict(
        os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1"
    )


def run_tests(root: str, paths: Sequence[str]) -> Dict[str, int]:
    """Failing (or erroring) tests per file of ``paths`` run under ``root``."""
    with tempfile.TemporaryDirectory(prefix="mutation-junit-") as tmp:
        xml = os.path.join(tmp, "junit.xml")
        try:
            subprocess.run(
                [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                 "-o", "junit_family=xunit1", f"--junitxml={xml}", *paths],
                cwd=root, env=_env(root), capture_output=True, check=False,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"<timeout>": 1}
        failed: Counter = Counter()
        for case in ET.parse(xml).iter("testcase"):
            if case.find("failure") is not None or case.find("error") is not None:
                failed[case.get("file") or "<collection>"] += 1
    return dict(sorted(failed.items()))


def lint_counts(root: str, path: str) -> Counter:
    """simlint diagnostics per rule for one file, with ``root``'s rules."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--format", "json", path],
        cwd=root, env=_env(root), capture_output=True, text=True, check=False,
    )
    return Counter(d["rule"] for d in json.loads(proc.stdout or "[]"))


def rule_catalogue(root: str) -> List[str]:
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        cwd=root, env=_env(root), capture_output=True, text=True, check=True,
    )
    return [line.split()[0] for line in proc.stdout.splitlines() if line.strip()]


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
    if not names:
        return list(CELLS)
    unknown = sorted(set(names) - set(CELLS_BY_NAME))
    if unknown:
        raise SystemExit(f"unknown cell(s): {', '.join(unknown)}")
    return [CELLS_BY_NAME[n] for n in names]


def measure(tree: str, side: str, cells: List[Cell]) -> int:
    results = {"suite": list(SUITE), "sides": {}, "cells": {}}
    if os.path.exists(RESULTS):
        with open(RESULTS, encoding="utf-8") as fh:
            results = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="mutation-tree-") as root:
        copy_tree(tree, root)
        clean = run_tests(root, SUITE)
        if clean:
            print(f"the unedited suite fails: {clean}", file=sys.stderr)
            return 1
        results["sides"][side] = {"rules": rule_catalogue(root)}
        for cell in cells:
            before = lint_counts(root, os.path.join(root, "src", "repro", cell.file))
            with mutated(root, cell) as path:
                after = lint_counts(root, path)
                failed = run_tests(root, SUITE)
            flagged = sorted(rule for rule in after if after[rule] > before[rule])
            row = results["cells"].setdefault(cell.name, {})
            row.update(
                clause=cell.clause, site=f"{cell.file} {cell.site}",
                mutation=cell.mutation, note=cell.note,
            )
            row[side] = {"lint": flagged, "failed": failed}
            print(f"{cell.name}: lint {flagged or '-'}; "
                  f"{sum(failed.values())} failing test(s) in {len(failed)} file(s)",
                  file=sys.stderr)
    results["cells"] = dict(sorted(results["cells"].items()))
    with open(RESULTS, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def check(cells: List[Cell]) -> int:
    """Re-run each cell against its recorded change-side test files."""
    with open(RESULTS, encoding="utf-8") as fh:
        rows = json.load(fh)["cells"]
    escaped = []
    with tempfile.TemporaryDirectory(prefix="mutation-tree-") as root:
        copy_tree(REPO, root)
        for cell in cells:
            files = sorted(rows[cell.name]["change"]["failed"])
            with mutated(root, cell):
                failed = run_tests(root, files) if files else {}
            print(f"{cell.name}: {sum(failed.values())} failing test(s) in "
                  f"{', '.join(failed) or 'none'}")
            if not failed:
                escaped.append(cell.name)
    if escaped:
        print(f"{len(escaped)} cell(s) escaped every runtime gate: {', '.join(escaped)}")
        return 1
    print(f"every one of {len(cells)} cell(s) caught")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_measure = sub.add_parser("measure", help="lint and test every cell on one tree")
    p_measure.add_argument("--tree", default=REPO, help="tree to measure (default: this one)")
    p_measure.add_argument("--side", required=True, choices=("parent", "change"))
    p_check = sub.add_parser("check", help="re-run the recorded runtime column")
    for p in (p_measure, p_check):
        p.add_argument("--cell", action="append", metavar="NAME")
    args = parser.parse_args(argv)
    cells = _select(args.cell)
    if args.command == "measure":
        return measure(os.path.abspath(args.tree), args.side, cells)
    return check(cells)


if __name__ == "__main__":
    sys.exit(main())
