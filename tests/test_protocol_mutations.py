"""``benchmarks/protocol_mutations.py``: every cell still applies to this
tree, and each family's committed matrix is complete.  (Running the cells
is CI's job: each one runs a test suite.)"""

import contextlib
import json
from pathlib import Path

import pytest

from benchmarks import protocol_mutations as pm

SRC = Path(pm.REPO) / "src" / "repro"


def committed(family):
    return json.loads(Path(pm.results_path(family)).read_text(encoding="utf-8"))


@pytest.mark.parametrize("cell", pm.CELLS, ids=lambda c: c.name)
def test_every_cell_applies_once_and_compiles(cell):
    original = (SRC / cell.file).read_text(encoding="utf-8")
    mutated = pm.mutate(original, cell)
    assert mutated != original
    compile(mutated, cell.file, "exec")


def test_a_stale_anchor_is_loud():
    cell = pm.CELLS[0]
    with pytest.raises(pm.AnchorError, match="matches 0 times"):
        pm.mutate("", cell)
    text = (SRC / cell.file).read_text(encoding="utf-8")
    with pytest.raises(pm.AnchorError, match="matches 2 times"):
        pm.mutate(text + text, cell)


def test_check_names_a_recorded_file_that_no_longer_fails(monkeypatch, capsys):
    """A cell still caught by one file is not enough: each recorded file
    must still fail a test, or ``check`` names it and exits 1."""
    cell, recorded = pm.CELLS[0], {"tests/a.py": 2, "tests/b.py": 1}
    monkeypatch.setattr(pm, "load_results", lambda f: {"cells": {cell.name: {
        "change": {"failed": recorded}}}})
    monkeypatch.setattr(pm, "copy_tree", lambda tree, dest: None)
    monkeypatch.setattr(pm, "mutated", lambda root, cell: contextlib.nullcontext())
    monkeypatch.setattr(pm, "run_cell_tests", lambda root, files, cell: ({"tests/a.py": 3}, {}))
    assert pm.check([cell]) == 1
    out = capsys.readouterr().out
    assert "tests/a.py: recorded 2, now 3" in out and "tests/b.py: recorded 1, now 0" in out
    assert out.splitlines()[-1] == f"1 recorded file(s) no longer fail: {cell.name} tests/b.py"


def test_a_family_name_selects_its_cells():
    assert pm._select(["trace"]) == [c for c in pm.CELLS if c.family == "trace"]
    assert {c.family for c in pm.CELLS} == set(pm.FAMILIES)


@pytest.mark.parametrize("family", pm.FAMILIES)
def test_each_family_matrix_lists_every_cell_and_both_sides(family):
    """The answers family was recorded on the tree that added it: it has
    only a change side."""
    results = committed(family)
    assert results["suite"] == list(pm.suite_of(family))
    sides = {"change"} if family == "answers" else {"parent", "change"}
    assert set(results["sides"]) == sides
    cells = [cell for cell in pm.CELLS if cell.family == family]
    assert sorted(results["cells"]) == sorted(cell.name for cell in cells)
    for cell in cells:
        row = results["cells"][cell.name]
        assert row["clause"] == cell.clause
        assert set(row) >= sides
        for side in sides:
            # D002/D003 cells ran under each PYTHONHASHSEED they name
            assert sorted(row[side].get("hashseeds", {})) == sorted(cell.hashseeds)


@pytest.mark.parametrize("family", pm.FAMILIES)
def test_every_cell_is_caught_on_the_change_side(family):
    """By a recorded test file: no static tool is a gate of its own."""
    results = committed(family)
    for name, row in results["cells"].items():
        assert row["change"]["failed"], name


def test_the_committed_matrix_covers_every_cell_and_side():
    results = committed("protocol")
    # the lint column was measured while the R rules existed
    assert {"R001", "R002", "R003", "R004"} <= set(results["sides"]["parent"]["rules"])
    assert not any(r.startswith("R") for r in results["sides"]["change"]["rules"])
    for cell in pm.CELLS:
        if cell.family == "protocol":
            # every cell is caught by at least one runtime gate on this tree
            assert results["cells"][cell.name]["change"]["failed"], cell.name
    # the R rules caught nothing a runtime gate missed on the parent tree
    for name, row in results["cells"].items():
        if row["parent"]["lint"]:
            assert row["parent"]["failed"], name


def test_a_rule_is_kept_exactly_when_a_cell_escapes_every_runtime_gate():
    """The deletion rule, on the parent column: a simlint rule stayed only
    if it flagged a cell no runtime gate caught under every hash seed.
    That left P002, which is now a test of its own, so the change side
    has no rules and its cell fails that test."""
    results = committed("determinism")
    only_it = {
        rule
        for row in results["cells"].values() if not row["parent"]["failed"]
        for rule in row["parent"]["lint"]
    }
    assert sorted(only_it) == ["P002"]
    assert results["sides"]["change"]["rules"] == []
    p002 = results["cells"]["P002/ij-driver/yield-in-interrupt"]["change"]
    assert p002["lint"] == [] and "tests/test_determinism.py" in p002["failed"]
    assert set(results["sides"]["parent"]["rules"]) >= {cell.clause for cell in pm.CELLS
                                                        if cell.family == "determinism"}


def test_the_trace_validators_kept_are_the_oplog_one():
    # validate_chrome_trace flagged only a cell the trace fence catches.
    # On the parent the ops-log cell failed only a test that calls
    # validate_oplog itself; now the fence's observed cell fails on it too
    # (DESIGN.md §7.1).  validate_oplog stays as the check of ops logs handed
    # to `repro top --oplog`; validate_report, of reports, was never a candidate.
    results = committed("trace")
    assert results["sides"]["parent"]["rules"] == ["validate_chrome_trace", "validate_oplog"]
    assert results["sides"]["change"]["rules"] == ["validate_oplog", "validate_report"]
    flow = results["cells"]["trace/export/flow-without-source"]["parent"]
    assert flow["lint"] == ["validate_chrome_trace"] and "tests/test_fence.py" in flow["failed"]
    oplog = results["cells"]["trace/oplog/written-out-of-seq"]
    assert oplog["parent"]["failed"] == {"tests/server/test_observatory.py": 1}
    assert oplog["change"]["failed"] == {
        "tests/server/test_observatory.py": 1, "tests/test_fence.py": 1,
    }
    for side in ("parent", "change"):
        assert oplog[side]["lint"] == ["validate_oplog"]
