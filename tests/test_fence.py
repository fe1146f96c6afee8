"""``benchmarks/fence.py``: the matrix is what it says, and ``diff`` names
what moved.  (Running the slices is CI's job and a refactoring PR's; one
cell is run here so a broken ``run_cell`` fails tier-1, not the fence.)"""

import json
from pathlib import Path

from benchmarks import fence

BASELINE = Path(fence.HERE) / "baselines" / "FENCE_smoke.json"


def test_the_serve_slice_is_102_distinct_cells_and_smoke_six_of_them():
    serve = dict(fence.cells("serve"))
    assert len(serve) == 102
    assert sum(cell.startswith("default/") for cell in serve) == 54
    assert len({tuple(argv) for argv in serve.values()}) == 102
    smoke = dict(fence.cells("smoke"))
    assert sorted(smoke) == sorted(fence.SMOKE) and len(smoke) == 6
    assert all(serve[cell] == argv for cell, argv in smoke.items())
    # every cell writes its report; observed cells their ops log as well
    for argv in serve.values():
        assert "--json-out" in argv
        assert ("--oplog-out" in argv) == ("--observe" in argv)


def test_the_committed_manifest_is_the_smoke_slice():
    committed = json.loads(BASELINE.read_text())
    assert committed["slice"] == "smoke"
    assert sorted(committed["cells"]) == sorted(fence.SMOKE)
    assert all(cell["exit"] == 0 for cell in committed["cells"].values())


def test_diff_names_the_cell_and_what_moved_in_it():
    cell = {"exit": 0, "stdout": "a", "stderr": "e", "files": {"report.json": "r"}}
    a = {"cells": {"x": cell, "y": cell}}
    assert fence.diff(a, a) == []
    moved = dict(cell, stdout="b", files={"report.json": "r2", "ops.jsonl": "o"})
    b = {"cells": {"x": moved, "z": cell}}
    assert fence.diff(a, b) == [
        "x: stdout, ops.jsonl, report.json", "y: only in a", "z: only in b",
    ]


def test_one_cell_reproduces_its_committed_hashes():
    cell = "default/g32p8q4/s1/plain"
    committed = json.loads(BASELINE.read_text())["cells"][cell]
    argv = dict(fence.cells("smoke"))[cell]
    assert fence.run_cell(argv, fence.DEFAULT_SRC) == committed
