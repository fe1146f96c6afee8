"""``benchmarks/protocol_mutations.py``: every cell still applies to this
tree, and the committed matrix is complete.  (Running the cells is CI's
job: each one runs a test suite.)"""

import json
from pathlib import Path

import pytest

from benchmarks import protocol_mutations as pm

SRC = Path(pm.REPO) / "src" / "repro"


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


def test_the_committed_matrix_covers_every_cell_and_side():
    results = json.loads(Path(pm.RESULTS).read_text(encoding="utf-8"))
    assert results["suite"] == list(pm.SUITE)
    # the lint column was measured while the R rules existed
    assert {"R001", "R002", "R003", "R004"} <= set(results["sides"]["parent"]["rules"])
    assert not any(r.startswith("R") for r in results["sides"]["change"]["rules"])
    assert sorted(results["cells"]) == sorted(cell.name for cell in pm.CELLS)
    for cell in pm.CELLS:
        row = results["cells"][cell.name]
        assert row["clause"] == cell.clause
        assert set(row) >= {"parent", "change"}
        # every cell is caught by at least one runtime gate on this tree
        assert row["change"]["failed"], cell.name
    # the R rules caught nothing a runtime gate missed on the parent tree
    for name, row in results["cells"].items():
        if row["parent"]["lint"]:
            assert row["parent"]["failed"], name
