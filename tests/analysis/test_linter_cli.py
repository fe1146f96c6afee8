"""Whole-tree P002 checks and the acceptance scenario: the mutation the
rule exists for must be named with its file and line number."""

import ast
from pathlib import Path

from benchmarks import protocol_mutations as pm
from tests.test_determinism import interrupt_handler_yields_under

REPO = Path(__file__).resolve().parents[2]


def test_src_tree_is_clean():
    # the checkout's src/, not only the imported package
    assert interrupt_handler_yields_under(REPO / "src") == []


def test_src_and_tests_are_clean():
    # every source and test file parses; only src/ is held to P002, since
    # the engine tests yield inside handlers on purpose
    for root in (REPO / "src", REPO / "tests"):
        for path in sorted(root.rglob("*.py")):
            ast.parse(path.read_bytes(), str(path))


def test_seeded_yield_in_interrupt_is_named_with_line(tmp_path):
    """The mutation matrix's P002 cell, which no runtime gate catches."""
    cell = pm.CELLS_BY_NAME["P002/ij-driver/yield-in-interrupt"]
    original = (REPO / "src" / "repro" / cell.file).read_text(encoding="utf-8")
    seeded = pm.mutate(original, cell)
    target = tmp_path / "repro" / cell.file
    target.parent.mkdir(parents=True)
    target.write_text(seeded, encoding="utf-8")
    lineno = seeded.splitlines().index("                yield cluster.engine.timeout(0)") + 1

    assert interrupt_handler_yields_under(tmp_path / "repro") == [f"repro/{cell.file}:{lineno}"]
