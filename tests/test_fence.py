"""``benchmarks/fence.py``: the matrix is what it says, and ``diff`` names
what moved.  (Running the slices is CI's job and a refactoring PR's; one
cell of each kind is run here so a broken ``run_cell``, ``qes_cell`` or
``sql_cell`` fails tier-1, not the fence.)"""

import hashlib
import json
from pathlib import Path

from benchmarks import fence

BASELINE = Path(fence.HERE) / "baselines" / "FENCE_smoke.json"
QES_BASELINE = Path(fence.HERE) / "baselines" / "FENCE_qes.json"
SQL_BASELINE = Path(fence.HERE) / "baselines" / "FENCE_sql.json"
TRACE_BASELINE = Path(fence.HERE) / "baselines" / "FENCE_trace.json"
SWEEP_BASELINE = Path(fence.HERE) / "baselines" / "FENCE_sweep.json"


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


def test_the_qes_slice_is_27_cells_and_its_manifest_is_committed():
    qes = dict(fence.cells("qes"))
    assert len(qes) == 27 == len({tuple(argv) for argv in qes.values()})
    committed = json.loads(QES_BASELINE.read_text())
    assert committed["slice"] == "qes"
    assert sorted(committed["cells"]) == sorted(qes)
    for cell in committed["cells"].values():
        # a cell is its stdout: nothing written, nothing on stderr
        assert cell["exit"] == 0 and cell["files"] == {}
        assert cell["stderr"] == hashlib.sha256(b"").hexdigest()


def test_one_qes_cell_reproduces_its_committed_hash():
    """In process, so a broken ``qes_cell`` fails tier-1.  The answer
    digest is of a node's parts concatenated: Grace Hash holds in one
    part per bucket what the Indexed Join holds in one per node."""
    cell = fence.qes_cell("p<q", "ij-sync", "none")
    printed = json.dumps(cell, indent=1, sort_keys=True) + "\n"
    committed = json.loads(QES_BASELINE.read_text())["cells"]
    assert committed["qes/p<q/ij-sync/none"]["stdout"] == (
        hashlib.sha256(printed.encode()).hexdigest()
    )
    for answer in (cell, fence.qes_cell("p<q", "gh", "none")):
        assert answer["kernel"]["matches"] == 256
        assert sum(node["records"] for node in answer["results"] if node) == 256


def test_the_sql_slice_is_committed_and_one_cell_reproduces_its_hash():
    """One cell per SQL text; the grouped one is run in process, so a
    GROUP BY that moves a byte fails tier-1 as well as CI's diff."""
    sql = dict(fence.cells("sql"))
    assert sorted(sql) == sorted(f"sql/{name}" for name in fence.SQL_CELLS)
    committed = json.loads(SQL_BASELINE.read_text())
    assert committed["slice"] == "sql"
    assert sorted(committed["cells"]) == sorted(sql)
    for cell in committed["cells"].values():
        assert cell["exit"] == 0 and cell["files"] == {}
        assert cell["stderr"] == hashlib.sha256(b"").hexdigest()
    answer = fence.sql_cell("groupby-multikey")
    assert answer["records"] == 16 * 16 and answer["schema"][:2] == [["z", "<f4"], ["x", "<f4"]]
    printed = json.dumps(answer, indent=1, sort_keys=True) + "\n"
    assert committed["cells"]["sql/groupby-multikey"]["stdout"] == (
        hashlib.sha256(printed.encode()).hexdigest()
    )


def test_the_trace_slice_is_committed_and_its_views_reproduce_their_hashes(tmp_path):
    """18 ``repro trace`` cells, two ``repro run`` cells and the Gantt
    example.  One trace cell (resource summaries and the text dump on
    stdout) and the example (the charts) are run here, so a resource view
    that moves a byte fails tier-1 as well as CI's diff."""
    trace = dict(fence.cells("trace"))
    assert len(trace) == 21 == len({tuple(argv) for argv in trace.values()})
    assert sum(cell.startswith("trace/") for cell in trace) == 18
    committed = json.loads(TRACE_BASELINE.read_text())
    assert committed["slice"] == "trace"
    assert sorted(committed["cells"]) == sorted(trace)
    for cell, hashed in committed["cells"].items():
        written = {"trace": ["t.gh.json", "t.ij.json"], "run": ["r.gh.json", "r.ij.json"],
                   "example": []}[cell.split("/")[0]]
        assert hashed["exit"] == 0 and sorted(hashed["files"]) == written
    # the example is the one beside the tree the cells import repro from
    src = tmp_path / "tree" / "src"
    example = dict(fence.cells("trace", str(src)))["example/cluster_trace.py"]
    assert example == [str(tmp_path / "tree" / "examples" / "cluster_trace.py")]
    for cell in ("trace/p>q/pipe/transient-storage-crash-sanitize", "example/cluster_trace.py"):
        assert fence.run_cell(trace[cell], fence.DEFAULT_SRC) == committed["cells"][cell]


def test_the_sweep_slice_is_committed_and_one_cell_reproduces_its_hashes():
    """Every axis synchronous, pipelined and sanitized, four traced cells.
    The Figure 9 cell is run here (0.4 s), so a sweep that moves a byte
    fails tier-1 as well as CI's diff."""
    sweep = dict(fence.cells("sweep"))
    assert len(sweep) == 22 == len({tuple(argv) for argv in sweep.values()})
    for axis in fence.SWEEP_AXES:
        assert {f"sweep/{axis}/{mode}" for mode in fence.SWEEP_FLAGS} <= set(sweep)
    committed = json.loads(SWEEP_BASELINE.read_text())
    assert committed["slice"] == "sweep"
    assert sorted(committed["cells"]) == sorted(sweep)
    for cell, hashed in committed["cells"].items():
        assert hashed["exit"] == 0
        assert bool(hashed["files"]) == ("--trace-out" in sweep[cell])
    cell = "sweep/nfs/sync"
    assert fence.run_cell(sweep[cell], fence.DEFAULT_SRC) == committed["cells"][cell]


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
    """A plain serve, and the smoke slice's observed one, so an ops log
    written in any order but ``seq`` fails a byte gate in tier-1, not only
    a test that calls ``validate_oplog`` itself."""
    committed = json.loads(BASELINE.read_text())["cells"]
    smoke = dict(fence.cells("smoke"))
    assert sorted(committed["default/g32p4q8/s7/lfu-observe-functional"]["files"]) == [
        "ops.jsonl", "report.json",
    ]
    for cell in ("default/g32p8q4/s1/plain", "default/g32p4q8/s7/lfu-observe-functional"):
        assert fence.run_cell(smoke[cell], fence.DEFAULT_SRC) == committed[cell], cell
