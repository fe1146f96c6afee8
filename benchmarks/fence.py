"""The byte-identity fence: did a change move any byte a serve, a join
execution or a query produces?

A refactor of the server, the QES, the query layer or the cluster layer
claims "byte-identical"; this is how to check it without trusting the
claim.  A fixed, seeded matrix of cells — ``repro serve``, ``trace``,
``run`` and ``sweep`` command lines, functional QES executions, SQL texts
and an example, spelled out below, nothing drawn at run time — is run one
subprocess per cell, each in an empty scratch directory, and a *manifest*
records per cell the exit status and the SHA-256 of stdout, stderr and
every file the cell wrote (``--json-out`` always, ``--oplog-out`` on
observed cells, the Chrome traces of ``trace``, ``run`` and ``sweep``).  Two
manifests are compared with ``diff``::

    python benchmarks/fence.py manifest --slice serve --src PARENT/src > a.json
    python benchmarks/fence.py manifest --slice serve > b.json
    python benchmarks/fence.py diff a.json b.json   # names moved cells, exit 1

``--src`` is the ``src/`` directory the cells import ``repro`` from
(default: this checkout's), so one copy of this file fences any two
trees.  Slices:

``serve``
    102 cells.  *Default tenants* (the CLI's built-in interactive + batch
    pair, 12 queries): three grids × seeds {1, 7} × nine flag sets, from
    a plain model-only serve to faulted, deadlined, shed, sanitized and
    observed ones.  *Chaos*: three 32×32 partitionings × seeds {3, 11} ×
    eight fault/deadline/overload flag sets over ``fence_tenants.json``,
    a 120-query three-tenant stream dense enough that attempts overlap,
    retry, miss deadlines and get shed.
``smoke``
    Six of those cells (:data:`SMOKE`), ~5 s; CI diffs it against the
    committed ``benchmarks/baselines/FENCE_smoke.json``.
``qes``
    27 cells, ~15 s: the functional answer bytes, with no server and no
    CLI in the way.  ``IndexedJoinQES`` (synchronous and pipelined) and
    ``GraceHashQES`` over a p<q, a p=q and a p>q grid × {no faults, a
    compute-node crash at 40 % of the fault-free makespan, transient
    transfer faults at 0.3} on a ``replication=2`` dataset.  A cell
    prints, per compute node, the SHA-256 of its result columns
    *concatenated* (so how many parts a node holds its answer in is not
    fenced, every byte and the row order are), and the report's
    counters: ``total_time``, ``pairs_joined``, storage and scratch
    bytes, ``kernel.*``, per-node cache stats, recovery.  CI diffs it
    against ``benchmarks/baselines/FENCE_qes.json``.
``sql``
    13 cells, ~10 s: the answer bytes of the query layer, through the
    public ``QueryExecutor`` and registered derived data sources over a
    file-backed 16³ functional dataset.  One cell per SQL text
    (:data:`SQL_CELLS`): the host benchmark's five ``view_query``
    templates, its view query under each QES, GROUP BY on several keys,
    under a WHERE that selects nothing and over a view, ``COUNT(*)``
    alone, and an ``AggregationView``.  A cell prints the answer's schema
    and the SHA-256 of its names, dtypes and column bytes, row order
    included.
    Answers only: error texts are unit-tested.  CI diffs it against
    ``benchmarks/baselines/FENCE_sql.json``.
``trace``
    21 cells, ~8 s: what the telemetry layer prints and writes.  18
    ``repro trace --dump`` cells (the ``qes`` grids × synchronous and
    ``--pipeline`` × no faults, transient faults with a storage crash on a
    sanitized replicated run, and a compute crash), each hashing stdout —
    critical paths, resource summaries, the text dump — and both Chrome
    traces; two ``repro run --trace-out --analyze`` cells (synchronous and
    pipelined); and ``examples/cluster_trace.py``'s Gantt charts, run from
    beside the ``--src`` tree so each tree runs its own copy.  CI diffs it
    against ``benchmarks/baselines/FENCE_trace.json``.
``sweep``
    22 cells, ~20 s: the paper's figure sweeps as ``repro sweep`` prints
    them.  Each of the six axes synchronous, ``--pipeline`` and
    ``--sanitize``; the three cheapest axes with ``--trace-out`` (hashing
    every point's Chrome traces), and one of them pipelined as well.  CI
    diffs it against ``benchmarks/baselines/FENCE_sweep.json``.

A manifest holds no path, time or host detail: the same tree gives the
same bytes anywhere.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SRC = os.path.join(os.path.dirname(HERE), "src")
CHAOS_TENANTS = os.path.join(HERE, "fence_tenants.json")

SHAPE = ["--storage", "2", "--compute", "3"]

GRIDS = {
    "g32p8q4": ["--grid", "32,32", "--p", "8,8", "--q", "4,4"],
    "g32p4q8": ["--grid", "32,32", "--p", "4,4", "--q", "8,8"],
    "g32p4q4": ["--grid", "32,32", "--p", "4,4", "--q", "4,4"],
    "g16cube": ["--grid", "16,16,16", "--p", "4,4,4", "--q", "4,4,4"],
}

# -- the default-tenants matrix: 3 grids x 2 seeds x 9 flag sets = 54 cells ----

DEFAULT_GRIDS = ("g32p8q4", "g32p4q8", "g16cube")
DEFAULT_SEEDS = (1, 7)
DEFAULT_FLAGS = {
    "plain": [],
    "functional": ["--functional"],
    "spf3": ["--policy", "spf", "--slots", "3"],
    "fair1-observe": ["--policy", "fair", "--slots", "1", "--observe"],
    "transient-storage-crash": [
        "--faults", "seed=7,transient=0.3,storage_crash=1.0",
        "--replication", "2", "--functional",
    ],
    "deadline-compute-crash-retry": [
        "--faults", "seed=5,compute_crash=1.0,transient=0.03,max_attempts=1",
        "--deadline", "0.1", "--retry-budget", "3", "--fail-mode", "graceful",
    ],
    "queue-limit-deadline": [
        "--queue-limit", "1", "--shed-policy", "reject-lowest-priority",
        "--slots", "1", "--deadline", "0.5", "--cpu-factor", "0.0005",
    ],
    "sanitize-functional": ["--sanitize", "--functional"],
    "lfu-observe-functional": [
        "--cache-policy", "lfu", "--observe", "--functional",
    ],
}

# -- the chaos matrix: 3 partitionings x 2 seeds x 8 flag sets = 48 cells ------

CHAOS_GRIDS = ("g32p8q4", "g32p4q8", "g32p4q4")
CHAOS_SEEDS = (3, 11)
CHAOS_FLAGS = {
    "transient-masked": [
        "--faults", "seed=5,transient=0.3,retry_base=0.0002",
        "--replication", "2", "--functional",
    ],
    "retry-pressure": [
        "--faults", "seed=9,transient=0.5,max_attempts=2,retry_base=0.0002",
        "--retry-budget", "3", "--fail-mode", "graceful", "--functional",
    ],
    "storage-crash-masked-sanitize": [
        "--faults", "seed=7,storage_crash=0.01", "--replication", "2",
        "--functional", "--sanitize",
    ],
    "storage-crash-unmasked": [
        "--faults", "seed=7,storage_crash=0.01,transient=0.1,retry_base=0.0002",
        "--fail-mode", "graceful",
    ],
    "compute-crash-observe": [
        "--faults", "seed=3,compute_crash=0.01,transient=0.2,retry_base=0.0002",
        "--replication", "2", "--retry-budget", "1",
        "--fail-mode", "graceful", "--functional", "--observe",
    ],
    "tight-slo": ["--deadline", "0.001", "--slots", "1", "--functional"],
    "overload-shed-observe": [
        "--queue-limit", "3", "--shed-policy", "reject-lowest-priority",
        "--slots", "1", "--policy", "spf", "--observe",
    ],
    "everything": [
        "--faults",
        "seed=11,transient=0.3,storage_crash=0.02,compute_crash=0.015,"
        "retry_base=0.0002",
        "--replication", "2", "--deadline", "0.004", "--queue-limit", "6",
        "--shed-policy", "reject-newest", "--policy", "fair", "--slots", "3",
        "--fail-mode", "graceful", "--functional",
    ],
}

# -- the qes matrix: (IJ sync, IJ pipelined, GH) x 3 grids x 3 fault sets -----

QES_GRIDS = {
    "p<q": ((16, 16), (4, 4), (8, 8)),
    "p=q": ((16, 16), (4, 4), (4, 4)),
    "p>q": ((16, 16), (8, 8), (4, 4)),
}
QES_MODES = ("ij-sync", "ij-pipe", "gh")
QES_FAULTS = ("none", "compute-crash", "transient")

# -- the trace matrix: 3 grids x 2 modes x 3 fault sets, 2 runs, 1 example -----

TRACE_MODES = {"sync": [], "pipe": ["--pipeline"]}
TRACE_FAULTS = {
    "none": [],
    "transient-storage-crash-sanitize": [
        "--faults", "seed=7,transient=0.3,storage_crash=0.5",
        "--replication", "2", "--sanitize",
    ],
    "compute-crash": ["--faults", "seed=5,compute_crash=0.01"],
}
TRACE_EXAMPLE = "cluster_trace.py"

# -- the sweep matrix: 6 axes x 3 flag sets, 4 traced cells --------------------

SWEEP_AXES = ("ne-cs", "compute-nodes", "tuples", "attributes", "cpu", "nfs")
SWEEP_FLAGS = {"sync": [], "pipe": ["--pipeline"], "sanitize": ["--sanitize"]}
#: traced cells write two Chrome traces per point: only the small sweeps
SWEEP_TRACED = {
    ("compute-nodes", "trace"): ["--trace-out", "s.json"],
    ("attributes", "trace"): ["--trace-out", "s.json"],
    ("nfs", "trace"): ["--trace-out", "s.json"],
    ("nfs", "pipe-trace"): ["--pipeline", "--trace-out", "s.json"],
}

# -- the sql matrix: one cell per SQL text -------------------------------------

SQL_GRID = ((16, 16, 16), (8, 8, 8), (4, 4, 4))
#: cell -> (SQL text, QES a view source runs under).  V1 is T1 joined with
#: T2; A1c is ``SELECT z, AVG(wp), COUNT(*) FROM V1 GROUP BY z`` as an
#: ``AggregationView``
SQL_CELLS = {
    "scan": ("SELECT * FROM T1", "auto"),
    "project": ("SELECT oilp FROM T1", "auto"),
    "range": ("SELECT * FROM T1 WHERE x IN [2, 11] AND y IN [3, 9] AND z IN [0, 12]", "auto"),
    "agg": ("SELECT AVG(oilp), COUNT(*) FROM T1 WHERE x IN [2, 11] AND y IN [3, 9]", "auto"),
    "groupby": ("SELECT z, AVG(oilp) FROM T1 GROUP BY z", "auto"),
    "view-ij": ("SELECT * FROM V1 WHERE x < 4", "indexed-join"),
    "view-gh": ("SELECT * FROM V1 WHERE x < 4", "grace-hash"),
    "groupby-multikey": (
        "SELECT z, x, SUM(oilp), MIN(oilp), MAX(oilp), COUNT(*) FROM T1 "
        "WHERE y IN [3, 9] GROUP BY z, x", "auto",
    ),
    "groupby-nothing-selected": ("SELECT z, AVG(oilp) FROM T1 WHERE x > 1000 GROUP BY z", "auto"),
    "count-star": ("SELECT COUNT(*) FROM T1", "auto"),
    "view-groupby": ("SELECT y, z, AVG(wp), MAX(oilp) FROM V1 GROUP BY y, z", "indexed-join"),
    "view-agg-gh": ("SELECT SUM(wp), COUNT(*) FROM V1 WHERE z IN [4, 9]", "grace-hash"),
    "aggview-central": ("SELECT * FROM A1c", "indexed-join"),
}

#: the CI slice: one cell per mechanism the fence exists to watch
SMOKE = (
    "default/g32p8q4/s1/plain",
    "default/g16cube/s7/sanitize-functional",
    "default/g32p4q8/s7/lfu-observe-functional",
    "chaos/g32p4q8/s3/retry-pressure",
    "chaos/g32p8q4/s11/compute-crash-observe",
    "chaos/g32p4q4/s3/everything",
)


SLICES = ("smoke", "serve", "qes", "sql", "trace", "sweep")


def _grid_flags(grid: str) -> List[str]:
    """``--grid/--p/--q`` for one of :data:`QES_GRIDS`."""
    return [
        word
        for flag, dims in zip(("--grid", "--p", "--q"), QES_GRIDS[grid])
        for word in (flag, ",".join(map(str, dims)))
    ]


def cells(slice_name: str, src: str = DEFAULT_SRC) -> List[Tuple[str, List[str]]]:
    """``(cell id, python argv)`` of every cell of a slice, in id order;
    ``src`` locates the example the ``trace`` slice runs (the one beside
    that tree, so each tree runs its own)."""
    if slice_name == "trace":
        out = {
            f"trace/{grid}/{mode}/{faults}": [
                "-m", "repro", "trace", *_grid_flags(grid), *SHAPE, "--dump",
                "--top", "3", "--out", "t.json", *mode_flags, *fault_flags,
            ]
            for grid in QES_GRIDS
            for mode, mode_flags in TRACE_MODES.items()
            for faults, fault_flags in TRACE_FAULTS.items()
        }
        for mode, mode_flags in TRACE_MODES.items():
            out[f"run/p=q/{mode}"] = [
                "-m", "repro", "run", *_grid_flags("p=q"), *SHAPE,
                "--trace-out", "r.json", "--analyze", "--drift-store", "none",
                *mode_flags,
            ]
        out[f"example/{TRACE_EXAMPLE}"] = [
            os.path.join(os.path.dirname(os.path.abspath(src)), "examples", TRACE_EXAMPLE)
        ]
        return sorted(out.items())
    if slice_name == "sweep":
        sweeps = {
            (axis, mode): flags for axis in SWEEP_AXES for mode, flags in SWEEP_FLAGS.items()
        }
        sweeps.update(SWEEP_TRACED)
        return sorted(
            (f"sweep/{axis}/{mode}", ["-m", "repro", "sweep", axis, *flags])
            for (axis, mode), flags in sweeps.items()
        )
    if slice_name == "sql":
        return sorted((f"sql/{name}", [__file__, "sql-cell", name]) for name in SQL_CELLS)
    if slice_name == "qes":
        return sorted(
            (f"qes/{grid}/{mode}/{faults}", [__file__, "qes-cell", grid, mode, faults])
            for grid in QES_GRIDS for mode in QES_MODES for faults in QES_FAULTS
        )
    out: Dict[str, List[str]] = {}
    for matrix, grids, seeds, flag_sets, extra in (
        ("default", DEFAULT_GRIDS, DEFAULT_SEEDS, DEFAULT_FLAGS, []),
        ("chaos", CHAOS_GRIDS, CHAOS_SEEDS, CHAOS_FLAGS,
         ["--tenants", CHAOS_TENANTS]),
    ):
        for grid in grids:
            for seed in seeds:
                for name, flags in flag_sets.items():
                    argv = ["-m", "repro", "serve", *GRIDS[grid], *SHAPE,
                            "--seed", str(seed), *extra, *flags,
                            "--json-out", "report.json"]
                    if "--observe" in flags:
                        argv += ["--oplog-out", "ops.jsonl"]
                    out[f"{matrix}/{grid}/s{seed}/{name}"] = argv
    if slice_name == "smoke":
        out = {cell: out[cell] for cell in SMOKE}
    return sorted(out.items())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cell(argv: Sequence[str], src: str) -> Dict[str, object]:
    """Run one cell in an empty scratch directory; hash what it produced."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory(prefix="fence-") as cwd:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=cwd, env=env, capture_output=True, check=False,
        )
        files = {}
        for name in sorted(os.listdir(cwd)):
            with open(os.path.join(cwd, name), "rb") as fh:
                files[name] = _sha(fh.read())
    return {
        "exit": proc.returncode,
        "stdout": _sha(proc.stdout),
        "stderr": _sha(proc.stderr),
        "files": files,
    }


def _table_digest(table) -> Dict[str, object]:
    """Row count and the SHA-256 of every column's name, dtype and bytes."""
    digest = hashlib.sha256()
    for name in table.schema.names:
        column = table.column(name)
        digest.update(f"{name}:{column.dtype.str}:".encode())
        digest.update(column.tobytes())
    return {"records": table.num_records, "sha256": digest.hexdigest()}


def qes_cell(grid: str, mode: str, faults: str) -> Dict[str, object]:
    """One functional execution, as what the fence pins of it (``qes``
    in the module docstring).  Imports ``repro`` from ``PYTHONPATH``."""
    import dataclasses

    from repro.cluster import MachineSpec, paper_cluster
    from repro.datamodel.subtable import concat_subtables
    from repro.faults import FaultPlan, NodeCrash, UnrecoverableFault
    from repro.joins import GraceHashQES, IndexedJoinQES
    from repro.workloads import GridSpec, build_oil_reservoir_dataset

    g, p, q = QES_GRIDS[grid]
    slow = MachineSpec(
        disk_read_bw=2e5, disk_write_bw=2e5, link_bw=1e5, memory_bytes=512 * 2**20
    )

    def run(plan):
        ds = build_oil_reservoir_dataset(
            GridSpec(g=g, p=p, q=q), num_storage=2, functional=True,
            replication=2, seed=7,
        )
        cluster = paper_cluster(2, 3, spec=slow, faults=plan)
        args = (cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider)
        if mode == "gh":
            return GraceHashQES(*args).run()
        return IndexedJoinQES(*args, pipeline=mode == "ij-pipe").run()

    plan = None
    if faults == "compute-crash":
        plan = FaultPlan(
            seed=7,
            crashes=(NodeCrash("compute", at=0.4 * run(None).total_time, node=1),),
        )
    elif faults == "transient":
        plan = FaultPlan(seed=7, transfer_failure_rate=0.3)
    try:
        report = run(plan)
    except UnrecoverableFault as exc:
        # Grace Hash cannot outlive a compute node: the refusal is the cell
        return {"unrecoverable": str(exc)}

    def answer(parts):
        return _table_digest(concat_subtables(parts)) if parts else None

    return {
        "total_time": report.total_time,
        "pairs_joined": report.pairs_joined,
        "bytes_from_storage": report.bytes_from_storage,
        "bytes_scratch": [report.bytes_scratch_written, report.bytes_scratch_read],
        "kernel": dataclasses.asdict(report.kernel),
        "cache_stats": [dataclasses.asdict(c) for c in report.cache_stats],
        "recovery": dataclasses.asdict(report.recovery),
        "results": [answer(per) for per in report.results],
    }


def sql_cell(name: str) -> Dict[str, object]:
    """One SQL text's answer, as what the fence pins of it (``sql`` in the
    module docstring).  Imports ``repro`` from ``PYTHONPATH``."""
    from repro.core import Aggregate, AggregationView, DerivedDataSource, JoinView
    from repro.query import QueryExecutor
    from repro.workloads import GridSpec, build_oil_reservoir_dataset

    sql, algorithm = SQL_CELLS[name]
    g, p, q = SQL_GRID
    # the chunk files go beside, not into, the cell's working directory:
    # run_cell hashes every file it finds there
    with tempfile.TemporaryDirectory(prefix="fence-sql-") as storage:
        ds = build_oil_reservoir_dataset(
            GridSpec(g=g, p=p, q=q), num_storage=2, functional=True, seed=7,
            storage_dir=storage,
        )
        executor = QueryExecutor(ds.metadata, ds.provider)
        join = JoinView("V1", ds.left, ds.right, on=ds.join_attrs)
        aggregates = (Aggregate("avg", "wp"), Aggregate("count", "*"))
        for view in (join, AggregationView("A1c", join, aggregates, group_by=("z",))):
            executor.register_dds(DerivedDataSource(
                view, ds.metadata, ds.provider, num_storage=2, num_compute=3,
            ))
        table = executor.execute(sql, algorithm=algorithm)
    return {
        "sql": sql,
        "algorithm": algorithm,
        "schema": [[a.name, table.column(a.name).dtype.str] for a in table.schema],
        **_table_digest(table),
    }


def manifest(slice_name: str, src: str) -> Dict[str, object]:
    return {
        "slice": slice_name,
        "cells": {cell: run_cell(argv, src) for cell, argv in cells(slice_name, src)},
    }


def diff(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """One line per cell that differs between two manifests."""
    moved = []
    cells_a, cells_b = a["cells"], b["cells"]
    for cell in sorted(set(cells_a) | set(cells_b)):
        if cell not in cells_a or cell not in cells_b:
            moved.append(f"{cell}: only in {'b' if cell in cells_b else 'a'}")
            continue
        ca, cb = cells_a[cell], cells_b[cell]
        what = [k for k in ("exit", "stdout", "stderr") if ca[k] != cb[k]]
        what += [
            name
            for name in sorted(set(ca["files"]) | set(cb["files"]))
            if ca["files"].get(name) != cb["files"].get(name)
        ]
        if what:
            moved.append(f"{cell}: {', '.join(what)}")
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_man = sub.add_parser("manifest", help="run a slice, print its manifest")
    p_man.add_argument(
        "--slice", choices=SLICES, default="serve",
    )
    p_man.add_argument("--src", default=DEFAULT_SRC, metavar="DIR",
                       help="src/ directory to import repro from")
    p_diff = sub.add_parser("diff", help="compare two manifests")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_cell = sub.add_parser("qes-cell", help="run one cell of the qes slice")
    p_cell.add_argument("grid", choices=sorted(QES_GRIDS))
    p_cell.add_argument("mode", choices=QES_MODES)
    p_cell.add_argument("faults", choices=QES_FAULTS)
    p_sql = sub.add_parser("sql-cell", help="run one cell of the sql slice")
    p_sql.add_argument("name", choices=sorted(SQL_CELLS))
    args = parser.parse_args(argv)
    if args.command != "diff":
        if args.command == "qes-cell":
            printed = qes_cell(args.grid, args.mode, args.faults)
        elif args.command == "sql-cell":
            printed = sql_cell(args.name)
        else:
            printed = manifest(args.slice, os.path.abspath(args.src))
        json.dump(printed, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    with open(args.a, encoding="utf-8") as fa, open(args.b, encoding="utf-8") as fb:
        moved = diff(json.load(fa), json.load(fb))
    for line in moved:
        print(line)
    if moved:
        print(f"{len(moved)} cell(s) moved")
        return 1
    print("fence: no cell moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
