"""Determinism: identical configurations produce identical traces.

The simulator promises bit-identical repeatability (same event order, same
reservation times) — the property that makes recorded experiment tables
reproducible and regressions diffable.  The last test holds the one
syntactic engine-protocol rule, which no runtime gate sees (DESIGN.md §7.1).
"""

import ast
from pathlib import Path

import repro
from repro.cluster import ClusterSim, ClusterTopology
from repro.experiments import run_point
from repro.joins import GraceHashQES, IndexedJoinQES
from repro.workloads import GridSpec, build_oil_reservoir_dataset

SPEC = GridSpec(g=(16, 16, 4), p=(4, 4, 4), q=(4, 4, 2))


def test_run_point_bit_identical():
    a = run_point(SPEC, 3, 2)
    b = run_point(SPEC, 3, 2)
    assert a.ij_sim == b.ij_sim
    assert a.gh_sim == b.gh_sim
    assert a.ij_report.bytes_from_storage == b.ij_report.bytes_from_storage


def test_functional_run_bit_identical():
    times = []
    for _ in range(2):
        ds = build_oil_reservoir_dataset(SPEC, num_storage=3, functional=True)
        from repro import paper_cluster

        r = IndexedJoinQES(
            paper_cluster(3, 2), ds.metadata, "T1", "T2", ds.join_attrs, ds.provider
        ).run()
        times.append((r.total_time, r.result_tuples))
    assert times[0] == times[1]


def test_traces_identical():
    traces = []
    for _ in range(2):
        ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=False)
        sim = ClusterSim(ClusterTopology(2, 2), telemetry=True)
        GraceHashQES(sim, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider).run()
        traces.append(
            [
                (s.name, s.start, s.end)
                for s in sim.telemetry.recorder.spans
                if s.category == "resource"
            ]
        )
    assert traces[0] == traces[1]


def test_dataset_bytes_identical_across_builds():
    # extra attributes are the randomised columns; the physical fields are
    # deterministic functions of the coordinates
    a = build_oil_reservoir_dataset(SPEC, num_storage=2, seed=5, extra_attributes=2)
    b = build_oil_reservoir_dataset(SPEC, num_storage=2, seed=5, extra_attributes=2)
    ca = a.metadata.table("T1").all_chunks()[0]
    cb = b.metadata.table("T1").all_chunks()[0]
    assert a.provider.fetch(ca).to_structured_array().tobytes() == \
        b.provider.fetch(cb).to_structured_array().tobytes()
    # and a different seed genuinely changes the value columns
    c = build_oil_reservoir_dataset(SPEC, num_storage=2, seed=6, extra_attributes=2)
    cc = c.metadata.table("T1").all_chunks()[0]
    assert a.provider.fetch(ca).to_structured_array().tobytes() != \
        c.provider.fetch(cc).to_structured_array().tobytes()


def interrupt_handler_yields(tree):
    """Line of every ``yield``/``yield from`` inside an ``except`` handler
    whose type, or a member of its type tuple, is named ``Interrupt``
    (bare or dotted).  Nested ``def`` bodies are not the handler's: they
    run later, in a process of their own."""
    lines = []
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
            continue
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        if not any(isinstance(t, ast.Name) and t.id == "Interrupt"
                   or isinstance(t, ast.Attribute) and t.attr == "Interrupt"
                   for t in types):
            continue
        stack = [handler]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                lines.append(node.lineno)
            stack.extend(child for child in ast.iter_child_nodes(node)
                         if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return sorted(lines)


def interrupt_handler_yields_under(root):
    """``file:line`` of every such ``yield`` in the ``.py`` files under
    *root*, each file named from *root*'s parent."""
    return [
        f"{path.relative_to(root.parent)}:{line}"
        for path in sorted(root.rglob("*.py"))
        for line in interrupt_handler_yields(ast.parse(path.read_bytes(), str(path)))
    ]


def test_no_yield_inside_an_interrupt_handler():
    """An interrupter assumes the process it throws ``Interrupt`` into
    unwinds without re-entering the event loop.  A ``yield`` in the
    handler suspends the dying process on a new event, where it can be
    interrupted again or wait forever; nothing at runtime notices when
    that wait moves no byte.  Clean up synchronously, leave the handler,
    then wait.  (The engine's own tests yield in handlers on purpose, so
    only the ``repro`` package under test is walked; the walk itself is
    checked against the fixtures of ``tests/analysis/test_rules.py``.)"""
    found = interrupt_handler_yields_under(Path(repro.__file__).parent)
    assert found == [], "yield inside an except-Interrupt handler: " + ", ".join(found)
