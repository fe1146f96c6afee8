"""Ablation: OPAS pair ordering under high edge ratio.

Section 6.2: "IJ suffers from the optimal page access sequence (OPAS)
problem under high edge ratio values.  Intuitively, when the edge ratio is
very high, the number of components will be low ... even if a component
was scheduled on a single node, there may be local cache misses which
might again lead to multiple transfers."

This bench constructs exactly that regime — a single giant component whose
working set exceeds the joiner cache — and compares IJ executions whose
stage-2 pair order is lexicographic (the paper), BFS-clustered, and greedy
OPAS.  The OPAS heuristics cannot eliminate the re-fetches (the component
truly does not fit) but they reduce them, which is why the paper cites the
OPAS literature as complementary.
"""

from benchmarks.harness import fmt, record_table
from benchmarks.opas import reorder_schedule
from repro import IndexedJoinQES, paper_cluster
from repro.joins import build_join_index, schedule_two_stage
from repro.workloads import GridSpec, build_oil_reservoir_dataset

#: one-component pathology: p and q fully anti-aligned — every left chunk
#: overlaps every right chunk along some dimension chain
SPEC = GridSpec(g=(64, 64), p=(2, 64), q=(64, 2))
N_S = 2
N_J = 1  # the OPAS problem is per-node; isolate one joiner
#: cache far below the component working set (the right table alone is
#: ~48 KiB; this fits roughly ten 1.5 KiB sub-tables)
CACHE_BYTES = 16 * 1024


def run_ablation():
    ds = build_oil_reservoir_dataset(SPEC, num_storage=N_S, functional=False)
    index = build_join_index(
        ds.metadata.table("T1").all_chunks(),
        ds.metadata.table("T2").all_chunks(),
        ds.join_attrs,
    )
    assert len(index.components()) == 1  # maximal edge ratio: one component
    sizes = {
        c.id: c.size
        for cat in (ds.metadata.table("T1"), ds.metadata.table("T2"))
        for c in cat.all_chunks()
    }
    dataset_bytes = sum(sizes.values())
    base = schedule_two_stage(index, N_J)
    schedules = {
        "lexicographic (paper)": base,
        "bfs-clustered": reorder_schedule(base, sizes, CACHE_BYTES, method="bfs"),
        "greedy OPAS": reorder_schedule(base, sizes, CACHE_BYTES, method="greedy"),
    }
    reports = {}
    for name, sched in schedules.items():
        reports[name] = IndexedJoinQES(
            paper_cluster(N_S, N_J), ds.metadata, "T1", "T2", ds.join_attrs,
            ds.provider, index=index, schedule=sched,
            cache_capacity=CACHE_BYTES,
        ).run()
    return reports, dataset_bytes


def test_ablation_opas(benchmark):
    reports, dataset_bytes = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    rows = [
        [
            name,
            fmt(r.total_time, 3),
            f"{r.bytes_from_storage:,}",
            fmt(r.bytes_from_storage / dataset_bytes, 2) + "x",
        ]
        for name, r in reports.items()
    ]
    record_table(
        "ablation_opas",
        f"OPAS ablation — single-component (edge ratio {SPEC.edge_ratio:.2f}) "
        f"dataset {SPEC.g}, cache {CACHE_BYTES // 1024} KiB, one joiner",
        ["pair order", "time (s)", "bytes fetched", "vs dataset"],
        rows,
    )

    lex = reports["lexicographic (paper)"]
    greedy = reports["greedy OPAS"]
    bfs = reports["bfs-clustered"]

    # the high-edge-ratio regime genuinely re-fetches under every order
    for r in reports.values():
        assert r.bytes_from_storage > dataset_bytes

    # OPAS-aware orders fetch no more than the paper's lexicographic order
    assert greedy.bytes_from_storage <= lex.bytes_from_storage
    assert bfs.bytes_from_storage <= lex.bytes_from_storage * 1.05

    # and the greedy heuristic strictly improves on this pathology
    assert greedy.bytes_from_storage < lex.bytes_from_storage
    assert greedy.total_time <= lex.total_time
