"""The committed host ledger supports the claim its PR makes.

``benchmarks/results/BENCH_host.json`` is a parent/change pair of
``python -m bench run --seed 7`` outputs plus a ``claim`` naming the one
end-to-end metric the PR says it moved.  Wall-clock numbers are from the
host that wrote the file, so nothing here is re-measured: the test reads
the ledger — the same check on any runner.  A perf PR that commits no
ledger, a ledger whose two sides did different work, or one whose own
samples do not show the claimed gain is a red build.
"""

import json
from pathlib import Path
from statistics import median

import pytest

ROOT = Path(__file__).resolve().parents[1]
LEDGER = json.loads((ROOT / "benchmarks" / "results" / "BENCH_host.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
#: simulated-side facts a host-clock optimisation must not move
EXACT_LAYERS = ("cluster.events.dispatched", "cluster.sim_makespan_s")
#: (workload, layer) -> (parent, change): the one exact count a change moved
#: on purpose, held to that one transition so no later ledger can reuse it.
#: view_query's base-table SELECTs became ScanQES executions, which
#: dispatch an event per chunk read that the hand-written chunk loop before
#: them never simulated (the range-restricted view joins dispatch fewer).
MOVED = {("view_query", "cluster.events.dispatched"): (2652, 2872)}


def side(name):
    return LEDGER[name]["workloads"]


def test_both_sides_ran_every_workload_on_one_seed():
    assert sorted(side("parent")) == sorted(side("change")) == sorted(WORKLOADS)
    assert LEDGER["parent"]["header"]["seed"] == LEDGER["change"]["header"]["seed"]
    assert LEDGER["parent"]["header"]["scale"] == LEDGER["change"]["header"]["scale"] == 1.0
    for name in ("parent", "change"):
        assert all(w["correct"] and not w["problems"] for w in side(name).values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_both_sides_did_the_same_work(workload):
    parent, change = side("parent")[workload], side("change")[workload]
    assert parent["digests"] == change["digests"]
    assert (
        parent["end_to_end"]["completed_share"] == change["end_to_end"]["completed_share"]
    )
    for layer in EXACT_LAYERS:
        pair = (parent["per_layer"][layer], change["per_layer"][layer])
        assert pair[0] == pair[1] or MOVED.get((workload, layer)) == pair, layer


def test_the_claimed_metric_is_better_on_the_change_side():
    claim = LEDGER["claim"]
    declared = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
    assert claim["workload"] in WORKLOADS and claim["metric"] in declared
    sign = 1 if declared[claim["metric"]] == "higher" else -1
    parent, change = (
        side(name)[claim["workload"]]["end_to_end"][claim["metric"]]
        for name in ("parent", "change")
    )
    assert parent["value"] == median(parent["samples"])
    assert change["value"] == median(change["samples"])
    assert sign * change["value"] > sign * parent["value"]
    # repetition i of both sides drew the same stream
    assert len(parent["samples"]) == len(change["samples"]) == 3
    for before, after in zip(parent["samples"], change["samples"]):
        assert sign * after > sign * before
