"""Benchmark: the cache reuse observatory.

Serves a seeded chaos tenant mix with the access-trace recorder on,
then replays the same stream fault-free.  The artifact
``results/BENCH_server_reuse.json`` tracks:

* both serve makespans (``makespan_s`` leaves — recorder on vs. the
  fault-free replay) and the replay's bytes from storage,
* every point of the global what-if miss-ratio curve (``miss_ratio``
  leaves, so a change that degrades the curve at any capacity fails the
  regression check),
* the trace's access, hit, miss and distinct-key counts.

Everything recorded is deterministic simulated time and counted
accesses; no wall-clock values land in the artifact, so the committed
baseline reproduces byte-for-byte on any machine.
"""

from benchmarks.harness import fmt, record_json, record_table
from repro.server import (
    ObservabilityConfig,
    QueryServer,
    ResilienceConfig,
    SLOObjective,
)
from repro.workloads import TenantSpec, generate_workload
from repro.workloads.generator import GridSpec
from repro.workloads.oilres import build_oil_reservoir_dataset

SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))
SEED = 2006
TENANTS = (
    TenantSpec(
        name="interactive", rate=6.0, num_queries=6,
        mix=(("scan", 2.0), ("join", 1.0), ("aggregate", 1.0)),
    ),
    TenantSpec(
        name="batch", rate=5.0, num_queries=5, process="bursty",
        mix=(("scan", 1.0), ("join", 1.0)),
    ),
)
OBSERVE = ObservabilityConfig(
    window=0.5, slo={"interactive": SLOObjective(availability=0.9)},
)


def make_dataset():
    return build_oil_reservoir_dataset(
        SPEC, num_storage=2, functional=True, seed=7, replication=2,
    )


def chaos_serve():
    """The observed chaos serve whose trace the curve is drawn from."""
    server = QueryServer(
        make_dataset(), num_compute=2, slots=2, sanitize=True,
        faults="seed=9,transient=0.5,max_attempts=2",
        resilience=ResilienceConfig(on_unrecoverable="fail"),
        observe=OBSERVE,
    )
    return server.serve(generate_workload(TENANTS, seed=SEED))


def clean_serve(cache_capacity=None):
    """The same stream served fault-free."""
    server = QueryServer(
        make_dataset(), num_compute=2, slots=2, observe=OBSERVE,
        cache_capacity=cache_capacity,
    )
    return server.serve(generate_workload(TENANTS, seed=SEED))


def run_pair():
    return chaos_serve(), clean_serve()


def test_server_reuse(benchmark):
    observed, baseline = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    reuse = observed.observability["reuse"]
    mrc = reuse["mrc"]["global"]
    trace = reuse["trace"]

    record_table(
        "server_reuse",
        f"Cache reuse observatory — {trace['accesses']} accesses over "
        f"{trace['distinct_keys']} keys, dataset {SPEC.g}",
        ["capacity (B)", "misses", "miss ratio"],
        [
            [p["capacity_bytes"], p["misses"], fmt(p["miss_ratio"], 3)]
            for p in mrc
        ],
        notes=[
            f"fault-free replay: bytes_from_storage "
            f"{baseline.bytes_from_storage}, makespan "
            f"{fmt(baseline.makespan, 6)}s",
        ],
    )
    record_json("server_reuse", {
        "observed_chaos": {"makespan_s": observed.makespan},
        "replay_baseline": {
            "makespan_s": baseline.makespan,
            "bytes_from_storage": baseline.bytes_from_storage,
        },
        "mrc": [
            {
                "capacity_bytes": p["capacity_bytes"],
                "miss_ratio": p["miss_ratio"],
            }
            for p in mrc
        ],
        "trace": {
            "accesses": trace["accesses"],
            "distinct_keys": trace["distinct_keys"],
            "hits": trace["hits"],
            "misses": trace["misses"],
        },
    })

    # curve sanity mirrored from the validator: monotone non-increasing
    misses = [p["misses"] for p in mrc]
    assert all(a >= b for a, b in zip(misses, misses[1:]))
    assert trace["hits"] + trace["misses"] == trace["accesses"]
