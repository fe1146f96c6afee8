"""Benchmark: the what-if miss-ratio curve, checked against re-served caches.

The reuse observatory predicts, from one serve's access trace, how many
misses the shared caches would take at each capacity of its grid
(``observability.reuse.mrc.global``).  This re-serves the same stream
with ``QueryServer(cache_capacity=c)`` at every grid capacity and
records, per point, the predicted and the measured misses and whether
they agree (``exact``).  Two streams:

* ``server_reuse``: ``test_server_reuse.py``'s fault-free replay;
* ``smoke``: the CI observed smoke serve — the CLI's built-in tenant
  mix on a 16x16 grid with a storage crash masked by replication.

The curve is the LRU stack-distance replay of the recorded interleaving;
a smaller cache re-times the serve and pinned entries are never victims
(DESIGN.md §14), so a point may miss by a few.  The artifact
``results/BENCH_reuse_validation.json`` records that gap; it changes no
curve.  Everything in it is counted on the simulated clock, so the
committed baseline reproduces on any machine.
"""

from benchmarks.harness import record_json, record_table
from benchmarks.test_server_reuse import clean_serve
from repro.cli import _DEFAULT_TENANTS
from repro.server import ObservabilityConfig, QueryServer, ResilienceConfig
from repro.workloads import TenantSpec, generate_workload
from repro.workloads.generator import GridSpec
from repro.workloads.oilres import build_oil_reservoir_dataset


def serve_smoke(cache_capacity=None):
    """``repro serve --grid 16,16 --p 4,4 --q 2,2 --storage 2 --compute 2
    --seed 7 --functional --replication 2 --faults seed=7,storage_crash=0.3
    --observe`` (the sanitizer, passive, left off)."""
    dataset = build_oil_reservoir_dataset(
        GridSpec(g=(16, 16), p=(4, 4), q=(2, 2)), num_storage=2, functional=True,
        seed=7, replication=2,
    )
    server = QueryServer(
        dataset, num_compute=2, cache_capacity=cache_capacity,
        faults="seed=7,storage_crash=0.3",
        resilience=ResilienceConfig(on_unrecoverable="raise"),
        observe=ObservabilityConfig(),
    )
    tenants = [TenantSpec.from_dict(d) for d in _DEFAULT_TENANTS]
    return server.serve(generate_workload(tenants, seed=7))


STREAMS = {"server_reuse": clean_serve, "smoke": serve_smoke}


def validate(serve):
    """Each grid point of ``serve``'s curve beside the misses measured by
    serving again at that capacity."""
    observed = serve()
    points = []
    for point in observed.observability["reuse"]["mrc"]["global"]:
        measured = serve(cache_capacity=point["capacity_bytes"]).cache_misses
        points.append({
            "capacity_bytes": point["capacity_bytes"],
            "predicted_misses": point["misses"],
            "measured_misses": measured,
            "exact": point["misses"] == measured,
        })
    return {"digest": observed.digest(), "points": points}


def test_reuse_validation(benchmark):
    results = benchmark.pedantic(
        lambda: {name: validate(serve) for name, serve in STREAMS.items()},
        rounds=1, iterations=1,
    )

    rows = [
        [name, p["capacity_bytes"], p["predicted_misses"], p["measured_misses"],
         "exact" if p["exact"] else f"{p['predicted_misses'] - p['measured_misses']:+d}"]
        for name, result in results.items() for p in result["points"]
    ]
    record_table(
        "reuse_validation",
        "What-if miss-ratio curve vs. re-served capacities",
        ["stream", "capacity (B)", "predicted misses", "measured misses", "point"],
        rows,
        notes=[
            f"{name}: exact at {sum(p['exact'] for p in r['points'])} of "
            f"{len(r['points'])} points"
            for name, r in results.items()
        ],
    )
    record_json("reuse_validation", results)

    for result in results.values():
        # the last point, the configured capacity, is the serve itself
        assert result["points"][-1]["exact"]
