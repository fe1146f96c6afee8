"""Benchmark: the observability layer's overhead on a served workload.

Serves the same seeded chaos stream twice — observatory off and on —
and lands both makespans plus the observed run's volume counters (oplog
records, time-series points, windows, alerts) in
``results/BENCH_server_obs.json``.  The headline claim is structural:
observation is passive, so the two simulated makespans (and the serve
digests) are *equal*, not merely close — the "overhead" of watching a
serve is zero simulated seconds by construction.  The volume counts
pin the artifact sizes so a change that silently doubles the ops log
or drops a track shows up in the regression diff, and two ``digest``
leaves pin the artifacts' bytes — the SHA-256 of the ops log's JSONL
and of the report's ``observability`` section — so "byte-identical" is
something ``harness.py check`` enforces, not prose.

Everything recorded is deterministic simulated time and counted events;
no wall-clock values land in the artifact, so the committed baseline
reproduces byte-for-byte on any machine.
"""

import hashlib
import json

from benchmarks.harness import fmt, record_json, record_table
from repro.server import (
    COMPLETED,
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
    window=0.05,
    slo={
        "interactive": SLOObjective(availability=0.9, latency_target=0.05),
        "batch": SLOObjective(availability=0.8),
    },
    short_window=0.2, long_window=0.8,
)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_pair():
    def serve(observe):
        ds = build_oil_reservoir_dataset(
            SPEC, num_storage=2, functional=True, seed=7, replication=2,
        )
        server = QueryServer(
            ds, num_compute=2, slots=2, sanitize=True,
            faults="seed=9,transient=0.5,max_attempts=2",
            resilience=ResilienceConfig(on_unrecoverable="fail"),
            observe=observe,
        )
        return server, server.serve(generate_workload(TENANTS, seed=SEED))

    _, plain = serve(False)
    server, watched = serve(OBSERVE)
    return plain, watched, server


def test_server_obs(benchmark):
    plain, watched, server = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )

    # the structural claim: watching the serve moved nothing
    assert watched.digest() == plain.digest()
    assert watched.makespan == plain.makespan

    obs = watched.observability
    counters = obs["timeseries"]["counters"]
    completed_track = counters[f"server.disposition.{COMPLETED}"]
    n_windows = len(completed_track["windows"])
    volumes = {
        "oplog_records": obs["oplog"]["records"],
        "series_points": server.observatory.series.point_count(),
        "counter_tracks": len(counters),
        "gauge_tracks": len(obs["timeseries"]["gauges"]),
        "windows_per_track": n_windows,
        "alerts": len(obs["alerts"]),
    }

    record_table(
        "server_obs",
        f"Observability overhead — {len(watched.records)} queries, "
        f"dataset {SPEC.g}",
        ["metric", "off", "on"],
        [
            ["makespan (s)", fmt(plain.makespan, 6), fmt(watched.makespan, 6)],
            ["digest", plain.digest()[:12], watched.digest()[:12]],
            ["oplog records", "-", volumes["oplog_records"]],
            ["series points", "-", volumes["series_points"]],
            ["windows/track", "-", volumes["windows_per_track"]],
            ["alerts", "-", volumes["alerts"]],
        ],
        notes=[
            "observation is passive: both simulated makespans are equal by",
            "construction — the rows below size the artifacts it emits.",
        ],
    )
    record_json("server_obs", {
        "observed": {"makespan_s": watched.makespan},
        "unobserved": {"makespan_s": plain.makespan},
        "digest": watched.digest(),
        # the artifacts' bytes, pinned: nested ``digest`` leaves are
        # compared exactly by ``harness.py check``
        "oplog": {"digest": _sha256(server.observatory.oplog.to_jsonl())},
        "observability": {
            "digest": _sha256(json.dumps(obs, sort_keys=True)),
        },
        "volumes": volumes,
    })

    # the chaos stream exercised the full vocabulary worth sizing
    events = obs["oplog"]["events"]
    assert events["fault"] > 0 and events["retry"] > 0
    assert volumes["oplog_records"] > 0
    assert volumes["alerts"] >= 0
    assert sum(
        w["count"] for w in completed_track["windows"]
    ) == watched.disposition_counts[COMPLETED]
