"""Acceptance suite for the serve observatory.

The load-bearing contract: observation is *passive*.  A serve with the
observatory attached must be event-for-event identical to one without —
same digest, same payload (minus the observability section) — while
still emitting a schema-valid ops log, windowed time-series whose
per-window counts reconcile with the report's disposition totals, and a
deterministic burn-rate alert history under injected overload.
"""

import json

import pytest

from repro.server import (
    ObservabilityConfig,
    QueryServer,
    ResilienceConfig,
    SLOObjective,
    SLOTracker,
)
from repro.telemetry.oplog import validate_oplog
from repro.telemetry.validate import validate_observability, validate_report
from repro.workloads import TenantSpec, generate_workload

from .test_chaos import arrivals, make_dataset

#: a stream arriving far faster than one slot drains, with a latency
#: objective tight enough that even completed queries burn the budget —
#: the deterministic overload that must page
OVERLOAD = (
    TenantSpec(name="hot", rate=2000.0, num_queries=20,
               mix=(("join", 1.0),), process="bursty"),
    TenantSpec(name="calm", rate=50.0, num_queries=4,
               mix=(("scan", 1.0),)),
)
OVERLOAD_CONFIG = ObservabilityConfig(
    window=0.002,
    slo={
        "hot": SLOObjective(availability=0.9, latency_target=0.0002),
        "calm": SLOObjective(availability=0.9),
    },
    short_window=0.01, long_window=0.05,
)


def chaos_serve(observe, tie_break="fifo"):
    """The sanitized chaos scenario: transient faults + graceful retry."""
    server = QueryServer(
        make_dataset(replication=2), num_compute=2, slots=2, sanitize=True,
        faults="seed=9,transient=0.5,max_attempts=2",
        resilience=ResilienceConfig(on_unrecoverable="fail"),
        observe=observe, tie_break=tie_break,
    )
    return server, server.serve(arrivals())


def overload_serve():
    stream = generate_workload(OVERLOAD, seed=11)
    server = QueryServer(
        make_dataset(), num_compute=2, slots=1, observe=OVERLOAD_CONFIG,
    )
    return server, server.serve(stream)


OBSERVED = ObservabilityConfig(
    window=0.5, slo={"alice": SLOObjective(availability=0.9)}
)


class TestPassiveObservation:
    def test_chaos_digest_identical_with_and_without_observation(self):
        _, plain = chaos_serve(observe=False)
        _, watched = chaos_serve(observe=OBSERVED)
        assert watched.observability is not None
        assert plain.observability is None
        assert watched.digest() == plain.digest()

    def test_chaos_payload_identical_minus_observability(self):
        _, plain = chaos_serve(observe=False)
        _, watched = chaos_serve(observe=OBSERVED)
        stripped = dict(watched.to_payload())
        assert stripped.pop("observability") is not None
        assert json.dumps(stripped, sort_keys=True) == json.dumps(
            plain.to_payload(), sort_keys=True
        )

    def test_unobserved_payload_has_no_observability_key(self):
        _, plain = chaos_serve(observe=False)
        assert "observability" not in plain.to_payload()


class TestArtifacts:
    def test_chaos_oplog_is_schema_valid(self):
        server, report = chaos_serve(observe=OBSERVED)
        lines = server.observatory.oplog.to_jsonl().splitlines()
        records = [json.loads(line) for line in lines]
        assert validate_oplog(records) == []
        # the chaos plan actually exercised the retry vocabulary
        events = server.observatory.oplog.counts()
        assert events["fault"] > 0
        assert events["retry"] == events["backoff"] > 0
        assert events["recovery"] > 0
        assert events["submit"] == len(report.records)

    def test_observability_section_validates(self):
        _, report = chaos_serve(observe=OBSERVED)
        assert validate_observability(report.observability) == []

    def test_windowed_counts_reconcile_with_disposition_totals(self):
        _, report = chaos_serve(observe=OBSERVED)
        counters = report.observability["timeseries"]["counters"]
        for disposition, total in report.disposition_counts.items():
            name = f"server.disposition.{disposition}"
            if total == 0:
                assert name not in counters
                continue
            track = counters[name]
            assert track["total"] == total
            assert sum(w["count"] for w in track["windows"]) == total

    def test_oplog_terminal_events_match_dispositions(self):
        server, report = chaos_serve(observe=OBSERVED)
        events = server.observatory.oplog.counts()
        counts = report.disposition_counts
        assert events.get("complete", 0) == counts["completed"]
        assert events.get("shed", 0) == counts["shed"]
        assert events.get("failed", 0) == counts["failed"]

    def test_gauges_cover_queue_depth_slots_and_cache(self):
        server, _ = chaos_serve(observe=OBSERVED)
        names = server.observatory.series.gauge_names()
        assert "server.queue_depth" in names
        assert "server.inflight" in names
        assert "server.slot_utilization" in names
        assert "cache.j0.occupancy_bytes" in names
        assert "cache.j0.staged_bytes" in names

    def test_derived_hit_rate_reconciles_with_report(self):
        _, report = chaos_serve(observe=OBSERVED)
        windows = report.observability["derived"]["cache_hit_rate"]
        hits = sum(w["hits"] for w in windows)
        misses = sum(w["misses"] for w in windows)
        assert hits == report.cache_hits
        assert misses == report.cache_misses


class TestBurnRateAlerts:
    def test_overload_fires_at_least_one_alert(self):
        server, report = overload_serve()
        alerts = report.observability["alerts"]
        assert len(alerts) >= 1
        first = alerts[0]
        assert first["tenant"] == "hot"
        assert first["short_burn"] >= SLOTracker.THRESHOLD
        assert first["long_burn"] >= SLOTracker.THRESHOLD
        # the alert is mirrored into the ops log at the same instant
        fired = [
            r for r in server.observatory.oplog.records
            if r["event"] == "alert"
        ]
        assert len(fired) == len(alerts)
        assert fired[0]["t"] == first["fired_at"]

    def test_alert_history_is_deterministic(self):
        _, a = overload_serve()
        _, b = overload_serve()
        assert json.dumps(a.observability, sort_keys=True) == json.dumps(
            b.observability, sort_keys=True
        )

    def test_slo_summary_accounts_every_tracked_event(self):
        _, report = overload_serve()
        slo = report.observability["slo"]
        per_tenant = report.tenant_dispositions
        for tenant in ("hot", "calm"):
            assert slo[tenant]["events"] == sum(per_tenant[tenant].values())
        assert slo["hot"]["bad"] > 0


#: the per-query fields ``ServerReport.digest`` hashes
DIGEST_FIELDS = (
    "qid", "tenant", "kind", "algorithm", "pairs_joined", "result_records", "disposition",
)


def reload_payload(report):
    """The report's JSON dump, read back: it passes ``validate_report``
    and keeps the admission order, the per-tenant dispositions and every
    per-query field the digest hashes."""
    dumped = json.loads(json.dumps(report.to_payload(), sort_keys=True))
    assert validate_report(dumped) == []
    assert dumped["admission_order"] == list(report.admission_order)
    assert dumped["dispositions"]["per_tenant"] == report.tenant_dispositions
    assert [{f: q[f] for f in DIGEST_FIELDS} for q in dumped["queries"]] == [
        {f: getattr(r, f) for f in DIGEST_FIELDS} for r in report.records
    ]
    return dumped


class TestReportRoundTrip:
    def test_payload_reload_preserves_digest_and_dispositions(self):
        _, report = chaos_serve(observe=OBSERVED)
        dumped = reload_payload(report)
        assert dumped["observability"] == report.observability
        assert dumped["makespan_s"] == report.makespan

    def test_round_trip_without_observability(self):
        _, report = chaos_serve(observe=False)
        assert "observability" not in reload_payload(report)


class TestConfig:
    def test_observe_true_uses_defaults(self):
        report = QueryServer(make_dataset(), num_compute=2, observe=True).serve(arrivals())
        assert report.observability is not None
        assert report.observability["timeseries"]["window_s"] == 1.0
        assert report.observability["slo"] == {}

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ObservabilityConfig(window=0.0)
