"""Acceptance suite for the cache reuse observatory.

Three contracts, on the same sanitized chaos harness as
``test_observatory.py``:

* recording is byte-free — a serve with the access-trace recorder on is
  digest- and payload-identical (minus ``observability.reuse``) to one
  with it off, even under injected faults;
* the what-if miss-ratio curve is *exact* at the configured capacity on
  fault-free serves: its hit/miss split reproduces the measured cache
  counters, including under capacity pressure with real evictions;
* the reuse section is deterministic across replays and engine
  tie-break inversions.
"""

import json

from repro.server import ObservabilityConfig, QueryServer, SLOObjective
from repro.telemetry.validate import validate_observability

from .test_chaos import arrivals, make_dataset
from .test_observatory import OBSERVED, chaos_serve

NO_REUSE = ObservabilityConfig(
    window=0.5, slo={"alice": SLOObjective(availability=0.9)}, reuse=False
)


def clean_serve(observe=OBSERVED, **kwargs):
    """Fault-free serve — the regime where the MRC is provably exact."""
    server = QueryServer(
        make_dataset(replication=2), num_compute=2, slots=kwargs.pop("slots", 2),
        observe=observe, **kwargs,
    )
    return server, server.serve(arrivals())


class TestByteIdentity:
    def test_chaos_digest_identical_with_and_without_recorder(self):
        _, without = chaos_serve(observe=NO_REUSE)
        _, with_reuse = chaos_serve(observe=OBSERVED)
        assert "reuse" not in without.observability
        assert "reuse" in with_reuse.observability
        assert with_reuse.digest() == without.digest()

    def test_chaos_payload_identical_minus_reuse_section(self):
        _, without = chaos_serve(observe=NO_REUSE)
        _, with_reuse = chaos_serve(observe=OBSERVED)
        stripped = json.loads(
            json.dumps(with_reuse.to_payload(), sort_keys=True)
        )
        assert stripped["observability"].pop("reuse") is not None
        assert json.dumps(stripped, sort_keys=True) == json.dumps(
            without.to_payload(), sort_keys=True
        )

    def test_reuse_section_validates(self):
        _, report = chaos_serve(observe=OBSERVED)
        assert validate_observability(report.observability) == []


class TestExactness:
    def assert_exact_at_configured_capacity(self, report):
        reuse = report.observability["reuse"]
        configured = reuse["capacity_bytes"]
        (point,) = [
            p for p in reuse["mrc"]["global"]
            if p["capacity_bytes"] == configured
        ]
        assert point["hits"] == report.cache_hits
        assert point["misses"] == report.cache_misses

    def test_exact_on_fault_free_serve(self):
        _, report = clean_serve()
        self.assert_exact_at_configured_capacity(report)

    def test_exact_under_capacity_pressure_with_evictions(self):
        server, report = clean_serve(cache_capacity=4096, slots=1)
        evictions = sum(c.stats.evictions for c in server.caches)
        assert evictions > 0, "scenario must actually evict"
        self.assert_exact_at_configured_capacity(report)

    def test_trace_totals_match_measured_counters(self):
        _, report = chaos_serve(observe=OBSERVED)
        trace = report.observability["reuse"]["trace"]
        assert trace["hits"] == report.cache_hits
        assert trace["misses"] == report.cache_misses

    def test_working_set_windows_reconcile(self):
        _, report = chaos_serve(observe=OBSERVED)
        reuse = report.observability["reuse"]
        windows = reuse["working_set"]["windows"]
        assert sum(w["accesses"] for w in windows) == \
            reuse["trace"]["accesses"]


class TestAdvisorDeterminism:
    """The reuse section, byte for byte, under replay and tie-break
    inversion."""

    def test_identical_across_replays(self):
        _, a = chaos_serve(observe=OBSERVED)
        _, b = chaos_serve(observe=OBSERVED)
        assert json.dumps(
            a.observability["reuse"], sort_keys=True
        ) == json.dumps(b.observability["reuse"], sort_keys=True)

    def test_reuse_section_survives_tie_break_inversion(self):
        # fault-free: the regime where the serve digest itself is pinned
        # invariant under inversion (chaos fault injection is event-order
        # dependent, so there even the digest legitimately moves)
        _, fwd = clean_serve(tie_break="fifo")
        _, rev = clean_serve(tie_break="reversed")
        assert fwd.digest() == rev.digest()
        assert json.dumps(
            fwd.observability["reuse"], sort_keys=True
        ) == json.dumps(rev.observability["reuse"], sort_keys=True)

    def test_per_tenant_curves_cover_every_tenant(self):
        _, report = chaos_serve(observe=OBSERVED)
        per_tenant = report.observability["reuse"]["mrc"]["per_tenant"]
        assert sorted(per_tenant) == ["alice", "bob"]
        for points in per_tenant.values():
            misses = [p["misses"] for p in points]
            assert all(x >= y for x, y in zip(misses, misses[1:]))
