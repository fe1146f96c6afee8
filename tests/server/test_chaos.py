"""Chaos harness: the query server under injected faults, deadlines and
overload.

Every serve here is sanitized, so each one already asserts the
quiescence clauses of the serving contract (DESIGN.md §12): exactly one
terminal disposition per query, no leaked slot, pin or staged byte, a
conserved byte ledger and no answer on a query that did not complete.
The whole contract — shadow serve, lifecycle grammar and serial-baseline
answers included — is drawn as one property in
``test_lifecycle_channel.py``; the tests left here pin what a drawn
configuration cannot assert: that a given policy or fault plan has the
effect it is for (masking, retrying, shedding, expiring).
"""

import dataclasses

import pytest

from repro.analysis.sanitizer import SanitizerViolation
from repro.cluster.events import SimEngine
from repro.cluster.nodes import MachineSpec
from repro.faults.errors import UnrecoverableFault
from repro.server import (
    COMPLETED,
    DEADLINE_EXCEEDED,
    FAILED,
    SHED,
    QueryServer,
    ResilienceConfig,
    RetryPolicy,
)
from repro.server import server as server_mod
from repro.services.cache import CachingService, QueryCacheView, make_policy
from repro.workloads import TenantSpec, generate_workload
from repro.workloads.arrivals import QueryArrival
from repro.workloads.generator import GridSpec
from repro.workloads.oilres import build_oil_reservoir_dataset

SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))
#: slow fabric so queries overlap, queue and get caught mid-flight
SLOW = MachineSpec(disk_read_bw=1e5, link_bw=5e4)
TENANTS = (
    TenantSpec(
        name="alice", rate=6.0, num_queries=6,
        mix=(("scan", 2.0), ("join", 1.0), ("aggregate", 1.0)),
    ),
    TenantSpec(
        name="bob", rate=5.0, num_queries=5, process="bursty",
        mix=(("scan", 1.0), ("join", 1.0)),
    ),
)
NUM_QUERIES = 11
#: arrivals far faster than the slot can drain — forces a deep queue
BURSTY = tuple(dataclasses.replace(t, rate=50.0) for t in TENANTS)


def make_dataset(replication=1, functional=True, spec=SPEC):
    return build_oil_reservoir_dataset(
        spec, num_storage=2, functional=functional, seed=7,
        replication=replication,
    )


def arrivals(seed=42, deadline=None, tenants=TENANTS):
    out = generate_workload(tenants, seed=seed)
    if deadline is not None:
        out = [dataclasses.replace(a, deadline=deadline) for a in out]
    return out


def force_grace_hash(monkeypatch):
    """Route every join/aggregate through the Grace Hash QES instead of
    the planner's pick."""
    original = server_mod.build_query

    def force_gh(dataset, planner, arrival):
        planned = original(dataset, planner, arrival)
        if planned.kind == "scan":
            return planned
        return dataclasses.replace(planned, algorithm="grace-hash")

    monkeypatch.setattr(server_mod, "build_query", force_gh)


class TestMaskedFaults:
    """Fault plans the deployment can absorb: everything still completes
    (the contract property checks the answers against the baseline)."""

    def test_storage_crash_masked_by_replication(self):
        stream = arrivals()
        server = QueryServer(
            make_dataset(replication=2), num_compute=2, sanitize=True,
            faults="seed=7,storage_crash=0.3",
            resilience=ResilienceConfig(on_unrecoverable="raise"),
        )
        rep = server.serve(stream)
        assert rep.disposition_counts[COMPLETED] == NUM_QUERIES

    @pytest.mark.parametrize("rate", [0.05, 0.2, 0.4])
    def test_transient_storms_fully_masked(self, rate):
        # default max_attempts=8 masks every storm inside the QES layer
        stream = arrivals()
        server = QueryServer(
            make_dataset(replication=2), num_compute=2, sanitize=True,
            faults=f"seed=9,transient={rate}",
            resilience=ResilienceConfig(on_unrecoverable="raise"),
        )
        rep = server.serve(stream)
        assert rep.disposition_counts[COMPLETED] == NUM_QUERIES


class TestRetries:
    def test_scan_killed_by_compute_crash_retries_on_survivor(self):
        stream = [QueryArrival(qid=0, tenant="a", kind="scan", at=0.0, seed=1)]
        server = QueryServer(
            make_dataset(), num_compute=2, machine=SLOW, sanitize=True,
            faults="compute_crash=0.002@0",
        )
        rep = server.serve(stream)
        (r,) = rep.records
        assert r.disposition == COMPLETED and r.retries == 1

    def test_retry_budget_exhaustion_is_terminal_failed(self):
        # transients with max_attempts=2 leak through QES recovery as
        # unrecoverable; the server retries each kill with fresh fault
        # draws — some queries are salvaged, the rest fail at the budget
        stream = arrivals()
        cfg = ResilienceConfig(retry=RetryPolicy(budget=3))
        server = QueryServer(
            make_dataset(), num_compute=2, sanitize=True,
            faults="seed=9,transient=0.5,max_attempts=2", resilience=cfg,
        )
        rep = server.serve(stream)
        failed = [r for r in rep.records if r.disposition == FAILED]
        salvaged = [
            r for r in rep.records if r.disposition == COMPLETED and r.retries
        ]
        assert failed and salvaged
        for r in failed:
            assert r.retries == cfg.retry.budget
            assert r.failure  # names the killing fault


class TestUnrecoverable:
    def test_graceful_mode_records_failed_and_keeps_serving(self):
        stream = arrivals()
        server = QueryServer(
            make_dataset(replication=1), num_compute=2, sanitize=True,
            faults="seed=7,storage_crash=0.3",
            resilience=ResilienceConfig(on_unrecoverable="fail"),
        )
        rep = server.serve(stream)
        assert rep.disposition_counts[FAILED] > 0

    def test_strict_mode_raises_structured_error(self):
        with pytest.raises(UnrecoverableFault):
            QueryServer(
                make_dataset(replication=1), num_compute=2,
                faults="seed=7,storage_crash=0.3",
                resilience=ResilienceConfig(on_unrecoverable="raise"),
            ).serve(arrivals())


class TestDeadlines:
    def test_tight_slo_expires_queries_cleanly(self):
        stream = arrivals(deadline=0.02)
        server = QueryServer(
            make_dataset(), num_compute=2, machine=SLOW, slots=1,
            sanitize=True,
        )
        rep = server.serve(stream)
        expired = [r for r in rep.records if r.disposition == DEADLINE_EXCEEDED]
        assert expired
        for r in expired:
            # the terminal point is the deadline instant itself (the
            # abort unwinds within the same simulated instant)
            assert r.latency == pytest.approx(0.02)

    def test_deadline_while_queued_never_holds_a_slot(self):
        # q0 occupies the only slot with a join; q1's SLO expires long
        # before the slot frees
        stream = [
            QueryArrival(qid=0, tenant="a", kind="join", at=0.0, seed=1),
            QueryArrival(
                qid=1, tenant="b", kind="scan", at=0.0, seed=2, deadline=0.001
            ),
        ]
        server = QueryServer(
            make_dataset(), num_compute=2, machine=SLOW, slots=1,
            sanitize=True,
        )
        rep = server.serve(stream)
        by_qid = {r.qid: r for r in rep.records}
        assert by_qid[0].disposition == COMPLETED
        assert by_qid[1].disposition == DEADLINE_EXCEEDED
        assert by_qid[1].admitted_at is None  # expired while queued
        assert by_qid[1].exec_time == 0.0

    def test_mid_execution_abort_freezes_partial_stats(self):
        # one join alone, with an SLO that lands mid-execution: the abort
        # tears down the QES process tree, the record freezes the bytes
        # the attempt had claimed, and no pin survives
        probe = [QueryArrival(qid=0, tenant="a", kind="join", at=0.0, seed=1)]
        full = QueryServer(
            make_dataset(), num_compute=2, machine=SLOW
        ).serve(probe).records[0]
        assert full.exec_time > 0
        cut = full.exec_time / 2
        stream = [dataclasses.replace(probe[0], deadline=cut)]
        server = QueryServer(
            make_dataset(), num_compute=2, machine=SLOW, sanitize=True
        )
        rep = server.serve(stream)
        (r,) = rep.records
        assert r.disposition == DEADLINE_EXCEEDED
        assert r.admitted_at is not None
        # partial work is accounted but bounded by the full execution
        assert 0 <= r.bytes_from_storage <= full.bytes_from_storage
        assert r.result_records is None

class TestOverload:
    def test_bounded_queue_sheds_reject_newest(self):
        stream = arrivals(tenants=BURSTY)
        server = QueryServer(
            make_dataset(), num_compute=2, machine=SLOW, slots=1,
            sanitize=True, resilience=ResilienceConfig(queue_limit=2),
        )
        rep = server.serve(stream)
        shed = [r for r in rep.records if r.disposition == SHED]
        assert shed
        for r in shed:
            assert r.admitted_at is None  # never held a slot
            assert r.latency == 0.0  # rejected at its own arrival instant
            assert "queue-full" in r.failure

    def test_reject_lowest_priority_evicts_expensive_waiter(self):
        stream = arrivals(tenants=BURSTY)
        server = QueryServer(
            make_dataset(), num_compute=2, machine=SLOW, slots=1,
            sanitize=True,
            resilience=ResilienceConfig(
                queue_limit=2, shed_policy="reject-lowest-priority"
            ),
        )
        rep = server.serve(stream)
        shed = [r for r in rep.records if r.disposition == SHED]
        assert shed
        assert all("lowest-priority" in r.failure for r in shed)
        # the shed set is the predicted-expensive tail, not the newest:
        # it must differ from what drop-tail would have shed
        drop_tail = QueryServer(
            make_dataset(), num_compute=2, machine=SLOW, slots=1,
            resilience=ResilienceConfig(queue_limit=2),
        ).serve(stream)
        newest = {r.qid for r in drop_tail.records if r.disposition == SHED}
        assert {r.qid for r in shed} != newest

    def test_token_bucket_isolates_the_bursty_tenant(self):
        stream = arrivals(tenants=BURSTY)
        server = QueryServer(
            make_dataset(), num_compute=2, sanitize=True,
            resilience=ResilienceConfig(shed_policy="token-bucket"),
        )
        rep = server.serve(stream)
        per_tenant = rep.tenant_dispositions
        # bob is the bursty over-submitter; alice's own bucket only
        # throttles alice — shedding one tenant never charges another
        assert per_tenant["bob"].get(SHED, 0) > 0


class TestReplayAndReporting:
    def test_latency_percentiles_exclude_non_completed(self):
        stream = arrivals(deadline=0.02)
        server = QueryServer(
            make_dataset(), num_compute=2, machine=SLOW, slots=1,
        )
        rep = server.serve(stream)
        completed = [r for r in rep.records if r.disposition == COMPLETED]
        assert 0 < len(completed) < len(rep.records)
        counted = sum(
            int(stats["count"]) for stats in rep.tenant_latency.values()
        )
        assert counted == len(completed)
        # the expired queries all pinned latency to the deadline; were
        # they counted, every max would be >= 0.02
        for stats in rep.tenant_latency.values():
            assert stats["max"] < 0.02
        # ...but they are visible in the per-disposition breakdown
        keys = set()
        for tenant in rep.disposition_latency:
            keys.add(tenant.split("/", 1)[1])
        assert DEADLINE_EXCEEDED in keys

    def test_goodput_and_disposition_counts_reported(self):
        stream = arrivals(tenants=BURSTY)
        server = QueryServer(
            make_dataset(), num_compute=2, machine=SLOW, slots=1,
            resilience=ResilienceConfig(queue_limit=2),
        )
        rep = server.serve(stream)
        counts = rep.disposition_counts
        assert counts[COMPLETED] + counts[SHED] == NUM_QUERIES
        assert rep.goodput == pytest.approx(counts[COMPLETED] / rep.makespan)
        data = rep.to_payload()
        assert data["goodput_qps"] == rep.goodput
        assert data["dispositions"]["totals"] == counts
        assert set(data["dispositions"]["per_tenant"]) == {"alice", "bob"}


class TestQuiescenceGates:
    """Each quiesce clause fails on the protocol break it guards.  The
    sanitizer's admission clauses matter where the server's own count
    check cannot see: an unsanitized serve with the same break returns a
    report as if nothing happened."""

    def _serve(self, stream, sanitize=False):
        server = QueryServer(make_dataset(), num_compute=2, machine=SLOW, sanitize=sanitize)
        return server, server.serve(stream)

    def test_a_leaked_slot_fails_the_sanitized_serve(self, monkeypatch):
        finalize = QueryServer._finalize

        def leaky(self, entry, *args, release_slot=False, **kwargs):
            # the `_finalize never releases` mutation, for query 0 only
            finalize(self, entry, *args, release_slot=release_slot and entry.qid != 0,
                     **kwargs)

        monkeypatch.setattr(QueryServer, "_finalize", leaky)
        stream = arrivals()
        server, report = self._serve(stream)
        assert len(report.records) == len(stream)
        assert server._slots_free == server.slots - 1
        with pytest.raises(SanitizerViolation, match="1 of 2 admission slots free"):
            self._serve(stream, sanitize=True)

    def test_a_lost_terminal_record_fails_the_sanitized_serve(self, monkeypatch):
        finalize = QueryServer._finalize

        def misfiled(self, entry, *args, **kwargs):
            finalize(self, entry, *args, **kwargs)
            if entry.qid == 1:
                # retired under another query's qid: the terminal count
                # still equals the submitted count
                self._records[0] = self._records.pop(1)

        monkeypatch.setattr(QueryServer, "_finalize", misfiled)
        stream = arrivals()
        _, report = self._serve(stream)
        assert len(report.records) == len(stream) - 1
        with pytest.raises(SanitizerViolation, match=r"no record for qids \[1\]"):
            self._serve(stream, sanitize=True)

    @pytest.mark.parametrize("clause, match", [
        ("ledger", "but its records sum to"), ("answer", "yet reports an answer"),
    ])
    def test_a_broken_record_fails_the_sanitized_serve(self, monkeypatch, clause, match):
        finalize = QueryServer._finalize

        def broken(self, entry, disposition, outcome, *args, **kwargs):
            if disposition != COMPLETED and clause == "answer":
                outcome.result_records = 0  # an expired query "answers"
            finalize(self, entry, disposition, outcome, *args, **kwargs)
            if disposition != COMPLETED and clause == "ledger":
                self._bytes_from_storage -= outcome.bytes_from_storage  # unbilled

        monkeypatch.setattr(QueryServer, "_finalize", broken)
        server = QueryServer(make_dataset(), 2, machine=SLOW, slots=1, sanitize=True)
        with pytest.raises(SanitizerViolation, match=match):
            server.serve(arrivals(deadline=0.02))


class TestCacheViewUnwind:
    """Per-query stat attribution when a query dies mid-flight: its pins
    release, its private ledger freezes at the unwind point, and the
    shared cache's totals stay the exact sum of the per-query views."""

    def test_interrupted_view_freezes_and_releases(self):
        engine = SimEngine()
        shared = CachingService(10_000, make_policy("lru"))
        view_a = QueryCacheView(shared)
        view_b = QueryCacheView(shared)

        def query_a():
            with view_a.pin_scope() as scope:
                assert view_a.get("k0") is None  # miss
                scope.put("k0", "v0", 100, pin=True)
                yield engine.timeout(1.0)  # killed here at t=0.6
                view_a.get("k1")  # never reached
                scope.put("k1", "v1", 100, pin=True)

        def query_b():
            yield engine.timeout(0.5)
            assert view_b.get("k0") == "v0"  # hit on qa's insertion
            assert view_b.get("k2") is None  # miss

        proc_a = engine.process(query_a(), name="qa")
        engine.process(query_b(), name="qb")

        def killer():
            yield engine.timeout(0.6)
            proc_a.interrupt(RuntimeError("deadline"))

        engine.process(killer(), name="killer")
        engine.run()
        # pins released by the unwinding scope
        assert shared.pinned_bytes == 0
        # qa's ledger froze at the interrupt: one miss, nothing after
        assert (view_a.stats.hits, view_a.stats.misses) == (0, 1)
        assert (view_b.stats.hits, view_b.stats.misses) == (1, 1)
        # shared totals are exactly the sum of the per-query views
        assert shared.stats.hits == view_a.stats.hits + view_b.stats.hits
        assert shared.stats.misses == view_a.stats.misses + view_b.stats.misses
