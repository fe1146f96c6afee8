"""Concurrency determinism suite for the multi-tenant query server.

The contracts under test:

* a served workload is a pure function of ``(tenants, seed)`` — two
  servers over the same stream produce byte-identical reports;
* reversing the engine's same-instant tie-break may not change the
  semantic outcome (:meth:`ServerReport.digest`);
* concurrent execution answers every query exactly as the serial
  single-query baseline does, while the shared cache strictly beats the
  baseline's cold caches;
* the sanitizer holds across a whole serving run (quiescence, byte
  conservation, zero pinned bytes).
"""

import json

import pytest

from repro.cluster.nodes import MachineSpec
from repro.server import QueryServer, run_serial_baseline
from repro.workloads import QueryArrival, TenantSpec, generate_workload

from .test_chaos import force_grace_hash, make_dataset

TENANTS = (
    TenantSpec(
        name="alice", rate=2.0, num_queries=6,
        mix=(("scan", 2.0), ("join", 1.0)),
    ),
    TenantSpec(
        name="bob", rate=1.5, num_queries=5,
        mix=(("aggregate", 1.0), ("join", 1.0)), process="bursty",
    ),
)
SEED = 42
NUM_QUERIES = 11


def arrivals():
    return generate_workload(TENANTS, seed=SEED)


def serve(dataset=None, functional=True, **kwargs):
    ds = dataset if dataset is not None else make_dataset(functional=functional)
    kwargs.setdefault("policy", "fifo")
    kwargs.setdefault("slots", 2)
    return QueryServer(ds, num_compute=2, **kwargs).serve(arrivals())


class TestDeterminism:
    def test_replay_is_byte_identical(self):
        # independent servers, independent datasets: same seed in, the
        # exact same report out — timing, bytes, cache splits and all
        a = serve()
        b = serve()
        dump = lambda rep: json.dumps(rep.to_payload(), sort_keys=True)
        assert dump(a) == dump(b)
        assert a.admission_order == b.admission_order
        assert a.digest() == b.digest()

    def test_reversed_tie_break_is_digest_identical(self):
        fwd = serve(tie_break="fifo")
        rev = serve(tie_break="reversed")
        assert fwd.digest() == rev.digest()


class TestAgainstSerialBaseline:
    def test_same_answers_better_cache(self):
        ds = make_dataset()
        rep = serve(dataset=ds)
        base = run_serial_baseline(ds, arrivals(), num_compute=2)
        by_qid = {r.qid: r for r in base.records}
        assert len(rep.records) == NUM_QUERIES
        for r in rep.records:
            s = by_qid[r.qid]
            # identical logical outcome, whatever the interleaving did
            assert (r.kind, r.algorithm) == (s.kind, s.algorithm)
            assert r.result_records == s.result_records
            assert r.pairs_joined == s.pairs_joined
        # the whole point of the shared cache: strictly fewer cold reads
        assert rep.cache_hit_rate > base.cache_hit_rate


class TestSanitized:
    def test_sanitized_serve_is_clean_and_unpinned(self):
        ds = make_dataset()
        server = QueryServer(ds, num_compute=2, sanitize=True, slots=3)
        server.serve(arrivals())  # raises SanitizerViolation on any breach

    def test_grace_hash_queries_serve_cleanly(self, monkeypatch):
        # exercises the Grace Hash QES's begin/finish split under
        # concurrent admission
        force_grace_hash(monkeypatch)
        ds = make_dataset()
        server = QueryServer(ds, num_compute=2, policy="spf", sanitize=True)
        rep = server.serve(arrivals())
        # the patch must reach the server: Grace Hash really ran
        assert {r.algorithm for r in rep.records} == {"scan", "grace-hash"}


class TestAdmissionBehaviour:
    @pytest.mark.parametrize("policy", ["fifo", "spf", "fair"])
    def test_every_policy_completes_the_stream(self, policy):
        rep = serve(policy=policy, functional=False)
        assert [r.qid for r in rep.records] == list(range(NUM_QUERIES))
        assert sorted(rep.admission_order) == list(range(NUM_QUERIES))

    def test_single_slot_fifo_admits_in_arrival_order(self):
        # arrivals far faster than joins execute: everyone queues
        tenants = (
            TenantSpec(name="rush", rate=50.0, num_queries=6,
                       mix=(("join", 1.0),), process="bursty"),
        )
        ds = make_dataset(functional=False)
        slow = MachineSpec(disk_read_bw=1e5, link_bw=5e4)
        rep = QueryServer(
            ds, num_compute=2, machine=slow, policy="fifo", slots=1
        ).serve(generate_workload(tenants, seed=9))
        assert rep.admission_order == list(range(6))
        assert any(r.queue_wait > 0 for r in rep.records)

    def test_spf_reorders_under_contention(self):
        # a fast mixed burst on a slow machine: the queue backs up, and
        # spf must jump the cheap queries ahead of the expensive ones
        tenants = (
            TenantSpec(name="rush", rate=50.0, num_queries=8,
                       mix=(("scan", 1.0), ("join", 1.0), ("aggregate", 1.0)),
                       process="bursty"),
        )
        stream = generate_workload(tenants, seed=11)
        slow = MachineSpec(disk_read_bw=1e5, link_bw=5e4)

        def run(policy):
            ds = make_dataset(functional=False)
            return QueryServer(
                ds, num_compute=2, machine=slow, policy=policy, slots=1
            ).serve(stream)

        fifo = run("fifo")
        spf = run("spf")
        assert spf.admission_order != fifo.admission_order
        # when the slot frees, spf picks the cheapest waiting query
        by_qid = {r.qid: r for r in spf.records}
        waiting_checked = 0
        for pos, qid in enumerate(spf.admission_order):
            admitted = by_qid[qid]
            rivals = [
                by_qid[other]
                for other in spf.admission_order[pos + 1:]
                if by_qid[other].arrival_at <= admitted.admitted_at
            ]
            for rival in rivals:
                waiting_checked += 1
                assert admitted.predicted_time <= rival.predicted_time
        assert waiting_checked > 0

    def test_fair_share_rescues_the_quiet_tenant(self):
        # one tenant floods the queue at t~0; the other issues a single
        # query.  Under fair share that query cannot sit behind the
        # whole flood.
        tenants = (
            TenantSpec(name="flood", rate=50.0, num_queries=8,
                       mix=(("scan", 1.0),), process="bursty"),
            TenantSpec(name="quiet", rate=0.5, num_queries=1,
                       mix=(("scan", 1.0),)),
        )
        stream = generate_workload(tenants, seed=3)
        (quiet_qid,) = [a.qid for a in stream if a.tenant == "quiet"]

        slow = MachineSpec(disk_read_bw=1e5, link_bw=5e4)

        def admit_pos(policy):
            ds = make_dataset(functional=False)
            rep = QueryServer(
                ds, num_compute=2, machine=slow, policy=policy, slots=1
            ).serve(stream)
            return rep.admission_order.index(quiet_qid)

        assert admit_pos("fair") < admit_pos("fifo")


class TestArrivalRounding:
    def test_same_instant_admission_an_ulp_early_is_a_zero_wait(self):
        # the arrival source sleeps ``at - now``; 0.444 + (0.945 - 0.444)
        # lands one ulp below 0.945, so the second query is delivered, and
        # with a free slot admitted, "before" it arrived — a queue wait of
        # -1.1e-16 s that used to kill the whole serve in LatencyTracker
        a, b = 0.444, 0.945
        assert a + (b - a) < b
        stream = [
            QueryArrival(qid=0, tenant="alice", kind="scan", at=a, seed=1),
            QueryArrival(qid=1, tenant="alice", kind="scan", at=b, seed=2),
        ]
        rep = QueryServer(
            make_dataset(functional=False), num_compute=2, slots=2
        ).serve(stream)
        late = rep.records[1]
        assert late.admitted_at < late.arrival_at  # the ulp is still visible
        assert late.queue_wait == 0.0
        assert late.latency >= 0.0
        assert rep.disposition_counts["completed"] == 2
        assert rep.tenant_queue_wait["alice"]["max"] >= 0.0


class TestGuards:
    def test_serve_is_single_shot(self):
        ds = make_dataset(functional=False)
        server = QueryServer(ds, num_compute=2)
        server.serve(arrivals())
        with pytest.raises(RuntimeError, match="single-shot"):
            server.serve(arrivals())

    def test_belady_cache_rejected(self):
        with pytest.raises(ValueError, match="belady"):
            QueryServer(make_dataset(functional=False), num_compute=2,
                        cache_policy="belady")

    def test_zero_slots_rejected(self):
        with pytest.raises(ValueError, match="slot"):
            QueryServer(make_dataset(functional=False), num_compute=2, slots=0)

    def test_duplicate_qids_rejected(self):
        ds = make_dataset(functional=False)
        stream = arrivals()
        with pytest.raises(ValueError, match="duplicate qids"):
            QueryServer(ds, num_compute=2).serve([stream[0], stream[0]])

    def test_model_only_dataset_reports_no_records(self):
        rep = serve(functional=False)
        assert all(r.result_records is None for r in rep.records)
