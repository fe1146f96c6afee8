"""The engine's event channel as the contract (DESIGN.md §13).

``SimEngine.subscribe`` is the one place the cluster layer can be watched
from.  A recording subscriber — living here, in the test tree — rides
along on both QES, both topologies and a set of faulted runs, and
everything the telemetry hub and the sanitizer rely on is asserted from
the recorded events alone:

* ``reserve`` events carry whole reservations, and they are the only
  record of device time: recounted per resource they name only the
  cluster's resources and end where each one's FIFO frontier stands; up
  to the partition barrier a joiner's scratch reservations sum to Grace
  Hash's Write term (to rounding); and they obey the FIFO calculus — a
  reservation starts no earlier than it was asked for nor than the
  previous one on its resource ended, which is the invariant the hub's
  resource spans are recorded under;
* ``storage_read`` events carry the event their reader waits on: the
  bytes of those that succeeded are the sanitizer's ``transferred_ok``,
  and on a fault-free run the report's ``bytes_from_storage``;
* ``transfer`` events are what the ``net.*`` instruments count;
* ``fault`` events are the plan's crashes and degradations plus one per
  transient failure, and what the ``faults.*`` counters count;
* subscribers are passive: a watched run and an unwatched one have equal
  ``full_digest`` under both tie-breaks.

A callable equal to one already subscribed is dropped (the cache's rule),
so re-attaching the same sink does not double-deliver.
"""

import math
from collections import Counter

import pytest

from repro.analysis.sanitizer import RunSanitizer, full_digest
from repro.cluster import BandwidthResource, SimEngine, nfs_cluster, paper_cluster
from repro.faults import FaultPlan, StorageNodeDown, TransientTransferFault
from repro.joins import GraceHashQES, IndexedJoinQES
from repro.workloads import GridSpec, build_oil_reservoir_dataset

SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))  # p > q: left sub-tables shared


class Recorder:
    """Recording subscriber: ``(kind, fields)`` in emission order."""

    def __init__(self, engine):
        self.events = []
        engine.subscribe(self)

    def __call__(self, kind, *fields):
        self.events.append((kind, fields))

    def of(self, kind):
        return [fields for k, fields in self.events if k == kind]


class Run:
    """One QES execution on a fresh cluster, optionally watched."""

    def __init__(self, qes="ij", nfs=False, n_j=2, faults=None, replication=1,
                 watched=True, tie_break="fifo", **qes_kwargs):
        dataset = build_oil_reservoir_dataset(
            SPEC, num_storage=1 if nfs else 2, functional=False,
            replication=replication,
        )
        kwargs = dict(faults=faults, tie_break=tie_break, telemetry=watched)
        self.cluster = (
            nfs_cluster(n_j, **kwargs) if nfs else paper_cluster(2, n_j, **kwargs)
        )
        self.recorder = self.sanitizer = None
        if watched:
            self.recorder = Recorder(self.cluster.engine)
            self.sanitizer = RunSanitizer()
        cls = IndexedJoinQES if qes == "ij" else GraceHashQES
        self.report = cls(
            self.cluster, dataset.metadata, "T1", "T2", dataset.join_attrs,
            dataset.provider, sanitizer=self.sanitizer, **qes_kwargs,
        ).run()

    def resources(self):
        c = self.cluster
        out = [s.disk for s in c.storage_nodes] + [j.cpu for j in c.compute_nodes]
        out += [j.scratch for j in c.compute_nodes if j.has_local_disk]
        out += [c.fabric.nic(n) for n in range(c.num_storage + c.num_compute)]
        return out


TRANSIENT = dict(faults="seed=7,transient=0.2,storage_crash=0.05", replication=2)
DEGRADE = dict(faults="seed=5,disk_degrade=0.0002:0.5,nic_degrade=0.0003:0.5")
CONFIGS = {
    "ij-sync": dict(qes="ij"),
    "ij-pipeline": dict(qes="ij", pipeline=True),
    "gh": dict(qes="gh"),
    "nfs-ij": dict(qes="ij", nfs=True),
    "nfs-gh": dict(qes="gh", nfs=True),
    "transient+storage-crash-ij": dict(qes="ij", **TRANSIENT),
    "transient+storage-crash-ij-pipeline": dict(qes="ij", pipeline=True, **TRANSIENT),
    "transient+storage-crash-gh": dict(qes="gh", **TRANSIENT),
    # mid-run: the dead joiner's pairs are reassigned (Grace Hash cannot
    # survive a compute crash, so only the Indexed Join runs it)
    "compute-crash-ij": dict(qes="ij", n_j=3, faults="seed=3,compute_crash=0.0003"),
    "degrade-ij": dict(qes="ij", **DEGRADE),
    "degrade-gh": dict(qes="gh", **DEGRADE),
}


@pytest.fixture(scope="module", params=list(CONFIGS))
def run(request):
    return Run(**CONFIGS[request.param])


class TestReserve:
    def test_recount_equals_resource_stats(self, run):
        per = {}
        for name, now, start, end, _nbytes in run.recorder.of("reserve"):
            per.setdefault(name, []).append((now, start, end))
        assert sum(len(v) for v in per.values()) > 0
        # the Write term is the joiner's scratch time before the barrier
        # (a bucket read is asked for at the barrier or after it)
        report = run.report
        barrier = report.extras.get("partition_phase_time", 0.0)
        for j, pb in enumerate(report.per_joiner):
            if not run.cluster.joiner(j).has_local_disk:
                assert pb.scratch_write == 0.0
                continue
            written = math.fsum(
                end - start
                for now, start, end in per.get(f"c{j}.scratch", [])
                if now < barrier
            )
            assert (written > 0) == (report.algorithm == "grace-hash")
            assert pb.scratch_write == pytest.approx(written, rel=1e-9, abs=1e-15)
        for res in run.resources():
            events = per.pop(res.name, [])
            assert max((e for _, _, e in events), default=0.0) == res._busy_until
        assert per == {}  # no event names a resource the cluster lacks

    def test_fifo_calculus(self, run):
        last_end = {}
        for name, now, start, end, nbytes in run.recorder.of("reserve"):
            assert now <= start <= end
            assert start >= last_end.get(name, 0.0)
            assert nbytes >= 0
            last_end[name] = end


class TestStorageRead:
    def test_succeeded_bytes_are_the_sanitizers_tally(self, run):
        reads = run.recorder.of("storage_read")
        assert reads
        assert all(ev.triggered for ev, *_ in reads)  # the engine drained
        ok = sum(nbytes for ev, _s, _c, nbytes in reads if ev.ok)
        assert ok == run.sanitizer.transferred_ok
        assert len(reads) == run.sanitizer.checks["transfer"]
        if run.cluster.faults is None:
            assert ok == run.report.bytes_from_storage
        else:
            assert ok >= run.report.bytes_from_storage

    def test_every_served_read_rides_on_a_transfer(self, run):
        c = run.cluster
        last_transfer = None
        for kind, fields in run.recorder.events:
            if kind == "transfer":
                last_transfer = fields
            elif kind == "storage_read":
                ev, storage, compute, nbytes = fields
                wire = (
                    c.storage_nodes[storage].fabric_id, c.joiner(compute).fabric_id, nbytes
                )
                if last_transfer != wire:
                    # refused before touching a resource: the node was dead
                    assert isinstance(ev.value, StorageNodeDown)
                    assert storage in c.faults.dead_storage
                last_transfer = None


class TestTransferAndFault:
    def test_transfers_are_what_net_instruments_count(self, run):
        metrics = run.cluster.telemetry.metrics
        moved = [nbytes for _src, _dst, nbytes in run.recorder.of("transfer")]
        assert metrics.get("net.transfers").value == len(moved)
        assert metrics.get("net.transfer_bytes").count == len(moved)
        assert metrics.get("net.transfer_bytes").total == sum(moved)

    def test_faults_are_the_plan_and_the_counters(self, run):
        names = Counter(name for name, _node, _factor in run.recorder.of("fault"))
        metrics = run.cluster.telemetry.metrics
        if run.cluster.faults is None:
            assert not names
            assert "faults.transient_failures" not in metrics
            return
        plan = run.cluster.faults.plan
        crashes = Counter(c.kind for c in plan.crashes)
        # the engine drained, so every planned onset fired exactly once
        assert names["storage-crash"] == crashes["storage"]
        assert names["compute-crash"] == crashes["compute"]
        degraded = Counter(d.kind for d in plan.degradations)
        assert names["disk-degradation"] == degraded["disk"]
        assert names["nic-degradation"] == degraded["nic"]
        assert (names["transient-fault"] > 0) == (plan.transfer_failure_rate > 0)
        assert set(names) <= {
            "storage-crash", "compute-crash", "disk-degradation",
            "nic-degradation", "transient-fault",
        }
        assert metrics.get("faults.storage_crashes").value == names["storage-crash"]
        assert metrics.get("faults.compute_crashes").value == names["compute-crash"]
        assert metrics.get("faults.degradations").value == (
            names["disk-degradation"] + names["nic-degradation"]
        )
        assert metrics.get("faults.transient_failures").value == (
            names["transient-fault"]
        )
        for name, node, factor in run.recorder.of("fault"):
            assert (factor is not None) == name.endswith("-degradation")
            limit = (
                run.cluster.num_compute if name == "compute-crash"
                else run.cluster.num_storage
            )
            assert 0 <= node < limit
        markers = [
            s for s in run.cluster.telemetry.recorder.spans if s.category == "fault"
        ]
        assert Counter(s.name for s in markers) == names

    def test_each_transient_fault_fails_one_read(self, run):
        failed = sum(
            isinstance(ev.value, TransientTransferFault)
            for ev, *_ in run.recorder.of("storage_read")
        )
        names = [name for name, *_ in run.recorder.of("fault")]
        assert failed == names.count("transient-fault")


class TestPassive:
    @pytest.mark.parametrize("tie_break", ["fifo", "reversed"])
    @pytest.mark.parametrize("config", list(CONFIGS))
    def test_watched_run_equals_unwatched(self, config, tie_break):
        watched = Run(tie_break=tie_break, **CONFIGS[config])
        plain = Run(tie_break=tie_break, watched=False, **CONFIGS[config])
        assert plain.cluster.engine._subscribers == []
        assert full_digest(watched.report) == full_digest(plain.report)
        assert watched.cluster.engine.now == plain.cluster.engine.now


class TestSubscribe:
    def reserve_twice(self, engine, dev):
        def proc():
            yield dev.reserve_at_rate(50, dev.bandwidth)
            yield dev.reserve_at_rate(30, dev.bandwidth)

        engine.drive(engine.process(proc()))

    def test_equal_subscriber_is_dropped(self):
        engine = SimEngine()
        first = Recorder(engine)
        engine.subscribe(first)  # the same callable again: a no-op
        second = Recorder(engine)  # a different one: delivered to as well
        self.reserve_twice(engine, BandwidthResource(engine, 10.0, name="dev"))
        assert first.events == [
            ("reserve", ("dev", 0.0, 0.0, 5.0, 50)),
            ("reserve", ("dev", 5.0, 5.0, 8.0, 30)),
        ]
        assert second.events == first.events

    def test_reattached_sanitizer_counts_a_read_once(self):
        # a sink that subscribes a bound method: two bound methods of one
        # object are equal, so the rule covers it
        cluster = paper_cluster(1, 1)
        san = RunSanitizer()
        san.attach_engine(cluster.engine)
        san.attach_engine(cluster.engine)

        def reader():
            yield cluster.read_and_send(0, 0, 100)

        cluster.engine.drive(cluster.engine.process(reader()))
        assert (san.checks["transfer"], san.transferred_ok) == (1, 100)

    def test_events_follow_the_state_change(self):
        engine = SimEngine()
        dev = BandwidthResource(engine, 10.0, name="dev")
        seen = []
        engine.subscribe(lambda kind, *f: seen.append(dev._busy_until))
        self.reserve_twice(engine, dev)
        assert seen == [5.0, 8.0]

    def test_fault_fields(self):
        # name, node, factor — one event per plan entry once the engine
        # has drained; the names are the injector's, pinned here
        plan = FaultPlan.parse(
            "seed=1,storage_crash=0.0001@0,compute_crash=0.0002@1,"
            "disk_degrade=0.0001:0.5@1,nic_degrade=0.0001:0.5@0"
        )
        cluster = paper_cluster(2, 2, faults=plan)
        rec = Recorder(cluster.engine)
        cluster.engine.run()
        assert sorted(rec.of("fault")) == [
            ("compute-crash", 1, None), ("disk-degradation", 1, 0.5),
            ("nic-degradation", 0, 0.5), ("storage-crash", 0, None),
        ]
