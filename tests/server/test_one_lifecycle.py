"""One supervisor loop, and every attempt a QES (DESIGN.md §12).

The server used to execute a query by one of two codes — an inline "fast
path" when there was no fault plan and no deadline, a supervised attempt
process otherwise — and a scan by a third, private one.  Two things made
deleting two of them safe, and both are pinned here:

* the fast path and the supervised path were two codes for one
  behaviour: a stream on which a deadline exists but no query misses it
  serves byte-for-byte like the same stream with no deadline at all;
* every process that executes anything is a QES process: an attempt's
  process is its QES driver (``q{qid}-scan`` / ``-ij`` / ``-gh``), there
  is no ``server-q{qid}.x{n}`` wrapper around it, and no ``server-*``
  process ever moves a byte.
"""

import dataclasses
import json
import re
from collections import Counter

import pytest

from repro.server import QueryServer, ResilienceConfig, RetryPolicy
from repro.workloads import GridSpec, TenantSpec, generate_workload
from repro.workloads.oilres import build_oil_reservoir_dataset

from .test_chaos import SLOW, arrivals, make_dataset

#: 120 queries dense enough that three slots stay busy and queries queue
DENSE = (
    TenantSpec(name="interactive", rate=3000.0, num_queries=60,
               mix=(("scan", 2.0), ("join", 1.0))),
    TenantSpec(name="batch", rate=1000.0, num_queries=30, process="bursty",
               mix=(("aggregate", 2.0), ("join", 1.0))),
    TenantSpec(name="analyst", rate=1500.0, num_queries=30,
               mix=(("scan", 1.0), ("aggregate", 1.0))),
)
GRIDS = {
    "p>q": GridSpec(g=(32, 32), p=(8, 8), q=(4, 4)),
    "p<q": GridSpec(g=(32, 32), p=(4, 4), q=(8, 8)),
}


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_a_deadline_nobody_misses_changes_no_byte(grid, seed):
    stream = generate_workload(DENSE, seed=seed)
    payloads = []
    for deadline in (None, 1000.0):
        dataset = build_oil_reservoir_dataset(
            GRIDS[grid], num_storage=2, functional=True, seed=seed
        )
        server = QueryServer(dataset, num_compute=3, slots=3)
        report = server.serve(
            [dataclasses.replace(a, deadline=deadline) for a in stream]
        )
        assert report.completed_queries == 120
        assert max(r.queue_wait for r in report.records) > 0  # they did queue
        payloads.append(json.dumps(report.to_payload(), sort_keys=True))
    assert payloads[0] == payloads[1]


class ProcessProbe:
    """Names every process the engine spawns, and — from the engine's
    event channel — which process was running at every storage read."""

    def __init__(self, server):
        engine = self.engine = server.cluster.engine
        self.spawned = []
        self.readers = Counter()
        spawn = engine.process

        def process(gen, name=None, contain=()):
            self.spawned.append(name)
            return spawn(gen, name=name, contain=contain)

        engine.process = process
        engine.subscribe(self)

    def __call__(self, kind, *fields):
        if kind == "storage_read":
            self.readers[self.engine.current_process.name] += 1


DRIVER = re.compile(r"q(\d+)-(scan|ij|gh)")
TAG = {"scan": "scan", "indexed-join": "ij", "grace-hash": "gh"}

SCENARIOS = {
    "fault-free": dict(),
    "deadline": dict(deadline=0.02, slots=1),
    "transient-retries": dict(
        faults="seed=9,transient=0.5,max_attempts=2",
        resilience=ResilienceConfig(retry=RetryPolicy(budget=3)),
    ),
    "compute-crash": dict(
        faults="seed=3,compute_crash=0.3", replication=2, num_compute=3
    ),
    "everything": dict(
        faults="seed=5,transient=0.3,storage_crash=0.1", replication=2,
        deadline=0.5,
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_attempt_is_a_qes_driver(name):
    scenario = dict(SCENARIOS[name])
    stream = arrivals(deadline=scenario.pop("deadline", None))
    server = QueryServer(
        make_dataset(replication=scenario.pop("replication", 1)),
        scenario.pop("num_compute", 2), machine=SLOW, sanitize=True, **scenario,
    )
    probe = ProcessProbe(server)
    report = server.serve(stream)  # sanitized: the quiesce clauses hold

    # the server's own processes: the two loops and one lifecycle per query
    own = [n for n in probe.spawned if n.startswith("server-")]
    queued = [r.qid for r in report.records if r.failure is None
              or not r.failure.startswith("reject-")]
    assert sorted(own) == sorted(
        ["server-arrivals", "server-dispatcher", *(f"server-q{q}" for q in queued)]
    )
    # ... and none of them ever touches the cluster: QES processes do
    assert probe.readers and not any(n.startswith("server-") for n in probe.readers)

    drivers = Counter()
    for spawned in probe.spawned:
        match = DRIVER.fullmatch(spawned)
        if match:
            qid, tag = int(match.group(1)), match.group(2)
            assert tag == TAG[report.records[qid].algorithm]
            drivers[qid] += 1
    assert sorted(report.records, key=lambda r: r.qid) == report.records
    for record in report.records:
        attempts = drivers[record.qid]
        if record.admitted_at is None:
            assert attempts == 0
        elif record.disposition in ("completed", "failed"):
            assert attempts == record.retries + 1
        else:  # a deadline can also land between two attempts
            assert record.retries <= attempts <= record.retries + 1
    # a scan's driver is the scan; the joins' drivers only supervise
    reading = {
        DRIVER.fullmatch(n).group(2) for n in probe.readers if DRIVER.fullmatch(n)
    }
    assert reading == {"scan"}
    if name == "transient-retries":
        assert sum(r.retries for r in report.records) > 0
