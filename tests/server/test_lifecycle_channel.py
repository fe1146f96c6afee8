"""The serving contract, drawn (DESIGN.md §12), read off the lifecycle
channel (DESIGN.md §13).

:func:`keep_the_contract` serves a stream sanitized (quiesce, byte
ledger, no answer on a query that did not complete), runs its shadow
(``repro.server.check_shadow_serve``, as ``repro serve --sanitize``
does), checks the lifecycle channel (:func:`check_channel`) and, on
functional serves, compares every completed answer with the cold serial
baseline.  ``test_generated_serves_speak_the_grammar`` draws it over the
configurations the fence serves; ``CHAOS`` and the same-instant tests
are its named seeds.  The channel clauses, from a recording subscriber:

* every query's events spell a word of the lifecycle grammar ::

      submit (queue (evict | deadline[queued] | admit deadline[queued]
                     | admit (fault retry)* fault?
                       deadline[executing|backoff]?)?)? terminal

  with exactly one ``terminal``, always last (``admit deadline[queued]``
  is the same-instant slot hand-back);
* the ``slots_free`` / ``depth`` levels carried on every event equal an
  independent recount from the event kinds, and the last event leaves
  every slot free and the queue empty;
* an observed serve's ``server.queue_depth`` / ``server.inflight``
  gauges hold exactly the samples recomputed from those events at the
  level-moving kinds only — the invariant that let the per-mutation
  observers go.
"""

import re

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.cluster.nodes import MachineSpec
from repro.server import (
    COMPLETED,
    QueryServer,
    ResilienceConfig,
    RetryPolicy,
    check_shadow_serve,
    run_serial_baseline,
)
from repro.telemetry.metrics import Gauge
from repro.workloads import TenantSpec
from repro.workloads.arrivals import QueryArrival
from repro.workloads.generator import GridSpec

from .test_chaos import BURSTY, SLOW, SPEC, TENANTS, arrivals, make_dataset

#: one letter per event so a query's lifecycle reads as a word
_LETTER = {
    "submit": "S", "queue": "Q", "evict": "E", "admit": "A",
    "fault": "F", "retry": "R",
}
_DEADLINE = {"queued": "q", "executing": "x", "backoff": "b"}
_TERMINAL = {"completed": "c", "deadline_exceeded": "d", "shed": "s", "failed": "f"}
#: the docstring's grammar, tightened by the disposition each arm ends in
#: (a backoff deadline needs a retry before it, a final fault means failed)
_GRAMMAR = re.compile(
    r"S(?:Ts|Q(?:ETs|DqTd|ADqTd"
    r"|A(?:FR)*(?:Tc|Td|FTf|DxTd)|A(?:FR)+DbTd))"
)


class Recorder:
    """Recording subscriber: ``(t, kind, qid, slots_free, depth, fields)``."""

    def __init__(self, server):
        self.events = []
        self._engine = server.cluster.engine
        server.subscribe(self)

    def __call__(self, kind, subject, slots_free, depth, fields):
        qid = subject.qid
        if kind == "terminal":
            fields = {"disposition": subject.disposition}
        self.events.append(
            (self._engine.now, kind, qid, slots_free, depth, dict(fields))
        )


def words(events):
    """Per-qid lifecycle words, in event order."""
    out = {}
    for _, kind, qid, _, _, fields in events:
        if kind == "deadline":
            letter = "D" + _DEADLINE[fields["where"]]
        elif kind == "terminal":
            letter = "T" + _TERMINAL[fields["disposition"]]
        else:
            letter = _LETTER[kind]
        out[qid] = out.get(qid, "") + letter
    return out


def recount(events, slots):
    """Yield ``(event, slots_free, depth)`` recounted from the kinds alone."""
    free, depth = slots, 0
    holding = set()
    for event in events:
        _, kind, qid, _, _, fields = event
        if kind == "queue":
            depth += 1
        elif kind == "evict":
            depth -= 1
        elif kind == "admit":
            depth -= 1
            free -= 1
            holding.add(qid)
        elif kind == "deadline" and fields["where"] == "queued":
            if qid in holding:  # same-instant slot hand-back
                holding.remove(qid)
                free += 1
            else:
                depth -= 1
        elif kind == "terminal" and qid in holding:
            holding.remove(qid)
            free += 1
        yield event, free, depth


def check_channel(server, recorder, report, stream):
    events = recorder.events
    assert [e[0] for e in events] == sorted(e[0] for e in events)
    # the grammar: one word per submitted query, one terminal, last
    spelled = words(events)
    assert sorted(spelled) == sorted(a.qid for a in stream)
    for qid in sorted(spelled):
        assert _GRAMMAR.fullmatch(spelled[qid]), (qid, spelled[qid])
    by_qid = {r.qid: r for r in report.records}
    for qid in sorted(spelled):
        assert spelled[qid][-1] == _TERMINAL[by_qid[qid].disposition]
    # the levels: carried == recounted, on every event
    queue_depth = Gauge("recounted.queue_depth")
    inflight = Gauge("recounted.inflight")
    queue_depth.set(0.0, 0.0)
    inflight.set(0.0, 0.0)
    for event, free, depth in recount(events, server.slots):
        t, kind, _, slots_free, carried_depth, _ = event
        assert (slots_free, carried_depth) == (free, depth), event
        # sample only where a level can have moved
        if kind in ("queue", "evict", "admit", "deadline", "terminal"):
            queue_depth.set(t, float(depth))
            inflight.set(t, float(server.slots - free))
    assert events[-1][3] == server.slots and events[-1][4] == 0
    if server.observatory is not None:
        series = server.observatory.series
        assert series.gauge("server.queue_depth").samples == queue_depth.samples
        assert series.gauge("server.inflight").samples == inflight.samples
        # one oplog record per event, plus backoff/recovery/alerts
        counts = server.observatory.oplog.counts()
        kinds = [e[1] for e in events]
        for kind in ("submit", "queue", "evict", "admit", "fault", "retry"):
            assert counts.get(kind, 0) == kinds.count(kind)
        assert counts.get("backoff", 0) == kinds.count("retry")
    return spelled


#: the fence's three grid shapes: the right table cut finer, as fine, coarser
GRIDS = {
    "p<q": GridSpec(g=(16, 16), p=(2, 2), q=(4, 4)),
    "p=q": GridSpec(g=(16, 16), p=(4, 4), q=(4, 4)),
    "p>q": SPEC,
}


def keep_the_contract(stream, grid="p>q", replication=1, functional=True,
                      num_compute=2, observe=True, **server_kwargs):
    """Serve ``stream`` under every clause of the serving contract (see
    the module docstring); returns the served ``(server, recorder,
    report, words)``."""
    server_kwargs.setdefault("machine", SLOW)

    def dataset():
        return make_dataset(replication, functional, spec=GRIDS[grid])

    def build(tie_break, observe=False):
        return QueryServer(
            dataset(), num_compute, sanitize=True, tie_break=tie_break,
            observe=observe, **server_kwargs,
        )

    server = build("fifo", observe=observe)
    recorder = Recorder(server)
    report = server.serve(stream)
    check_shadow_serve(server, report, stream, build)
    spelled = check_channel(server, recorder, report, stream)
    if functional:
        base = run_serial_baseline(
            dataset(), stream, num_compute, machine=server_kwargs["machine"]
        )
        answers = {r.qid: (r.result_records, r.pairs_joined) for r in base.records}
        for r in report.records:
            if r.disposition == COMPLETED:
                assert (r.result_records, r.pairs_joined) == answers[r.qid], r
    return server, recorder, report, spelled


#: named seeds of the contract: the chaos scenarios it was first written
#: against, one per resilience mechanism
CHAOS = [
    dict(faults="seed=7,storage_crash=0.3", replication=2),
    dict(faults="seed=9,transient=0.5,max_attempts=2"),
    dict(faults="seed=3,compute_crash=0.3", replication=2, num_compute=3),
    dict(deadline=0.02, slots=1),
    dict(resilience=ResilienceConfig(queue_limit=2), slots=1),
    dict(faults="seed=5,transient=0.3,storage_crash=0.1", replication=2,
         deadline=0.5),
    dict(tenants=BURSTY, slots=1, resilience=ResilienceConfig(
        queue_limit=2, shed_policy="reject-lowest-priority")),
    dict(tenants=BURSTY, resilience=ResilienceConfig(shed_policy="token-bucket")),
    dict(tenants=BURSTY, slots=1),
    dict(faults="seed=9,transient=0.5,max_attempts=2",
         resilience=ResilienceConfig(retry=RetryPolicy(budget=3))),
    dict(faults="seed=7,storage_crash=0.3"),
]


@pytest.mark.parametrize("idx", range(len(CHAOS)))
def test_chaos_scenarios_speak_the_grammar(idx):
    scenario = dict(CHAOS[idx])
    deadline, tenants = scenario.pop("deadline", None), scenario.pop("tenants", TENANTS)
    keep_the_contract(arrivals(deadline=deadline, tenants=tenants), **scenario)


def test_unobserved_serve_emits_the_same_events():
    # the channel does not depend on who listens: with and without the
    # observatory the recorded stream is the same, event for event
    scenario = dict(faults="seed=5,transient=0.3,storage_crash=0.1", replication=2)
    stream = arrivals(deadline=0.5)
    _, watched, _, _ = keep_the_contract(stream, **scenario)
    _, plain, _, _ = keep_the_contract(stream, observe=False, **scenario)
    assert plain.events == watched.events


def test_retry_budget_exhaustion_reaches_failed():
    stream = arrivals()
    server, _, _, spelled = keep_the_contract(
        stream, faults="seed=9,transient=0.5,max_attempts=2",
        resilience=ResilienceConfig(retry=RetryPolicy(budget=1)),
    )
    failed = [w for w in spelled.values() if w.endswith("Tf")]
    assert failed and all(w.endswith("FRFTf") for w in failed)
    assert server.observatory.oplog.counts()["failed"] == len(failed)


def test_same_instant_slot_hand_back():
    # A named seed: the one arm no generated stream reaches.  At T three
    # timers fire in the order they were set: q0's deadline (backing off
    # 0.025–0.05 s after a compute crash, so the slot is released one step later),
    # q2's arrival (which wakes the dispatcher) and q1's deadline (which
    # settles q1's admission race).  One step later the dispatcher grants
    # q1 the slot q0 just freed, and only then does q1's lifecycle resume —
    # holding a slot, with its deadline already won: it hands the slot
    # straight back.  Powers of two keep ``at + deadline`` exact.
    t = 2.0 ** -5
    stream = [
        QueryArrival(qid=0, tenant="a", kind="scan", at=0.0, seed=1, deadline=t),
        QueryArrival(qid=1, tenant="b", kind="scan", at=2.0 ** -7, seed=2,
                     deadline=3 * 2.0 ** -7),
        QueryArrival(qid=2, tenant="b", kind="scan", at=t, seed=3),
    ]
    _, recorder, report, spelled = keep_the_contract(
        stream, slots=1, faults="compute_crash=0.002@0",
    )
    assert spelled == {0: "SQAFRDbTd", 1: "SQADqTd", 2: "SQATc"}
    # the slot q1 never used is visible as free on its deadline event,
    # at the instant it was granted
    handed = [e for e in recorder.events if e[1] == "deadline" and e[2] == 1]
    assert [(e[0], e[3]) for e in handed] == [(t, 1)]
    assert report.admission_order == [0, 1, 2]


def test_absorbed_deadline_returns_the_slot():
    # A named seed: the supervisor's top-of-loop deadline check.  q0 and
    # q1 arrive at the same instant; q0's kick leaves the dispatcher's wake
    # pending, so the dispatcher grants both slots before q1's lifecycle
    # has started.
    # q1's deadline is below half an ulp of its arrival (1.0 + 1e-20 ==
    # 1.0): its timer is pushed after the grant, the admission race settles
    # for the slot at once, the timer fires, and only then does the
    # lifecycle resume — holding a slot, with the deadline already past,
    # before any attempt began.  The slot must come back.
    stream = [
        QueryArrival(qid=0, tenant="a", kind="scan", at=1.0, seed=1),
        QueryArrival(qid=1, tenant="a", kind="scan", at=1.0, seed=2, deadline=1e-20),
    ]
    _, _, report, spelled = keep_the_contract(stream, slots=2)  # the slot came back
    assert spelled == {0: "SQATc", 1: "SQATd"}
    (expired,) = [r for r in report.records if r.qid == 1]
    assert (expired.admitted_at, expired.finished_at) == (1.0, 1.0)
    assert expired.failure == "deadline" and expired.retries == 0


def test_subscribers_see_every_event_in_subscription_order():
    stream = arrivals()
    dataset = make_dataset()
    server = QueryServer(dataset, 2, machine=SLOW)
    seen = []
    server.subscribe(lambda kind, *_: seen.append(("first", kind)))
    server.subscribe(lambda kind, *_: seen.append(("second", kind)))
    server.serve(stream)
    kinds = [kind for who, kind in seen if who == "first"]
    assert seen == [(who, kind) for kind in kinds for who in ("first", "second")]
    assert kinds.count("terminal") == len(stream)


#: slow links, paper disks: queries overlap and queue at the higher
#: rates, and at cpu factor 0.25 on p<q the planner picks Grace Hash
FABRIC = MachineSpec(link_bw=5e4)
MIXES = (
    (("scan", 2.0), ("join", 1.0), ("aggregate", 1.0)),
    (("join", 1.0), ("aggregate", 1.0)),
    (("scan", 1.0), ("join", 1.0)),
)
FAULTS = (
    None,
    "seed=7,storage_crash=0.3",
    "seed=3,compute_crash=0.3",
    "seed=9,transient=0.5,max_attempts=2",
    "seed=5,transient=0.4,max_attempts=2,storage_crash=0.1",
)
#: what the draws must reach: each grid shape, both QES, and the lifecycle
#: arms ending in each disposition (words with their fault-retry rounds
#: ``FR`` folded out).  Eviction is reached by most seeds; the same-instant
#: hand-back and the absorbed deadline only by the named seeds above.
REQUIRED = {
    *(("grid", g) for g in GRIDS),
    ("algorithm", "indexed-join"),
    ("algorithm", "grace-hash"),
    *(("word", w) for w in (
        "STs", "SQDqTd", "SQADxTd", "SQADbTd", "SQATc", "SQAFTf",
    )),
}


def test_generated_serves_speak_the_grammar():
    """The serving contract as one property over the fence's
    configuration space; the draws must reach every grid shape, both
    QES and every lifecycle arm of :data:`REQUIRED`."""
    reached = set()

    # half the active profile's budget (50 draws by default; CI loads a
    # larger profile), fixed seed, no database: one tree, one set of draws
    @seed(20061)
    @settings(
        max_examples=max(1, settings.default.max_examples // 2),
        deadline=None, database=None,
    )
    @given(
        grid=st.sampled_from(sorted(GRIDS)),
        cpu_factor=st.sampled_from([0.25, 1.0, 4.0]),
        rate=st.sampled_from([4.0, 30.0, 300.0]),
        mixes=st.tuples(st.sampled_from(MIXES), st.sampled_from(MIXES)),
        stream_seed=st.integers(0, 7),
        faults=st.sampled_from(FAULTS),
        replication=st.sampled_from([1, 2]),
        retry_budget=st.integers(0, 3),
        queue_limit=st.one_of(st.none(), st.integers(1, 3)),
        shed_policy=st.sampled_from(
            ["reject-newest", "reject-lowest-priority", "token-bucket"]
        ),
        deadlines=st.tuples(*[st.sampled_from([None, 0.005, 0.02, 0.05, 0.2])] * 2),
        cache_capacity=st.sampled_from([None, 4096, 512]),
        cache_policy=st.sampled_from(["lru", "fifo", "lfu"]),
        slots=st.integers(1, 3),
        policy=st.sampled_from(["fifo", "spf", "fair"]),
        functional=st.booleans(),
    )
    def serving_contract(
        grid, cpu_factor, rate, mixes, stream_seed, faults, replication, retry_budget,
        queue_limit, shed_policy, deadlines, cache_capacity,
        cache_policy, slots, policy, functional,
    ):
        tenants = (
            TenantSpec(name="alice", rate=rate, num_queries=6, mix=mixes[0],
                       deadline=deadlines[0]),
            TenantSpec(name="bob", rate=rate * 0.8, num_queries=5,
                       process="bursty", mix=mixes[1], deadline=deadlines[1]),
        )
        _, _, report, spelled = keep_the_contract(
            arrivals(seed=stream_seed, tenants=tenants),
            grid=grid, replication=replication, functional=functional,
            num_compute=3, machine=FABRIC.with_cpu_factor(cpu_factor),
            policy=policy, slots=slots, faults=faults,
            cache_capacity=cache_capacity, cache_policy=cache_policy,
            resilience=ResilienceConfig(
                retry=RetryPolicy(budget=retry_budget), queue_limit=queue_limit,
                shed_policy=shed_policy,
            ),
        )
        reached.add(("grid", grid))
        reached.update(("algorithm", r.algorithm) for r in report.records)
        reached.update(("word", w.replace("FR", "")) for w in spelled.values())

    serving_contract()
    assert REQUIRED <= reached, sorted(REQUIRED - reached)
