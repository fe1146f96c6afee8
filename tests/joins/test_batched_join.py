"""The set-at-a-time functional join of the Indexed Join QES.

The QES records the pairs each compute node probes, and a join buffer
joins the nodes' pairs — of one execution, or of every execution a
serve completed since its last flush — one kernel call per run of
nodes, cutting the kernel's output back into the nodes' answers.  These
tests pin what that must not change: each node's one output table equal
to the concatenation of each of its pairs joined alone, never more than
one part per node, nothing lost or duplicated when a joiner dies,
nothing joined for a query that never finishes, a serve's report the
same whenever its buffer flushes, and every result record still flowing
through ``repro.joins.hash_join.vectorized_hash_join`` — the name
``bench/trace.py`` counts records by.
"""

import contextlib
import dataclasses
import functools
import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sanitizer import SanitizerViolation
from repro.cluster import MachineSpec, paper_cluster
from repro.datamodel import Attribute, Schema, SubTable, SubTableId
from repro.datamodel.subtable import concat_subtables
from repro.faults import FaultPlan, NodeCrash
from repro.joins import GraceHashQES, IndexedJoinQES, reference_join
from repro.joins import hash_join, indexed_join
from repro.joins.indexed_join import JoinBuffer, _join_probed
from repro.server import (
    COMPLETED, DEADLINE_EXCEEDED, QueryServer, ResilienceConfig, RetryPolicy,
)
from repro.workloads import GridSpec, TenantSpec, build_oil_reservoir_dataset, generate_workload
from repro.workloads.arrivals import QueryArrival

#: example budgets are multiples of the loaded Hypothesis profile's (100 by
#: default), so a wider profile widens every draw here
BUDGET = settings.default.max_examples


@contextlib.contextmanager
def counted_kernel():
    """Wrap the kernel the way ``bench/trace.py`` does — rebind it in every
    loaded ``repro`` module holding it under any name — and count calls
    and records through it."""
    kernel = hash_join.vectorized_hash_join
    seen = {"calls": 0, "records_in": 0, "records_out": 0}

    @functools.wraps(kernel)
    def counted(left, right, *args, **kwargs):
        result = kernel(left, right, *args, **kwargs)
        seen["calls"] += 1
        seen["records_in"] += left.num_records + right.num_records
        seen["records_out"] += result[0].num_records
        return result

    patched = []
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is kernel:
                setattr(module, attr, counted)
                patched.append((module, attr))
    try:
        yield seen
    finally:
        for module, attr in patched:
            setattr(module, attr, kernel)


# -- (a) batched == per pair ---------------------------------------------------

#: both sides carry a non-key ``v`` (suffixed ``v_r`` in the output) and
#: the right a ``left_tag`` — the name the batch would pick for its own tag
LEFT_SCHEMA = Schema(
    [Attribute("x", "int32", coordinate=True), Attribute("y", "float32"),
     Attribute("v", "float32")]
)
RIGHT_SCHEMA = Schema(
    [Attribute("y", "float32"), Attribute("x", "int32", coordinate=True),
     Attribute("v", "int16"), Attribute("left_tag", "uint8")]
)
#: small domains (duplicate keys, zero-match pairs); float keys include
#: the two values whose equality is not byte equality
INTS = st.integers(min_value=0, max_value=3)
FLOATS = st.sampled_from([0.0, -0.0, 1.0, 2.0, float("nan")])
ONS = st.sampled_from([("x",), ("x", "y"), ("y", "x")])


@st.composite
def sub_table(draw, schema, table_id, chunk_id):
    n = draw(st.integers(min_value=0, max_value=6))
    columns = {
        a.name: np.asarray(
            draw(st.lists(FLOATS if a.np_dtype.kind == "f" else INTS,
                          min_size=n, max_size=n)),
            a.np_dtype,
        )
        for a in schema
    }
    return SubTable(SubTableId(table_id, chunk_id), schema, columns)


@st.composite
def pair_records(draw):
    """A joiner's record list: few distinct sub-tables (so lefts are shared
    and rights repeat), possibly empty ones."""
    lefts = [draw(sub_table(LEFT_SCHEMA, 1, i)) for i in range(draw(st.integers(1, 3)))]
    rights = [draw(sub_table(RIGHT_SCHEMA, 2, i)) for i in range(draw(st.integers(1, 3)))]
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(lefts), st.sampled_from(rights)),
            max_size=8,
        )
    )
    return picks


def joined_alone(records, on):
    """Each pair joined by its own kernel call: the concatenated output
    (``None`` when nothing matched) and the match count."""
    alone, matches = [], 0
    for left, right in records:
        out, stats = hash_join.vectorized_hash_join(left, right, on)
        matches += stats.matches
        alone.append(out)
    return (concat_subtables(alone) if matches else None), matches


def assert_same_bytes(got, expected):
    """Schema, dtypes, bytes and row order."""
    assert got.schema == expected.schema
    for name in expected.schema.names:
        assert got.column(name).dtype == expected.column(name).dtype
        assert got.column(name).tobytes() == expected.column(name).tobytes()


@settings(max_examples=BUDGET * 3 // 2, deadline=None)
@given(records=pair_records(), on=ONS)
def test_batched_join_equals_per_pair_join(records, on):
    """The one returned table is the concatenation, in record order, of
    each pair joined alone: schema, dtypes, bytes and row order."""
    expected, matches = joined_alone(records, on)

    with counted_kernel() as seen:
        (got,), got_matches = _join_probed([records], on)

    assert seen["calls"] == (1 if records else 0)
    assert got_matches == matches
    # one part, or none
    assert len(got) == (1 if matches else 0)
    if matches:
        assert_same_bytes(got[0], expected)


@st.composite
def node_records(draw):
    """Every compute node's record list of one execution, drawn from one
    pool of sub-tables — so a left object is shared by two nodes — with
    a node that probed nothing and a node whose pairs match nothing, at
    drawn places."""
    lefts = [draw(sub_table(LEFT_SCHEMA, 1, i)) for i in range(draw(st.integers(1, 3)))]
    rights = [draw(sub_table(RIGHT_SCHEMA, 2, i)) for i in range(draw(st.integers(1, 3)))]
    pair = st.tuples(st.sampled_from(lefts), st.sampled_from(rights))
    nodes = draw(st.lists(st.lists(pair, min_size=1, max_size=5), min_size=1, max_size=3))
    nodes.append([(nodes[0][0][0], draw(st.sampled_from(rights)))])
    # every join key holds ``x``, and no left holds an ``x`` of 9
    n = draw(st.integers(1, 4))
    stray = SubTable(
        SubTableId(2, 99), RIGHT_SCHEMA,
        {"x": np.full(n, 9), "y": np.zeros(n), "v": np.zeros(n), "left_tag": np.zeros(n)},
    )
    for records in ([(draw(st.sampled_from(lefts)), stray)], []):
        nodes.insert(draw(st.integers(0, len(nodes))), records)
    return nodes


@settings(max_examples=BUDGET, deadline=None)
@given(probed=node_records(), on=ONS)
def test_one_call_equals_each_node_joined_alone(probed, on):
    """One kernel call for all the nodes; each node's answer is byte for
    byte what joining its own pairs alone gives, and a node none of
    whose pairs matched (or that probed none) has no part."""
    with counted_kernel() as seen:
        got, matches = _join_probed(probed, on)
    assert seen["calls"] == 1
    assert len(got) == len(probed)
    total = 0
    for records, parts in zip(probed, got):
        expected, node_matches = joined_alone(records, on)
        total += node_matches
        assert len(parts) == (1 if node_matches else 0)
        if node_matches:
            assert_same_bytes(parts[0], expected)
    assert matches == total


@st.composite
def executions(draw):
    """Several executions' node lists and join keys, drawn from one pool
    of sub-tables — so a left object is shared across executions, as a
    serve's shared cache shares it — with nodes that probed nothing."""
    lefts = [draw(sub_table(LEFT_SCHEMA, 1, i)) for i in range(draw(st.integers(1, 3)))]
    rights = [draw(sub_table(RIGHT_SCHEMA, 2, i)) for i in range(draw(st.integers(1, 3)))]
    pair = st.tuples(st.sampled_from(lefts), st.sampled_from(rights))
    nodes = st.lists(st.lists(pair, max_size=4), min_size=1, max_size=3)
    return draw(st.lists(st.tuples(nodes, ONS), min_size=1, max_size=4))


def held_execution(probed, on):
    """What a :class:`JoinBuffer` reads and fills of an execution."""
    return SimpleNamespace(
        probed=[list(records) for records in probed], on=on,
        results=[[] for _ in probed],
        report=SimpleNamespace(kernel=SimpleNamespace(matches=0)),
    )


@settings(max_examples=BUDGET, deadline=None)
@given(runs=executions())
def test_a_flush_gives_each_execution_its_answers_alone(runs):
    """One flush over several executions: one kernel call per join key
    that has pairs (executions of another key never share a call), and
    each execution's nodes get byte for byte the answers they get when
    joined alone, its match count their records."""
    held = [held_execution(probed, on) for probed, on in runs]
    buffer = JoinBuffer()
    for execution in held:
        buffer.add(execution)
    assert buffer.records == sum(
        right.num_records for probed, _ in runs for records in probed for _, right in records
    )
    with counted_kernel() as seen:
        buffer.flush()
    assert seen["calls"] == len({on for probed, on in runs if any(probed)})
    assert buffer.records == 0
    for execution, (probed, on) in zip(held, runs):
        assert execution.probed is None
        total = 0
        for records, parts in zip(probed, execution.results):
            expected, matches = joined_alone(records, on)
            total += matches
            assert len(parts) == (1 if matches else 0)
            if matches:
                assert_same_bytes(parts[0], expected)
        assert execution.report.kernel.matches == total


def test_each_distinct_left_enters_the_kernel_once():
    left = SubTable(
        SubTableId(1, 0), LEFT_SCHEMA,
        {"x": np.arange(4), "y": np.zeros(4), "v": np.arange(4)},
    )
    right = SubTable(
        SubTableId(2, 0), RIGHT_SCHEMA,
        {"x": np.arange(4), "y": np.zeros(4), "v": np.arange(4),
         "left_tag": np.zeros(4)},
    )
    with counted_kernel() as seen:
        (got,), matches = _join_probed([[(left, right)] * 5], ("x", "y"))
    assert matches == 20 and [sub.num_records for sub in got] == [20]
    assert seen["records_in"] == 4 + 5 * 4  # one left, five rights
    assert seen["records_out"] == 20


# -- (b) a joiner dies mid-run ---------------------------------------------------

SLOW = MachineSpec(
    disk_read_bw=2e5, disk_write_bw=2e5, link_bw=1e5, memory_bytes=512 * 2**20
)
#: p > q: every right sub-table is probed by four lefts
SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(8, 8))


def run_ij(ds, n_j=3, faults=None, **kw):
    cluster = paper_cluster(2, n_j, spec=SLOW, faults=faults)
    return IndexedJoinQES(
        cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider, **kw
    ).run()


@pytest.mark.parametrize("pipeline", [False, True], ids=["sync", "pipeline"])
def test_compute_crash_loses_and_duplicates_no_pair(pipeline):
    ds = build_oil_reservoir_dataset(
        SPEC, num_storage=2, functional=True, replication=2
    )
    baseline = run_ij(ds, pipeline=pipeline)
    plan = FaultPlan(
        seed=7,
        crashes=(NodeCrash("compute", at=0.4 * baseline.total_time, node=1),),
    )
    rep = run_ij(ds, faults=plan, pipeline=pipeline)
    assert rep.recovery.reassigned_pairs > 0
    assert rep.pairs_joined == baseline.pairs_joined
    # one kernel call, cut back per node: at most one part each
    assert all(len(per) <= 1 for per in rep.results)
    # the dead joiner keeps what it finished; survivors hold their own
    # pairs and the reassigned ones
    (dead,), (whole,) = rep.results[1], baseline.results[1]
    assert 0 < dead.num_records < whole.num_records
    outputs = [sub for per in rep.results for sub in per]
    oracle = reference_join(ds.metadata, ds.provider, "T1", "T2", ds.join_attrs)
    got = concat_subtables(outputs, id=oracle.id)
    assert got.equals_unordered(oracle)  # multiset equality: no loss, no duplicate
    assert rep.kernel.matches == rep.result_tuples == oracle.num_records


def test_a_large_execution_is_joined_node_by_node(monkeypatch):
    """Past ``_BATCH_RECORDS`` probe records a node's pairs are a kernel
    call of their own; no node's answer moves."""
    ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=True)

    def run():
        with counted_kernel() as seen:
            rep = run_ij(ds)
        return rep.results, seen["calls"]

    whole, calls = run()
    assert calls == 1
    monkeypatch.setattr(indexed_join, "_BATCH_RECORDS", 1)
    split, calls = run()
    assert calls == sum(1 for parts in split if parts) == 3
    for got, expected in zip(split, whole):
        assert len(got) == len(expected) == 1
        assert_same_bytes(got[0], expected[0])


# -- (c) an aborted query joins nothing -------------------------------------------


def test_deadline_aborted_query_never_calls_the_kernel():
    spec = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))
    machine = MachineSpec(disk_read_bw=1e5, link_bw=5e4)

    def serve(stream):
        ds = build_oil_reservoir_dataset(spec, num_storage=2, functional=True, seed=7)
        return QueryServer(ds, num_compute=2, machine=machine).serve(stream)

    probe = QueryArrival(qid=0, tenant="a", kind="join", at=0.0, seed=1)
    with counted_kernel() as seen:
        (full,) = serve([probe]).records
    assert full.disposition == COMPLETED and seen["calls"] > 0

    # the deadline lands mid-execution: pairs have been probed (their
    # bytes moved), none is ever joined
    cut = dataclasses.replace(probe, deadline=full.exec_time / 2)
    with counted_kernel() as seen:
        (aborted,) = serve([cut]).records
    assert aborted.disposition == DEADLINE_EXCEEDED
    assert aborted.bytes_from_storage > 0
    assert seen["calls"] == 0


# -- (d) every result record flows through the traced name ------------------------


@pytest.mark.parametrize("qes", [IndexedJoinQES, GraceHashQES], ids=["ij", "gh"])
def test_kernel_boundary_sees_every_result_record(qes):
    ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=True)
    cluster = paper_cluster(2, 2, spec=SLOW)
    with counted_kernel() as seen:
        rep = qes(
            cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider
        ).run()
    assert rep.result_tuples == ds.spec.T > 0
    assert seen["records_out"] == rep.result_tuples == rep.kernel.matches
    if qes is IndexedJoinQES:
        assert seen["calls"] == 1  # one set-at-a-time join per execution


# -- (e) a serve's join buffer ----------------------------------------------------

SERVE_SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))
#: mostly joins and aggregates, so most answers wait in the buffer
SERVE_TENANTS = (
    TenantSpec(name="alice", rate=6.0, num_queries=6,
               mix=(("scan", 1.0), ("join", 2.0), ("aggregate", 1.0))),
    TenantSpec(name="bob", rate=5.0, num_queries=6, process="bursty",
               mix=(("join", 1.0), ("aggregate", 1.0))),
)
#: plain: nothing races; chaos: transients that kill attempts (retried),
#: and a deadline that some queries miss
SERVES = {
    "plain": ({}, None),
    "chaos": (
        {"faults": "seed=9,transient=0.5,max_attempts=2",
         "resilience": ResilienceConfig(retry=RetryPolicy(budget=3))},
        0.4,
    ),
}


def serve(kind, sanitize=False):
    kwargs, deadline = SERVES[kind]
    dataset = build_oil_reservoir_dataset(
        SERVE_SPEC, num_storage=2, functional=True, seed=7, replication=2
    )
    stream = generate_workload(SERVE_TENANTS, seed=42)
    if deadline is not None:
        stream = [dataclasses.replace(a, deadline=deadline) for a in stream]
    return QueryServer(dataset, num_compute=2, sanitize=sanitize, **kwargs).serve(stream)


@pytest.mark.parametrize("kind", list(SERVES))
def test_the_report_does_not_depend_on_when_the_buffer_flushes(monkeypatch, kind):
    """After every execution, when full, only once the serve ended:
    byte-equal payloads, with the chaos serve's deadlines and retries."""
    payloads = {}
    for when, full in (("at-full", None), ("each", True), ("at-end", False)):
        with monkeypatch.context() as m:
            if full is not None:
                m.setattr(JoinBuffer, "full", property(lambda self, full=full: full))
            report = serve(kind)
        payloads[when] = json.dumps(report.to_payload(), sort_keys=True)
    assert payloads["each"] == payloads["at-full"] == payloads["at-end"]
    records = report.records
    assert sum(r.algorithm == "indexed-join" and r.disposition == COMPLETED for r in records) >= 4
    if kind == "chaos":
        assert any(r.retries for r in records)
        assert any(r.disposition == DEADLINE_EXCEEDED for r in records)


@pytest.mark.parametrize("limit", [300, indexed_join._BATCH_RECORDS])
def test_the_buffer_holds_at_most_a_batch_and_one_execution(monkeypatch, limit):
    """Before an execution is added the buffer holds fewer than
    ``_BATCH_RECORDS`` probe records; a small limit flushes mid-serve."""
    monkeypatch.setattr(indexed_join, "_BATCH_RECORDS", limit)
    held, flushes = [], []
    add, flush = JoinBuffer.add, JoinBuffer.flush

    def watched_add(self, qes):
        held.append(self.records)
        add(self, qes)

    def watched_flush(self):
        flushes.append(self.records)
        flush(self)

    monkeypatch.setattr(JoinBuffer, "add", watched_add)
    monkeypatch.setattr(JoinBuffer, "flush", watched_flush)
    serve("plain")
    assert held and max(held) < limit
    # every flush but the one after the serve found the buffer full
    assert all(n >= limit for n in flushes[:-1])
    assert len(flushes) > 2 if limit == 300 else len(flushes) == 1


def test_a_lost_final_flush_fails_the_sanitized_serve(monkeypatch):
    """Without the flush after the serve, a completed join has no answer:
    the sanitizer names it rather than ``report.json`` carrying a null."""
    flushes = []
    monkeypatch.setattr(QueryServer, "_flush_joins", lambda self: flushes.append(1))
    report = serve("plain")
    assert len(flushes) == 1  # this serve never fills the buffer
    unanswered = [r.qid for r in report.records if r.result_records is None]
    assert unanswered
    named = rf"q{unanswered[0]} completed on a functional serve without an answer"
    with pytest.raises(SanitizerViolation, match=named):
        serve("plain", sanitize=True)
