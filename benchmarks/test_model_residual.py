"""Where the cost models' error goes: ``sim − model``, split by measurement.

Section 6.1 says "the models fit actual execution times closely", and
``test_model_validation.py`` shows where they do not (IJ up to 36.7 %, GH
up to 16.9 %).  This bench explains that gap instead of fitting it away.
For each validation config and each QES it runs the execution once, on a
``paper_cluster`` it builds itself, traced (for
:func:`repro.observe.profile_execution`) and watched by an
``engine.subscribe`` recorder, and splits ``sim − model`` into parts that
are each measured on that run:

* **per-term excess** — for each model term, the seconds the run spent on
  it minus the term's prediction (``profile_execution``'s operator rows;
  hash build and probe are pooled as ``cpu``: one device, and its
  reservations do not say which of the two they are);
* **storage queueing** — the ``start − now`` of storage requests: the
  time a request waited for its disk and wire to free up;
* **joiner idle** — the time a compute node had nothing outstanding.

Every part is seconds of a compute node's timeline averaged over the
``n_j`` nodes, the unit the model's per-joiner terms are in.  Each node's
timeline ``[0, makespan]`` is cut at every boundary of what the recorder
saw it wait on, and each piece goes to exactly one column: to the term
whose device served it, to queueing when only storage waits cover it, to
idle when nothing does, and to **unexplained** when two services overlap
on the node or only a wait at the node's own devices covers it.  So
``model + Σ parts == sim`` to float rounding, and unexplained is a
measured column of its own, not what the others leave.

Beside the split the artifact carries ``profile_execution``'s per-term
critical-path seconds, the storage requests behind the queueing column
(count, count that queued, summed wait — ROADMAP item 1's table) and the
two-sided totals of ROADMAP item 1(b), which charge the storage side and
the compute side separately::

    store = bytes / (n_s · min(link, readIO))      recv = bytes / (n_j · link)
    IJ    = max(store, recv + cpu)                 GH   = max(store, recv + write) + read + cpu
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Tuple

import pytest

from benchmarks.harness import fmt, record_json, record_table
from benchmarks.test_model_validation import CONFIGS
from repro import PAPER_MACHINE
from repro.cluster import paper_cluster
from repro.core.cost_models import CostParameters, grace_hash_cost
from repro.joins import GraceHashQES, IndexedJoinQES
from repro.observe import profile_execution
from repro.workloads import build_oil_reservoir_dataset

#: the device each model term is served on, by ``profile_execution``
#: operator name (``coordination`` has no device and no prediction)
TERM_OF_OPERATOR = {
    "transfer": "transfer",
    "partition-write": "write",
    "bucket-read": "read",
    "hash-build": "cpu",
    "probe": "cpu",
}
SERVICES = ("transfer", "cpu", "write", "read")


class TimelineRecorder:
    """``engine.subscribe`` sink for a fault-free ``paper_cluster`` run.

    Per compute node, the intervals of what it waited on, labelled: a
    device's service (``transfer``, ``cpu``, ``write``, ``read``), a
    storage request's wait for its route (``queue``), or a wait at the
    node's own devices (``wait``).  A storage request is its three
    reservations — storage disk, storage NIC, compute NIC — which share
    ``now`` and ``start``; its queueing is read once, off the disk's.
    A bucket write holds the node's NIC and scratch disk together, so a
    scratch reservation right after a NIC reservation of the same span
    is a write and any other one a read.
    """

    def __init__(self, cluster) -> None:
        n_s = cluster.num_storage
        self.nodes: List[List[Tuple[float, float, str]]] = [
            [] for _ in range(cluster.num_compute)
        ]
        #: ``start − now`` of every storage request, in emission order
        self.request_waits: List[float] = []
        self._compute_of_nic = {
            f"nic{n_s + j}": j for j in range(cluster.num_compute)
        }
        self._request = None  # [now, start, completion, node, NICs to come]
        self._nic = None  # the last NIC reservation outside a request
        cluster.engine.subscribe(self)

    def __call__(self, kind, *fields) -> None:
        if kind == "reserve":
            self._reserve(*fields)
        elif kind != "storage_read" and kind != "transfer":
            raise ValueError(f"a fault-free run emitted {kind!r}")

    def _reserve(self, name, now, start, end, nbytes) -> None:
        request = self._request
        if request is not None:
            request[2] = max(request[2], end)
            if name in self._compute_of_nic:
                request[3] = self._compute_of_nic[name]
            request[4] -= 1
            if request[4] == 0:
                asked, began, done, j, _ = request
                self._add(j, asked, began, "queue")
                self._add(j, began, done, "transfer")
                self._request = None
            return
        device = name.split(".")[-1]
        if device == "disk":  # a storage disk opens a request
            self._request = [now, start, end, None, 2]
            self.request_waits.append(start - now)
        elif name in self._compute_of_nic:
            self._nic = (now, start, end)
        elif device in ("cpu", "scratch"):
            j = int(name[1:].split(".")[0])
            if device == "cpu":
                label = "cpu"
            else:
                label = "write" if self._nic == (now, start, end) else "read"
            self._nic = None
            self._add(j, now, start, "wait")
            self._add(j, start, end, label)
        else:
            raise ValueError(f"unclassified reservation on {name}")

    def _add(self, j: int, begin: float, end: float, label: str) -> None:
        if end > begin:
            self.nodes[j].append((begin, end, label))

    def partition(self, j: int, makespan: float) -> Dict[str, float]:
        """Node ``j``'s timeline ``[0, makespan]``, cut at every interval
        boundary, each piece's seconds summed into exactly one column."""
        edges = sorted(
            (t, step, label)
            for begin, end, label in self.nodes[j]
            for t, step in ((begin, 1), (end, -1))
        )
        if edges and edges[-1][0] > makespan:
            raise ValueError(f"node {j} is busy past the makespan")
        pieces: Dict[str, List[float]] = {
            column: [] for column in (*SERVICES, "queue", "idle", "unexplained")
        }
        active: Counter = Counter()
        t = 0.0
        for time, step, label in [*edges, (makespan, 0, "idle")]:
            if time > t:
                pieces[_column(active)].append(time - t)
                t = time
            active[label] += step
        return {column: math.fsum(p) for column, p in pieces.items()}


def _column(active: Counter) -> str:
    """Which column one piece of a node's timeline belongs to."""
    serving = [s for s in SERVICES if active[s]]
    if len(serving) == 1 and active[serving[0]] == 1:
        return serving[0]
    if serving:
        return "unexplained"  # two services at once on one node
    if active["queue"]:
        return "queue"
    return "unexplained" if active["wait"] else "idle"


def two_sided_total(p: CostParameters, algorithm: str, cpu: float) -> float:
    """ROADMAP item 1(b)'s composition (see the module docstring)."""
    store = p.bytes_total / (p.n_s * min(p.link_bw, p.read_io_bw))
    recv = p.bytes_total / (p.n_j * p.link_bw)
    if algorithm == "indexed-join":
        return max(store, recv + cpu)
    gh = grace_hash_cost(p)
    return max(store, recv + gh.write) + gh.read + cpu


def split_execution(params: CostParameters, dataset, machine, algorithm: str):
    """Run one QES on a fresh watched, traced cluster; return its split."""
    cluster = paper_cluster(params.n_s, params.n_j, spec=machine, telemetry=True)
    recorder = TimelineRecorder(cluster)
    qes = IndexedJoinQES if algorithm == "indexed-join" else GraceHashQES
    report = qes(
        cluster, dataset.metadata, "T1", "T2", dataset.join_attrs,
        dataset.provider,
    ).run()
    profile = profile_execution(params, report)
    sim = report.total_time
    columns = [recorder.partition(j, sim) for j in range(params.n_j)]

    def per_node(column: str) -> float:
        return math.fsum(c[column] for c in columns) / params.n_j

    predicted: Dict[str, List[float]] = {}
    for op in profile.operators:
        if op.name in TERM_OF_OPERATOR:
            predicted.setdefault(TERM_OF_OPERATOR[op.name], []).append(op.predicted_s)
    terms = {}
    for term, preds in predicted.items():
        seconds, model = per_node(term), math.fsum(preds)
        terms[term] = {
            "predicted_s": model,
            "attributed_s": seconds,
            "excess_s": seconds - model,
        }
    waits = recorder.request_waits
    return {
        "sim_s": sim,
        "model_s": profile.predicted_total_s,
        "two_sided_s": two_sided_total(params, algorithm, terms["cpu"]["predicted_s"]),
        "terms": terms,
        "queueing_s": per_node("queue"),
        "idle_s": per_node("idle"),
        "unexplained_s": per_node("unexplained"),
        "storage_requests": len(waits),
        "storage_requests_queued": sum(1 for w in waits if w > 0),
        "storage_wait_summed_s": math.fsum(waits),
        "profile": {
            op.name: {
                "predicted_s": op.predicted_s,
                "observed_s": op.observed_s,
                "busy_s": op.busy_s,
            }
            for op in profile.operators
        },
    }


def split_config(spec, n_s, n_j, f, extra) -> Dict[str, object]:
    """Both QES of one configuration, built as ``run_point`` builds it."""
    machine = PAPER_MACHINE.with_cpu_factor(f)
    dataset = build_oil_reservoir_dataset(
        spec, num_storage=n_s, functional=False, extra_attributes=extra
    )
    params = CostParameters.from_machine(
        machine,
        T=spec.T, c_R=spec.c_R, c_S=spec.c_S, n_e=spec.n_e,
        RS_R=dataset.metadata.table("T1").schema.record_size,
        RS_S=dataset.metadata.table("T2").schema.record_size,
        n_s=n_s, n_j=n_j,
    )
    return {
        "ij": split_execution(params, dataset, machine, "indexed-join"),
        "gh": split_execution(params, dataset, machine, "grace-hash"),
    }


def parts_total(split: Dict[str, object]) -> float:
    """``Σ parts``: every term's excess, queueing, idle and unexplained."""
    return math.fsum([
        *(t["excess_s"] for t in split["terms"].values()),
        split["queueing_s"], split["idle_s"], split["unexplained_s"],
    ])


def _signed(x: float) -> str:
    """``x`` to the millisecond with its sign, a rounded −0 as +0."""
    return f"{round(x, 3) + 0.0:+.3f}"


def gap_sentence(payload: Dict[str, Dict[str, object]], label: str, qes: str) -> str:
    """One config's split as a sentence, for the tables that cite it."""
    s = payload[label][qes]
    excess = math.fsum(t["excess_s"] for t in s["terms"].values())
    return (
        f"{label} {qes.upper()}: sim − model {_signed(s['sim_s'] - s['model_s'])} s"
        f" = term excess {_signed(excess)} + storage queueing {s['queueing_s']:.3f} "
        f"+ joiner idle {s['idle_s']:.3f} + unexplained {s['unexplained_s']:.3f}"
    )


def test_model_residual(benchmark):
    payload = benchmark.pedantic(
        lambda: {label: split_config(*cfg) for label, *cfg in CONFIGS},
        rounds=1, iterations=1,
    )

    rows = []
    for label, *_ in CONFIGS:
        for qes in ("ij", "gh"):
            s = payload[label][qes]
            # the parts telescope: each piece of each node's timeline is
            # counted once, so nothing is left for a column to absorb
            assert s["model_s"] + parts_total(s) == pytest.approx(
                s["sim_s"], rel=1e-9), (label, qes)
            terms = s["terms"]
            rows.append([
                label, qes.upper(), fmt(s["sim_s"], 3), fmt(s["model_s"], 3),
                _signed(s["sim_s"] - s["model_s"]),
                *(_signed(terms[t]["excess_s"]) if t in terms else "—"
                  for t in SERVICES),
                fmt(s["queueing_s"], 3), fmt(s["idle_s"], 3),
                fmt(s["unexplained_s"], 3),
                fmt(s["two_sided_s"], 3),
                f"{abs(s['sim_s'] - s['model_s']) / s['model_s']:.1%}",
                f"{abs(s['sim_s'] - s['two_sided_s']) / s['two_sided_s']:.1%}",
            ])

    ij = {label: payload[label]["ij"] for label, *_ in CONFIGS}
    ij_gaps = [label for label, s in ij.items() if s["sim_s"] > 1.10 * s["model_s"]]
    queue_shares = [
        ij[label]["queueing_s"] / (ij[label]["sim_s"] - ij[label]["model_s"])
        for label in ij_gaps
    ]
    unexplained = max(
        payload[label][qes]["unexplained_s"] / payload[label][qes]["sim_s"]
        for label, *_ in CONFIGS for qes in ("ij", "gh")
    )
    gh = [payload[label]["gh"] for label, *_ in CONFIGS]
    record_table(
        "model_residual",
        "Section 6.1 — where sim − model goes (seconds per compute node)",
        ["config", "QES", "sim", "model", "sim−model", "xfer", "cpu", "write",
         "read", "queue", "idle", "unexpl.", "2-sided", "err", "2-sided err"],
        rows,
        notes=[
            "xfer/cpu/write/read: per-term excess (seconds served minus the "
            "term's prediction); queue: storage requests waiting for their "
            "route; idle: nothing outstanding; unexpl.: overlapping services "
            "or a wait at the node's own devices; model + every part = sim",
            f"IJ configs more than 10% over the model ({', '.join(ij_gaps)}): "
            f"storage queueing is {min(queue_shares):.0%}–"
            f"{max(queue_shares):.0%} of the gap",
            gap_sentence(payload, "nested (S fine)", "ij"),
            gap_sentence(payload, "8 joiners", "gh"),
            f"GH: {sum(g['storage_requests_queued'] for g in gh)} of "
            f"{sum(g['storage_requests'] for g in gh)} storage requests "
            f"waited ({math.fsum(g['storage_wait_summed_s'] for g in gh):.2f} s "
            f"summed); the most any GH node waited with nothing served is "
            f"{max(g['queueing_s'] for g in gh):.3f} s",
            f"largest unexplained share of a makespan: {unexplained:.1%}",
        ],
    )
    record_json("model_residual", payload)

    # where no storage request queued and the joiners are the bottleneck,
    # the paper's IJ model holds to 2% (ROADMAP item 2(iii)); where it is
    # more than 10% off, requests did queue
    for label, spec, n_s, n_j, *_ in CONFIGS:
        s = ij[label]
        if s["storage_requests_queued"] == 0 and n_j <= n_s:
            assert s["queueing_s"] == 0.0, label
            assert abs(s["sim_s"] - s["model_s"]) <= 0.02 * s["model_s"], label
    assert min(queue_shares) > 0
