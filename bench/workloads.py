"""The six workloads: what each sets up, times, counts and checks.

Every workload is an object with three methods the repetition driver
(:mod:`bench.child`) calls in order:

``setup(seed, scale, workdir)``
    Everything before the timed region, through the same public calls
    ``repro serve`` / ``repro sweep`` make.  ``seed`` draws the inputs;
    the program only ever sees generated inputs.  ``scale`` shrinks the
    input for smoke tests (1.0 is the benchmark).
``run(state)``
    The timed region.  Returns an *outcome*: operations attempted and
    completed, a replay digest, exact counts keyed by per-layer metric
    name, and raw host timings taken inside the region.
``verify(state)``
    The correctness oracles, after the clock has stopped: a list with
    one message per operation whose answer was wrong.

Sizes give a repetition of 3–5 s on the 2-core sandbox (README.md,
"Sizing"), half of what the issue's prototype used: the driver's time
cap pays for 22 runs per workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.engine import DerivedDataSource
from repro.core.planner import QueryPlanningService
from repro.core.rng import deterministic_shuffle, uniform
from repro.core.view import JoinView
from repro.experiments import runner
from repro.joins.baselines import reference_join
from repro.query.executor import QueryExecutor
from repro.server import (
    ObservabilityConfig,
    QueryServer,
    ResilienceConfig,
    RetryPolicy,
)
from repro.server.queries import build_query
from repro.workloads.arrivals import TenantSpec, generate_workload
from repro.workloads.generator import GridSpec
from repro.workloads.oilres import build_oil_reservoir_dataset
from repro.workloads.sweeps import constant_edge_ratio_sweep, tuple_count_sweep

__all__ = ["WORKLOADS", "Outcome"]


@dataclass
class Outcome:
    """What one timed region did."""

    attempted: int
    completed: int
    #: fingerprint that must repeat exactly when the same inputs replay
    digest: str
    #: exact counts, keyed by per-layer metric name
    counts: Dict[str, float]
    #: raw host seconds measured inside the region, keyed by metric stem
    timings: Dict[str, List[float]]


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


# -- serve_* -----------------------------------------------------------------

_SERVE_GRID = GridSpec(g=(32, 32), p=(4, 4), q=(2, 2))
_MIX = (("aggregate", 1.0), ("join", 1.0), ("scan", 1.0))
_NODES = 2  # storage nodes and compute nodes alike
#: Arrival timestamps sit on a 2**-20 s grid — a microsecond clock.  The
#: server delivers an arrival with ``timeout(at - now)``; off the grid
#: ``now + (at - now)`` can round one ulp below ``at``, and a query then
#: admitted in the same instant has a queue wait of -1e-17 s, which
#: ``LatencyTracker.record`` refuses with a ValueError (about one stream
#: in twenty).  On the grid every sum and difference is exact.
_ARRIVAL_TICK_S = 2.0 ** -20


def _arrivals(tenants: Sequence[TenantSpec], seed: int) -> list:
    return [
        replace(a, at=round(a.at / _ARRIVAL_TICK_S) * _ARRIVAL_TICK_S)
        for a in generate_workload(tenants, seed=seed)
    ]


@dataclass(frozen=True)
class Serve:
    """One multi-tenant serve: tenants ``a`` (poisson) and ``b`` (bursty),
    mix 1:1:1, 4 slots, FIFO.  The arrival stream is open-loop in
    simulated time; on the host the whole stream is one batch."""

    queries: int
    rate: float
    functional: bool
    observed: bool = False
    chaos: bool = False

    def setup(self, seed: int, scale: float, workdir: Path) -> Dict[str, object]:
        total = _scaled(self.queries, scale, floor=8)
        deadline = 1.0 if self.chaos else None
        tenants = [
            TenantSpec("a", self.rate, total // 2, _MIX, "poisson", deadline=deadline),
            TenantSpec("b", self.rate, total - total // 2, _MIX, "bursty",
                       deadline=deadline),
        ]
        dataset = build_oil_reservoir_dataset(
            _SERVE_GRID, num_storage=_NODES, functional=self.functional,
            seed=seed, replication=2 if self.chaos else 1,
        )
        chaos = {}
        if self.chaos:
            chaos = dict(
                faults="seed=9,transient=0.3,max_attempts=2,storage_crash=2.0",
                resilience=ResilienceConfig(
                    retry=RetryPolicy(budget=3), queue_limit=16,
                    shed_policy="reject-newest", on_unrecoverable="fail",
                ),
            )
        server = QueryServer(
            dataset, num_compute=_NODES, policy="fifo", slots=4,
            observe=ObservabilityConfig() if self.observed else False, **chaos,
        )
        return {
            "dataset": dataset,
            "arrivals": _arrivals(tenants, seed),
            "server": server,
        }

    def run(self, state: Dict[str, object]) -> Outcome:
        report = state["server"].serve(state["arrivals"])
        # serialising the report is part of what `repro serve --json-out` costs
        json.dumps(report.to_payload(), sort_keys=True)
        state["report"] = report
        dispositions = report.disposition_counts
        ran = [r for r in report.records if r.admitted_at is not None]
        lookups = report.cache_hits + report.cache_misses
        obs = report.observability or {}
        counts = {
            "cluster.sim_makespan_s": report.makespan,
            "cluster.bytes_from_storage": report.bytes_from_storage,
            "services.cache.hits": report.cache_hits,
            "services.cache.misses": report.cache_misses,
            "services.cache.evictions": sum(
                c["evictions"] for c in report.cache_per_node
            ),
            "services.cache.hit_ratio": report.cache_hits / lookups if lookups else 0.0,
            "joins.pairs_joined": sum(r.pairs_joined for r in report.records),
            "joins.indexed_join.runs": sum(r.algorithm == "indexed-join" for r in ran),
            "joins.grace_hash.runs": sum(r.algorithm == "grace-hash" for r in ran),
            "server.submitted": len(report.records),
            "server.completed": dispositions["completed"],
            "server.deadline_exceeded": dispositions["deadline_exceeded"],
            "server.shed": dispositions["shed"],
            "server.failed": dispositions["failed"],
            "server.retries": sum(r.retries for r in report.records),
            "observe.oplog_records": obs.get("oplog", {}).get("records", 0),
            "observe.trace_accesses": obs.get("reuse", {}).get("trace", {}).get(
                "accesses", 0
            ),
        }
        if self.functional:
            counts["services.bds.bytes_read"] = state["dataset"].provider.bytes_read
        return Outcome(
            attempted=len(state["arrivals"]),
            completed=dispositions["completed"],
            digest=report.digest(),
            counts=counts,
            timings={},
        )

    def verify(self, state: Dict[str, object]) -> List[str]:
        report, arrivals = state["report"], state["arrivals"]
        failures = []
        if not (
            len(report.records) == len(arrivals)
            == sum(report.disposition_counts.values())
        ):
            failures.append(
                f"{len(arrivals)} submitted, {len(report.records)} recorded, "
                f"dispositions {report.disposition_counts}"
            )
        if self.functional:
            failures += _wrong_answers(state["dataset"], arrivals, report)
        return failures


def _wrong_answers(dataset, arrivals, report) -> List[str]:
    """Completed queries whose ``result_records`` differs from a count
    taken with plain numpy over the concatenated base tables."""
    edge = dataset.spec.g[0]

    def points(table: str) -> np.ndarray:
        subs = [dataset.provider.fetch(c) for c in dataset.metadata.table(table).all_chunks()]
        cols = [np.concatenate([s.column(n) for s in subs]) for n in dataset.join_attrs]
        return np.stack(cols, axis=1).astype(np.int64)

    grid = {dataset.left: points(dataset.left), dataset.right: points(dataset.right)}

    def inside(pts: np.ndarray, box) -> np.ndarray:
        if box is None:
            return pts
        keep = np.ones(len(pts), dtype=bool)
        for d, name in enumerate(dataset.join_attrs):
            iv = box.interval(name)
            keep &= (pts[:, d] >= iv.lo) & (pts[:, d] <= iv.hi)
        return pts[keep]

    def keys(pts: np.ndarray) -> np.ndarray:
        return pts[:, 0] * edge + pts[:, 1]

    planner = QueryPlanningService(
        dataset.metadata, num_storage=dataset.num_storage, num_compute=_NODES
    )
    by_qid = {a.qid: a for a in arrivals}
    wrong = []
    for record in report.records:
        if record.disposition != "completed":
            continue
        query = build_query(dataset, planner, by_qid[record.qid])
        if query.kind == "scan":
            expected = len(inside(grid[query.table], query.where))
        elif query.kind == "join":
            left = keys(inside(grid[dataset.left], query.where))
            right = keys(inside(grid[dataset.right], query.where))
            expected = int(np.isin(right, left).sum())
        else:  # AVG/COUNT without grouping: one row
            expected = 1
        if record.result_records != expected:
            wrong.append(
                f"q{record.qid} ({query.kind}): {record.result_records} records, "
                f"numpy counts {expected}"
            )
    return wrong


# -- batch_sweep -------------------------------------------------------------


@dataclass(frozen=True)
class BatchSweep:
    """Model-only ``run_point`` (both QES, 5+5 nodes) over the Figure 4
    sweep and one point of the Figure 6 T-sweep.  No server at all.
    The work is the same for every seed; the seed orders the points."""

    steps: int = 6
    factors: Tuple[int, ...] = (32,)

    def setup(self, seed: int, scale: float, workdir: Path) -> Dict[str, object]:
        side, part = (128,) * 3, (32,) * 3
        points = constant_edge_ratio_sweep(side, part, steps=self.steps)
        points += tuple_count_sweep(GridSpec(side, part, part), self.factors)
        if scale < 1.0:  # cheapest points first
            points = points[: _scaled(len(points), scale, floor=2)]
        return {"points": deterministic_shuffle(points, seed)}

    def run(self, state: Dict[str, object]) -> Outcome:
        results = []
        for point in state["points"]:
            results.append((point.label, runner.run_point(point.spec, n_s=5, n_j=5)))
        results.sort(key=lambda pair: pair[0])  # sums must not depend on order
        state["results"] = results
        reports = [rep for _, r in results for rep in (r.ij_report, r.gh_report)]
        caches = [s for _, r in results for s in r.ij_report.cache_stats]
        hits = sum(s.hits for s in caches)
        lookups = hits + sum(s.misses for s in caches)
        ij_error = max(r.ij_error for _, r in results)
        gh_error = max(r.gh_error for _, r in results)
        counts = {
            "cluster.sim_makespan_s": math.fsum(rep.total_time for rep in reports),
            "cluster.bytes_from_storage": sum(rep.bytes_from_storage for rep in reports),
            "services.cache.hits": hits,
            "services.cache.misses": lookups - hits,
            "services.cache.evictions": sum(s.evictions for s in caches),
            "services.cache.hit_ratio": hits / lookups if lookups else 0.0,
            "joins.pairs_joined": sum(rep.pairs_joined for rep in reports),
            "joins.indexed_join.runs": len(results),
            "joins.grace_hash.runs": len(results),
            "core.cost_models.ij_error_max": ij_error,
            "core.cost_models.gh_error_max": gh_error,
            "core.cost_models.winner_agreement": sum(
                r.sim_winner == r.model_winner for _, r in results
            ) / len(results),
            "model_error_max": max(ij_error, gh_error),
        }
        digest = hashlib.sha256(
            json.dumps(
                [(label, r.ij_sim, r.gh_sim) for label, r in results]
            ).encode()
        ).hexdigest()
        return Outcome(
            attempted=2 * len(results), completed=2 * len(results),
            digest=digest, counts=counts, timings={},
        )

    def verify(self, state: Dict[str, object]) -> List[str]:
        return [
            f"{label}: simulated winner {r.sim_winner}, model picks {r.model_winner}"
            for label, r in state["results"]
            if r.sim_winner != r.model_winner
        ]


# -- view_query --------------------------------------------------------------

_TEMPLATES = ("scan", "project", "range", "agg", "groupby")
_VIEW_SQL = "SELECT * FROM V1 WHERE x < 16"
_VIEW_ALGORITHMS = (("view_ij", "indexed-join"), ("view_gh", "grace-hash"))


def _fingerprint(table) -> Tuple[int, Dict[str, float]]:
    """Order-independent summary of an answer: row count, column sums."""
    return table.num_records, {
        name: float(np.sum(table.column(name), dtype=np.float64))
        for name in table.schema.names
    }


def _same(got, expected) -> bool:
    return got[0] == expected[0] and got[1].keys() == expected[1].keys() and all(
        math.isclose(got[1][k], expected[1][k], rel_tol=1e-6, abs_tol=1e-6)
        for k in expected[1]
    )


@dataclass(frozen=True)
class ViewQuery:
    """Closed loop, one client, over a file-backed functional dataset:
    each round ingests a fresh copy, runs base-table SQL through
    ``QueryExecutor.execute`` cycling five templates, one view query per
    QES through a registered ``DerivedDataSource``, and reads the same
    chunks with ``np.fromfile`` as the raw yardstick."""

    rounds: int = 2
    queries_per_round: int = 20
    storage_nodes: int = 4

    def setup(self, seed: int, scale: float, workdir: Path) -> Dict[str, object]:
        edge = 64 if scale >= 0.5 else 32
        rounds = _scaled(self.rounds, scale, floor=1)
        per_round = _scaled(self.queries_per_round, scale, floor=len(_TEMPLATES))
        plan = []
        for r in range(rounds):
            queries = []
            for i in range(per_round):
                template = _TEMPLATES[i % len(_TEMPLATES)]
                box = self._box(seed, 100 * r + i, edge)
                queries.append((template, box, self._sql(template, box)))
            plan.append(queries)
        return {
            "spec": GridSpec((edge,) * 3, (16,) * 3, (16,) * 3),
            "seed": seed,
            "plan": plan,
            "workdir": workdir,
        }

    @staticmethod
    def _box(seed: int, counter: int, edge: int) -> Tuple[Tuple[int, int], ...]:
        """Three seeded integer intervals, each 25–75 % of the edge."""
        box = []
        for d in range(3):
            width = 0.25 + 0.5 * uniform(seed, 6 * counter + 2 * d)
            lo = uniform(seed, 6 * counter + 2 * d + 1) * (1.0 - width)
            box.append((math.floor(lo * (edge - 1)), math.ceil((lo + width) * (edge - 1))))
        return tuple(box)

    @staticmethod
    def _sql(template: str, box) -> str:
        (x0, x1), (y0, y1), (z0, z1) = box
        return {
            "scan": "SELECT * FROM T1",
            "project": "SELECT oilp FROM T1",
            "range": f"SELECT * FROM T1 WHERE x IN [{x0}, {x1}] AND y IN [{y0}, {y1}] "
                     f"AND z IN [{z0}, {z1}]",
            "agg": f"SELECT AVG(oilp), COUNT(*) FROM T1 WHERE x IN [{x0}, {x1}] "
                   f"AND y IN [{y0}, {y1}]",
            "groupby": "SELECT z, AVG(oilp) FROM T1 GROUP BY z",
        }[template]

    def run(self, state: Dict[str, object]) -> Outcome:
        clock = time.perf_counter
        timings: Dict[str, List[float]] = {
            "query": [], "ingest": [], "raw_read": [],
            **{t: [] for t in _TEMPLATES}, **{t: [] for t, _ in _VIEW_ALGORITHMS},
        }
        answers: List[Tuple[str, object, object]] = []  # template, box, fingerprint
        attempted = bytes_written = chunks_written = bytes_read = 0
        for r, queries in enumerate(state["plan"]):
            start = clock()
            dataset = build_oil_reservoir_dataset(
                state["spec"], num_storage=self.storage_nodes, functional=True,
                seed=state["seed"], storage_dir=state["workdir"] / f"round{r}",
            )
            timings["ingest"].append(clock() - start)
            chunks = [
                c for name in (dataset.left, dataset.right)
                for c in dataset.metadata.table(name).all_chunks()
            ]
            bytes_written += sum(c.size for c in chunks)
            chunks_written += len(chunks)
            executor = QueryExecutor(dataset.metadata, dataset.provider)
            executor.register_dds(DerivedDataSource(
                JoinView("V1", dataset.left, dataset.right, on=dataset.join_attrs),
                dataset.metadata, dataset.provider,
                num_storage=self.storage_nodes, num_compute=self.storage_nodes,
            ))
            todo = [(t, box, sql, "auto") for t, box, sql in queries]
            todo += [(t, None, _VIEW_SQL, algorithm) for t, algorithm in _VIEW_ALGORITHMS]
            for template, box, sql, algorithm in todo:
                attempted += 1
                start = clock()
                table = executor.execute(sql, algorithm=algorithm)
                elapsed = clock() - start
                timings["query"].append(elapsed)
                timings[template].append(elapsed)
                answers.append((template, box, _fingerprint(table)))
                if template == "scan":
                    start = clock()
                    self._raw_chunks(dataset, dataset.left)
                    timings["raw_read"].append(clock() - start)
            bytes_read += dataset.provider.bytes_read
            state["dataset"] = dataset
        state["answers"] = answers
        digest = hashlib.sha256(
            json.dumps([(t, fp[0]) for t, _, fp in answers]).encode()
        ).hexdigest()
        return Outcome(
            attempted=attempted, completed=len(answers), digest=digest,
            counts={
                "storage.bytes_written": bytes_written,
                "storage.chunks_written": chunks_written,
                "services.bds.bytes_read": bytes_read,
                "joins.indexed_join.runs": len(state["plan"]),
                "joins.grace_hash.runs": len(state["plan"]),
            },
            timings=timings,
        )

    @staticmethod
    def _raw_chunks(dataset, name: str) -> List[np.ndarray]:
        """Every chunk of the table as a structured array, read straight
        off the chunk files — the ArrayBridge yardstick, and the oracle's
        input."""
        catalog = dataset.metadata.table(name)
        dtype = catalog.schema.to_numpy_dtype()
        return [
            np.fromfile(c.ref.path, dtype=dtype, count=c.num_records, offset=c.ref.offset)
            for c in catalog.all_chunks()
        ]

    def verify(self, state: Dict[str, object]) -> List[str]:
        dataset = state["dataset"]
        raw = np.concatenate(self._raw_chunks(dataset, dataset.left))
        joined = reference_join(
            dataset.metadata, dataset.provider, dataset.left, dataset.right,
            dataset.join_attrs,
        )
        view_answer = _fingerprint(joined.select(joined.column("x") < 16))

        def sums(rows: np.ndarray, names: Sequence[str]):
            return len(rows), {
                n: float(np.sum(rows[n], dtype=np.float64)) for n in names
            }

        def expected(template: str, box):
            if template in ("view_ij", "view_gh"):
                return view_answer
            if template == "scan":
                return sums(raw, raw.dtype.names)
            if template == "project":
                return sums(raw, ["oilp"])
            if template == "groupby":
                zs = np.unique(raw["z"])
                means = [raw["oilp"][raw["z"] == z].mean(dtype=np.float64) for z in zs]
                return len(zs), {"z": float(zs.sum()), "avg_oilp": float(sum(means))}
            keep = np.ones(len(raw), dtype=bool)
            for name, (lo, hi) in zip("xyz" if template == "range" else "xy", box):
                keep &= (raw[name] >= lo) & (raw[name] <= hi)
            if template == "range":
                return sums(raw[keep], raw.dtype.names)
            return 1, {
                "avg_oilp": float(raw["oilp"][keep].mean(dtype=np.float64)),
                "count_all": float(keep.sum()),
            }

        return [
            f"{template} {box}: got {got}, numpy says {expected(template, box)}"
            for template, box, got in state["answers"]
            if not _same(got, expected(template, box))
        ]


WORKLOADS = {
    "serve_model": Serve(queries=800, rate=20, functional=False),
    "serve_functional": Serve(queries=260, rate=20, functional=True),
    "serve_observed": Serve(queries=260, rate=20, functional=True, observed=True),
    "serve_chaos": Serve(queries=300, rate=15, functional=True, chaos=True),
    "batch_sweep": BatchSweep(),
    "view_query": ViewQuery(),
}
