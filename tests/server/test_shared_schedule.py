"""The unconstrained two-stage schedule is one object per server.

``schedule_two_stage`` remembers its result on the index and the planner
hands every unconstrained join the same held index (DESIGN.md §3.5), so
concurrent and successive executions read the same ``per_joiner`` lists.
That is safe only while nothing writes to them: a joiner copies its list at
launch and ``PairSchedule.reassign`` plans from its arguments.  These tests
drive the two executions that come closest to writing — a joiner dying
mid-join (its unfinished pairs are re-dealt) and the pipelined mode (which
reads ahead in its list) — and compare the lists element for element.
"""

from repro.cluster import paper_cluster
from repro.cli import main
from repro.core import JoinView, QueryPlanningService
from repro.core.rng import uniform
from repro.joins import IndexedJoinQES, reference_join
from repro.joins.scheduler import PairSchedule, schedule_two_stage
from repro.server import COMPLETED, QueryServer
from repro.workloads.arrivals import QueryArrival

from .test_chaos import SLOW, SPEC, make_dataset


def snapshot(schedule):
    return [list(pairs) for pairs in schedule.per_joiner]


def same_elements(schedule, before):
    now = snapshot(schedule)
    return now == before and all(
        a is b for mine, was in zip(now, before) for a, b in zip(mine, was)
    )


def test_dead_joiner_reassignment_leaves_the_shared_schedule_alone(monkeypatch):
    # build_query restricts a join when uniform(seed, 1) < 0.5: take seeds
    # that do not, so every query runs over the held unconstrained index
    seeds = [s for s in range(40) if uniform(s, 1) >= 0.5][:4]
    stream = [
        QueryArrival(qid=i, tenant="a", kind="join", at=0.01 * i, seed=s)
        for i, s in enumerate(seeds)
    ]
    dataset = make_dataset(replication=2)
    server = QueryServer(
        dataset, num_compute=3, machine=SLOW, slots=2, sanitize=True,
        faults="compute_crash=0.05@1",
    )
    view = JoinView("v", dataset.left, dataset.right, on=dataset.join_attrs)
    held = server.planner.plan(view).index
    schedule = schedule_two_stage(held, 3)
    before = snapshot(schedule)

    reassigned = []
    reassign = PairSchedule.reassign

    def spy(self, pairs, survivors):
        reassigned.append((self, len(pairs)))
        return reassign(self, pairs, survivors)

    monkeypatch.setattr(PairSchedule, "reassign", spy)
    report = server.serve(stream)

    assert report.disposition_counts[COMPLETED] == len(stream)
    assert all(r.algorithm == "indexed-join" for r in report.records)
    # joiners died holding unfinished pairs of the shared schedule ...
    assert reassigned and all(s is schedule and n > 0 for s, n in reassigned)
    # ... every pair was still joined exactly once ...
    assert all(r.pairs_joined == held.num_edges for r in report.records)
    assert all(r.result_records == SPEC.T for r in report.records)
    # ... and the schedule the next query will read is what it was
    assert same_elements(schedule, before)
    assert server.planner.plan(view).index is held
    assert schedule_two_stage(held, 3) is schedule


def test_pipelined_executions_share_one_schedule():
    dataset = make_dataset()
    view = JoinView("v", dataset.left, dataset.right, on=dataset.join_attrs)
    planner = QueryPlanningService(dataset.metadata, num_storage=2, num_compute=3)

    def run():
        index = planner.plan(view, pipeline=True).index
        return index, IndexedJoinQES(
            paper_cluster(2, 3), dataset.metadata, view.left, view.right, view.on,
            dataset.provider, index=index, pipeline=True,
        ).run()

    held, first = run()
    schedule = held.schedules[3]
    before = snapshot(schedule)
    index, second = run()
    assert index is held and held.schedules == {3: schedule}
    assert same_elements(schedule, before)
    assert first.extras["pipeline"] == second.extras["pipeline"] == 1.0
    assert first.total_time == second.total_time
    assert first.pairs_joined == second.pairs_joined == held.num_edges
    expected = reference_join(
        dataset.metadata, dataset.provider, "T1", "T2", dataset.join_attrs
    )

    def records(report):
        return sum(t.num_records for per in report.results for t in per)

    assert records(first) == records(second) == expected.num_records == SPEC.T


def test_sanitized_serve_on_the_ci_grid_exits_zero(capsys):
    """CI's "Sanitized serve run": the reversed-tie shadow serve reads the
    same held index and schedules as the serve it shadows."""
    assert main([
        "serve", "--grid", "16,16", "--p", "4,4", "--q", "2,2", "--storage", "2",
        "--compute", "2", "--seed", "7", "--functional", "--sanitize",
    ]) == 0
    assert "sanitizer" in capsys.readouterr().out.lower()
