"""One view, one QES: the derived data source and the query server agree.

``view_qes`` is the only place a planned view becomes an Indexed Join or
Grace Hash execution.  A ``DerivedDataSource`` runs it on a private
cluster, the ``QueryServer`` on its shared one; for the same planned query
both must join the same pairs, read the same bytes and answer the same
number of records.
"""

import pytest

from repro.cluster import paper_cluster
from repro.core import DerivedDataSource, JoinView, QueryPlanningService
from repro.core.engine import view_qes
from repro.core.rng import uniform
from repro.server import QueryServer
from repro.server.queries import build_query
from repro.workloads.arrivals import QueryArrival
from repro.workloads.generator import GridSpec
from repro.workloads.oilres import build_oil_reservoir_dataset

#: the planner picks the Indexed Join on the first grid, Grace Hash on the second
GRIDS = {
    "indexed-join": GridSpec(g=(16, 16), p=(4, 4), q=(2, 2)),
    "grace-hash": GridSpec(g=(16, 16), p=(2, 2), q=(8, 8)),
}
#: build_query restricts a join when uniform(seed, 1) < 0.5
RESTRICTED_SEED = next(s for s in range(40) if uniform(s, 1) < 0.5)


@pytest.mark.parametrize("kind", ["join", "aggregate"])
@pytest.mark.parametrize("algorithm", sorted(GRIDS))
def test_derived_data_source_matches_a_one_query_serve(algorithm, kind):
    dataset = build_oil_reservoir_dataset(
        GRIDS[algorithm], num_storage=2, functional=True, seed=7
    )
    arrival = QueryArrival(qid=0, tenant="a", kind=kind, at=0.0, seed=RESTRICTED_SEED)
    server = QueryServer(dataset, num_compute=2)
    planned = build_query(dataset, server.planner, arrival)
    assert planned.algorithm == algorithm and planned.where is not None

    (record,) = server.serve([arrival]).records
    result = DerivedDataSource(
        planned.view, dataset.metadata, dataset.provider, num_storage=2, num_compute=2
    ).execute(planned.algorithm)
    assert result.report.algorithm == record.algorithm == algorithm
    assert (
        result.num_records, result.report.pairs_joined, result.report.bytes_from_storage
    ) == (record.result_records, record.pairs_joined, record.bytes_from_storage)
    # an ungrouped aggregate is one row; a restricted join is many
    assert (result.num_records == 1) == (kind == "aggregate")


def test_an_unknown_algorithm_is_refused():
    dataset = build_oil_reservoir_dataset(GRIDS["indexed-join"], num_storage=2)
    view = JoinView("V1", "T1", "T2", on=dataset.join_attrs)
    plan = QueryPlanningService(dataset.metadata, 2, 2).plan(view)
    with pytest.raises(ValueError, match="unknown algorithm 'nope'"):
        view_qes("nope", paper_cluster(2, 2), dataset.metadata, dataset.provider, view, plan)
