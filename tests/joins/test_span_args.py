"""A disabled instrumentation site builds no span arguments.

DESIGN.md §8: with telemetry off, the per-pair sites of the Indexed
Join's joiner loop and ``QES._charge_cpu`` guard on ``tel`` itself, so an
untraced run formats no span name and stringifies no sub-table id.  The
probe counts ``SubTableId.__repr__`` calls (``str(sid)`` lands there too)
by the module of the calling frame.
"""

import collections
import sys

import pytest

from repro.cluster import paper_cluster
from repro.datamodel import SubTableId
from repro.joins import GraceHashQES, IndexedJoinQES
from repro.workloads import GridSpec, build_oil_reservoir_dataset

SPEC = GridSpec(g=(16, 16), p=(4, 4), q=(8, 8))


@pytest.fixture
def formatted(monkeypatch):
    """``{calling module: SubTableId.__repr__ calls}``."""
    callers = collections.Counter()
    real = SubTableId.__repr__

    def counting(self):
        callers[sys._getframe(1).f_globals["__name__"]] += 1
        return real(self)

    monkeypatch.setattr(SubTableId, "__repr__", counting)
    return callers


def run(qes, telemetry, **kw):
    ds = build_oil_reservoir_dataset(SPEC, num_storage=2, functional=True)
    cluster = paper_cluster(2, 2, telemetry=telemetry)
    return qes(
        cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider, **kw
    ).run()


@pytest.mark.parametrize("qes, options", [
    (IndexedJoinQES, {}), (IndexedJoinQES, {"pipeline": True}), (GraceHashQES, {}),
], ids=["ij-sync", "ij-pipe", "gh"])
def test_untraced_run_formats_no_sub_table_id(formatted, qes, options):
    report = run(qes, telemetry=False, **options)
    assert report.result_tuples == SPEC.T
    assert not [m for m in formatted if m.startswith("repro.joins")]


def test_the_probe_sees_a_traced_run(formatted):
    run(IndexedJoinQES, telemetry=True)
    assert formatted["repro.joins.indexed_join"] > 0
