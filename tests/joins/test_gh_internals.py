"""Tests for Grace Hash internals: record hashing and bucket selection."""

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.cluster import MachineSpec, nfs_cluster, paper_cluster
from repro.datamodel import Schema, SubTable, SubTableId
from repro.joins import GraceHashQES, reference_join
from repro.joins.grace_hash import hash_records
from repro.services.bds import SubTableProvider
from repro.workloads import GridSpec, build_oil_reservoir_dataset


def table_with_keys(xs, ys):
    schema = Schema.of("x", "y", "v", coordinates=("x", "y"))
    n = len(xs)
    return SubTable(
        SubTableId(1, 0),
        schema,
        {
            "x": np.asarray(xs, dtype=np.float32),
            "y": np.asarray(ys, dtype=np.float32),
            "v": np.zeros(n, dtype=np.float32),
        },
    )


class NegativeZeroKeys(SubTableProvider):
    """``inner``'s sub-tables, with ``-0.0`` for every ``0.0`` in table
    ``table_id``'s key columns ``on``."""

    functional = True

    def __init__(self, inner, table_id, on):
        self.inner, self.table_id, self.on = inner, table_id, on

    def fetch(self, desc, columns=None, node=None):
        sub = self.inner.fetch(desc, columns=columns, node=node)
        if desc.table_id != self.table_id:
            return sub
        cols = {name: sub.column(name) for name in sub.schema.names}
        for name in self.on:
            cols[name] = np.where(cols[name] == 0, -0.0, cols[name]).astype(cols[name].dtype)
        return SubTable(sub.id, sub.schema, cols)


class TestHashRecords:
    def test_equal_keys_hash_equal_across_tables(self):
        a = table_with_keys([1, 2, 3], [4, 5, 6])
        schema_b = Schema.of("x", "y", "w")
        b = SubTable(
            SubTableId(2, 0),
            schema_b,
            {
                "x": np.asarray([3, 1, 2], dtype=np.float32),
                "y": np.asarray([6, 4, 5], dtype=np.float32),
                "w": np.ones(3, dtype=np.float32),
            },
        )
        ha = hash_records(a, ("x", "y"))
        hb = hash_records(b, ("x", "y"))
        # same (x, y) keys -> same hashes, wherever they sit
        lookup = {(x, y): h for x, y, h in zip(a.column("x"), a.column("y"), ha)}
        for x, y, h in zip(b.column("x"), b.column("y"), hb):
            assert lookup[(x, y)] == h

    def test_different_keys_rarely_collide(self):
        n = 10_000
        xs = np.arange(n, dtype=np.float32)
        t = table_with_keys(xs, xs * 2)
        h = hash_records(t, ("x", "y"))
        assert len(np.unique(h)) > n * 0.999

    def test_h1_balances_joiners(self):
        """Grid keys spread nearly evenly over any joiner count."""
        g = 64
        xs, ys = np.meshgrid(np.arange(g, dtype=np.float32),
                             np.arange(g, dtype=np.float32), indexing="ij")
        t = table_with_keys(xs.reshape(-1), ys.reshape(-1))
        h = hash_records(t, ("x", "y"))
        for n_j in (2, 3, 5, 7):
            counts = np.bincount((h % np.uint64(n_j)).astype(int), minlength=n_j)
            assert counts.min() > 0.8 * counts.max(), (n_j, counts)

    def test_signed_zeros_hash_equal(self):
        """The kernel joins ``-0.0`` with ``0.0``, so both must reach one
        joiner and bucket."""
        for dtype in ("float32", "float64"):
            schema = Schema.of("x", "y", dtype=dtype)
            pos, neg = (
                SubTable(SubTableId(1, 0), schema, {
                    "x": np.array([z, 1.0, z], dtype=dtype),
                    "y": np.array([2.0, z, z], dtype=dtype),
                })
                for z in (0.0, -0.0)
            )
            np.testing.assert_array_equal(
                hash_records(pos, ("x", "y")), hash_records(neg, ("x", "y"))
            )

    def test_order_of_join_attrs_matters(self):
        t = table_with_keys([1, 2], [2, 1])
        assert hash_records(t, ("x", "y"))[0] != hash_records(t, ("y", "x"))[0]

    def test_float64_and_small_int_columns(self):
        from repro.datamodel import Attribute

        schema = Schema([Attribute("a", "float64"), Attribute("b", "int16")])
        t = SubTable(
            SubTableId(0, 0),
            schema,
            {"a": np.linspace(0, 1, 5), "b": np.arange(5, dtype=np.int16)},
        )
        h = hash_records(t, ("a", "b"))
        assert len(np.unique(h)) == 5


class TestBucketSelection:
    def test_auto_bucket_count_grows_with_data_over_memory(self):
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
        ds = build_oil_reservoir_dataset(spec, num_storage=1, functional=False)
        tiny_mem = MachineSpec(memory_bytes=1024)  # 1 KiB per joiner
        qes = GraceHashQES(
            paper_cluster(1, 2, spec=tiny_mem), ds.metadata, "T1", "T2",
            ds.join_attrs, ds.provider,
        )
        # per joiner: ~1.5 KiB of T1 + 1.5 KiB of T2 -> several buckets
        assert qes.num_buckets > 1

    def test_constrained_memory_run_still_correct(self):
        """Many buckets (out-of-core regime) do not change the answer."""
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(4, 4))
        ds = build_oil_reservoir_dataset(spec, num_storage=2)
        tiny_mem = MachineSpec(memory_bytes=2048)
        report = GraceHashQES(
            paper_cluster(2, 2, spec=tiny_mem), ds.metadata, "T1", "T2",
            ds.join_attrs, ds.provider,
        ).run()
        assert report.extras["num_buckets"] > 1
        oracle = reference_join(ds.metadata, ds.provider, "T1", "T2", ds.join_attrs)
        from repro.datamodel.subtable import concat_subtables

        got = concat_subtables(
            [s for per in report.results for s in per], id=oracle.id
        )
        assert got.equals_unordered(oracle)

    def test_buckets_hold_what_the_mask_partition_selects(self):
        """One stable sort by (joiner, bucket) routes each record where
        the h1/h2 masks do, in record order: every bucket part is byte-equal
        to ``sub.select((h % n_j == j) & ((h >> 20) % n_b == b))``."""
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(8, 8))
        ds = build_oil_reservoir_dataset(spec, num_storage=2)
        # 3 KiB of bucket pair per joiner in 1 KiB of memory: three buckets
        qes = GraceHashQES(
            paper_cluster(2, 3, spec=MachineSpec(memory_bytes=1024)), ds.metadata,
            "T1", "T2", ds.join_attrs, ds.provider,
        )
        qes.run()
        n_j, n_b = 3, qes.num_buckets
        assert n_b == 3
        filled = 0
        for side, table in enumerate(("T1", "T2")):
            for desc in ds.metadata.table(table).all_chunks():
                sub = ds.provider.fetch(desc)
                h = hash_records(sub, ds.join_attrs)
                for j in range(n_j):
                    for b in range(n_b):
                        mask = (h % np.uint64(n_j) == j) & (
                            (h >> np.uint64(20)) % np.uint64(n_b) == b
                        )
                        parts = [p for p in qes.bucket_data[j][side][b] if p.id == sub.id]
                        if not mask.any():
                            assert parts == []
                            continue
                        (part,) = parts
                        want = sub.select(mask)
                        for name in sub.schema.names:
                            assert part.column(name).tobytes() == want.column(name).tobytes()
                        filled += 1
        assert filled > 2 * n_j * n_b  # several chunks per bucket, both sides

    def test_negative_zero_keys_meet_their_positive_zero_partners(self):
        """T2 serves ``-0.0`` wherever its keys hold ``0.0``: at three
        joiners the two zeros once hashed to different joiners and those
        matches were lost; the answer is the oracle's, row for row."""
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(4, 4))
        ds = build_oil_reservoir_dataset(spec, num_storage=2)
        provider = NegativeZeroKeys(ds.provider, ds.metadata.table("T2").table_id, ds.join_attrs)
        report = GraceHashQES(
            paper_cluster(2, 3), ds.metadata, "T1", "T2", ds.join_attrs, provider,
        ).run()
        oracle = reference_join(ds.metadata, provider, "T1", "T2", ds.join_attrs)
        assert oracle.num_records == spec.T
        from repro.datamodel.subtable import concat_subtables

        got = concat_subtables([s for per in report.results for s in per], id=oracle.id)
        assert got.equals_unordered(oracle)

    def test_reference_join_requires_functional_provider(self):
        spec = GridSpec(g=(8, 8), p=(4, 4), q=(4, 4))
        ds = build_oil_reservoir_dataset(spec, num_storage=1, functional=False)
        with pytest.raises(ValueError):
            reference_join(ds.metadata, ds.provider, "T1", "T2", ds.join_attrs)


class IngestWrites:
    """Engine subscriber: the latest end of a reservation a bucket write
    makes — a streamer's reservation of a scratch disk, or any reservation
    an NFS write's process makes (its disk reservation ends last)."""

    def __init__(self, engine):
        self.engine, self.last_end = engine, 0.0
        engine.subscribe(self)

    def __call__(self, kind, *fields):
        if kind != "reserve":
            return
        name, _now, _start, end, _nbytes = fields
        proc = self.engine.current_process.name
        if proc.startswith("nfs_write") or (
            proc.startswith("gh-storage") and name.endswith(".scratch")
        ):
            self.last_end = max(self.last_end, end)


class TestPartitionBarrier:
    """The barrier waits on each joiner's last bucket write only; it
    still closes the partition phase when the last write of all ends."""

    @pytest.mark.parametrize("tie_break", ["fifo", "reversed"])
    @pytest.mark.parametrize(
        "shape",
        [
            dict(nfs=False),
            dict(nfs=True),
            dict(nfs=False, replication=2,
                 faults="seed=7,transient=0.2,storage_crash=0.05"),
        ],
        ids=["local", "nfs", "faulted"],
    )
    def test_partition_ends_with_the_last_bucket_write(self, shape, tie_break):
        spec = GridSpec(g=(16, 16), p=(4, 4), q=(2, 2))
        nfs = shape["nfs"]
        ds = build_oil_reservoir_dataset(
            spec, num_storage=1 if nfs else 2, functional=False,
            replication=shape.get("replication", 1),
        )
        kwargs = dict(faults=shape.get("faults"), tie_break=tie_break)
        cluster = nfs_cluster(3, **kwargs) if nfs else paper_cluster(2, 3, **kwargs)
        writes = IngestWrites(cluster.engine)
        report = GraceHashQES(
            cluster, ds.metadata, "T1", "T2", ds.join_attrs, ds.provider
        ).run()
        assert writes.last_end > 0
        assert report.extras["partition_phase_time"] == writes.last_end
