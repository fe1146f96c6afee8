"""Metrics instruments and registry behaviour."""

import pytest

from repro.telemetry.metrics import (
    DEFAULT_BYTE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc(self):
        c = Counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        assert c.to_dict() == {"type": "counter", "value": 3.5}

    def test_negative_increment_raises(self):
        c = Counter("hits")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1.0)


class TestGauge:
    def test_samples_and_stats(self):
        g = Gauge("queue")
        g.set(0.0, 0.0)
        g.set(1.0, 3.0)
        g.set(2.0, 1.0)
        assert g.samples == [(0.0, 0.0), (1.0, 3.0), (2.0, 1.0)]
        assert g.last == 1.0
        assert g.peak == 3.0

    def test_time_regression_raises(self):
        g = Gauge("queue")
        g.set(5.0, 1.0)
        with pytest.raises(ValueError, match="sampled at"):
            g.set(4.0, 2.0)

    def test_same_timestamp_last_write_wins(self):
        g = Gauge("queue")
        g.set(1.0, 1.0)
        g.set(1.0, 9.0)
        assert g.samples == [(1.0, 9.0)]

    def test_equal_consecutive_values_coalesce(self):
        g = Gauge("queue")
        g.set(0.0, 2.0)
        g.set(1.0, 2.0)
        g.set(2.0, 3.0)
        assert g.samples == [(0.0, 2.0), (2.0, 3.0)]

    def test_empty_gauge(self):
        g = Gauge("queue")
        assert g.last is None and g.peak is None


class TestHistogram:
    def test_bucketing_with_overflow(self):
        h = Histogram("lat", bounds=(1.0, 10.0))
        for v in (0.5, 1.0, 5.0, 100.0):
            h.observe(v)
        # inclusive upper edges; 100.0 overflows
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.total == pytest.approx(106.5)
        assert h.min == 0.5 and h.max == 100.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("lat", bounds=(10.0, 1.0))

    def test_empty_histogram_serialises_nulls(self):
        d = Histogram("lat", bounds=(1.0,)).to_dict()
        assert d["count"] == 0
        assert d["min"] is None and d["max"] is None
        assert d["counts"] == [0, 0]

    def test_byte_buckets_cover_large_requests(self):
        h = Histogram("bytes", bounds=DEFAULT_BYTE_BUCKETS)
        h.observe(64 * 2**20)  # 64 MiB lands inside, not in overflow
        assert h.counts[-1] == 0


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("cache.hits") is reg.counter("cache.hits")
        assert reg.gauge("queue.d0") is reg.gauge("queue.d0")
        assert reg.histogram("lat") is reg.histogram("lat")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_names_sorted_and_lookup(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "missing" not in reg
        assert len(reg) == 2

    def test_to_dict_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z").inc()
        reg.counter("a").inc(2)
        d = reg.to_dict()
        assert list(d) == ["a", "z"]
        assert d["z"] == {"type": "counter", "value": 1.0}
