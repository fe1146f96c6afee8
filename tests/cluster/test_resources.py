"""Tests for the reservation-calculus bandwidth resources."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import BandwidthResource, SimEngine


class TestBasicReservation:
    def test_service_time(self):
        eng = SimEngine()
        r = BandwidthResource(eng, bandwidth=100.0, latency=0.5)
        assert r.service_time(200) == pytest.approx(2.5)

    def test_single_reserve(self):
        eng = SimEngine()
        r = BandwidthResource(eng, bandwidth=10.0)

        def proc():
            yield r.reserve(50)
            return eng.now

        assert eng.run_process(proc()) == pytest.approx(5.0)

    def test_fifo_serialisation(self):
        """Two processes hitting one resource serialise: second waits."""
        eng = SimEngine()
        r = BandwidthResource(eng, bandwidth=10.0)
        done = []

        def user(tag, nbytes):
            yield r.reserve(nbytes)
            done.append((tag, eng.now))

        eng.process(user("a", 50))
        eng.process(user("b", 30))
        eng.run()
        assert done == [("a", 5.0), ("b", 8.0)]

    def test_gap_then_reserve_starts_fresh(self):
        eng = SimEngine()
        r = BandwidthResource(eng, bandwidth=10.0)

        def proc():
            yield r.reserve(10)  # done at t=1
            yield eng.timeout(9)  # t=10
            yield r.reserve(10)  # resource idle since t=1 -> done t=11
            return eng.now

        assert eng.run_process(proc()) == pytest.approx(11.0)

    def test_reserve_time(self):
        eng = SimEngine()
        cpu = BandwidthResource(eng, bandwidth=1.0)

        def proc():
            yield cpu.reserve_time(3.5)
            return eng.now

        assert eng.run_process(proc()) == pytest.approx(3.5)

    def test_reserve_at_rate(self):
        eng = SimEngine()
        disk = BandwidthResource(eng, bandwidth=25.0)

        def proc():
            yield disk.reserve_at_rate(100, 20.0)  # write at the slower rate
            return eng.now

        assert eng.run_process(proc()) == pytest.approx(5.0)

    def test_invalid_args(self):
        eng = SimEngine()
        with pytest.raises(ValueError):
            BandwidthResource(eng, bandwidth=0)
        with pytest.raises(ValueError):
            BandwidthResource(eng, bandwidth=1, latency=-1)
        r = BandwidthResource(eng, bandwidth=1)
        with pytest.raises(ValueError):
            r.reserve(-1)
        with pytest.raises(ValueError):
            r.reserve_time(-1)
        with pytest.raises(ValueError):
            r.reserve_at_rate(1, 0)

    def test_nan_refused_everywhere(self):
        nan = float("nan")
        eng = SimEngine()
        with pytest.raises(ValueError):
            BandwidthResource(eng, bandwidth=nan)
        with pytest.raises(ValueError):
            BandwidthResource(eng, bandwidth=1, latency=nan)
        r = BandwidthResource(eng, bandwidth=1)
        for reserve in (r.reserve, r.reserve_time, lambda x: r.reserve_at_rate(1, x),
                        lambda x: BandwidthResource.reserve_pipeline([r], x),
                        lambda x: BandwidthResource.reserve_joint_seconds([r], x)):
            with pytest.raises(ValueError):
                reserve(nan)
        assert r._busy_until == 0.0

    def test_nan_duration_does_not_empty_the_queue(self):
        """A NaN reservation would leave ``busy_until`` NaN, and
        ``max(now, NaN)`` is ``now``: the next request would start at once
        instead of queueing behind the first."""
        eng = SimEngine()
        cpu = BandwidthResource(eng, bandwidth=1.0)
        done = []

        def proc():
            yield cpu.reserve_time(2.0)
            done.append(eng.now)

        def poisoner():
            with pytest.raises(ValueError):
                cpu.reserve_time(float("nan"))
            yield cpu.reserve_time(1.0)
            done.append(eng.now)

        eng.process(proc())
        eng.process(poisoner())
        eng.run()
        assert done == [2.0, 3.0]


class TestJointReservation:
    def test_joint_runs_at_slowest_rate(self):
        eng = SimEngine()
        fast = BandwidthResource(eng, bandwidth=100.0)
        slow = BandwidthResource(eng, bandwidth=10.0)

        def proc():
            yield BandwidthResource.reserve_joint([fast, slow], 50)
            return eng.now

        assert eng.run_process(proc()) == pytest.approx(5.0)

    def test_joint_waits_for_all_free(self):
        eng = SimEngine()
        a = BandwidthResource(eng, bandwidth=10.0)
        b = BandwidthResource(eng, bandwidth=10.0)
        done = []

        def hog():
            yield a.reserve(100)  # a busy until t=10
            done.append(("hog", eng.now))

        def joint_user():
            yield BandwidthResource.reserve_joint([a, b], 10)
            done.append(("joint", eng.now))

        eng.process(hog())
        eng.process(joint_user())
        eng.run()
        # joint starts when a frees at t=10, takes 1s
        assert done == [("hog", 10.0), ("joint", 11.0)]

    def test_joint_blocks_both_resources(self):
        eng = SimEngine()
        a = BandwidthResource(eng, bandwidth=10.0)
        b = BandwidthResource(eng, bandwidth=10.0)
        done = []

        def joint_user():
            yield BandwidthResource.reserve_joint([a, b], 100)  # 10s on both
            done.append(("joint", eng.now))

        def b_user():
            yield b.reserve(10)
            done.append(("b", eng.now))

        eng.process(joint_user())
        eng.process(b_user())
        eng.run()
        assert done == [("b", 11.0), ("joint", 10.0)] or done == [("joint", 10.0), ("b", 11.0)]

    def test_joint_empty_rejected(self):
        with pytest.raises(ValueError):
            BandwidthResource.reserve_joint([], 10)


@given(
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=30),
    st.floats(min_value=1.0, max_value=1e6),
)
def test_backlogged_resource_time_equals_total_bytes_over_bw(sizes, bw):
    """When requests arrive together, completion = sum(bytes)/bw — the
    aggregate-bandwidth behaviour every cost-model term relies on."""
    eng = SimEngine()
    r = BandwidthResource(eng, bandwidth=bw)

    def user(n):
        yield r.reserve(n)

    for n in sizes:
        eng.process(user(n))
    end = eng.run()
    assert end == pytest.approx(sum(sizes) / bw)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False),
                          st.integers(min_value=0, max_value=1000)), max_size=20))
def test_resource_completions_are_monotone_in_arrival_order(arrivals):
    """FIFO: completion times are non-decreasing in reservation order."""
    eng = SimEngine()
    r = BandwidthResource(eng, bandwidth=10.0)
    completions = []

    def user(delay, nbytes):
        yield eng.timeout(delay)
        yield r.reserve(nbytes)
        completions.append(eng.now)

    # All processes start at t=0 and sleep `delay` first; reservation order is
    # event order, hence deterministic.
    for delay, nbytes in arrivals:
        eng.process(user(delay, nbytes))
    eng.run()
    # completions as recorded are in resume order == completion order
    assert completions == sorted(completions)
