"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import SimEngine
from repro.cluster.events import Interrupt, SimulationError


class TestTimeout:
    def test_single_timeout(self):
        eng = SimEngine()

        def proc():
            yield eng.timeout(2.5)
            return eng.now

        assert eng.drive(eng.process(proc())) == 2.5

    def test_sequential_timeouts_accumulate(self):
        eng = SimEngine()

        def proc():
            yield eng.timeout(1.0)
            yield eng.timeout(2.0)
            return eng.now

        assert eng.drive(eng.process(proc())) == 3.0

    def test_zero_delay(self):
        eng = SimEngine()

        def proc():
            yield eng.timeout(0.0)
            return eng.now

        assert eng.drive(eng.process(proc())) == 0.0

    def test_negative_delay_rejected(self):
        eng = SimEngine()
        with pytest.raises(ValueError):
            eng.timeout(-1.0)

    def test_nan_delay_rejected(self):
        """A NaN timeout would set the clock to NaN, and the next event
        would move it backwards from there."""
        eng = SimEngine()
        with pytest.raises(ValueError):
            eng.timeout(float("nan"))
        with pytest.raises(ValueError):
            eng.fail_after(float("nan"), RuntimeError("never"))
        assert eng.run() == 0.0 and eng._queue == []


class TestProcess:
    def test_process_return_value(self):
        eng = SimEngine()

        def proc():
            yield eng.timeout(1)
            return "done"

        assert eng.drive(eng.process(proc())) == "done"

    def test_process_waits_on_process(self):
        eng = SimEngine()
        log = []

        def child():
            yield eng.timeout(5)
            log.append(("child", eng.now))
            return 42

        def parent():
            c = eng.process(child())
            yield eng.timeout(1)
            log.append(("parent-awake", eng.now))
            value = yield c
            log.append(("joined", eng.now))
            return value

        assert eng.drive(eng.process(parent())) == 42
        assert log == [("parent-awake", 1.0), ("child", 5.0), ("joined", 5.0)]

    def test_waiting_on_already_triggered_event(self):
        eng = SimEngine()

        def child():
            yield eng.timeout(1)
            return "early"

        def parent():
            c = eng.process(child())
            yield eng.timeout(10)
            value = yield c  # triggered long ago
            return (value, eng.now)

        assert eng.drive(eng.process(parent())) == ("early", 10.0)

    def test_yielding_non_event_raises(self):
        eng = SimEngine()

        def bad():
            yield 5

        eng.process(bad())
        with pytest.raises(SimulationError):
            eng.run()

    def test_exception_in_process_propagates(self):
        eng = SimEngine()

        def boom():
            yield eng.timeout(1)
            raise RuntimeError("model bug")

        eng.process(boom())
        with pytest.raises(RuntimeError, match="model bug"):
            eng.run()

    def test_deadlock_detected(self):
        eng = SimEngine()

        def waiter():
            yield eng.event()  # nobody triggers this

        with pytest.raises(SimulationError, match="deadlock"):
            eng.drive(eng.process(waiter()))

    def test_long_chain_of_immediate_events_no_recursion_error(self):
        eng = SimEngine()

        def proc():
            for _ in range(5000):
                yield eng.timeout(0.0)
            return eng.now

        assert eng.drive(eng.process(proc())) == 0.0


class TestProcessErrors:
    def test_exception_annotated_with_process_name(self):
        """With concurrent background processes a traceback must identify
        the failing logical activity by name."""
        eng = SimEngine()

        def broken():
            yield eng.timeout(1)
            raise RuntimeError("model bug")

        eng.process(broken(), name="prefetcher-3")
        with pytest.raises(RuntimeError, match="model bug") as excinfo:
            eng.run()
        assert any(
            "prefetcher-3" in note
            for note in getattr(excinfo.value, "__notes__", [])
        )


class TestAllOf:
    def test_barrier_waits_for_slowest(self):
        eng = SimEngine()

        def worker(d):
            yield eng.timeout(d)
            return d

        def parent():
            procs = [eng.process(worker(d)) for d in (3.0, 1.0, 2.0)]
            values = yield eng.all_of(procs)
            return (values, eng.now)

        values, t = eng.drive(eng.process(parent()))
        assert values == [3.0, 1.0, 2.0]  # order preserved
        assert t == 3.0

    def test_empty_barrier_fires_immediately(self):
        eng = SimEngine()

        def parent():
            values = yield eng.all_of([])
            return (values, eng.now)

        assert eng.drive(eng.process(parent())) == ([], 0.0)

    def test_barrier_over_triggered_events(self):
        eng = SimEngine()

        def parent():
            a = eng.process(iter_return(eng, 1))
            yield eng.timeout(5)
            values = yield eng.all_of([a])
            return values

        def iter_return(eng, v):
            yield eng.timeout(0)
            return v

        assert eng.drive(eng.process(parent())) == [1]


class TestEngine:
    def test_manual_event_signalling(self):
        eng = SimEngine()
        sig = eng.event()
        log = []

        def producer():
            yield eng.timeout(4)
            sig.succeed("payload")

        def consumer():
            value = yield sig
            log.append((value, eng.now))

        eng.process(producer())
        eng.process(consumer())
        eng.run()
        assert log == [("payload", 4.0)]

    def test_double_trigger_rejected(self):
        eng = SimEngine()
        sig = eng.event()
        sig.succeed()
        with pytest.raises(SimulationError):
            sig.succeed()

    def test_value_before_trigger_rejected(self):
        eng = SimEngine()
        with pytest.raises(SimulationError):
            _ = eng.event().value

    def test_determinism_same_time_events_fire_in_schedule_order(self):
        eng = SimEngine()
        log = []

        def worker(tag):
            yield eng.timeout(1.0)
            log.append(tag)

        for tag in ("a", "b", "c"):
            eng.process(worker(tag))
        eng.run()
        assert log == ["a", "b", "c"]


class TestEventFailure:
    def test_fail_throws_into_waiter(self):
        eng = SimEngine()
        sig = eng.event()

        def producer():
            yield eng.timeout(2)
            sig.fail(IOError("disk gone"))

        def consumer():
            try:
                yield sig
            except IOError as exc:
                return (str(exc), eng.now)

        eng.process(producer())
        assert eng.drive(eng.process(consumer())) == ("disk gone", 2.0)

    def test_fail_requires_exception_instance(self):
        eng = SimEngine()
        with pytest.raises(ValueError):
            eng.event().fail("not an exception")

    def test_fail_after_trigger_rejected(self):
        eng = SimEngine()
        sig = eng.event()
        sig.succeed()
        with pytest.raises(SimulationError):
            sig.fail(RuntimeError("late"))

    def test_succeed_after_fail_rejected(self):
        eng = SimEngine()
        sig = eng.event()
        sig.fail(RuntimeError("x"))
        with pytest.raises(SimulationError):
            sig.succeed()

    def test_unobserved_failed_event_is_discarded(self):
        """A failed event nobody waits on must not crash the run."""
        eng = SimEngine()

        def proc():
            ev = eng.event()
            ev.fail(RuntimeError("nobody cares"))
            yield eng.timeout(1)
            return eng.now

        assert eng.drive(eng.process(proc())) == 1.0

    def test_fail_after_helper(self):
        eng = SimEngine()

        def proc():
            try:
                yield eng.fail_after(3.0, TimeoutError("deadline"))
            except TimeoutError:
                return eng.now

        assert eng.drive(eng.process(proc())) == 3.0

    def test_allof_fails_with_failed_child(self):
        eng = SimEngine()

        def ok():
            yield eng.timeout(1)

        def bad():
            yield eng.timeout(2)
            raise Interrupt(None)  # dies quietly: AllOf observes it

        def parent():
            procs = [eng.process(ok()), eng.process(bad())]
            try:
                yield eng.all_of(procs)
            except Interrupt:
                return ("failed", eng.now)

        assert eng.drive(eng.process(parent())) == ("failed", 2.0)


class TestInterrupt:
    def test_interrupt_wakes_waiting_process(self):
        eng = SimEngine()

        def victim():
            try:
                yield eng.timeout(100)
            except Interrupt as intr:
                return (intr.cause, eng.now)

        def killer(proc):
            yield eng.timeout(5)
            assert proc.interrupt(cause="maintenance") is True

        v = eng.process(victim())
        eng.process(killer(v))
        eng.run()
        assert v.value == ("maintenance", 5.0)

    def test_interrupt_completed_process_is_noop(self):
        eng = SimEngine()

        def quick():
            yield eng.timeout(1)
            return "done"

        def killer(proc):
            yield eng.timeout(5)
            assert proc.interrupt() is False

        q = eng.process(quick())
        eng.process(killer(q))
        eng.run()
        assert q.value == "done"

    def test_uncaught_interrupt_kills_process_not_simulation(self):
        """A process that does not catch its Interrupt dies; the engine
        keeps running and joiners observe the death."""
        eng = SimEngine()

        def victim():
            yield eng.timeout(100)

        def killer(proc):
            yield eng.timeout(2)
            proc.interrupt(cause="die")

        v = eng.process(victim())
        eng.process(killer(v))
        eng.run()
        assert v.triggered and not v.ok
        assert isinstance(v.value, Interrupt)

    def test_run_process_reports_killed_process(self):
        eng = SimEngine()

        def victim():
            yield eng.timeout(100)

        def killer(proc):
            yield eng.timeout(2)
            proc.interrupt()

        v = eng.process(victim(), name="victim")
        eng.process(killer(v))

        def observer():
            yield v

        with pytest.raises(SimulationError, match="killed"):
            eng.drive(eng.process(observer(), name="observer"))

    def test_interrupt_then_original_event_fires(self):
        """The interrupted process must not be resumed a second time when
        the event it was blocked on eventually triggers."""
        eng = SimEngine()
        resumed = []

        def victim():
            try:
                yield eng.timeout(10)
                resumed.append("timeout")
            except Interrupt:
                resumed.append("interrupt")
                yield eng.timeout(20)
                resumed.append("after")

        def killer(proc):
            yield eng.timeout(1)
            proc.interrupt()

        v = eng.process(victim())
        eng.process(killer(v))
        eng.run()
        assert resumed == ["interrupt", "after"]
        assert v.ok


class TestAnyOf:
    def test_first_event_wins(self):
        eng = SimEngine()

        def worker(d, tag):
            yield eng.timeout(d)
            return tag

        def parent():
            race = eng.any_of([
                eng.process(worker(3, "slow")),
                eng.process(worker(1, "fast")),
            ])
            value = yield race
            return (value, race.first_index, eng.now)

        assert eng.drive(eng.process(parent())) == ("fast", 1, 1.0)

    def test_timeout_race(self):
        """The timeout-race combinator: an operation bounded by a deadline."""
        eng = SimEngine()

        def op():
            yield eng.timeout(50)
            return "result"

        def parent():
            deadline = eng.timeout(10)
            race = eng.any_of([eng.process(op()), deadline])
            yield race
            return (race.first_index == 1, eng.now)

        assert eng.drive(eng.process(parent())) == (True, 10.0)

    def test_empty_rejected(self):
        eng = SimEngine()
        with pytest.raises(ValueError):
            eng.any_of([])

    def test_already_triggered_child_wins_immediately(self):
        eng = SimEngine()

        def parent():
            done = eng.event()
            done.succeed("early")
            race = eng.any_of([eng.timeout(100), done])
            value = yield race
            return (value, race.first_index, eng.now)

        assert eng.drive(eng.process(parent())) == ("early", 1, 0.0)

    def test_failed_child_fails_the_race(self):
        eng = SimEngine()

        def parent():
            race = eng.any_of([eng.timeout(100), eng.fail_after(1, IOError("x"))])
            try:
                yield race
            except IOError:
                return eng.now

        assert eng.drive(eng.process(parent())) == 1.0

    def test_losers_keep_running(self):
        eng = SimEngine()
        log = []

        def worker(d, tag):
            yield eng.timeout(d)
            log.append(tag)
            return tag

        def parent():
            yield eng.any_of([
                eng.process(worker(1, "fast")),
                eng.process(worker(2, "slow")),
            ])
            return eng.now

        assert eng.drive(eng.process(parent())) == 1.0
        eng.run()
        assert log == ["fast", "slow"]


class TestDeadlockDiagnostic:
    def test_pending_processes_enumerated(self):
        eng = SimEngine()
        gate = eng.event()

        def stuck_a():
            yield gate

        def stuck_b():
            yield gate

        eng.process(stuck_a(), name="streamer-0")
        eng.process(stuck_b(), name="streamer-1")

        def waiter():
            yield eng.event()

        with pytest.raises(SimulationError) as excinfo:
            eng.drive(eng.process(waiter(), name="driver"))
        msg = str(excinfo.value)
        assert "deadlock" in msg
        assert "streamer-0" in msg and "streamer-1" in msg


@given(st.lists(st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=20))
def test_parallel_processes_finish_at_max_delay(delays):
    eng = SimEngine()

    def worker(d):
        yield eng.timeout(d)

    def parent():
        yield eng.all_of([eng.process(worker(d)) for d in delays])
        return eng.now

    assert eng.drive(eng.process(parent())) == pytest.approx(max(delays))


@given(st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), max_size=20))
def test_sequential_timeouts_sum(delays):
    eng = SimEngine()

    def proc():
        for d in delays:
            yield eng.timeout(d)
        return eng.now

    assert eng.drive(eng.process(proc())) == pytest.approx(sum(delays))
