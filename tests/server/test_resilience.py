"""Unit tests for the server's resilience policies.

Covers the pure policy layer (:mod:`repro.server.resilience`) — backoff
determinism and jitter bounds, victim selection of each shedding policy,
the circuit breaker's open/close behaviour, config validation — plus the
admission-queue extensions (``remove`` / ``entries``) the shedding and
deadline machinery drives.  The integrated behaviour under concurrency
lives in ``test_chaos.py``.
"""

import math

import pytest

from repro.faults.errors import (
    ComputeNodeDown,
    TransientTransferFault,
    UnrecoverableFault,
)
from repro.server import (
    CircuitBreaker,
    RejectLowestPriority,
    RejectNewest,
    ResilienceConfig,
    RetryPolicy,
    TokenBucketShedder,
    make_admission_policy,
)
from repro.server.resilience import is_retryable


class FakeEntry:
    """Just enough of a QueuedQuery for the policy layer."""

    def __init__(self, qid, tenant="t", predicted_time=1.0):
        self.qid = qid
        self.tenant = tenant
        self.predicted_time = predicted_time

    def __repr__(self):
        return f"FakeEntry({self.qid})"


class TestRetryPolicy:
    def test_backoff_deterministic_per_seed_and_attempt(self):
        policy = RetryPolicy(budget=3)
        assert policy.backoff(42, 1) == policy.backoff(42, 1)
        assert policy.backoff(42, 1) != policy.backoff(42, 2)
        assert policy.backoff(42, 1) != policy.backoff(43, 1)

    def test_backoff_exponential_with_bounded_jitter(self):
        policy = RetryPolicy(budget=8)
        assert (RetryPolicy.BASE, RetryPolicy.CAP) == (0.05, 2.0)
        for seed in (0, 7, 12345):
            # 0.05 s doubles five times before the 2 s cap
            for attempt in range(1, 7):
                raw = 0.05 * 2 ** (attempt - 1)
                delay = policy.backoff(seed, attempt)
                # jitter scales by a factor in [0.5, 1.0)
                assert raw * 0.5 <= delay < raw

    def test_backoff_caps(self):
        # from the seventh retry on, the 2 s cap times a [0.5, 1.0) jitter
        assert all(1.0 <= RetryPolicy(budget=8).backoff(seed, attempt) < 2.0
                   for seed in (0, 7, 12345) for attempt in (7, 10))

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(budget=-1)
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0, 0)

    def test_is_retryable(self):
        assert is_retryable(TransientTransferFault(node=0))
        assert is_retryable(ComputeNodeDown(node=1))
        assert is_retryable(UnrecoverableFault("gone"))
        assert not is_retryable(ValueError("model bug"))


class TestShedPolicies:
    def _queue(self, entries):
        policy = make_admission_policy("fifo")
        for e in entries:
            policy.submit(e)
        return policy

    def test_reject_newest_drops_incoming_when_full(self):
        shed = RejectNewest(limit=2)
        queue = self._queue([FakeEntry(0), FakeEntry(1)])
        incoming = FakeEntry(2)
        victim, reason = shed.victim(incoming, queue, now=0.0)
        assert victim is incoming and reason == "queue-full"

    def test_reject_newest_admits_below_limit(self):
        shed = RejectNewest(limit=2)
        queue = self._queue([FakeEntry(0)])
        assert shed.victim(FakeEntry(1), queue, now=0.0) is None

    def test_reject_lowest_priority_evicts_most_expensive(self):
        shed = RejectLowestPriority(limit=2)
        cheap = FakeEntry(0, predicted_time=0.1)
        dear = FakeEntry(1, predicted_time=9.0)
        queue = self._queue([cheap, dear])
        incoming = FakeEntry(2, predicted_time=1.0)
        victim, reason = shed.victim(incoming, queue, now=0.0)
        assert victim is dear and reason == "lowest-priority"

    def test_reject_lowest_priority_can_reject_incoming(self):
        shed = RejectLowestPriority(limit=1)
        queue = self._queue([FakeEntry(0, predicted_time=0.1)])
        incoming = FakeEntry(1, predicted_time=9.0)
        victim, _ = shed.victim(incoming, queue, now=0.0)
        assert victim is incoming

    def test_reject_lowest_priority_tie_breaks_on_qid(self):
        shed = RejectLowestPriority(limit=1)
        queue = self._queue([FakeEntry(3, predicted_time=1.0)])
        incoming = FakeEntry(7, predicted_time=1.0)
        victim, _ = shed.victim(incoming, queue, now=0.0)
        assert victim.qid == 7  # newest goes first on ties

    def test_token_bucket_isolates_tenants(self):
        shed = TokenBucketShedder()
        queue = self._queue([])
        # tenant a burns its burst of four...
        assert (TokenBucketShedder.RATE, TokenBucketShedder.BURST) == (1.0, 4.0)
        for qid in range(4):
            assert shed.victim(FakeEntry(qid, tenant="a"), queue, 0.0) is None
        victim, reason = shed.victim(FakeEntry(4, tenant="a"), queue, 0.0)
        assert victim.qid == 4 and reason == "token-bucket"
        # ...tenant b is untouched
        assert shed.victim(FakeEntry(5, tenant="b"), queue, 0.0) is None

    def test_token_bucket_refills_from_simulated_clock(self):
        shed = TokenBucketShedder()
        queue = self._queue([])
        for qid in range(4):
            assert shed.victim(FakeEntry(qid, tenant="a"), queue, 0.0) is None
        assert shed.victim(FakeEntry(4, tenant="a"), queue, 0.0) is not None
        # half a second at one token a second restores half a token...
        assert shed.victim(FakeEntry(5, tenant="a"), queue, 0.5) is not None
        # ...and the next half second the whole one
        assert shed.victim(FakeEntry(6, tenant="a"), queue, 1.0) is None
        assert shed.victim(FakeEntry(7, tenant="a"), queue, 1.0) is not None


class TestCircuitBreaker:
    def test_closed_until_enough_samples(self):
        breaker = CircuitBreaker(threshold=0.1, cost_cutoff=0.0)
        for _ in range(CircuitBreaker.MIN_SAMPLES - 1):
            breaker.observe_wait(5.0)
        assert not breaker.is_open()
        breaker.observe_wait(5.0)
        assert breaker.is_open()

    def test_opens_on_p99_and_closes_as_window_ages(self):
        breaker = CircuitBreaker(threshold=0.1, cost_cutoff=0.0, window=4)
        for _ in range(4):
            breaker.observe_wait(1.0)
        assert breaker.should_shed(0.5)
        assert breaker.tripped == 1
        # fast admissions push the slow waits out of the sliding window
        for _ in range(4):
            breaker.observe_wait(0.01)
        assert not breaker.is_open()
        assert not breaker.should_shed(0.5)

    def test_cost_cutoff_lets_cheap_queries_flow(self):
        breaker = CircuitBreaker(threshold=0.1, cost_cutoff=1.0)
        for _ in range(CircuitBreaker.MIN_SAMPLES):
            breaker.observe_wait(9.0)
        assert breaker.is_open()
        assert not breaker.should_shed(0.2)  # predicted cheap: admitted
        assert breaker.should_shed(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0.0, cost_cutoff=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=1.0, cost_cutoff=-1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=1.0, cost_cutoff=0.0, window=2)
        # a NaN threshold once passed `<= 0` and never tripped
        for threshold, cutoff in ((math.nan, 0.0), (math.inf, 0.0), (1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                CircuitBreaker(threshold=threshold, cost_cutoff=cutoff)


class TestResilienceConfig:
    def test_defaults_build_no_shedder_or_breaker(self):
        cfg = ResilienceConfig()
        assert cfg.build_shedder() is None
        assert cfg.build_breaker() is None
        # a queue-bound policy without a queue limit sheds nothing
        assert ResilienceConfig(shed_policy="reject-lowest-priority").build_shedder() is None

    def test_queue_limit_builds_selected_policy(self):
        # the one dispatch on ``shed_policy``: the limit reaches the named policy
        for policy in (RejectNewest, RejectLowestPriority, TokenBucketShedder):
            shedder = ResilienceConfig(queue_limit=4, shed_policy=policy.name).build_shedder()
            assert type(shedder) is policy and shedder.limit == 4

    def test_token_bucket_active_without_queue_limit(self):
        cfg = ResilienceConfig(shed_policy="token-bucket")
        shedder = cfg.build_shedder()
        assert isinstance(shedder, TokenBucketShedder)
        assert shedder.limit is None

    def test_breaker_built_from_threshold(self):
        cfg = ResilienceConfig(breaker_threshold=0.5, breaker_cost_cutoff=0.1)
        breaker = cfg.build_breaker()
        assert breaker is not None and breaker.threshold == 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown shed policy"):
            ResilienceConfig(shed_policy="drop-everything")
        with pytest.raises(ValueError, match="on_unrecoverable"):
            ResilienceConfig(on_unrecoverable="explode")
        with pytest.raises(ValueError, match="queue limit"):
            ResilienceConfig(queue_limit=0)


class TestAdmissionRemoveEntries:
    """The queue extensions the shedding/deadline machinery relies on."""

    @pytest.mark.parametrize("name", ["fifo", "spf", "fair"])
    def test_remove_withdraws_a_waiter(self, name):
        policy = make_admission_policy(name)
        entries = [
            FakeEntry(0, tenant="a", predicted_time=3.0),
            FakeEntry(1, tenant="b", predicted_time=1.0),
            FakeEntry(2, tenant="a", predicted_time=2.0),
        ]
        for e in entries:
            policy.submit(e)
        assert policy.remove(entries[1])
        assert len(policy) == 2
        assert not policy.remove(entries[1])  # already gone
        popped = {policy.pop().qid for _ in range(2)}
        assert popped == {0, 2}

    @pytest.mark.parametrize("name", ["fifo", "spf", "fair"])
    def test_entries_snapshot_is_deterministic(self, name):
        policy = make_admission_policy(name)
        entries = [
            FakeEntry(2, tenant="b", predicted_time=2.0),
            FakeEntry(0, tenant="a", predicted_time=3.0),
            FakeEntry(1, tenant="a", predicted_time=1.0),
        ]
        for e in entries:
            policy.submit(e)
        snapshot = policy.entries()
        assert {e.qid for e in snapshot} == {0, 1, 2}
        assert [e.qid for e in policy.entries()] == [e.qid for e in snapshot]
        # the snapshot is a copy: mutating it must not touch the queue
        snapshot.clear()
        assert len(policy) == 3
