"""Tests for the deterministic fault-plan description layer."""

import pytest
from hypothesis import given, strategies as st

from repro.faults import Degradation, FaultPlan, NodeCrash, splitmix64
from repro.faults.errors import (
    StorageNodeDown,
    TransientTransferFault,
    UnrecoverableFault,
)


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(7, 0) == splitmix64(7, 0)

    def test_counter_and_seed_vary_output(self):
        base = splitmix64(7, 0)
        assert splitmix64(7, 1) != base
        assert splitmix64(8, 0) != base

    def test_draw_uniform_range(self):
        plan = FaultPlan(seed=3)
        draws = [plan.draw(i) for i in range(1000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # crude uniformity: mean of U(0,1) samples near 0.5
        assert 0.45 < sum(draws) / len(draws) < 0.55

    def test_choose_in_range(self):
        plan = FaultPlan(seed=3)
        for i in range(100):
            assert 0 <= plan.choose(i, 5) < 5


class TestValidation:
    def test_bad_crash_kind(self):
        with pytest.raises(ValueError):
            NodeCrash("disk", at=1.0)

    def test_negative_crash_time(self):
        with pytest.raises(ValueError):
            NodeCrash("storage", at=-1.0)

    def test_bad_degradation_factor(self):
        with pytest.raises(ValueError):
            Degradation("disk", at=1.0, factor=1.5)
        with pytest.raises(ValueError):
            Degradation("nic", at=1.0, factor=0.0)

    def test_transfer_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(transfer_failure_rate=1.0)
        with pytest.raises(ValueError):
            FaultPlan(transfer_failure_rate=-0.1)

    def test_max_attempts_positive(self):
        with pytest.raises(ValueError):
            FaultPlan(max_attempts=0)

    def test_trivial_plan(self):
        assert FaultPlan(seed=42).is_trivial
        assert not FaultPlan(transfer_failure_rate=0.1).is_trivial
        assert not FaultPlan(crashes=(NodeCrash("storage", at=1.0),)).is_trivial


class TestParse:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "seed=7,storage_crash=0.5@2,compute_crash=1.0,"
            "transient=0.1,disk_degrade=0.8:0.25,max_attempts=4"
        )
        assert plan.seed == 7
        assert plan.transfer_failure_rate == 0.1
        assert plan.max_attempts == 4
        assert NodeCrash("storage", at=0.5, node=2) in plan.crashes
        assert NodeCrash("compute", at=1.0) in plan.crashes
        assert Degradation("disk", at=0.8, factor=0.25) in plan.degradations

    def test_parse_unknown_key(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("seed=7,meteor_strike=1.0")

    def test_parse_degrade_needs_factor(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("disk_degrade=0.8")

    @pytest.mark.parametrize(
        "spec, named",
        [
            ("storage_crash=nan", "crash time must be finite and >= 0, got nan"),
            ("storage_crash=inf", "crash time must be finite and >= 0, got inf"),
            ("compute_crash=inf@1", "crash time must be finite and >= 0, got inf"),
            ("disk_degrade=nan:0.5", "degradation time must be finite and >= 0, got nan"),
            ("nic_degrade=inf:0.5", "degradation time must be finite and >= 0, got inf"),
            ("retry_base=nan", "retry_base must be finite and >= 0, got nan"),
            ("retry_base=inf", "retry_base must be finite and >= 0, got inf"),
            ("seed=7,seed=8", "'seed' given twice"),
            ("transient=0.1,transient=0.2", "'transient' given twice"),
            ("max_attempts=3,max_attempts=5", "'max_attempts' given twice"),
        ],
    )
    def test_parse_refuses_non_finite_times_and_repeated_keys(self, spec, named):
        """A NaN retry base once skipped every backoff, an infinite crash
        time never fired, and a repeated key silently kept its last value."""
        with pytest.raises(ValueError, match=named):
            FaultPlan.parse(spec)

    def test_round_trip(self):
        plan = FaultPlan.parse(
            "seed=9,transient=0.05,storage_crash=0.5@1,nic_degrade=2.0:0.5@0"
        )
        assert plan == FaultPlan(
            seed=9, transfer_failure_rate=0.05, crashes=(NodeCrash("storage", 0.5, 1),),
            degradations=(Degradation("nic", 2.0, 0.5, 0),),
        )

    # a float spelled by repr() parses back to itself
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        rate=st.floats(min_value=0, max_value=1, exclude_max=True),
        crash_at=st.floats(min_value=0, max_value=100),
    )
    def test_round_trip_property(self, seed, rate, crash_at):
        plan = FaultPlan.parse(f"seed={seed},transient={rate!r},storage_crash={crash_at!r}@0")
        assert plan == FaultPlan(
            seed=seed, transfer_failure_rate=rate, crashes=(NodeCrash("storage", crash_at, 0),)
        )


class TestErrors:
    def test_unrecoverable_fault_carries_context(self):
        exc = UnrecoverableFault("no surviving replica", chunk=(1, 4), node=2)
        assert exc.chunk == (1, 4)
        assert exc.node == 2
        assert "chunk=(1, 4)" in str(exc)
        assert "node=2" in str(exc)

    def test_fault_errors_name_their_node(self):
        assert TransientTransferFault(3).node == 3
        assert StorageNodeDown(1).node == 1
