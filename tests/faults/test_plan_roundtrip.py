"""Property tests for the fault-spec mini-language.

A seeded generator (counter-based splitmix64, same determinism discipline
as the rest of the repo — no ``random`` module, no hypothesis) draws a
plan's fields and spells them as spec text the way a user may: items in
any order (crashes and degradations keep theirs), optional keys left
out, stray spaces and empty items, floats written by ``repr``.  Parsing
the text must give back exactly the drawn fields.
"""

import itertools

import pytest

from repro.core.rng import splitmix64
from repro.faults.plan import Degradation, FaultPlan, NodeCrash, _SPEC_KEYS


def random_spec(seed):
    """A seeded random spec text exercising every key, and the plan it
    spells."""
    draws = (splitmix64(seed, i) for i in itertools.count())

    def u():
        return next(draws) / 2.0**64

    def node():
        return next(draws) % 8 if u() < 0.5 else None

    def at(text, node):
        return text if node is None else f"{text}@{node}"

    crashes = tuple(
        NodeCrash(("storage", "compute")[next(draws) % 2], 5 * u(), node())
        for _ in range(int(u() * 3))
    )
    degradations = tuple(
        Degradation(("disk", "nic")[next(draws) % 2], 5 * u(), 0.01 + 0.98 * u(), node())
        for _ in range(int(u() * 3))
    )
    items = [at(f"{c.kind}_crash={c.at!r}", c.node) for c in crashes]
    items += [at(f"{d.kind}_degrade={d.at!r}:{d.factor!r}", d.node) for d in degradations]
    fields = {}
    for key, field, value in (
        ("seed", "seed", next(draws) % 10_000),
        ("transient", "transfer_failure_rate", 0.9 * u()),
        ("max_attempts", "max_attempts", 1 + next(draws) % 12),
        ("retry_base", "retry_base", 0.001 + u()),
    ):
        if u() < 0.6:
            # anywhere: only crashes and degradations keep their order,
            # which is the order of the plan's tuples
            fields[field] = value
            items.insert(next(draws) % (len(items) + 1), f"{key}={value!r}")
    spec = ",".join(" " * (next(draws) % 2) + item + " " * (next(draws) % 2) for item in items)
    plan = FaultPlan(crashes=crashes, degradations=degradations, **fields)
    return spec + "," * (next(draws) % 2), plan


_DOCUMENTED = {
    "seed=7,storage_crash=0.5": dict(seed=7, crashes=(NodeCrash("storage", 0.5),)),
    "transient=0.1,max_attempts=3": dict(transfer_failure_rate=0.1, max_attempts=3),
    "storage_crash=0.5@2,compute_crash=1.0,disk_degrade=0.8:0.25": dict(
        crashes=(NodeCrash("storage", 0.5, 2), NodeCrash("compute", 1.0)),
        degradations=(Degradation("disk", 0.8, 0.25),),
    ),
    "nic_degrade=1.5:0.5@3,retry_base=0.1": dict(
        degradations=(Degradation("nic", 1.5, 0.5, 3),), retry_base=0.1
    ),
}


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(200))
    def test_parse_str_round_trips(self, seed):
        """Drawn fields, spelled as spec text, parse back to themselves."""
        spec, plan = random_spec(seed)
        assert FaultPlan.parse(spec) == plan, spec

    def test_trivial_plan_round_trips(self):
        assert FaultPlan.parse("") == FaultPlan()
        assert FaultPlan.parse("seed=4").is_trivial

    @pytest.mark.parametrize("spec", list(_DOCUMENTED))
    def test_documented_examples_round_trip(self, spec):
        assert FaultPlan.parse(spec) == FaultPlan(**_DOCUMENTED[spec])


class TestErrors:
    def test_unknown_key_names_token_and_lists_valid_keys(self):
        with pytest.raises(ValueError) as err:
            FaultPlan.parse("seed=1,strage_crash=0.5")
        msg = str(err.value)
        assert "'strage_crash'" in msg
        assert "'strage_crash=0.5'" in msg
        for key in _SPEC_KEYS:
            assert key in msg

    def test_missing_equals_names_item(self):
        with pytest.raises(ValueError, match="'transient'"):
            FaultPlan.parse("transient")

    def test_degradation_needs_factor(self):
        with pytest.raises(ValueError, match="t:factor"):
            FaultPlan.parse("disk_degrade=0.8")
