"""R-series rule behaviour beyond the fixture matrix: call summaries,
ownership exemptions, suppression edge cases, and the redundancy
demonstration — a protocol bug the sanitizer used to catch only at
runtime is caught by the static pass without executing anything.
"""

import ast

from repro.analysis import lint_source
from repro.analysis.summaries import summarize_module


def r_diags(source):
    diags = lint_source(source, "src/repro/unit.py", is_sim_source=True)
    return [d for d in diags if d.rule.startswith("R")]


def rules_of(source):
    return [d.rule for d in r_diags(source)]


# -- ownership exemptions ------------------------------------------------------------


def test_pin_through_parameter_is_callers_obligation():
    # the scope owner passed the cache in; the callee is not charged
    source = (
        "def probe(engine, cache, sid):\n"
        "    cache.pin(sid)\n"
        "    yield engine.timeout(1.0)\n"
    )
    assert rules_of(source) == []


def test_pin_through_with_binding_is_scope_managed():
    source = (
        "def probe(engine, sid, make_cache):\n"
        "    cache = make_cache()\n"
        "    with cache.pin_scope() as scope:\n"
        "        scope.pin(sid)\n"
        "        yield engine.timeout(1.0)\n"
    )
    assert rules_of(source) == []


def test_staging_charged_even_through_parameter():
    # staging budget has no scope manager: every prefetch_begin is charged
    source = (
        "def probe(engine, cache, sid, size):\n"
        "    cache.prefetch_begin(sid, size)\n"
        "    yield engine.timeout(1.0)\n"
    )
    assert rules_of(source) == ["R001"]


# -- call summaries ------------------------------------------------------------------


def test_release_through_local_helper_discharges_pin():
    source = (
        "def _cleanup(cache, sid):\n"
        "    cache.unpin(sid)\n"
        "\n"
        "def probe(engine, sid, make_cache):\n"
        "    cache = make_cache()\n"
        "    cache.pin(sid)\n"
        "    try:\n"
        "        yield engine.timeout(1.0)\n"
        "    finally:\n"
        "        _cleanup(cache, sid)\n"
    )
    assert rules_of(source) == []


def test_helper_without_release_does_not_discharge():
    source = (
        "def _log(cache, sid):\n"
        "    cache.touch(sid)\n"
        "\n"
        "def probe(engine, sid, make_cache):\n"
        "    cache = make_cache()\n"
        "    cache.pin(sid)\n"
        "    try:\n"
        "        yield engine.timeout(1.0)\n"
        "    finally:\n"
        "        _log(cache, sid)\n"
    )
    # one diagnostic per obligation: the unwind leak subsumes the
    # never-released finding for the same pin
    assert rules_of(source) == ["R001"]


def test_slot_helper_needs_literal_true_at_call_site():
    source = (
        "class Pool:\n"
        "    def bad(self, entry):\n"
        "        self._slots_free -= 1\n"
        "        self._finalize(entry, release_slot=False)\n"
        "\n"
        "    def _finalize(self, entry, release_slot=False):\n"
        "        if release_slot:\n"
        "            self._slots_free += 1\n"
    )
    assert rules_of(source) == ["R002"]


def test_summaries_expose_pin_facts():
    tree = ast.parse(
        "def helper(cache, sid):\n"
        "    cache.unpin(sid)\n"
        "    cache.put(sid, None, pin=True)\n"
    )
    summary = summarize_module(tree).get("helper")
    assert summary.releases_pin_params == {0}
    assert summary.acquires_via_params == {0}


def test_summaries_count_an_acquire_hit_as_a_pin():
    tree = ast.parse("def helper(scope, sid):\n    return scope.acquire(sid)\n")
    assert summarize_module(tree).get("helper").acquires_via_params == {0}


def test_helper_pin_through_callers_own_parameter_is_exempt():
    # the caller was handed the scope too: its owner answers for the pin
    source = (
        "def _fetch(scope, sid):\n"
        "    return scope.acquire(sid)\n"
        "\n"
        "def probe(engine, scope, sid):\n"
        "    _fetch(scope, sid)\n"
        "    yield engine.timeout(1.0)\n"
    )
    assert rules_of(source) == []


def test_summaries_close_transfer_yields_transitively():
    tree = ast.parse(
        "def outer(cluster, node, j, size):\n"
        "    yield from inner(cluster, node, j, size)\n"
        "\n"
        "def inner(cluster, node, j, size):\n"
        "    yield cluster.read_and_send(node, j, size)\n"
    )
    mod = summarize_module(tree)
    assert mod.get("inner").contains_transfer_yield
    assert mod.get("outer").contains_transfer_yield


# -- R003 escape analysis ------------------------------------------------------------


def test_attribute_read_is_not_an_escape():
    # polling ev.triggered shares nothing; the orphan is still ours
    source = (
        "def probe(engine, log):\n"
        "    ev = engine.event()\n"
        "    if ev.triggered:\n"
        "        log.note()\n"
    )
    assert rules_of(source) == ["R003"]


def test_return_escape_transfers_ownership():
    source = "def make(engine):\n    ev = engine.event()\n    return ev\n"
    assert rules_of(source) == []


# -- suppression edge cases ----------------------------------------------------------


def test_multi_rule_disable_suppresses_each_listed_rule():
    source = (
        "def probe(engine, sid, make_cache):\n"
        "    cache = make_cache()\n"
        "    cache.pin(sid)  # simlint: disable=R001,P002\n"
        "    yield engine.timeout(1.0)\n"
    )
    assert rules_of(source) == []


def test_disable_of_other_rule_does_not_silence_r001():
    source = (
        "def probe(engine, sid, make_cache):\n"
        "    cache = make_cache()\n"
        "    cache.pin(sid)  # simlint: disable=R002\n"
        "    yield engine.timeout(1.0)\n"
    )
    assert rules_of(source) == ["R001"]


def test_rules_fire_inside_decorated_functions():
    source = (
        "import functools\n"
        "\n"
        "@functools.wraps(print)\n"
        "def probe(engine, sid, make_cache):\n"
        "    cache = make_cache()\n"
        "    cache.pin(sid)\n"
        "    yield engine.timeout(1.0)\n"
    )
    diags = r_diags(source)
    assert [d.rule for d in diags] == ["R001"]
    assert diags[0].line == 6  # anchored at the pin, not the decorator


def test_rules_fire_inside_async_functions():
    source = (
        "async def probe(engine, sid, make_cache):\n"
        "    cache = make_cache()\n"
        "    cache.pin(sid)\n"
        "    await engine.timeout(1.0)\n"
    )
    assert rules_of(source) == ["R001"]


def test_r_rules_skip_test_code():
    # scope "src": tests deliberately build half-open protocol states
    source = (
        "def probe(engine, sid, make_cache):\n"
        "    cache = make_cache()\n"
        "    cache.pin(sid)\n"
        "    yield engine.timeout(1.0)\n"
    )
    diags = lint_source(source, "tests/test_probe.py", is_sim_source=False)
    assert not [d for d in diags if d.rule.startswith("R")]


# -- the redundancy demonstration ----------------------------------------------------
#
# PR 8's motivating bug: IndexedJoinQES._prefetch_pair reserved staging
# budget, suspended on the transfer, and cancelled the reservation only in
# its `except FaultError` arm.  An Interrupt — a joiner killed mid-pair —
# unwound through the yield without touching the reservation, and the
# leak surfaced (when it surfaced at all) as a sanitizer staged-bytes
# violation at end of run.  The shapes below are the before/after of that
# fix, reduced to the protocol skeleton: the static pass must reject the
# old shape without executing a single simulated second, and accept the
# fixed one.

PREFIX_SHAPE_BUGGED = """\
def _prefetch_pair(self, j, pair, cache, inflight):
    for sid in pair:
        desc = self.metadata.chunk(sid)
        if not cache.prefetch_begin(sid, desc.size):
            continue
        transfer = self.cluster.read_and_send(desc.node, j, desc.size)
        inflight[sid] = transfer
        try:
            yield transfer
        except FaultError:
            cache.prefetch_cancel(sid)
            inflight.pop(sid, None)
            continue
        cache.prefetch_complete(sid, self.provider.fetch(desc))
        del inflight[sid]
"""

PREFIX_SHAPE_FIXED = """\
def _prefetch_pair(self, j, pair, cache, inflight):
    for sid in pair:
        desc = self.metadata.chunk(sid)
        if not cache.prefetch_begin(sid, desc.size):
            continue
        transfer = self.cluster.read_and_send(desc.node, j, desc.size)
        inflight[sid] = transfer
        try:
            yield transfer
        except FaultError:
            cache.prefetch_cancel(sid)
            inflight.pop(sid, None)
            continue
        except BaseException:
            cache.prefetch_cancel(sid)
            inflight.pop(sid, None)
            raise
        cache.prefetch_complete(sid, self.provider.fetch(desc))
        del inflight[sid]
"""


def test_pre_fix_prefetch_shape_is_rejected_statically():
    diags = r_diags(PREFIX_SHAPE_BUGGED)
    assert [d.rule for d in diags] == ["R001"]
    assert "unwind" in diags[0].message
    assert diags[0].line == 4  # the prefetch_begin reservation


def test_fixed_prefetch_shape_is_accepted():
    assert rules_of(PREFIX_SHAPE_FIXED) == []
