"""Fixture: R001 — cache pins and staging reservations released on every path.

Each violating function has a corrected twin below it showing the
accepted shape: atomic (no suspension while held), scope-owned, or
guarded by a ``finally``/``except BaseException`` unwind handler.
"""


def pin_across_yield(engine, make_cache, sid):
    cache = make_cache()
    cache.pin(sid)  # expect: R001
    yield engine.timeout(1.0)
    cache.unpin(sid)


def pin_never_released(make_cache, sid):
    cache = make_cache()
    cache.pin(sid)  # expect: R001
    return cache


def acquire_across_yield(engine, make_cache, sid):
    # a hit of acquire is a pin, held here across the suspension
    cache = make_cache()
    entry = cache.acquire(sid)  # expect: R001
    yield engine.timeout(1.0)
    cache.unpin(sid)
    return entry


def _fetch_into(scope, sid):
    return scope.acquire(sid)


def helper_pins_an_unscoped_argument(engine, make_cache, sid):
    # the helper pins through its parameter: the caller's argument owes it
    cache = make_cache()
    entry = _fetch_into(cache, sid)  # expect: R001
    yield engine.timeout(1.0)
    return entry


def staging_unguarded(engine, cluster, cache, node, j, sid, size):
    if not cache.prefetch_begin(sid, size):  # expect: R001
        return
    transfer = cluster.read_and_send(node, j, size)
    yield transfer
    cache.prefetch_complete(sid, object())


def pin_atomic_ok(make_cache, sid, payload):
    # held across zero suspensions: atomic in simulated time
    cache = make_cache()
    cache.pin(sid)
    cache.size_of(sid)
    cache.unpin(sid)


def pin_scope_ok(engine, cache, sid):
    # the with-bound scope owns the release on every exit
    with cache.pin_scope() as scope:
        scope.pin(sid)
        yield engine.timeout(1.0)


def acquire_scope_ok(engine, cache, sid):
    # a scope's acquire records the hit's pin for release on every exit
    with cache.pin_scope() as scope:
        entry = scope.acquire(sid)
        yield engine.timeout(1.0)
    return entry


def helper_pins_a_scoped_argument_ok(engine, cache, sid):
    with cache.pin_scope() as scope:
        entry = _fetch_into(scope, sid)
        yield engine.timeout(1.0)
    return entry


def pin_finally_ok(engine, make_cache, sid):
    cache = make_cache()
    cache.pin(sid)
    try:
        yield engine.timeout(1.0)
    finally:
        cache.unpin(sid)


def staging_guarded_ok(engine, cluster, cache, node, j, sid, size):
    if not cache.prefetch_begin(sid, size):
        return
    transfer = cluster.read_and_send(node, j, size)
    try:
        yield transfer
    except BaseException:
        cache.prefetch_cancel(sid)
        raise
    cache.prefetch_complete(sid, object())
