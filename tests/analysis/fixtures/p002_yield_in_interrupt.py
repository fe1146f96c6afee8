"""Fixture: P002 — yield inside an except-Interrupt handler."""


def worker(engine, events, pairs):
    pending = pairs
    try:
        yield engine.timeout(1.0)
    except Interrupt:  # noqa: F821 - fixtures are parsed, never imported
        yield engine.timeout(0.5)  # expect: P002
    except (ValueError, events.Interrupt):
        if pending:
            yield from engine.drain()  # expect: P002

        def later():
            yield engine.timeout(1.0)  # a nested def runs later: not the handler's
    except KeyboardInterrupt:
        yield engine.timeout(0.5)  # another exception type
    try:
        yield engine.timeout(1.0)
    except (ValueError, Interrupt):  # noqa: F821
        pending = pairs[:]  # synchronous cleanup: fine
    return pending
