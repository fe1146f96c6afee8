"""Fixture: a clean file — the walk may name no line (zero `# expect:` markers)."""


def schedule(engine, refs, plan):
    nodes = sorted({ref.storage_node for ref in refs})
    done = engine.event()
    engine.schedule(1.0, lambda: done.succeed())
    total = sum(ref.nbytes for ref in refs)
    for node in nodes:
        plan.append((node, total))
    yield done


def worker(engine, pairs):
    pending = []
    try:
        yield engine.timeout(1.0)
    except Interrupt:  # noqa: F821 - fixtures are parsed, never imported
        pending = list(pairs)  # synchronous cleanup: fine
    yield engine.timeout(0.5)  # waiting after the handler: fine
    return pending
