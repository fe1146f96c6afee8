"""Fixture: a real violation silenced by a `# simlint: disable=` directive.

Zero `# expect:` markers — the harness asserts simlint stays silent.
"""


def worker(engine):
    try:
        yield engine.timeout(1.0)
    except Interrupt:  # noqa: F821 - fixtures are parsed, never imported
        yield engine.timeout(0.5)  # simlint: disable=P002
