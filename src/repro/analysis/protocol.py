"""Engine-protocol rule P002.

The discrete-event engine (:mod:`repro.cluster.events`) kills or
redirects a process by throwing :class:`Interrupt` into it, and the
interrupter assumes the process unwinds synchronously.  A ``yield``
inside the handler re-enters the event loop mid-unwind; nothing at
runtime notices when the extra wait happens to move no byte, which is
why this rule stays (DESIGN.md §7.1 names the mutation only it catches).

Like every rule it checks simulation source only: the engine test-suite
deliberately yields inside interrupt handlers to pin engine behaviour,
and must stay free to do so.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import (
    FileContext,
    Rule,
    dotted_name,
    register,
    walk_scope,
)

__all__ = ["YieldInInterruptHandlerRule"]


@register
class YieldInInterruptHandlerRule(Rule):
    """P002: yield inside an ``except Interrupt`` handler.

    :class:`Interrupt` is thrown into a process to *kill or redirect*
    it; the interrupter (fault injector, failover logic) assumes the
    process unwinds without re-entering the event loop.  A ``yield``
    inside the handler suspends the supposedly-dying process on a new
    event — it can be interrupted again mid-cleanup (the engine forbids
    double interrupts) or block forever on an event whose producer died
    with the same node.  Do cleanup synchronously in the handler; if
    recovery needs simulated time, return/continue out of the handler
    first and wait from normal flow.

    Bad::

        except Interrupt:
            yield engine.timeout(RECOVERY_DELAY)   # suspends mid-death
            reassign(pairs)

    Good::

        except Interrupt:
            pending = pairs[progress:]             # synchronous capture
        # ...fall out of the handler, then wait from normal flow
    """

    id = "P002"
    title = "yield inside except-Interrupt handler"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            types = (
                node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            )
            names = [dotted_name(t) for t in types]
            if not any(n is not None and n.split(".")[-1] == "Interrupt" for n in names):
                continue
            for stmt in node.body:
                for sub in walk_scope(stmt):
                    if isinstance(sub, (ast.Yield, ast.YieldFrom)):
                        yield ctx.diag(
                            self,
                            sub,
                            "yield inside an except-Interrupt handler suspends a "
                            "process mid-interruption; clean up synchronously",
                        )
