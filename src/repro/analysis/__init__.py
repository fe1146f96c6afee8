"""The runtime sanitizer (:mod:`repro.analysis.sanitizer`, ``repro run
--sanitize``): invariant hooks installed into the engine, caches and
query-execution strategies that catch the semantic bugs no syntax check
can see (cache over capacity, lost transfer bytes, stranded processes,
tie-break-order dependence).

The one syntactic engine-protocol check — no ``yield`` inside an
``except Interrupt`` handler — is a tier-1 test,
``tests/test_determinism.py::test_no_yield_inside_an_interrupt_handler``.
See ``DESIGN.md`` §7 for the invariant list.
"""

from repro.analysis.sanitizer import RunSanitizer, SanitizerViolation

__all__ = ["RunSanitizer", "SanitizerViolation"]
