"""Pytest plugin of every mutation-matrix suite run
(``python -m pytest -p benchmarks.mutation_plugin``).

A run only records which tests fail, so a property stops at its first
failing example: no shrinking and no explain phase.  Those replay a
failing property hundreds of times under a line tracer, which took a
suite run of one ``folds`` cell past the harness's 900 s timeout.  Which
tests fail does not change.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "mutation", phases=[phase for phase in Phase if phase not in (Phase.shrink, Phase.explain)]
)
settings.load_profile("mutation")
