"""One repetition of one workload, meant to run in a fresh process.

``python -m bench.child '<json spec>'`` sets the workload up, times its
region once and prints one JSON report.  A fresh process per repetition
makes ``peak_rss_mb`` attributable and set-up (imports included)
repeatable.  The spec's ``mode`` selects the instruments of
:mod:`bench.trace`: ``plain`` (event counter only — the end-to-end
repetitions), ``spans`` or ``profile``.
"""

import time

_PROCESS_START = time.perf_counter()  # before the imports set-up pays for

import functools
import gc
import json
import resource
import shutil
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path
from typing import Dict

from bench import RESULTS
from bench.hostclock import Pilot

__all__ = ["run_repetition"]


def run_repetition(spec: Dict[str, object], started: float) -> Dict[str, object]:
    """Set up, time and verify ``spec["workload"]`` once.

    ``setup_s``, ``wall_s`` and everything under ``timings`` and
    ``trace`` are in reference-host seconds (see :mod:`bench.hostclock`);
    the seconds as measured ride along under ``raw``.  The profile pass
    reports shares only, so it runs without the pilot.
    """
    mode = spec.get("mode", "plain")
    RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    with ExitStack() as stack:
        stack.callback(shutil.rmtree, workdir, ignore_errors=True)
        pilot = Pilot()
        if mode != "profile":
            stack.enter_context(pilot)

        from bench import trace
        from bench.workloads import WORKLOADS

        workload = WORKLOADS[spec["workload"]]
        state = workload.setup(spec["seed"], spec.get("scale", 1.0), workdir)
        setup_raw = time.perf_counter() - started
        during_setup = pilot.read()
        gc.collect()  # set-up's garbage is not the timed region's to collect

        shares = tracer = None
        with ExitStack() as instruments:
            events = instruments.enter_context(trace.EventCounter())
            if mode == "spans":
                tracer = instruments.enter_context(trace.SpanTracer())
                pilot.on_tick = functools.partial(tracer.charge, trace.PILOT_LAYER)
            before = pilot.read()
            begin = time.perf_counter()
            if mode == "profile":
                outcome, shares = trace.profile_shares(lambda: workload.run(state))
            else:
                outcome = workload.run(state)
            wall_raw = time.perf_counter() - begin
            during_run = pilot.read().since(before)
            pilot.on_tick = None
        failures = workload.verify(state)

    speed = during_run.speed_factor
    report = {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "mode": mode,
        "setup_s": during_setup.normalise(setup_raw),
        "wall_s": during_run.normalise(wall_raw),
        "raw": {"setup_s": setup_raw, "wall_s": wall_raw,
                "pilot_setup": during_setup, "pilot_run": during_run},
        "speed_factor": speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": outcome.attempted,
        "completed": outcome.completed,
        "digest": outcome.digest,
        "failures": failures,
        "events": events.dispatched,
        "counts": outcome.counts,
        "timings": {
            stem: [v * speed for v in values]
            for stem, values in outcome.timings.items()
        },
    }
    if tracer is not None:
        report["trace"] = tracer.payload(scale=speed)
    if shares is not None:
        report["shares"] = shares
    return report


if __name__ == "__main__":
    json.dump(run_repetition(json.loads(sys.argv[1]), _PROCESS_START), sys.stdout)
    print()
