"""``python -m bench`` — measure one workload, run the suite, compare two runs.

``measure``
    What ``BENCHMARK.json``'s command runs: one workload, one seed;
    prints the result object as the last line of standard output.
``run``
    All six workloads, untraced then traced; prints every metric by name
    with its unit and sample count, checks every oracle (exit 1 on a
    failure) and writes ``bench/results/run.json`` plus one
    ``trace_<workload>.json`` per workload.
``compare``
    Two ``run.json`` files, metric by metric against the bounds; exit 1
    on any ``worse``, failed oracle or changed digest.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench import RESULTS, SRC, runner
from bench.compare import compare_files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="one workload, one result line")
    p_measure.add_argument("--workload", required=True, choices=runner.WORKLOAD_NAMES)
    p_measure.add_argument("--seed", type=int, required=True)
    p_measure.add_argument("--seconds", type=float, required=True,
                           help="run_seconds of BENCHMARK.json, which the workloads "
                                "are sized to; a run is three repetitions whatever "
                                "this says, so that a seed always draws the same inputs")
    p_measure.add_argument("--trace", type=int, choices=(0, 1), required=True)

    p_run = sub.add_parser("run", help="all workloads, both passes, run.json")
    p_run.add_argument("--seed", type=int, default=7)
    p_run.add_argument("--out", type=Path, default=RESULTS / "run.json")

    for p in (p_measure, p_run):
        p.add_argument("--scale", type=float, default=1.0,
                       help="shrink every workload's input (smoke tests)")

    p_compare = sub.add_parser("compare", help="two run.json files against the bounds")
    p_compare.add_argument("parent", type=Path)
    p_compare.add_argument("change", type=Path)

    args = parser.parse_args(argv)
    if args.command == "compare":
        return compare_files(args.parent, args.change)

    if not (SRC / "repro").is_dir():
        print(f"bench: no program to measure — {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.scale <= 0:
        parser.error("--scale must be positive")

    if args.command == "measure":
        result = runner.measure(
            args.workload, args.seed, trace=bool(args.trace), scale=args.scale,
        )
        for problem in result["problems"]:
            print(f"! {problem}")
        for name, metric in result["metrics"].items():
            print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
        print(runner.result_line(result))
        return 0
    return runner.run_suite(args.seed, args.scale, args.out)


if __name__ == "__main__":
    sys.exit(main())
