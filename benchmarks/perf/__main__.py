"""Command line: ``python -m benchmarks.perf {run,compare}`` (repo root).

``run`` measures workloads and prints ``workload metric value unit``
lines, then one JSON line ``{"correct", "attempted", "failed",
"metrics"}``; it exits 1 when any check failed.  ``compare`` reads two
``BENCH_<label>.json`` files written by ``run --label``.
"""

from __future__ import annotations

import argparse
import sys

from . import compare, harness, spec


def _run(args):
    workloads = spec.WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        record = harness.run_workload(workload, args.seed,
                                      trace_on=bool(args.trace),
                                      smoke=args.smoke)
        harness.print_run(record)
        records.append(record)
    if args.label:
        path = harness.append_label(args.label, records)
        print(f"appended {len(records)} run(s) to {path}", file=sys.stderr)
    print(harness.result_line(records), flush=True)
    return 0 if all(r["correct"] for r in records) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure workloads")
    run.add_argument("--workload", default="all",
                     choices=("all",) + spec.WORKLOADS)
    run.add_argument("--seed", type=int, default=7)
    # Runs do a fixed amount of work sized to BENCHMARK.json's
    # run_seconds; the flag is accepted for the benchmark command line
    # and any other value is refused.
    run.add_argument("--seconds", type=int, default=spec.RUN_SECONDS,
                     choices=(spec.RUN_SECONDS,))
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                     choices=(0, 1),
                     help="1: per-layer metrics from a traced window")
    run.add_argument("--smoke", action="store_true",
                     help="a tenth of the operations, one set-up sample")
    run.add_argument("--label",
                     help="append the runs to results/BENCH_<label>.json")

    cmp = sub.add_parser("compare", help="compare two labelled result files")
    cmp.add_argument("parent")
    cmp.add_argument("change")
    cmp.add_argument("--claim", action="append", default=[],
                     metavar="WORKLOAD:METRIC")

    args = parser.parse_args(argv)
    if args.command == "run":
        return _run(args)
    return compare.main(args.parent, args.change, args.claim)


if __name__ == "__main__":
    sys.exit(main())
