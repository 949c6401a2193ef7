"""Print every end-to-end and per-layer metric of every workload.

Usage, from the repository root:

    python3 bench/report.py [--seed 1] [--out BENCH.json]

For each workload this runs ``bench/run.py``'s measurement twice, for the
benchmark's own ``run_seconds`` (from ``BENCHMARK.json``): untraced
(end-to-end metrics) and traced (per-layer metrics and tracing overhead),
and prints each metric by name with its value, unit and sample count.
A failed op is printed with its reason; the exit code is 1 if any run was
not correct.  ``--out`` writes all results, with the environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import ROOT, SourceMissing, environment, measure, print_rows
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]

    results = {"environment": environment(args.seed), "workloads": {}}
    all_correct = True
    try:
        for workload in WORKLOADS:
            for trace in (False, True):
                out = measure(workload, args.seed, seconds, trace)
                line = out["line"]
                all_correct = all_correct and line["correct"]
                fail_ratio = line["failed"] / max(line["attempted"], 1)
                print(f"== {workload} ({'traced' if trace else 'untraced'}): "
                      f"correct={line['correct']} attempted={line['attempted']} "
                      f"failed={line['failed']} fail_ratio={fail_ratio:g}")
                for failure in out["record"]["failures"]:
                    print(f"FAILED {failure}")
                print_rows(out["rows"])
                entry = results["workloads"].setdefault(workload, {})
                entry["traced" if trace else "untraced"] = {
                    **line, "fail_ratio": fail_ratio, "samples": out["record"]["samples"],
                }
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(results, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
