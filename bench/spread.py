"""Run-to-run spread of the end-to-end metrics, against the bounds in BENCHMARK.json.

Usage, from the repository root:

    python3 bench/spread.py --seeds 1-10 [--workload gl-points ...] [--out FILE]

Runs ``bench/run.py`` once per seed and workload, one run at a time, with
the benchmark's own ``run_seconds``.  For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to a third of the metric's bound, which is
the steadiness target.  ``--out`` writes every value, the statistics and
the environment as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import environment  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out")
    args = parser.parse_args()

    stats: dict[str, dict[str, dict]] = {}
    steady = True
    for workload in args.workload or names:
        runs: dict[str, list[float]] = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            line = json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else {}
            if not line.get("correct"):
                print(f"{workload} seed {seed}: run not correct (exit {done.returncode})")
                steady = False
                continue
            for name, metric in line["metrics"].items():
                runs.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.5g}" for name, metric in line["metrics"].items()),
                flush=True)
        for metric in spec["end_to_end"]:
            series = runs.get(metric["name"], [])
            if len(series) < 2:
                continue
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med
            target = metric["bound"] / 3
            ok = spread < target
            stats.setdefault(workload, {})[metric["name"]] = {
                "values": series, "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": metric["bound"],
            }
            steady = steady and ok
            print(f"  {workload:15s} {metric['name']:12s} median {med:11.5g} "
                  f"q1 {q1:11.5g} q3 {q3:11.5g} spread {spread:7.4f} "
                  f"target < {target:.4f} {'ok' if ok else 'WIDE'}")
    if args.out:
        record = {"environment": environment(args.seeds[0]), "run_seconds": spec["run_seconds"],
                  "seeds": args.seeds, "workloads": stats}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
