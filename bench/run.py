"""Benchmark entry point: one workload, one seed, a fixed measuring time.

Usage, from the repository root:

    python3 bench/run.py --workload gl-points --seed 1 --seconds 40 --trace 0

Each rep runs the workload's whole op sequence in a fresh interpreter
(``bench/worker.py``), so ``_MUL_CACHE`` and every presentation's delta cache
start cold, as they do for each CLI invocation.  Reps run one at a time until
the measuring time is used.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced reps on the same inputs and
reports the per-layer metrics plus the tracing overhead.  Every reported
time is calibrated by the host speed each worker measures (see
``worker.py``); the raw times stay in the record.  The last line of stdout
is the JSON result; the full record, with the environment and every
sample, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from tracer import NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8  # extra set-up-only interpreters per run, for the setup_s median
WORKER_TIMEOUT_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = (
    [(f"{name}.{field}", unit) for name in NAMES
     for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))]
    + [("core.mul_cache.entries", "count"), ("linalg.rref.max_cells", "count")]
    + [("trace.overhead_s", "s")]
)


class SourceMissing(RuntimeError):
    """The checkout lacks the package or the benchmark's own files."""


def environment(seed: int) -> dict:
    """What a reader needs to compare two results: interpreter, machine, code, seed."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "superalg").rglob("*")):
        if path.suffix in (".py", ".shp"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "pythonhashseed": "0",
    }


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SUPERALG_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(spec: dict) -> dict:
    """Run one rep in a fresh interpreter; a crash becomes an ``error`` entry."""
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=_worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S, check=False,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"worker killed after {WORKER_TIMEOUT_S} s"}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exited {done.returncode}: {tail[0]}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Measure one workload; returns the result line, metric rows and the record."""
    if not (ROOT / "src" / "superalg" / "__init__.py").is_file():
        raise SourceMissing(f"no superalg package under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    # result digests only serve the traced/untraced comparison
    base = {"workload": workload, "seed": seed, "size": size, "digest": trace}
    plain, traced, errors, probes = [], [], [], []
    for i in range(SETUP_PROBES + 1):
        result = run_worker({**base, "rep": -1 - i, "setup_only": True})
        if "error" in result:
            errors.append(result)
        elif i:  # untimed: the first import compiles bytecode, which users pay once
            probes.append(result)

    started = perf_counter()
    rep = 0
    while True:
        t0 = perf_counter()
        result = run_worker({**base, "rep": rep})
        (errors if "error" in result else plain).append(result)
        if trace:
            spans = OUT / f"spans-{workload}-seed{seed}-rep{rep}.jsonl.gz"
            result = run_worker({**base, "rep": rep, "trace": True, "spans_out": str(spans)})
            (errors if "error" in result else traced).append(result)
        rep += 1
        took = perf_counter() - t0
        if errors or perf_counter() - started + took > seconds:
            break

    runs = plain + traced
    setups = [r["setup_s"] for r in probes + runs]
    attempted = sum(r["attempted"] for r in runs) + len(errors)
    failed = sum(len(r["failures"]) for r in runs) + len(errors)
    mismatched = sum(
        1 for a, b in zip(plain, traced) if a["digests"] != b["digests"]
    ) if trace else 0
    correct = failed == 0 and mismatched == 0 and bool(plain)

    rows: list[tuple[str, float, str, str]] = []
    if plain and not trace:
        lat = [x for r in plain for x in r["latencies_s"]]
        per = f"{len(lat)} ops in {len(plain)} reps"
        values = {
            "setup_s": (statistics.median(setups), f"{len(setups)} interpreters"),
            "wall_s": (statistics.median(r["wall_s"] for r in plain), f"{len(plain)} reps"),
            "ops_per_s": (statistics.median(r["attempted"] / r["wall_s"] for r in plain), per),
            "op_p50_ms": (1e3 * quantile(lat, 50), per),
            "op_p90_ms": (1e3 * quantile(lat, 90), per),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain),
                            f"{len(plain)} reps"),
        }
        rows = [(name, values[name][0], unit, values[name][1]) for name, unit in END_TO_END]
    elif plain and traced:
        samples = f"{len(traced)} traced reps"
        layers = {
            name: statistics.median(r["layers"][name] * (r["speed"] if unit == "s" else 1)
                                    for r in traced)
            for name, unit in PER_LAYER if name in traced[0]["layers"]
        }
        layers["core.mul_cache.entries"] = statistics.median(
            r["mul_cache_entries"] for r in traced)
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain))
        rows = [(name, layers[name], unit, samples) for name, unit in PER_LAYER]

    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in rows},
    }
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seed),
        "result": line,
        "samples": {name: samples for name, _, _, samples in rows},
        "failures": [f for r in runs for f in r["failures"]] + [e["error"] for e in errors],
        "digest_mismatches": mismatched,
        "setup_s": setups,
        "setup_raw_s": [r["setup_raw_s"] for r in probes + runs],
        "reps": [{k: v for k, v in r.items() if k != "digests"} for r in runs],
    }
    return {"line": line, "rows": rows, "record": record}


def print_rows(rows) -> None:
    for name, value, unit, samples in rows:
        print(f"{name:52s} {value:>14.6g} {unit:6s} ({samples})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = out["record"]
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}")
    print_rows(out["rows"])
    print(json.dumps(out["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
