"""Tests of the benchmark itself: the correctness gate, the tracer, the runner.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import run_ops  # noqa: E402

# boundaries each workload must reach even at the tiny size
HEADLINE = {
    "gl-points": ["grassmann.PointSampler.sample", "grassmann.SuperMatrix.inv",
                  "grassmann.SuperMatrix.antipode_blocks", "grassmann.grassmann_matrix_inv",
                  "grassmann.SuperMatrix.from_decomposition", "grassmann.poly_mat_mul",
                  "linalg.invert"],
    "finite-tables": ["cli.run_exterior_suite", "cli.run_integrals_suite",
                      "cli.run_bosonize_suite", "presfile.parse_presentation",
                      "finite.dual_iso_check", "finite.bosonize", "finite.integral_space",
                      "linalg.rref"],
    "lie-structures": ["hyper.truncated_dual", "hyper.TruncatedDual.check_associative_unital",
                       "hopf.HopfPresentation.delta_monomial", "tensor.TensorPoly.mul",
                       "hcpair.spo_pair", "hcpair.truncated_envelope",
                       "liealg.SuperLieAlgebraData.check_jacobi", "linalg.solve"],
}


def _original_code(module_name: str, attr: str):
    import importlib

    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        fn = getattr(module, cls_name).__dict__[meth]
        fn = getattr(fn, "__func__", fn)
    else:
        fn = getattr(module, attr)
    return fn.__code__


def _profiled_calls(ops) -> Counter:
    """Calls of each boundary's original code, seen by sys.setprofile."""
    codes = {_original_code(mod, attr): label for label, mod, attr in tracer.BOUNDARIES}
    seen: Counter = Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        run_ops(ops)
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_spans_every_reached_boundary(workload):
    plain = run_ops(workloads.build(workload, 3, 0, "tiny"))
    reached = _profiled_calls(workloads.build(workload, 3, 0, "tiny"))

    ops = workloads.build(workload, 3, 0, "tiny")  # built before install, as in the worker
    trace = tracer.Tracer()
    trace.install()
    try:
        traced = run_ops(ops, trace)
    finally:
        trace.uninstall()

    assert plain["failures"] == [] and traced["failures"] == []
    assert traced["digests"] == plain["digests"]
    summary = trace.summary()
    for label in tracer.NAMES:
        assert summary[f"{label}.calls"] == reached[label], label
    for label in HEADLINE[workload]:
        assert summary[f"{label}.calls"] > 0, label
        assert summary[f"{label}.busy_s"] >= summary[f"{label}.self_s"] >= 0
    ops_seen = {span[4] for span in trace.spans}
    assert ops_seen == set(range(traced["attempted"]))


def test_uninstall_restores_every_binding():
    from superalg import cli, finite, linalg

    before = (cli.bosonize, finite.bosonize, linalg.rref, cli.SuperMatrix.__dict__["inv"])
    trace = tracer.Tracer()
    trace.install()
    assert cli.bosonize is finite.bosonize is not before[0]
    assert linalg.rref is not before[2]
    trace.uninstall()
    assert (cli.bosonize, finite.bosonize, linalg.rref,
            cli.SuperMatrix.__dict__["inv"]) == before


def test_gate_fails_on_a_wrong_expected_value_and_the_run_continues():
    ops = workloads.build("lie-structures", 3, 0, "tiny")
    wrong = ops[0]._replace(expected={**ops[0].expected,
                                      "dimension": ops[0].expected["dimension"] + 1})
    out = run_ops([wrong] + ops[1:])
    assert out["attempted"] == len(ops)
    assert len(out["failures"]) == 1 and "dimension" in out["failures"][0]

    ops = workloads.build("gl-points", 3, 0, "tiny")
    other = next(op for op in ops if op.name != ops[0].name
                 and op.expected["point_times_inverse"] != ops[0].expected["point_times_inverse"])
    wrong = ops[0]._replace(expected={**ops[0].expected,
                                      "point_times_inverse": other.expected["point_times_inverse"]})
    out = run_ops([wrong] + ops[1:])
    assert len(out["failures"]) == 1 and "point_times_inverse" in out["failures"][0]

    from superalg import cli, finite

    ops = workloads.build("finite-tables", 3, 0, "tiny")
    bos = ops[-1]
    wrong = bos._replace(expected={**bos.expected, "dimension": bos.expected["dimension"] * 2})
    out = run_ops(ops[:-1] + [wrong])
    assert out["failures"] == [f"{bos.name}: dimension: expected 8, got 4"]
    assert cli.bosonize is finite.bosonize  # the recording wrapper is gone


def test_an_op_that_raises_is_one_failed_op():
    def boom():
        raise ValueError("no point")

    ops = workloads.build("finite-tables", 3, 0, "tiny")
    out = run_ops([workloads.Op("boom", boom, {})] + ops)
    assert out["attempted"] == len(ops) + 1
    assert out["failures"] == ["boom: ValueError: no point"]


def test_reference_chunks_are_taken_out_and_the_timer_is_stopped():
    import signal
    from time import perf_counter

    def busy():
        end = perf_counter() + 0.3
        while perf_counter() < end:
            pass
        return {"result": None}

    out = run_ops([workloads.Op("busy", busy, {})], digest=False)
    assert out["failures"] == [] and out["chunks"] >= 5
    assert out["raw_wall_s"] < 0.3 and out["latencies_s"][0] > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_tiny_measurement_reports_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = run.measure("gl-points", 5, 0, False, size="tiny")
    assert plain["line"]["correct"] and plain["line"]["failed"] == 0
    assert set(plain["line"]["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["line"]["metrics"].values())
    traced = run.measure("gl-points", 5, 0, True, size="tiny")
    assert traced["line"]["correct"]
    assert set(traced["line"]["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gl-points", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
