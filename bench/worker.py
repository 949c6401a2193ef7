"""One measured rep of one workload, in a fresh interpreter.

Usage: python3 bench/worker.py '<json spec>'   (spec keys: workload, seed,
rep, trace, digest, size, setup_only, spans_out).  Prints one JSON object on stdout.
Run from the repository root with ``src`` on PYTHONPATH; ``bench/run.py``
starts it that way.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from bisect import bisect_left, bisect_right  # noqa: E402
from fractions import Fraction  # noqa: E402

# The host's speed drifts by tens of percent from one second to the next.
# A fixed stdlib reference chunk measures that speed: an interval timer runs
# one every SAMPLE_INTERVAL_S while an op runs, and each timing is scaled to
# the speed at which REFERENCE_RATE chunks run per second (their median on
# an idle 2-vCPU Xeon VM, Python 3.11).
REFERENCE_RATE = 1800.0
SAMPLE_INTERVAL_S = 0.02
MIN_WINDOW_S = 0.2  # an op shorter than this is calibrated by the chunks around it
# chunks run back to back after set-up (about 0.1 s), or after a rep whose
# ops were all too short for the timer
SETUP_SAMPLE_S = 0.05


def _reference_chunk() -> None:
    """Work like the engine's inner loops: Fraction products summed into a dict."""
    acc: dict = {}
    for i in range(1, 120):
        key = (i & 7, i & 3)
        acc[key] = acc.get(key, 0) + Fraction(i, i + 1) * Fraction(i + 2, i + 3)


def _timed_chunk() -> tuple[float, float]:
    """Run one reference chunk with collection off; returns its start and end."""
    collecting = gc.isenabled()
    gc.disable()  # a collection of the engine's objects is not the host's speed
    t0 = perf_counter()
    try:
        _reference_chunk()
    finally:
        t1 = perf_counter()
        if collecting:
            gc.enable()
    return t0, t1


class Speed:
    """Reference chunks run by an interval timer while ops run.

    ``factor`` is the chunks' speed relative to REFERENCE_RATE: a time
    measured alongside is multiplied by it to calibrate it.  ``spent`` is
    the time the chunks took, which is taken out of the ops' times.
    """

    def __init__(self):
        self.ends: list[float] = []
        self.took: list[float] = []

    def _on_timer(self, *_) -> None:
        t0, t1 = _timed_chunk()
        self.ends.append(t1)
        self.took.append(t1 - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def sample(self, seconds: float) -> float:
        """Run chunks back to back for ``seconds``; returns the overall factor."""
        start = perf_counter()
        while perf_counter() - start < seconds:
            self._on_timer()
        return self.factor()

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect_left(self.ends, t0), bisect_right(self.ends, t1)

    def spent(self, t0: float, t1: float) -> float:
        lo, hi = self._range(t0, t1)
        return sum(self.took[lo:hi])

    def factor(self, t0: float | None = None, t1: float | None = None) -> float:
        """Speed of the chunks in [t0, t1], widened to MIN_WINDOW_S; all chunks by default."""
        lo, hi = 0, len(self.took)
        if t0 is not None:
            pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
            lo, hi = self._range(t0 - pad, t1 + pad)
        if lo == hi:
            lo, hi = 0, len(self.took)
        return (hi - lo) / sum(self.took[lo:hi]) / REFERENCE_RATE


def run_ops(ops, tracer=None, digest: bool = True) -> dict:
    """Run ops in order as a closed loop; a failed op is counted and skipped.

    Each op's latency leaves out the reference chunks that ran inside it
    and is scaled by the speed of the chunks in and around it; the rest of
    the wall time (the gates) is scaled by the rep's overall speed.
    ``raw_wall_s`` is the uncalibrated wall time.  With ``digest``, each
    op's result is digested for the traced/untraced comparison (for
    ``lie-structures`` that takes about a second a rep), out of the timing.
    """
    from workloads import gate, result_digest

    spans, digests, failures = [], [], []
    speed = Speed()
    untimed_s = 0.0
    started = perf_counter()
    for op_id, op in enumerate(ops):
        observed = None
        with speed:
            t0 = perf_counter()
            try:
                observed = op.call() if tracer is None else tracer.run_op(op_id, op.call)
            except Exception as exc:  # an op that raises is a failed op; keep going
                failures.append(f"{op.name}: {type(exc).__name__}: {exc}")
            t1 = perf_counter()
        spans.append((t0, t1))
        if observed is not None:
            problem = gate(observed, op.expected)
            if problem:
                failures.append(f"{op.name}: {problem}")
        if digest:
            t2 = perf_counter()
            digests.append(None if observed is None else result_digest(observed["result"]))
            untimed_s += perf_counter() - t2
    ended = perf_counter()
    if not speed.took:  # every op was shorter than the sampling interval
        speed.sample(SETUP_SAMPLE_S)
    raw = [t1 - t0 - speed.spent(t0, t1) for t0, t1 in spans]
    latencies = [r * speed.factor(t0, t1) for r, (t0, t1) in zip(raw, spans)]
    raw_wall = ended - started - untimed_s - speed.spent(started, ended)
    overall = speed.factor()
    return {
        "wall_s": sum(latencies) + (raw_wall - sum(raw)) * overall,
        "raw_wall_s": raw_wall,
        "latencies_s": latencies,
        "speed": overall,
        "chunks": len(speed.took),
        "digests": digests,
        "attempted": len(ops),
        "failures": failures,
    }


def main(spec: dict) -> dict:
    import superalg  # noqa: F401  (set-up includes the package import)
    from workloads import build

    ops = build(spec["workload"], spec["seed"], spec["rep"], spec.get("size", "full"))
    setup_raw_s = perf_counter() - STARTED
    setup = {"setup_s": setup_raw_s * Speed().sample(SETUP_SAMPLE_S), "setup_raw_s": setup_raw_s}
    if spec.get("setup_only"):
        return setup

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        out = run_ops(ops, tracer, spec.get("digest", True))
    finally:
        if tracer is not None:
            tracer.uninstall()

    from superalg import core

    out.update(setup)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["mul_cache_entries"] = len(core._MUL_CACHE)
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["spans"] = len(tracer.spans)
        if spec.get("spans_out"):
            tracer.write(spec["spans_out"])
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
