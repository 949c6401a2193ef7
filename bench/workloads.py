"""The benchmark's workloads: seeded op lists with exact correctness gates.

Every op is a call into the public API of ``superalg``.  ``Op.call`` does
the timed work and returns the observed values; the gate compares each
observed value named in ``Op.expected`` with exact equality.  The observed
``result`` value is the deterministic output the op produced; the worker
digests it so traced and untraced runs can be compared.

``build(workload, seed, rep, size)`` imports ``superalg`` and generates the
inputs; that is the set-up the benchmark times.  ``size="tiny"`` gives the
same ops at toy sizes for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import comb
from typing import Any, Callable, NamedTuple


class Op(NamedTuple):
    name: str
    call: Callable[[], dict]
    expected: dict


GL_SHAPES = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
GL_THETAS = 6
GL_ROUNDS = 12  # one rep verifies GL_ROUNDS * 9 points


def gate(observed: dict, expected: dict) -> str | None:
    """None when every expected value is matched exactly, else the first miss."""
    for key, want in expected.items():
        got = observed.get(key)
        if got != want:
            return f"{key}: expected {_short(want)}, got {_short(got)}"
    return None


def _short(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def result_digest(value: Any) -> str:
    """sha256 of a deterministic serialisation of an op's output."""
    from superalg.grassmann import SuperMatrix
    from superalg.hyper import TruncatedDual, export_structure
    from superalg.report import Report

    if isinstance(value, Report):
        data = value.to_dict()
        data.pop("timings", None)
        text = json.dumps(data, sort_keys=True, default=str)
    elif isinstance(value, SuperMatrix):
        text = value.to_json()
    elif isinstance(value, TruncatedDual):
        text = json.dumps(export_structure(value), sort_keys=True)
    else:
        raise TypeError(f"no digest for {type(value).__name__}")
    return hashlib.sha256(text.encode()).hexdigest()


def derived_seed(seed: int, *parts: int) -> int:
    """Deterministic sub-seed, so every rep of a run draws its own inputs."""
    return random.Random(repr((seed,) + parts)).randrange(1 << 31)


# --- independent dimension oracles ------------------------------------------------


def pbw_monomials(even: int, odd: int, max_degree: int) -> int:
    """Monomials of degree <= max_degree in `even` commuting, `odd` anticommuting letters."""
    return sum(
        comb(odd, b) * comb(max_degree - b + even, even)
        for b in range(min(odd, max_degree) + 1)
    )


def sp_dimension(r: int) -> int:
    return r * (2 * r + 1)


# --- report readers ------------------------------------------------------------------


def _find(data: Any, key: str) -> Any:
    """First value stored under `key` anywhere in a nested report dict."""
    if isinstance(data, dict):
        if key in data:
            return data[key]
        data = list(data.values())
    if isinstance(data, list):
        for item in data:
            found = _find(item, key)
            if found is not None:
                return found
    return None


def _duality_size(report) -> int | None:
    for check in report.checks:
        if check["name"].startswith("duality[n="):
            return int(check["name"][len("duality[n="):].split("]", 1)[0])
    return None


def _suite_op(name: str, run: Callable, observe: Callable, expected: dict,
              capture: str | None = None) -> Op:
    """An op that runs one suite.  ``observe(report, value)`` reads the
    checked values; with ``capture``, ``value`` is what the suite's last call
    of ``cli.<capture>`` returned, a number the report does not carry."""

    def call() -> dict:
        from superalg import cli

        seen = [None]
        if capture:
            inner = getattr(cli, capture)

            def recording(*args, **kwargs):
                seen[0] = inner(*args, **kwargs)
                return seen[0]

            setattr(cli, capture, recording)
        try:
            report = run()
        finally:
            if capture:
                setattr(cli, capture, inner)
        return {"ok": report.ok, "result": report, **observe(report, seen[0])}

    return Op(name, call, {"ok": True, **expected})


# --- gl-points --------------------------------------------------------------------


def gl_points(seed: int, rep: int, size: str) -> list[Op]:
    from superalg.grassmann import PointSampler, SuperMatrix

    thetas, rounds = (GL_THETAS, GL_ROUNDS) if size == "full" else (2, 1)
    samplers = {
        shape: PointSampler(shape[0], shape[1], thetas, derived_seed(seed, rep, *shape))
        for shape in GL_SHAPES
    }
    idents = {shape: SuperMatrix.identity(*shape, samplers[shape].alg) for shape in GL_SHAPES}

    def op(shape, index):
        sampler = samplers[shape]

        def call() -> dict:
            point = sampler.sample(index)
            is_point = point.is_gl_point()
            inverse = point.inv()
            antipode = point.antipode_blocks()
            x, y, pprime, qprime = point.decomposition_coords()
            rebuilt = SuperMatrix.from_decomposition(x, y, pprime, qprime, sampler.alg)
            return {
                "is_gl_point": is_point,
                "antipode_equals_inverse": antipode == inverse,
                "point_times_inverse": point * inverse,
                "inverse_times_point": inverse * point,
                "round_trip_equals_point": rebuilt == point,
                "result": inverse,
            }

        expected = {
            "is_gl_point": True,
            "antipode_equals_inverse": True,
            "point_times_inverse": idents[shape],
            "inverse_times_point": idents[shape],
            "round_trip_equals_point": True,
        }
        return Op(f"gl({shape[0]}|{shape[1]})#{index}", call, expected)

    return [op(shape, index) for index in range(rounds) for shape in GL_SHAPES]


# --- finite-tables ----------------------------------------------------------------


def finite_tables(seed: int, rep: int, size: str) -> list[Op]:
    from superalg import cli
    from superalg.presfile import builtin_presentation_path

    # lower rungs take milliseconds and are the noisiest; with these six,
    # p50 falls between bosonize(3) and exterior(5), which take about as long
    if size == "full":
        ext_dims, int_dims, bos_dims = (5, 6), (5, 6), (3,)
    else:
        ext_dims, int_dims, bos_dims = (1, 2), (1, 2), (1,)
    shp = builtin_presentation_path("exterior_2.shp")

    def exterior_dims(report, cotangent) -> dict:
        return {"duality_n": _duality_size(report), "odd_cotangent_dim": cotangent.dimension}

    def integral_dims(report, space) -> dict:
        return {"dimension": space.dimension, "right_dimension": len(space.right_basis),
                "parity": space.parity, "basis": space.basis}

    def bosonization_dim(report, hopf) -> dict:
        return {"dimension": hopf.dimension}

    # Λ(n) has an n-dimensional odd cotangent space; its integrals form a
    # line of parity n mod 2, spanned by the dual of the top blade 2^n - 1;
    # its bosonization has dimension 2 * 2^n
    ops = [
        _suite_op(
            f"exterior({n})", lambda n=n: cli.run_exterior_suite(n, None, 6),
            exterior_dims, {"duality_n": n, "odd_cotangent_dim": n}, capture="compute_W",
        )
        for n in ext_dims
    ]
    ops.append(_suite_op(
        "exterior(exterior_2.shp)", lambda: cli.run_exterior_suite(2, shp, 6),
        exterior_dims, {"duality_n": 2, "odd_cotangent_dim": 2}, capture="compute_W",
    ))
    ops += [
        _suite_op(
            f"integrals({n})", lambda n=n: cli.run_integrals_suite(n), integral_dims,
            {"dimension": 1, "right_dimension": 1, "parity": n % 2,
             "basis": [{2 ** n - 1: 1}]},
            capture="integral_space",
        )
        for n in int_dims
    ]
    ops += [
        _suite_op(f"bosonize({n})", lambda n=n: cli.run_bosonize_suite(n),
                  bosonization_dim, {"dimension": 2 * 2 ** n}, capture="bosonize")
        for n in bos_dims
    ]
    return ops


# --- lie-structures ---------------------------------------------------------------


def lie_structures(seed: int, rep: int, size: str) -> list[Op]:
    from superalg import cli, hyper
    from superalg.hopf import glmn_presentation

    full = size == "full"
    dual_order, hy_order = (5, 5) if full else (2, 3)
    ranks = (1, 2, 3) if full else (1,)
    # with envelope degrees 4 and 5, p50 falls on envelope(1,5) and
    # hy(gl11,5), which take about as long; lower degrees take milliseconds
    degrees = (4, 5) if full else (2,)
    gl21 = glmn_presentation(2, 1)

    def dual_call() -> dict:
        dual = hyper.truncated_dual(gl21, dual_order)
        return {"dimension": dual.dimension, "result": dual}

    def labels_len(report, _) -> dict:
        structure = _find(report.to_dict(), "structure")
        return {"dimension": len(structure["labels"]) if structure else None}

    def envelope_dim(report, _) -> dict:
        dims = _find(report.to_dict(), "dims_by_degree")
        return {"dimension": sum(dims) if dims else None}

    # gl(2|1): 5 even and 4 odd coordinates; gl(1|1): 2 and 2; sp(2r) + 2r odd
    ops = [Op(f"truncated_dual(gl21,{dual_order})", dual_call,
              {"dimension": pbw_monomials(5, 4, dual_order - 1)})]
    ops.append(_suite_op(
        f"hy(gl11,{hy_order})", lambda: cli.run_hy_suite("gl11", hy_order),
        labels_len, {"dimension": pbw_monomials(2, 2, min(hy_order, 3) - 1)},
    ))
    ops += [
        _suite_op(
            f"hcpair({r})",
            lambda r=r: cli.run_hcpair_suite(r, False, 10, derived_seed(seed, rep, r)),
            labels_len, {"dimension": sp_dimension(r) + 2 * r},
        )
        for r in ranks
    ]
    ops += [
        _suite_op(
            f"envelope(1,{d})", lambda d=d: cli.run_envelope_suite(1, d, None),
            envelope_dim, {"dimension": pbw_monomials(sp_dimension(1), 2, d)},
        )
        for d in degrees
    ]
    return ops


WORKLOAD_OPS = {
    "gl-points": gl_points,
    "finite-tables": finite_tables,
    "lie-structures": lie_structures,
}
WORKLOADS = tuple(WORKLOAD_OPS)


def build(workload: str, seed: int, rep: int, size: str = "full") -> list[Op]:
    return WORKLOAD_OPS[workload](seed, rep, size)
