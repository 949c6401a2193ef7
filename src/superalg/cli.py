"""Command-line verification driver.

Subcommands: ``verify gl|exterior|bosonize|integrals``, ``hy``, ``hcpair``,
``envelope``, ``decompose``.  Every randomized suite takes a mandatory seed;
rerunning with the same config and seed reproduces the report byte for byte
(timings aside).  Exit codes: 0 all checks pass, 1 a check failed, 2 usage
or input-file errors.

Importing this module loads the Hopf side (``hopf``, ``finite``, ``hyper``,
``hcpair``) and no more: the GL(m|n) point layer (``grassmann``,
``decomposition``) is imported when ``verify gl`` or ``decompose`` first runs,
and ``argparse`` when ``build_parser`` first runs.
"""

from __future__ import annotations

import os
import sys
import time
from itertools import product
from typing import TYPE_CHECKING

from .finite import (
    bosonize,
    check_finite_hopf_axioms,
    compose_with_antipode,
    dual_iso_check,
    exterior_finite,
    finite_from_presentation,
    integral_space,
    is_right_integral,
)
from .hcpair import (
    abelian_pair,
    build_super_lie,
    first_nonequivariant,
    sample_transvections,
    spo_pair,
    truncated_envelope,
    validate_hcpair,
)
from .hopf import (
    PresentationError,
    additive_presentation,
    check_hopf_axioms,
    compute_W,
    exterior_hopf,
    glmn_entry_name,
    glmn_presentation,
)
from .hyper import export_structure, primitives, truncated_dual, vec_json
from .liealg import StructureError
from .parsing import ParseError
from .presfile import load_presentation, parse_presentation, print_presentation
from .report import Report

if TYPE_CHECKING:
    import argparse


def __getattr__(name: str):
    """``PointSampler`` and ``SuperMatrix``, imported from the point layer on first use."""
    if name not in ("PointSampler", "SuperMatrix"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import grassmann

    value = globals()[name] = getattr(grassmann, name)
    return value


def run_gl_suite(m: int, n: int, thetas: int, points: int, seed: int) -> Report:
    from .grassmann import PointSampler, SuperMatrix

    report = Report(
        suite="verify-gl",
        config={"m": m, "n": n, "thetas": thetas, "points": points, "seed": seed},
    )
    sampler = PointSampler(m, n, thetas, seed)
    report.first(f"antipode-equals-inverse[{points} points]", (
        f"point #{idx}: {msg}: {point.to_json()}"
        for idx, point in enumerate(map(sampler.sample, range(points)))
        if (msg := point.antipode_failure())
    ))

    # each triple (a, b, c) and its product a * b, shared by both scans
    triples = []
    for idx in range(0, min(points, 30), 3):
        a, b, c = (sampler.sample(idx + d) for d in range(3))
        triples.append((idx, a, b, c, a * b))
    report.first("closure-under-product", (
        f"product of points #{idx}, #{idx + 1} is not a point"
        for idx, _, _, _, ab in triples if not ab.is_gl_point()
    ))
    report.first("associativity", (
        f"associativity fails at points #{idx}..#{idx + 2}"
        for idx, a, b, c, ab in triples if ab * c != a * (b * c)
    ))
    ident, point = SuperMatrix.identity(m, n, sampler.alg), sampler.sample(0)
    report.add("identity-laws", ident * point == point and point * ident == point)
    return report


def run_exterior_suite(dim: int, path: str | None, max_dual: int) -> Report:
    config = {"dim": dim, "file": path or "", "max_dual": max_dual}
    report = Report(suite="verify-exterior", config=config)
    if path:
        pres = load_presentation(path)
        if pres.gens.evens:
            raise PresentationError(
                f"even generator {pres.gens.evens[0]!r}: the exterior suite takes odd ones only"
            )
        reparsed = parse_presentation(print_presentation(pres), name=pres.name)
        report.add("file-round-trip", reparsed == pres)
    else:
        pres = exterior_hopf(dim)
        text = print_presentation(pres)
        report.add("print-parse-round-trip", parse_presentation(text) == pres)
    report.extend(check_hopf_axioms(pres), prefix="axioms")

    report.data["odd_cotangent_basis"] = compute_W(pres).basis

    n = len(pres.gens.odds)
    if n <= max_dual:
        report.extend(dual_iso_check(n, finite_from_presentation(pres)), prefix=f"duality[n={n}]")
    return report


def run_bosonize_suite(dim: int) -> Report:
    report = Report(suite="verify-bosonize", config={"dim": dim})
    result = bosonize(exterior_finite(dim))
    report.extend(check_finite_hopf_axioms(result), prefix="ordinary-axioms")
    return report


def run_integrals_suite(dim: int) -> Report:
    report = Report(suite="verify-integrals", config={"dim": dim})
    hopf = exterior_finite(dim)
    space = integral_space(hopf)
    report.add("dimension-at-most-1", space.dimension <= 1)
    report.add("dimension-equals-1", space.dimension == 1)
    report.add("parity-is-dim-mod-2", space.parity == dim % 2,
               f"got parity {space.parity}")
    if space.dimension == 1:
        top = hopf.dimension - 1
        report.add("integral-is-top-blade-dual", space.basis[0] == {top: 1})
        composed = compose_with_antipode(hopf, space.basis[0])
        report.add("antipode-maps-left-to-right", is_right_integral(hopf, composed))
    report.add("right-space-dimension", len(space.right_basis) == 1)
    return report


_HY_TARGETS = {
    "ga11": (additive_presentation, 1, 1),
    "gl11": (glmn_presentation, 1, 1),
    "gl21": (glmn_presentation, 2, 1),
}


def _gl_oracle(m: int, n: int) -> dict[tuple[str, str], dict[str, int]]:
    """The super bracket of gl(m|n) on elementary matrices, keyed by dual label:
    [E_ab, E_cd] = d_bc E_ad - (-1)^{|E_ab||E_cd|} d_da E_cb."""
    size = range(1, m + n + 1)
    label = {(a, b): f"D[{glmn_entry_name(m, n, a, b)}]" for a in size for b in size}
    odd = {(a, b): (a > m) != (b > m) for a, b in label}
    oracle = {}
    for (a, b), (c, d) in product(label, repeat=2):
        out = {}
        if b == c:
            out[label[a, d]] = 1
        if d == a:
            cb = label[c, b]
            out[cb] = out.get(cb, 0) + (1 if odd[a, b] and odd[c, d] else -1)
        oracle[label[a, b], label[c, d]] = {k: v for k, v in out.items() if v}
    return oracle


def run_hy_suite(target: str, order: int) -> Report:
    report = Report(suite="hy", config={"target": target, "order": order})
    make, m, n = _HY_TARGETS[target]
    pres = make(m, n)
    # the brackets of the degree-1 duals are exact from order 3 on, so one
    # Lie(G) serves every order, read off a dual built past it if need be;
    # past order 3 the order-n dual is only checked, so it holds only the
    # exact cells that check reads
    dual = truncated_dual(pres, order, exact_only=order > 3)
    dual3 = dual if order == 3 else truncated_dual(pres, 3)

    try:
        dual.check_associative_unital()
        report.add("product-associative-unital", True)
    except StructureError as exc:
        report.add("product-associative-unital", False, str(exc))

    try:
        lie = primitives(dual3)
        report.add("primitive-lie-axioms", True)
    except StructureError as exc:
        report.add("primitive-lie-axioms", False, str(exc))
        lie = None

    # without primitives there is nothing to compare, so no check is reported;
    # the additive group's oracle is abelian: every bracket is zero
    if lie is not None:
        if target == "ga11":
            name, oracle = "oracle-abelian-(1|1)", {}
        else:
            name, oracle = "oracle-matrix-super-bracket", _gl_oracle(m, n)

        def bracket_mismatches():
            for i, j in product(range(lie.dimension), repeat=2):
                got = {lie.labels[k]: c for k, c in lie.bracket_basis(i, j).items()}
                want = oracle.get((lie.labels[i], lie.labels[j]), {})
                if got != want:
                    yield f"[{lie.labels[i]}, {lie.labels[j]}] = {got}, oracle {want}"

        report.first(name, bracket_mismatches())

    report.data["structure"] = export_structure(dual if order < 3 else dual3)
    return report


def run_hcpair_suite(r: int, no_half: bool, transvections: int, seed: int) -> Report:
    report = Report(
        suite="hcpair",
        config={"r": r, "no_half": no_half, "transvections": transvections, "seed": seed},
    )
    lie = spo_pair(r, half=not no_half)
    failures = validate_hcpair(lie)
    report.add("pair-axioms", not failures, "; ".join(failures[:3]))
    try:
        build_super_lie(lie)
        report.add("super-jacobi", True)
        report.data["structure"] = {
            "labels": lie.labels,
            "parity": lie.parity,
            "bracket": {f"{i},{j}": vec_json(vec) for (i, j), vec in sorted(lie.bracket.items())},
        }
    except StructureError as exc:
        report.add("super-jacobi", False, str(exc))

    failing = first_nonequivariant(lie, sample_transvections(r, transvections, seed))
    report.add("group-bracket-equivariance", failing is None,
               f"bracket not equivariant under g = sample_transvections"
               f"({r}, {transvections}, {seed})[{failing}]")
    return report


def run_envelope_suite(r: int, degree: int, abelian: tuple[int, int] | None) -> Report:
    config = {"r": r, "d": degree, "abelian": list(abelian) if abelian else None}
    report = Report(suite="envelope", config=config)
    lie = abelian_pair(*abelian) if abelian else spo_pair(r)
    try:
        env = truncated_envelope(build_super_lie(lie), degree)
        report.add("rewriting-confluent", True)
    except StructureError as exc:
        report.add("rewriting-confluent", False, str(exc))
        return report
    report.data["dims_by_degree"] = env.dims_by_degree
    return report


def run_decompose_suite(m: int, n: int, thetas: int, points: int, seed: int) -> Report:
    from .decomposition import decomposition_check

    report = Report(
        suite="decompose",
        config={"m": m, "n": n, "thetas": thetas, "points": points, "seed": seed},
    )
    report.extend(decomposition_check(m, n, thetas, points, seed))
    return report


def _int_at_least(low: int):
    def parse(text: str) -> int:
        from argparse import ArgumentTypeError

        try:
            value = int(text)
        except ValueError:
            raise ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _add_point_arguments(parser: argparse.ArgumentParser) -> None:
    """Shape, Grassmann size, point count and seed of the GL(m|n) suites."""
    size = _int_at_least(0)
    parser.add_argument("--m", type=size, default=1)
    parser.add_argument("--n", type=size, default=1)
    parser.add_argument("--thetas", type=size, default=4)
    parser.add_argument("--points", type=_int_at_least(1), default=50)
    parser.add_argument("--seed", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Usage errors exit with code 2 and a one-line message."""

        def error(self, message: str):
            self.exit(2, f"{self.prog}: error: {message}\n")

    size, positive = _int_at_least(0), _int_at_least(1)
    # the docstring's last paragraph is about imports, not usage
    usage = "\n\n".join(__doc__.split("\n\n")[:-1])
    parser = _Parser(prog="superalg", description=usage)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--emit", choices=["json", "text"], default="text")
    common.add_argument("--out", help="write the JSON report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verification suites")
    vsub = verify.add_subparsers(dest="target", required=True)

    gl = vsub.add_parser("gl", parents=[common])
    _add_point_arguments(gl)
    gl.set_defaults(run=lambda a: run_gl_suite(a.m, a.n, a.thetas, a.points, a.seed))

    exterior = vsub.add_parser("exterior", parents=[common])
    exterior.add_argument("--dim", type=size, default=2)
    exterior.add_argument("--file", help="presentation file (.shp) to check instead")
    exterior.add_argument("--max-dual", type=size, default=6)
    exterior.set_defaults(run=lambda a: run_exterior_suite(a.dim, a.file, a.max_dual))

    bos = vsub.add_parser("bosonize", parents=[common])
    bos.add_argument("--dim", type=size, default=2)
    bos.set_defaults(run=lambda a: run_bosonize_suite(a.dim))

    integrals = vsub.add_parser("integrals", parents=[common])
    integrals.add_argument("--dim", type=size, default=2)
    integrals.set_defaults(run=lambda a: run_integrals_suite(a.dim))

    hy = sub.add_parser("hy", help="truncated hyperalgebra suite", parents=[common])
    hy.add_argument("--target", choices=sorted(_HY_TARGETS), default="gl11")
    hy.add_argument("--order", type=positive, default=4)
    hy.set_defaults(run=lambda a: run_hy_suite(a.target, a.order))

    hc = sub.add_parser("hcpair", help="Harish-Chandra pair suite", parents=[common])
    hc.add_argument("--r", type=positive, default=1)
    hc.add_argument("--no-half", action="store_true",
                    help="negative control: drop the 1/2 in the odd bracket")
    hc.add_argument("--transvections", type=positive, default=10)
    hc.add_argument("--seed", type=int, default=1)
    hc.set_defaults(run=lambda a: run_hcpair_suite(a.r, a.no_half, a.transvections, a.seed))

    env = sub.add_parser("envelope", help="truncated PBW envelope suite", parents=[common])
    env.add_argument("--r", type=positive, default=1)
    env.add_argument("--d", type=size, default=2)
    env.add_argument("--abelian", type=size, nargs=2, metavar=("G0", "V"),
                     help="use the abelian pair with these dimensions")
    env.set_defaults(run=lambda a: run_envelope_suite(
        a.r, a.d, tuple(a.abelian) if a.abelian else None))

    dec = sub.add_parser("decompose", help="decomposition round-trip suite", parents=[common])
    _add_point_arguments(dec)
    dec.set_defaults(run=lambda a: run_decompose_suite(a.m, a.n, a.thetas, a.points, a.seed))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report = args.run(args)
        report.timings["seconds"] = round(time.perf_counter() - started, 6)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(report.to_json() + "\n")
    except (ParseError, PresentationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.emit == "json":
            print(report.to_json())
        else:
            print("\n".join(report.summary_lines()))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; with stdout on devnull the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if report.ok else 1


def entrypoint() -> None:  # pragma: no cover
    sys.exit(main())
