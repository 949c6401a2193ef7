"""Presentation files (.shp): parse and print Hopf presentations.

Format, one statement per ``;``, ``#`` starts a line comment:

    even x;  odd v1, v2;
    delta v1 = v1 @ 1 + 1 @ v1;
    eps v1 = 0;
    antipode v1 = -v1;        # or a single line:  antipode pointwise;
"""

from __future__ import annotations

import os
from fractions import Fraction

from .core import GeneratorSet, SuperPoly
from .hopf import HopfPresentation, PresentationError
from .parsing import (
    ParseError,
    declare,
    format_generator_set,
    format_poly,
    format_tensor,
    parse_poly,
    parse_tensor,
    statements,
)


def parse_presentation(text: str, name: str = "") -> HopfPresentation:
    """Parse the documented presentation syntax into a HopfPresentation.

    Diagnostics name the offending generator (parity-inconsistent coproduct,
    nonvanishing odd counit, a repeated delta, eps or antipode statement).
    Every ParseError carries a position in ``text``: that of the offending
    token inside an expression, else the start of the offending statement.
    """
    evens: list[str] = []
    odds: list[str] = []
    body: list[tuple[str, str, int, int, str]] = []
    pointwise = False
    for position, head, rest in statements(text):
        if declare(evens, odds, head, rest, position):
            continue
        if head not in ("delta", "eps", "antipode"):
            raise ParseError(f"unknown statement {head!r}", position)
        if head == "antipode" and rest.strip() == "pointwise":
            pointwise = True
            continue
        eq = rest.find("=")
        if eq < 0:
            raise ParseError(f"malformed {head} statement {(head + rest).rstrip()!r}", position)
        start = position + len(head) + eq + 1  # where the expression starts
        body.append((head, rest[:eq].strip(), position, start, rest[eq + 1:]))

    gens = GeneratorSet(evens, odds)
    delta: dict[str, object] = {}
    counit: dict[str, Fraction] = {}
    antipode: dict[str, SuperPoly] = {}
    given = {"delta": delta, "eps": counit, "antipode": antipode}
    for kind, target, position, start, expr in body:
        if target not in gens:
            raise ParseError(f"unknown generator {target!r} in {kind} statement", position)
        if target in given[kind]:
            raise ParseError(f"duplicate {kind} for {target!r}", position)
        if kind == "delta":
            delta[target] = parse_tensor(gens, expr, slots=2, offset=start)
        elif kind == "eps":
            value = parse_poly(gens, expr, offset=start)
            if value.soul():
                raise PresentationError(f"counit of {target} must be a scalar")
            counit[target] = value.body()
        else:
            antipode[target] = parse_poly(gens, expr, offset=start)

    if pointwise and antipode:
        raise PresentationError("antipode is marked pointwise but images were given")
    try:
        return HopfPresentation(
            gens, delta, counit,
            None if pointwise else antipode,
            name=name,
        )
    except KeyError as exc:
        raise PresentationError(f"incomplete presentation: missing data for {exc}") from exc


def load_presentation(path: str) -> HopfPresentation:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = len(data[:exc.start].decode("utf-8"))  # characters before the bad byte
        raise ParseError(f"not UTF-8 text: byte {data[exc.start]:#04x}", at) from None
    return parse_presentation(text, name=path)


def print_presentation(pres: HopfPresentation) -> str:
    """Canonical text; reparsing yields an equal presentation."""
    lines = [format_generator_set(pres.gens)]
    for g in pres.gens.names:
        lines.append(f"delta {g} = {format_tensor(pres.delta[g])};")
    for g in pres.gens.names:
        lines.append(f"eps {g} = {pres.counit[g]};")
    if pres.antipode is None:
        lines.append("antipode pointwise;")
    else:
        for g in pres.gens.names:
            lines.append(f"antipode {g} = {format_poly(pres.antipode[g])};")
    return "\n".join(lines) + "\n"


def builtin_presentation_path(filename: str) -> str:
    return os.path.join(os.path.dirname(__file__), "presentations", filename)
