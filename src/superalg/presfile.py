"""Presentation files (.shp): parse and print Hopf presentations.

Format, one statement per ``;``, ``#`` starts a line comment:

    even x;  odd v1, v2;
    delta v1 = v1 @ 1 + 1 @ v1;
    eps v1 = 0;
    antipode v1 = -v1;        # or a single line:  antipode pointwise;
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import GeneratorSet, SuperPoly
from .hopf import HopfPresentation, PresentationError
from .parsing import (
    ParseError,
    format_generator_set,
    format_poly,
    format_tensor,
    parse_poly,
    parse_tensor,
)


def _statements(text: str) -> list[tuple[int, str]]:
    """Each nonempty ``;``-separated statement with the position where it starts."""
    text = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), text)  # keeps positions
    return [(m.start(), m.group().rstrip()) for m in re.finditer(r"[^;\s][^;]*", text)]


def parse_presentation(text: str, name: str = "") -> HopfPresentation:
    """Parse the documented presentation syntax into a HopfPresentation.

    Diagnostics name the offending generator (parity-inconsistent coproduct,
    nonvanishing odd counit, a repeated delta, eps or antipode statement) or
    carry the position of an unknown symbol or of the repeated statement.
    """
    evens: list[str] = []
    odds: list[str] = []
    body: list[tuple[str, str, str, int]] = []
    pointwise = False
    for position, stmt in _statements(text):
        head, _, rest = stmt.partition(" ")
        rest = rest.strip()
        if head in ("even", "odd"):
            for gen in (n.strip() for n in rest.split(",") if n.strip()):
                if gen in evens or gen in odds:
                    raise ParseError(f"duplicate generator {gen!r}", 0)
                (evens if head == "even" else odds).append(gen)
        elif head in ("delta", "eps", "antipode"):
            if head == "antipode" and rest == "pointwise":
                pointwise = True
                continue
            target, eq, expr = rest.partition("=")
            if not eq:
                raise ParseError(f"malformed {head} statement {stmt!r}", 0)
            body.append((head, target.strip(), expr.strip(), position))
        else:
            raise ParseError(f"unknown statement {head!r}", 0)

    gens = GeneratorSet(evens, odds)
    delta: dict[str, object] = {}
    counit: dict[str, Fraction] = {}
    antipode: dict[str, SuperPoly] = {}
    given = {"delta": delta, "eps": counit, "antipode": antipode}
    for kind, target, expr, position in body:
        if target not in gens:
            raise ParseError(f"unknown generator {target!r} in {kind} statement", 0)
        if target in given[kind]:
            raise ParseError(f"duplicate {kind} for {target!r}", position)
        if kind == "delta":
            delta[target] = parse_tensor(gens, expr, slots=2)
        elif kind == "eps":
            value = parse_poly(gens, expr)
            if value.soul():
                raise PresentationError(f"counit of {target} must be a scalar")
            counit[target] = value.body()
        else:
            antipode[target] = parse_poly(gens, expr)

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
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
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
    from importlib import resources

    return str(resources.files("superalg").joinpath("presentations", filename))
