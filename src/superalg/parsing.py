"""Textual syntax for generator sets, polynomials and tensor expressions.

Generator sets are declared as ``even x, y; odd t1, t2;`` and polynomials are
sums of terms like ``3/2 * x^2 * t1*t2``.  Tensor expressions separate legs
with ``@``, e.g. ``v1 @ 1 + 1 @ v1``.  Printing is canonical and
``parse(print(p)) == p`` holds exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .core import GeneratorSet, SuperMonomial, SuperPoly, odd_positions
from .tensor import TensorPoly


class ParseError(ValueError):
    """Syntax or symbol error, carrying a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()@,;=])")
_SPACE = re.compile(r"\s*")
_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def tokenize(text: str, offset: int = 0) -> list[tuple[str, str, int]]:
    """``(kind, value, position)`` triples; positions are ``offset`` + index in ``text``."""
    tokens: list[tuple[str, str, int]] = []
    pos = _SPACE.match(text).end()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", offset + pos)
        tokens.append((match.lastgroup, match.group(), offset + pos))
        pos = _SPACE.match(text, match.end()).end()
    return tokens


class _Parser:
    def __init__(self, gens: GeneratorSet, text: str, offset: int):
        self.gens = gens
        self.tokens = tokenize(text, offset)
        self.end = offset + len(text)  # the position reported at the end of input
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.end)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.take()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    # expr := ['-'] term (('+'|'-') term)*
    def parse_sum(self, parse_term):
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.take()
            negate = value == "-"
        total = parse_term()
        if negate:
            total = -total
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                term = parse_term()
                total = total + (-term if value == "-" else term)
            else:
                return total

    def parse_rational(self) -> Fraction:
        kind, value, pos = self.take()
        if kind != "num":
            raise ParseError("expected a number", pos)
        num = int(value)
        kind, value, _ = self.peek()
        if kind == "op" and value == "/":
            self.take()
            kind2, value2, pos2 = self.take()
            if kind2 != "num":
                raise ParseError("expected a denominator", pos2)
            if int(value2) == 0:
                raise ParseError("zero denominator", pos2)
            return Fraction(num, int(value2))
        return Fraction(num)

    def parse_factor(self) -> SuperPoly:
        kind, value, pos = self.peek()
        if kind == "num":
            return SuperPoly.scalar(self.gens, self.parse_rational())
        if kind == "op" and value == "(":
            self.take()
            inner = self.parse_sum(self.parse_poly_term)
            self.expect_op(")")
            return inner
        if kind == "name":
            self.take()
            if value not in self.gens:
                raise ParseError(f"unknown generator {value!r}", pos)
            poly = SuperPoly.generator(self.gens, value)
            kind2, value2, _ = self.peek()
            if kind2 == "op" and value2 == "^":
                self.take()
                kind3, value3, pos3 = self.take()
                if kind3 != "num":
                    raise ParseError("expected an integer exponent", pos3)
                poly = poly ** int(value3)
            return poly
        raise ParseError("expected a factor", pos)

    def parse_poly_term(self) -> SuperPoly:
        poly = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.take()
                poly = poly * self.parse_factor()
            elif kind in ("num", "name") or (kind == "op" and value == "("):
                # implicit multiplication, e.g. "2 x" is not allowed; require '*'
                raise ParseError("missing '*' between factors", self.peek()[2])
            else:
                return poly

    def parse_tensor_term(self, slots: int) -> TensorPoly:
        start = self.peek()[2]
        legs = [self.parse_poly_term()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "@":
                self.take()
                legs.append(self.parse_poly_term())
            else:
                break
        if len(legs) != slots:
            raise ParseError(f"expected {slots} tensor legs, got {len(legs)}", start)
        return TensorPoly.of(*legs)


def parse_poly(gens: GeneratorSet, text: str, offset: int = 0) -> SuperPoly:
    parser = _Parser(gens, text, offset)
    poly = parser.parse_sum(parser.parse_poly_term)
    if not parser.at_end():
        raise ParseError("trailing input", parser.peek()[2])
    return poly


def parse_tensor(gens: GeneratorSet, text: str, slots: int = 2, offset: int = 0) -> TensorPoly:
    parser = _Parser(gens, text, offset)
    tensor = parser.parse_sum(lambda: parser.parse_tensor_term(slots))
    if not parser.at_end():
        raise ParseError("trailing input", parser.peek()[2])
    return tensor


def statements(text: str) -> list[tuple[int, str, str]]:
    """Each nonempty ``;``-separated statement as (start position, keyword, rest).

    The keyword ends at the first whitespace; ``#`` starts a comment that
    runs to the end of its line.
    """
    text = re.sub(r"#[^\r\n]*", lambda m: " " * len(m.group()), text)  # keeps positions
    return [(m.start(), m.group(1), m.group(2)) for m in re.finditer(r"([^;\s]+)([^;]*)", text)]


def declare(evens: list[str], odds: list[str], head: str, rest: str, position: int) -> bool:
    """Append the names of an ``even``/``odd`` statement; False for any other statement."""
    if head not in ("even", "odd"):
        return False
    for name in (n.strip() for n in rest.split(",") if n.strip()):
        if not _NAME.fullmatch(name):
            raise ParseError(f"bad generator name {name!r}", position)
        if name in evens or name in odds:
            raise ParseError(f"duplicate generator {name!r}", position)
        (evens if head == "even" else odds).append(name)
    return True


def parse_generator_set(text: str) -> GeneratorSet:
    """Parse declarations like ``even x, y; odd t1, t2;``."""
    evens: list[str] = []
    odds: list[str] = []
    for position, head, rest in statements(text):
        if not declare(evens, odds, head, rest, position):
            raise ParseError(f"expected 'even' or 'odd', got {head!r}", position)
    return GeneratorSet(evens, odds)


def format_generator_set(gens: GeneratorSet) -> str:
    parts = []
    if gens.evens:
        parts.append("even " + ", ".join(gens.evens) + ";")
    if gens.odds:
        parts.append("odd " + ", ".join(gens.odds) + ";")
    return " ".join(parts)


def format_monomial(gens: GeneratorSet, mono: SuperMonomial) -> str:
    """``x^2*t1*t2`` style; the empty monomial formats as the empty string."""
    factors = []
    for pos, exp in enumerate(mono.evens):
        if exp == 1:
            factors.append(gens.evens[pos])
        elif exp > 1:
            factors.append(f"{gens.evens[pos]}^{exp}")
    for pos in odd_positions(mono.odds):
        factors.append(gens.odds[pos])
    return "*".join(factors)


def _format_term(gens: GeneratorSet, mono: SuperMonomial, coeff: Fraction) -> str:
    body = format_monomial(gens, mono)
    if not body:
        return str(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def _signed_sum(parts: list[str]) -> str:
    """Join signed terms, writing a leading "-" as " - " and any other term after " + "."""
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out


def format_poly(poly: SuperPoly) -> str:
    if not poly.terms:
        return "0"
    return _signed_sum([_format_term(poly.gens, m, c) for m, c in poly.sorted_terms()])


def format_tensor(tensor: TensorPoly) -> str:
    if not tensor.terms:
        return " @ ".join("0" for _ in tensor.gens)  # parses back as a k-leg term
    parts = []
    for key, coeff in tensor.sorted_terms():
        legs = []
        for gens, mono in zip(tensor.gens, key):
            legs.append(format_monomial(gens, mono) or "1")
        body = " @ ".join(legs)
        if coeff == 1:
            parts.append(body)
        elif coeff == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{coeff}*{legs[0]}" + "".join(f" @ {leg}" for leg in legs[1:]))
    return _signed_sum(parts)
