"""Mutation fuzzing of the shipped presentation files.

Bytes and statements of ``exterior_2.shp`` and ``gl_1_1.shp`` are mutated;
whatever comes out, the parser may only raise its own two errors, the CLI
must exit 0, 1 or 2, and a text that parses must print and reparse to the
same presentation.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings

from superalg.cli import main
from superalg.hopf import PresentationError
from superalg.parsing import ParseError
from superalg.presfile import (
    builtin_presentation_path,
    load_presentation,
    parse_presentation,
    print_presentation,
)

SHIPPED = [builtin_presentation_path(name) for name in ("exterior_2.shp", "gl_1_1.shp")]
SOURCES = [open(path, "rb").read() for path in SHIPPED]
# fragments of the syntax, so text mutations reach past the tokenizer
FRAGMENTS = [
    "odd", "even", "delta", "eps", "antipode", "pointwise", "v1", "v2", "w", "x11", "p11",
    "1v", "@", "=", ";", "*", "^", "/", "-", "+", "(", ")", "0", "1", "2", "#", "\n", " ", ",",
]
FUZZ = settings(
    max_examples=60, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@st.composite
def mutated_bytes(draw) -> bytes:
    data = bytearray(draw(st.sampled_from(SOURCES)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["replace", "insert", "delete"]))
        if kind == "replace" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif kind == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=3))
        else:
            del data[at:at + draw(st.integers(1, 8))]
    return bytes(data)


@st.composite
def mutated_text(draw) -> str:
    text = draw(st.sampled_from(SOURCES)).decode("utf-8")
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        end = at + draw(st.integers(0, 6))
        text = text[:at] + draw(st.sampled_from(FRAGMENTS)) + text[end:]
    return text


def assert_parses_to_fixed_point_or_rejects(text: str) -> None:
    try:
        pres = parse_presentation(text)
    except (ParseError, PresentationError):
        return
    printed = print_presentation(pres)
    reparsed = parse_presentation(printed)
    assert reparsed == pres
    assert print_presentation(reparsed) == printed


@FUZZ
@given(mutated_text())
# a zero coproduct image prints as ``0 @ 0``, which reparses
@example("odd v1;\ndelta v1 = v1 @ 1 - v1 @ 1;\neps v1 = 0;\nantipode v1 = -v1;\n")
# a huge power parses in about log2(e) products, and an odd square stays zero
@example("odd v1;\ndelta v1 = v1 @ 1 + 1 @ v1;\neps v1 = 0;\nantipode v1 = -v1 + v1^2000000000;\n")
def test_mutated_text_parses_to_a_fixed_point_or_is_rejected(text):
    assert_parses_to_fixed_point_or_rejects(text)


@FUZZ
@given(data=mutated_bytes())
def test_mutated_file_exits_0_1_or_2(data, tmp_path):
    path = tmp_path / "mutated.shp"
    path.write_bytes(data)
    try:
        load_presentation(str(path))
    except (ParseError, PresentationError):
        pass
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        pass
    else:
        assert_parses_to_fixed_point_or_rejects(text)
    assert main(["verify", "exterior", "--file", str(path)]) in (0, 1, 2)
