import hashlib
import json
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from superalg import exterior_hopf, glmn_presentation, parse_presentation, print_presentation
from superalg.cli import main
from superalg.presfile import builtin_presentation_path, load_presentation
from superalg.parsing import ParseError
from superalg.hopf import PresentationError

from conftest import child_env


def run(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


def test_verify_gl_passes(tmp_path):
    code, data = run(
        ["verify", "gl", "--m", "1", "--n", "1", "--thetas", "4", "--points", "15", "--seed", "7"],
        tmp_path,
    )
    assert code == 0
    assert data["ok"] is True
    assert data["config"]["seed"] == 7
    assert any("antipode" in c["name"] for c in data["checks"])


def test_verify_exterior_trivial_dimension(tmp_path):
    code, data = run(["verify", "exterior", "--dim", "0"], tmp_path)
    assert code == 0
    assert data["ok"] is True


def test_verify_exterior_from_file(tmp_path):
    path = builtin_presentation_path("exterior_2.shp")
    code, data = run(["verify", "exterior", "--file", path], tmp_path)
    assert code == 0
    assert data["ok"] is True


def test_verify_bosonize_and_integrals(tmp_path):
    assert run(["verify", "bosonize", "--dim", "2"], tmp_path)[0] == 0
    assert run(["verify", "integrals", "--dim", "3"], tmp_path)[0] == 0


def test_hy_suite(tmp_path):
    code, data = run(["hy", "--target", "ga11", "--order", "4"], tmp_path)
    assert code == 0
    # the counit's group-like certificate, the PBW dimension counts and the
    # embedding of each order's dual in the next cannot fail on built duals,
    # so they are not among the checks
    assert [c["name"] for c in data["checks"]] == [
        "product-associative-unital", "primitive-lie-axioms", "oracle-abelian-(1|1)",
    ]


@pytest.mark.parametrize("target", ["gl11", "gl21"])
def test_hy_gl_check_names(target, tmp_path):
    # Lie(G)_0 = Lie(G_ev) holds for every Lie(G) that validates, so it is
    # not among the checks either
    code, data = run(["hy", "--target", target, "--order", "3"], tmp_path)
    assert code == 0
    assert [c["name"] for c in data["checks"]] == [
        "product-associative-unital", "primitive-lie-axioms", "oracle-matrix-super-bracket",
    ]


def test_verify_bosonize_check_names(tmp_path):
    # the smash coproduct on primitives is the bosonization's own formula read
    # back, so only the ordinary Hopf axioms are checked
    code, data = run(["verify", "bosonize", "--dim", "2"], tmp_path)
    assert code == 0
    assert [c["name"] for c in data["checks"]] == [
        f"ordinary-axioms:{name}" for name in (
            "unit", "associativity", "counit", "coassociativity",
            "coproduct-multiplicative", "counit-multiplicative", "antipode",
        )
    ]


def test_hy_suite_gl21(tmp_path):
    code, data = run(["hy", "--target", "gl21", "--order", "3"], tmp_path)
    assert code == 0
    assert data["ok"] is True


def test_hcpair_suite(tmp_path):
    code, data = run(["hcpair", "--r", "1", "--seed", "3"], tmp_path)
    assert code == 0
    assert data["ok"] is True


def test_hcpair_no_half_reports_honestly(tmp_path):
    # the scaled bracket still satisfies every axiom (see the Lie tests), so
    # the suite reports success for the modified pair
    code, data = run(["hcpair", "--r", "1", "--no-half", "--seed", "3"], tmp_path)
    assert code == 0
    assert data["config"]["no_half"] is True


def test_envelope_suite(tmp_path):
    code, data = run(["envelope", "--r", "1", "--d", "2"], tmp_path)
    assert code == 0
    assert data["data"]["dims_by_degree"] == [1, 5, 13]
    assert all(c["name"] != "degreewise-dims" for c in data["checks"])


def test_decompose_suite(tmp_path):
    code, data = run(
        ["decompose", "--m", "1", "--n", "1", "--thetas", "4", "--points", "20", "--seed", "5"],
        tmp_path,
    )
    assert code == 0
    assert data["ok"] is True


def test_same_seed_gives_identical_reports(tmp_path):
    argv = ["decompose", "--m", "2", "--n", "1", "--thetas", "4", "--points", "10", "--seed", "21"]
    _, first = run(argv, tmp_path, "a.json")
    _, second = run(argv, tmp_path, "b.json")
    first.pop("timings")
    second.pop("timings")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_verify_gl_same_seed_gives_identical_reports(tmp_path):
    argv = ["verify", "gl", "--m", "1", "--n", "1", "--thetas", "3",
            "--points", "8", "--seed", "33"]
    _, first = run(argv, tmp_path, "first.json")
    _, second = run(argv, tmp_path, "second.json")
    first.pop("timings")
    second.pop("timings")
    assert first == second


@pytest.mark.parametrize("argv", [["verify", "exterior", "--dim", "2"],
                                  ["hy", "--target", "gl21", "--order", "3", "--emit", "json"]])
def test_closed_stdout_is_exit_1_without_a_traceback(argv):
    child = subprocess.Popen([sys.executable, "-m", "superalg", *argv], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, env=child_env())
    child.stdout.close()  # the reader is gone before the report is written
    _, stderr = child.communicate(timeout=60)
    assert stderr == b""
    assert child.returncode == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["verify", "unknown-target"])
    assert info.value.code == 2


@pytest.mark.parametrize("command", ["verify gl", "decompose"])
@pytest.mark.parametrize("flag, value, bound", [
    ("--m", "-1", ">= 0"),
    ("--n", "-1", ">= 0"),
    ("--thetas", "-1", ">= 0"),
    ("--points", "-1", ">= 1"),
    ("--points", "0", ">= 1"),
])
def test_out_of_range_point_arguments_exit_2(command, flag, value, bound, capsys):
    with pytest.raises(SystemExit) as info:
        main(command.split() + [flag, value, "--seed", "1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert flag in err and bound in err


@pytest.mark.parametrize("argv, flag, bound", [
    ("hy --order 0", "--order", ">= 1"),
    ("verify exterior --dim -1", "--dim", ">= 0"),
    ("verify exterior --max-dual -1", "--max-dual", ">= 0"),
    ("verify integrals --dim -1", "--dim", ">= 0"),
    ("verify bosonize --dim -1", "--dim", ">= 0"),
    ("envelope --d -1", "--d", ">= 0"),
    ("envelope --r 0", "--r", ">= 1"),
    ("envelope --abelian -1 2", "--abelian", ">= 0"),
    ("hcpair --r 0", "--r", ">= 1"),
    ("hcpair --transvections 0", "--transvections", ">= 1"),
])
def test_out_of_range_size_arguments_exit_2(argv, flag, bound, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv.split())
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert flag in err and bound in err


def test_decompose_without_odd_generators_passes(tmp_path):
    # with no odd generators P = Q = 0, so the naive-coordinate control
    # cannot fail and is not reported
    code, data = run(["decompose", "--m", "1", "--n", "1", "--thetas", "0",
                      "--points", "3", "--seed", "1"], tmp_path)
    assert code == 0 and data["ok"] is True
    names = {c["name"] for c in data["checks"]}
    assert "negative-control-naive-coordinates-not-left-invariant" not in names


def test_zero_sizes_are_accepted(tmp_path):
    code, data = run(["verify", "gl", "--m", "2", "--n", "0", "--thetas", "0",
                      "--points", "3", "--seed", "1"], tmp_path)
    assert code == 0 and data["ok"] is True


def test_missing_file_is_exit_2(tmp_path):
    code = main(["verify", "exterior", "--file", str(tmp_path / "absent.shp")])
    assert code == 2


def test_unwritable_out_is_exit_2(tmp_path, capsys):
    out = tmp_path / "absent" / "r.json"
    assert main(["verify", "exterior", "--dim", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and str(out) in captured.err
    assert not captured.out


# --- presentation files


def test_golden_exterior_presentation():
    path = builtin_presentation_path("exterior_2.shp")
    pres = load_presentation(path)
    assert pres.name == path
    expected = exterior_hopf(2)
    assert pres.gens == expected.gens
    assert pres.delta == expected.delta
    assert pres.counit == expected.counit
    assert pres.antipode == expected.antipode


def test_golden_gl11_presentation():
    pres = load_presentation(builtin_presentation_path("gl_1_1.shp"))
    expected = glmn_presentation(1, 1)
    assert pres.gens == expected.gens
    assert pres.delta == expected.delta
    assert pres.counit == expected.counit
    assert pres.antipode is None


def test_print_parse_round_trip():
    for pres in (exterior_hopf(3), glmn_presentation(1, 1)):
        text = print_presentation(pres)
        reparsed = parse_presentation(text)
        assert reparsed.gens == pres.gens
        assert reparsed.delta == pres.delta
        assert reparsed.counit == pres.counit
        assert reparsed.antipode == pres.antipode


def test_nonzero_odd_counit_rejected():
    text = """
    odd v;
    delta v = v @ 1 + 1 @ v;
    eps v = 1;
    antipode v = -v;
    """
    with pytest.raises(PresentationError) as info:
        parse_presentation(text)
    assert "v" in str(info.value)


def test_unknown_symbol_has_position():
    text = """
    odd v;
    delta v = v @ 1 + 1 @ w;
    eps v = 0;
    antipode v = -v;
    """
    with pytest.raises(ParseError) as info:
        parse_presentation(text)
    assert "w" in str(info.value)
    assert info.value.position >= 0


@pytest.mark.parametrize("text, error, message", [
    ("odd v1, v1;\ndelta v1 = v1 @ 1 + 1 @ v1;\neps v1 = 0;\nantipode v1 = -v1;\n",
     ParseError, "duplicate generator 'v1'"),
    ("even x; odd x;\ndelta x = x @ 1 + 1 @ x;\neps x = 0;\nantipode x = -x;\n",
     ParseError, "duplicate generator 'x'"),
    ("odd v1;\ndelta v1 = 1/0*v1 @ 1 + 1 @ v1;\neps v1 = 0;\nantipode v1 = -v1;\n",
     ParseError, "zero denominator"),
    ("odd v1;\ndelta v1 = v1 @ 1 + 1 @ v1;\neps v1 = 0;\n",
     PresentationError, "missing antipode image for v1"),
    ("odd v;\neps v = 0;\nantipode v = -v;\n",
     PresentationError, "missing coproduct image for v"),
    ("odd v;\ndelta v = v @ 1 + 1 @ v;\nantipode v = -v;\n",
     PresentationError, "missing counit image for v"),
    ("even x;\ndelta x = x @ 1 + 1 @ x;\neps x = x;\nantipode x = -x;\n",
     PresentationError, "counit of x must be a scalar"),
    ("odd v;\ndelta v = v @ 1 + 1 @ v;\neps v = 0;\nantipode pointwise;\nantipode v = -v;\n",
     PresentationError, "antipode is marked pointwise but images were given"),
    ("odd v;\ndelta v = v @ 1 + 1 @ v;\neps v = 0;\nantipode v = 1;\n",
     PresentationError, "antipode image of v has wrong parity"),
    ("odd v;\ndelta v = v @ 1 + 1 @ v;\neps v = 0;\nantipode v = 1/v*v;\n",
     ParseError, "expected a denominator"),
    ("odd v;\ndelta v = v @ 1 + 1 @ v;\neps v = 0;\nantipode v = -v^v;\n",
     ParseError, "expected an integer exponent"),
    ("odd v;\ndelta v = v @ 1 + 1 @ v;\neps v = 0;\nantipode v = -v);\n",
     ParseError, "trailing input"),
    ("odd v;\ndelta v = v @ 1 + (1 @ v);\neps v = 0;\nantipode v = -v;\n",
     ParseError, "expected ')'"),
])
def test_malformed_file_is_exit_2(text, error, message, tmp_path, capsys):
    path = tmp_path / "bad.shp"
    path.write_text(text)
    assert main(["verify", "exterior", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    with pytest.raises(error):
        parse_presentation(text)


def test_zero_denominator_has_its_position():
    text = "odd v1;\ndelta v1 = 1/0*v1 @ 1 + 1 @ v1;\neps v1 = 0;\nantipode v1 = -v1;"
    with pytest.raises(ParseError) as info:
        parse_presentation(text)
    # positions count within the file's own text
    assert info.value.position == text.index("1/0") + 2


VALID = "odd v;\ndelta v = v @ 1 + 1 @ v;\neps v = 0;\nantipode v = -v;\n"


@pytest.mark.parametrize("text, at", [
    # expression errors: the offending token, counted from the start of the file
    (VALID.replace("-v;", "-w;"), "w;"),
    (VALID.replace("delta v = v @ 1 + 1 @ v", "delta v = v"), "v;\neps"),
    (VALID.replace("eps v = 0", "eps v = "), ";\nantipode"),
    (VALID.replace("eps v = 0", "eps v = $"), "$;"),
    (VALID.replace("eps v = 0", "eps v = 0 0"), "0;\nantipode"),
    (VALID.replace("1 + 1", "1/0 + 1"), "0 + 1"),
    # statement errors: the start of the statement
    ("# comment\n" + VALID + "foo v;\n", "foo v;"),
    (VALID + "eps = 0;\n", "eps = 0;"),
    (VALID.replace("antipode v = -v", "antipode v -v"), "antipode v -v"),
    (VALID + "eps w = 0;\n", "eps w = 0;"),
    ("odd v;\n" + VALID, "odd v;\ndelta"),
    ("even x;\nodd 1v;\n" + VALID, "odd 1v;"),
])
def test_parse_errors_carry_file_offsets(text, at):
    with pytest.raises(ParseError) as info:
        parse_presentation(text)
    assert text[info.value.position:].startswith(at), (info.value, text[info.value.position:])


def test_parenthesised_file_passes(tmp_path):
    text = "odd v;\ndelta v = (v + 0) @ 1 + 1 @ (2*(v) - v);\neps v = (1 - 1);\nantipode v = -(v);\n"
    assert parse_presentation(text) == parse_presentation(VALID)
    path = tmp_path / "parenthesised.shp"
    path.write_text(text)
    assert run(["verify", "exterior", "--file", str(path)], tmp_path)[0] == 0


def test_keyword_ends_at_any_whitespace():
    text = "odd\tv;\ndelta\n  v = v @ 1 + 1 @ v;\neps\tv = 0;\nantipode\nv = -v;\n"
    assert parse_presentation(text) == parse_presentation(VALID)


def test_generator_declarations_share_one_rule():
    from superalg.parsing import parse_generator_set

    with pytest.raises(ParseError, match="duplicate generator 'a'"):
        parse_generator_set("odd a, a;")
    with pytest.raises(ParseError, match="bad generator name '1v'"):
        parse_generator_set("even x; odd 1v;")


def test_non_utf8_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "binary.shp"
    path.write_bytes(b"\xff\xfe" + VALID.encode("utf-16-le"))
    assert main(["verify", "exterior", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "UTF-8" in err
    with pytest.raises(ParseError) as info:
        load_presentation(str(path))
    assert info.value.position == 0


def test_non_utf8_offset_counts_characters(tmp_path):
    # "é" is two bytes: the bad byte is byte 6 but comes after 5 characters
    path = tmp_path / "latin.shp"
    path.write_bytes("odd é".encode("utf-8") + b"\xff;\n")
    with pytest.raises(ParseError, match="byte 0xff") as info:
        load_presentation(str(path))
    assert info.value.position == 5


def test_even_generator_file_is_exit_2(tmp_path, capsys):
    from superalg import additive_presentation

    path = tmp_path / "additive.shp"
    path.write_text(print_presentation(additive_presentation(1, 1)))
    assert main(["verify", "exterior", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "even generator 't1'" in err


CORRUPTED = """
odd v1;
delta v1 = 1 @ v1;
eps v1 = 0;
antipode v1 = -v1;
"""


def test_corrupted_file_fails_with_witness_and_replays(tmp_path):
    path = tmp_path / "broken.shp"
    path.write_text(CORRUPTED)
    out = tmp_path / "report.json"
    code = main(["verify", "exterior", "--file", str(path), "--out", str(out)])
    assert code == 1
    data = json.loads(out.read_text())
    failing = [c for c in data["checks"] if c["status"] == "fail"]
    assert failing and any("v1" in c["name"] for c in failing)
    # replay the failure through the library from the reported check name
    from superalg import check_hopf_axioms

    report = check_hopf_axioms(load_presentation(str(path)))
    replayed = {c["name"] for c in report.failures()}
    assert any(c["name"].split(":")[-1] in replayed for c in failing)


def test_corrupted_file_fails_its_own_duality_check(tmp_path):
    # duality is checked on the file's tables, not on the canonical L(1)
    path = tmp_path / "broken.shp"
    path.write_text(CORRUPTED)
    code, data = run(["verify", "exterior", "--file", str(path)], tmp_path)
    assert code == 1
    status = {c["name"]: c["status"] for c in data["checks"]}
    duality = {name: st for name, st in status.items() if name.startswith("duality[n=1]:")}
    assert duality and "fail" in duality.values()
    assert status["duality[n=1]:dual-satisfies-super-hopf-axioms"] == "fail"


def test_pointwise_antipode_file_has_no_antipode_to_dualize(tmp_path):
    path = tmp_path / "pointwise.shp"
    path.write_text("odd v1;\ndelta v1 = v1 @ 1 + 1 @ v1;\neps v1 = 0;\nantipode pointwise;\n")
    code, data = run(["verify", "exterior", "--file", str(path)], tmp_path)
    assert code == 1
    checks = {c["name"]: c for c in data["checks"]}
    assert checks["duality[n=1]:algebra-morphism"]["status"] == "pass"
    assert checks["duality[n=1]:antipode-preserved"]["status"] == "fail"
    assert checks["duality[n=1]:antipode-preserved"]["witness"] == "no antipode table"


def test_builtin_file_passes_its_own_duality_check(tmp_path):
    path = builtin_presentation_path("exterior_2.shp")
    code, data = run(["verify", "exterior", "--file", path], tmp_path)
    assert code == 0
    assert any(c["name"].startswith("duality[n=2]:") for c in data["checks"])


REPEATED = {
    "delta": "delta v1 = v1 @ 1 + 1 @ v1;\n",
    "eps": "eps v1 = 0;\n",
    "antipode": "antipode v1 = -v1;\n",
}


@pytest.mark.parametrize("kind", sorted(REPEATED))
def test_repeated_statement_is_exit_2(kind, tmp_path, capsys):
    text = "odd v1;\n" + "".join(REPEATED.values()) + "# repeated:\n" + REPEATED[kind]
    path = tmp_path / "repeated.shp"
    path.write_text(text)
    assert main(["verify", "exterior", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"duplicate {kind} for 'v1'" in err
    with pytest.raises(ParseError) as info:
        parse_presentation(text)
    # the position is that of the second statement, in the file's own text
    assert info.value.position == text.rindex(kind)


# --- golden reports: the JSON report without ``timings`` stays byte-identical
# (the hy, hcpair and envelope digests were re-taken when their exported
# structure and per-degree dimensions moved from always-passing checks into
# the report's ``data`` block, payloads unchanged; the exterior digests were
# re-taken when ``duality[n=...]:pairing-bijective``, which cannot fail, was
# removed, each report otherwise unchanged; the bosonize digests were re-taken
# when ``dimension`` and ``antipode-solvable`` were removed, since the
# bosonization has 2 dim A labels by construction and its antipode, read off
# S_A, exists exactly when the base has one, each report otherwise unchanged;
# the hy, exterior and dim-0 integrals digests were re-taken when four entries
# that no input can fail were removed: ``unique-group-like-counit`` (only 1 * 1
# reaches the empty monomial of a built dual), ``odd-cotangent-basis`` (W^A of
# a free presentation is spanned by its odd generators; the basis moved to
# ``data.odd_cotangent_basis``), ``pairing-oracle`` (a permutation sum on
# increasing blades that read only n) and ``trivial-group-integral-of-1-nonzero``
# (the one basis integral at dim 0 leads with 1), each report otherwise unchanged;
# the hcpair and envelope digests were re-taken when three more such entries
# were removed: ``sp-dimension`` (the kernel dimension of a fixed linear system,
# r(2r+1) for every r), ``group-membership`` (g J tg = J holds identically for
# each sampled g = I + c J tu u) and ``pbw-dimension`` (the envelope's normal
# words are exactly the PBW monomials it was counted against), each report
# otherwise unchanged; the hy and bosonize digests were re-taken when three more
# were removed: ``pbw-dimension-counts`` (Lie(G) is the degree-1 duals, so the
# count of monomials of degree < k in its even and odd dimensions is the
# order-k dual's basis), ``lie-even-matches-even-quotient`` (the even quotient
# keeps exactly the odd-free terms of each Delta(g), and odd factors never
# cancel in a product of monomials, so Lie(G)_0 and Lie(G_ev) agree whenever
# Lie(G) validates) and ``smash-coproduct-on-primitives`` (the bosonization's
# coproduct formula read back on the two cells of Delta(v_i) in Lambda(V)),
# each report otherwise unchanged; the hy digests were re-taken when
# ``embedding-chain`` was removed (order k's dual is order k + 1's restricted
# to degree < k, since a dropped term of Delta(m) never comes back and the
# counit law keeps every term of Delta(m) at total degree >= deg m), each
# report otherwise unchanged; the n = 0 decompose digest was re-taken when
# ``negative-control-naive-coordinates-not-left-invariant`` was dropped for
# m n k = 0, where P = Q = 0 and the control cannot fail, report otherwise unchanged;
# the exterior and decompose digests were re-taken when four more such entries
# were removed: ``unit-preserved`` and ``counit-preserved`` (the primal's unit
# and counit are fixed by construction, and a unit or counit is unique, so a
# wrong one already fails the dual's own unit or counit axiom),
# ``identity-maps-to-(identity,0,0)`` (P = Q = 0 gives p' = q' = 0) and
# ``odd-coordinates-are-odd`` (X^-1 and Y^-1 are even, P and Q odd), each
# report otherwise unchanged)

GOLDEN = {
    "verify exterior --dim 3": "d9c2680f54c281809b43294e5a5ec65cc70a2b277c6a062de31def865a2e5df0",
    "verify integrals --dim 3": "cf1037d68cd9ecb88a31e88bbc3cdd3b3eec28d2f696accd79ce5b1b0293bda5",
    "hy --target gl11 --order 4": "54536c558360b0001e910f34e69fde051a5cd71b5ac5a2af8ad196649937d0dd",
    "hcpair --r 1 --seed 1": "4fda4ac0aeb3533d2cd391188a379221554ce3f153d834aa72333fd582bdf3c9",
    "envelope --r 1 --d 3": "6019df09ea2cf16dfd185e37440e8bd253142d2009c95ec5c4c85e81422824ef",
    "hy --target gl11 --order 5": "83114803a263dc484d551bc8554e66073b22e17f4ef60f15b7df8310a12fed30",
    "hcpair --r 3 --seed 1": "a6463bfb39c9006d20162e689e2827b009aebf1ed62e684a08fb6ba97e0c93b2",
    "verify gl --m 2 --n 1 --thetas 4 --points 30 --seed 7":
        "c6bf22ea61674c943d1674c1e5c52138fd2517338d8fe337a069e0433afe60de",
    "decompose --m 2 --n 1 --thetas 4 --points 30 --seed 11":
        "2ea28b921bca928e01755d7274c098f7995dafa9ae336e2e5cb5ec24e4ee5d1b",
    # taken before associativity and coproduct multiplicativity were
    # certified from generators, so these two pin the certified reports
    "verify exterior --dim 6": "b79087a41efeea4f0ab26f3ccef258d0ceb553be619c8a4c8a9fb938caf743fe",
    "envelope --r 1 --d 4": "28fd188fbce874c8d0c3be5ed6e3f737188b153e3e6050085d071d6ee1bfb7b1",
    # taken before the dim-0 branch of the integrals suite and the symbolic
    # expansion of the cubic pair axiom were removed
    "verify integrals --dim 0": "1744161552cb10cde4f67216a37c345bb36cb9ab8ce7be0a01c9e75a1acedb74",
    "hcpair --r 2 --no-half --seed 1":
        "6f4dd292dc299f02d242b3617553e97487943861503697ff5b48e3f98b3b62f8",
    # taken before the envelope was certified by its letter relations
    "envelope --r 2 --d 4": "8d62c7a38e1ce4812b8f748211c7aab828ec541176441c8baf3bca9b85ace096",
    "envelope --abelian 2 3 --d 4": "612ff4c7245a13221f50400e12e4b40da0d0849099be12651ebe2697fdee1684",
    # taken before the primitives were read off the degree-1 duals: the one
    # 9-dimensional primitive algebra, and the one order that builds a
    # separate order-3 dual for its primitives
    "hy --target gl21 --order 3": "179233bb3abd2dc923ab17bf7eab5b93da5484e2be5ad5fa5c07ab9e046809a0",
    "hy --target ga11 --order 2": "3f4712e980cd9d64e228a56842963387cace5e373e0712b7641cd0adfc44ee32",
    # taken before the hy suite built each dual and Lie(G) once: Lie(G) read
    # off a lower-order dual than the one checked, and duals built past the order
    "hy --target gl21 --order 4": "19c2a61f3fd96d7ff935223301754be2d39f7dcac914dd14e23ffdd993a7d30d",
    "hy --target gl11 --order 1": "d15c1ab64931b8ef91b72c9d3ffea9608d8522a0843a83648506fe2bf3bc3cb1",
    "verify bosonize --dim 2": "c609ceb6031b6547d5947a07beceeddbfd9386a095697529a084240f52d5b861",
    "verify bosonize --dim 3": "9560e6c2e9666b1d95ae753af2eb0aef45733a4f882114f6cbe1fbba4c1049c7",
    # taken before J, the sp basis, the transvections and the GL(m|n) bodies
    # became sparse rows: a 3 x 3 and a 2 x 2 body with an empty even block,
    # an empty odd block, and 2r = 8 transvections
    "verify gl --m 3 --n 2 --thetas 4 --points 30 --seed 7":
        "c48dab76c7f6f611c80d0ebf0bc2eb58ebe8b5d649981d6daa7e7cc176456108",
    "verify gl --m 0 --n 2 --thetas 4 --points 30 --seed 7":
        "c208534a693f06f024c0a7aa14059407f4e3f4bbf652b2e88fd77f5d7768036a",
    "decompose --m 2 --n 0 --thetas 4 --points 30 --seed 11":
        "51fed9eeb2be5fa92b7293d08d88adaec6e6576947ea78f450e6bf8ceba9aef6",
    "hcpair --r 4 --seed 1": "c009d1c09b502ee0ab2ae50b37501524730ab9df857559cae55391fe76a82517",
    # taken before every multiplicative Hopf axiom was certified from the
    # group-likes and skew-primitives: the bosonization, certified from
    # {g, v_i, g.v_i}, and the largest exterior dual the suite checks
    "verify bosonize --dim 4": "1247e66f2fd607eb78c91c53d583344aa9b6a0325061c73c7865bc7c705890b1",
    "verify exterior --dim 7 --max-dual 7":
        "f0d530e7ddb2e8f28bead3499527efce51e37b941e3bea3fc3498877272afd4c",
    # taken before associativity was checked on the exact range only and the
    # order-n dual held only its exact cells (order 6 took about 13 s then)
    "hy --target gl21 --order 5": "5b55a1d8d9068f8321fc857251b7af6eae7c840ca71c4a1953d7f6b81dc40894",
    "hy --target gl21 --order 6": "0091e62fdd56e7574e4a9aea2c458f4449846ab51e9bd62410533f53e61309c6",
    # taken before the certificate picked its own generators, when the
    # bosonization was certified from the 2n + 1 elements {g, v_i, g.v_i}
    "verify bosonize --dim 5": "c090c9dc3ab586d94c1428a692ef8af28dd375168c54971b75c0380b0481dedb",
    "verify bosonize --dim 7": "a1309302278b5b7ac14cd3f748545a5c29c26c6c7c969a1b38e6cc377fed6c31",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_report_without_timings_is_golden(argv, tmp_path):
    code, data = run(argv.split(), tmp_path)
    assert code == 0
    data.pop("timings")
    text = json.dumps(data, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[argv]


# digests taken before the exterior tables were rebuilt as transposes (both
# re-taken with the hy digests above): the report of a larger exterior
# algebra, and the checks of the shipped file (``config.file`` depends on
# where the package is installed)
def test_exterior_dim_5_report_is_golden(tmp_path):
    code, data = run(["verify", "exterior", "--dim", "5"], tmp_path)
    assert code == 0
    data.pop("timings")
    text = json.dumps(data, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "702d56281b2bcbfd6684a1fbf8d6314c755ac1af278b6afc236110d385da4b55"
    )


def test_builtin_file_checks_are_golden(tmp_path):
    path = builtin_presentation_path("exterior_2.shp")
    code, data = run(["verify", "exterior", "--file", path], tmp_path)
    assert code == 0
    text = json.dumps(data["checks"], sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5a6afb8fde7350c57926010b78c3f4ad48227e4cc4b2530f88c60d3031664a18"
    )


NONCOASSOCIATIVE = """# exterior algebra on two odd generators with a coproduct that is not coassociative
odd v1, v2;

delta v1 = v1 @ 1 + 1 @ v1 + v1*v2 @ v2;
delta v2 = v2 @ 1 + 1 @ v2;

eps v1 = 0;
eps v2 = 0;

antipode v1 = -v1;
antipode v2 = -v2;
"""


# the dual of this file fails the generator certificate, so its associativity
# verdict comes from the dense scan, the one CLI report whose verdict does; the
# duality check carries that scan's first failing triple as its witness
def test_noncoassociative_file_checks_are_golden(tmp_path):
    path = tmp_path / "noncoassociative.shp"
    path.write_text(NONCOASSOCIATIVE)
    code, data = run(["verify", "exterior", "--file", str(path)], tmp_path)
    assert code == 1
    failed = {c["name"]: c.get("witness") for c in data["checks"] if c["status"] == "fail"}
    assert failed["duality[n=2]:dual-satisfies-super-hopf-axioms"] == (
        "associativity: associativity fails at (v1*, v2*, v2*)"
    )
    assert "duality[n=2]:algebra-morphism" in failed
    text = json.dumps(data["checks"], sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "37191257f3e32d19c5eb5f3885fc3e0cc36c137cb2d97cd070afe3cc0c582004"
    )


LAMBDA_2_CHECKS = [
    "axioms:coassociativity[v1]", "axioms:counit-left[v1]", "axioms:counit-right[v1]",
    "axioms:coassociativity[v2]", "axioms:counit-left[v2]", "axioms:counit-right[v2]",
    "axioms:antipode-left[v1]", "axioms:antipode-right[v1]",
    "axioms:antipode-left[v2]", "axioms:antipode-right[v2]",
    "duality[n=2]:algebra-morphism", "duality[n=2]:coalgebra-morphism",
    "duality[n=2]:antipode-preserved", "duality[n=2]:dual-satisfies-super-hopf-axioms",
]


# a report lists only checks that some input can fail: no unit or counit
# comparison of the duality, no identity coordinates and no parity of p', q'
def test_reports_list_exactly_these_checks(tmp_path):
    def names(argv):
        code, data = run(argv, tmp_path)
        assert code == 0
        return [c["name"] for c in data["checks"]]

    assert names(["verify", "exterior", "--dim", "2"]) == ["print-parse-round-trip",
                                                           *LAMBDA_2_CHECKS]
    path = builtin_presentation_path("exterior_2.shp")
    assert names(["verify", "exterior", "--file", path]) == ["file-round-trip", *LAMBDA_2_CHECKS]
    argv = "decompose --m 1 --n 1 --thetas 3 --points 4 --seed 2".split()
    assert names(argv) == [
        "round-trip[4 points]", "naturality-under-base-change",
        "even-projection-intertwines-even-quotient", "primed-coordinates-left-invariant",
        "negative-control-naive-coordinates-not-left-invariant",
    ]


# --- the check ledger


SMALL_RUNS = [
    "verify gl --m 1 --n 1 --thetas 3 --points 6 --seed 2",
    "verify exterior --dim 2",
    "verify bosonize --dim 1",
    "verify integrals --dim 2",
    "hy --target gl11 --order 3",
    "hcpair --r 1 --transvections 3 --seed 2",
    "envelope --r 1 --d 1",
    "decompose --m 1 --n 1 --thetas 3 --points 4 --seed 2",
]


@pytest.mark.parametrize("argv", SMALL_RUNS + ["corrupted exterior file"])
def test_check_names_are_unique_and_only_failures_carry_witnesses(argv, tmp_path):
    if argv == "corrupted exterior file":
        path = tmp_path / "broken.shp"
        path.write_text(CORRUPTED)
        argv = f"verify exterior --file {path}"
    _, data = run(argv.split(), tmp_path)
    names = [c["name"] for c in data["checks"]]
    assert len(names) == len(set(names))
    for check in data["checks"]:
        assert check["status"] in ("pass", "fail")
        assert "witness" not in check or check["status"] == "fail", check


def test_hcpair_group_checks_fail_independently(tmp_path, monkeypatch):
    # the equivariance scan fails on its own, and still runs when super
    # Jacobi fails; the structure is exported only when super Jacobi passes
    from superalg import cli
    from superalg.liealg import StructureError

    argv = ["hcpair", "--r", "1", "--transvections", "2", "--seed", "3"]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "first_nonequivariant", lambda lie, gs: 0)
        code, data = run(argv, tmp_path)
    assert code == 1
    status = {c["name"]: c["status"] for c in data["checks"]}
    assert status == {"pair-axioms": "pass", "super-jacobi": "pass",
                      "group-bracket-equivariance": "fail"}
    assert "structure" in data["data"]

    def no_jacobi(lie):
        raise StructureError("super Jacobi fails")

    scanned = []
    equivariance = cli.first_nonequivariant
    monkeypatch.setattr(cli, "build_super_lie", no_jacobi)
    monkeypatch.setattr(cli, "first_nonequivariant",
                        lambda lie, gs: scanned.extend(gs) or equivariance(lie, gs))
    code, data = run(argv, tmp_path)
    assert code == 1
    status = {c["name"]: c["status"] for c in data["checks"]}
    assert status == {"pair-axioms": "pass", "super-jacobi": "fail",
                      "group-bracket-equivariance": "pass"}
    assert len(scanned) == 2 and "structure" not in data.get("data", {})


def test_hcpair_equivariance_witness_replays_from_the_seed(tmp_path, monkeypatch):
    # the witness names the failing transvection; the expression it quotes
    # rebuilds that matrix, on which the broken bracket fails again
    from superalg import cli, hcpair

    pair = hcpair.spo_pair(1)
    cell = pair.bracket[(3, 3)]
    pair.bracket[(3, 3)] = {k: 2 * c for k, c in cell.items()}
    monkeypatch.setattr(cli, "spo_pair", lambda r, half: pair)
    code, data = run(["hcpair", "--r", "1", "--transvections", "4", "--seed", "3"], tmp_path)
    assert code == 1
    (check,) = [c for c in data["checks"] if c["name"] == "group-bracket-equivariance"]
    assert check["status"] == "fail"
    replay = re.fullmatch(r"bracket not equivariant under g = "
                          r"sample_transvections\((\d+), (\d+), (-?\d+)\)\[(\d+)\]",
                          check["witness"])
    r, count, seed, index = map(int, replay.groups())
    assert (r, count, seed) == (1, 4, 3)
    g = hcpair.sample_transvections(r, count, seed)[index]
    assert hcpair.first_nonequivariant(pair, [g]) == 0


def test_hy_reports_no_dimension_count_without_primitives(tmp_path, monkeypatch):
    # with no primitive Lie algebra there is nothing to count against
    from superalg import cli
    from superalg.liealg import StructureError

    def no_primitives(dual):
        raise StructureError("bracket escapes the primitive subspace")

    monkeypatch.setattr(cli, "primitives", no_primitives)
    code, data = run(["hy", "--target", "gl11", "--order", "3"], tmp_path)
    assert code == 1
    status = {c["name"]: c["status"] for c in data["checks"]}
    assert status["primitive-lie-axioms"] == "fail"


def _corrupt_primitives(monkeypatch, corrupt):
    """Run the hy suite on Lie(G) changed by ``corrupt`` after its validation."""
    from superalg import cli

    validated = cli.primitives

    def corrupted(dual):
        lie = validated(dual)
        corrupt(lie)
        return lie

    monkeypatch.setattr(cli, "primitives", corrupted)


def test_hy_oracle_witness_names_the_corrupted_bracket(tmp_path, monkeypatch):
    def double(lie):
        lie.bracket[(0, 1)] = {k: 2 * c for k, c in lie.bracket[(0, 1)].items()}

    _corrupt_primitives(monkeypatch, double)
    code, data = run(["hy", "--target", "gl11", "--order", "3"], tmp_path)
    assert code == 1
    checks = {c["name"]: c for c in data["checks"]}
    assert checks["oracle-matrix-super-bracket"] == {
        "name": "oracle-matrix-super-bracket",
        "status": "fail",
        "witness": "[D[p11], D[q11]] = {'D[y11]': Fraction(2, 1), 'D[x11]': Fraction(2, 1)}, "
                   "oracle {'D[x11]': 1, 'D[y11]': 1}",
    }


def test_hy_abelian_oracle_witness_names_the_nonzero_bracket(tmp_path, monkeypatch):
    # ga(1|1) runs the same scan as gl(m|n), against the zero bracket
    def odd_square(lie):
        lie.bracket[(0, 0)] = {1: Fraction(2)}

    _corrupt_primitives(monkeypatch, odd_square)
    code, data = run(["hy", "--target", "ga11", "--order", "3"], tmp_path)
    assert code == 1
    checks = {c["name"]: c for c in data["checks"]}
    assert checks["oracle-abelian-(1|1)"] == {
        "name": "oracle-abelian-(1|1)",
        "status": "fail",
        "witness": "[D[tau1], D[tau1]] = {'D[t1]': Fraction(2, 1)}, oracle {}",
    }


def test_hy_oracle_check_reads_the_suite_lie_algebra(tmp_path, monkeypatch):
    # a nonzero even bracket put in after validation: the gl(1|1) oracle fails it
    def even_bracket(lie):
        x, y = lie.labels.index("D[x11]"), lie.labels.index("D[y11]")
        lie.bracket[(y, x)] = {x: Fraction(1)}
        lie.bracket[(x, y)] = {x: Fraction(-1)}

    _corrupt_primitives(monkeypatch, even_bracket)
    code, data = run(["hy", "--target", "gl11", "--order", "3"], tmp_path)
    assert code == 1
    status = {c["name"]: c["status"] for c in data["checks"]}
    assert status["oracle-matrix-super-bracket"] == "fail"


def _primed_scan(monkeypatch, translate):
    """The decompose checks with each left translation chosen by ``translate``."""
    from superalg.decomposition import decomposition_check
    from superalg.grassmann import PointSampler

    monkeypatch.setattr(PointSampler, "sample_even",
                        lambda self, index=None: translate(self, index))
    checks = decomposition_check(1, 1, 4, 4, 9).checks
    return {c["name"]: c for c in checks}


def test_primed_coordinates_witness_is_the_first_failing_point(monkeypatch):
    from superalg.grassmann import PointSampler

    # translating by general (not even) points moves the primed coordinates
    sampler = PointSampler(1, 1, 4, 9)
    failing = [idx for idx in range(4)
               if (sampler.sample(4 + idx) * sampler.sample(idx)).decomposition_coords()[2:]
               != sampler.sample(idx).decomposition_coords()[2:]]
    assert len(failing) >= 2
    checks = _primed_scan(monkeypatch, PointSampler.sample)
    primed = checks["primed-coordinates-left-invariant"]
    assert primed["status"] == "fail" and primed["witness"] == f"point #{failing[0]}"


def test_naive_control_sees_every_sampled_point(monkeypatch):
    from superalg.grassmann import PointSampler, SuperMatrix

    even = PointSampler.sample_even

    # only the last of the four translations (index points + 3) is not the identity
    def translate(self, index):
        if index == 4 + 3:
            return even(self, index)
        return SuperMatrix.identity(self.m, self.n, self.alg)

    checks = _primed_scan(monkeypatch, translate)
    assert checks["primed-coordinates-left-invariant"]["status"] == "pass"
    assert checks["negative-control-naive-coordinates-not-left-invariant"]["status"] == "pass"
