import random
from fractions import Fraction
from itertools import combinations

import pytest

from superalg import (
    bosonize,
    check_finite_hopf_axioms,
    dual_hopf,
    dual_iso_check,
    exterior_finite,
    exterior_hopf,
    finite_from_presentation,
    integral_space,
)

from conftest import is_left_integral, pairing_on_sequences, solved_antipode
from superalg.finite import FiniteDimHopf, compose_with_antipode, is_right_integral


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_blade_tables_match_presentation_route(n):
    # two independent constructions of the same Hopf algebra
    blades = exterior_finite(n)
    from_pres = finite_from_presentation(exterior_hopf(n))
    assert blades.parity == from_pres.parity
    assert blades.unit == from_pres.unit
    assert blades.mult == from_pres.mult
    assert blades.delta == from_pres.delta
    assert blades.counit == from_pres.counit
    assert blades.antipode == from_pres.antipode


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exterior_tables_satisfy_super_axioms(n):
    assert check_finite_hopf_axioms(exterior_finite(n)).ok


@pytest.mark.parametrize("n, key, cell, failures", [
    # 1 v1 = 2 v1: the unit law and (1 1) v1 = 2 v1 != 4 v1 = 1 (1 v1)
    (2, (0, 1), {1: Fraction(2)}, {
        "unit": "unit law fails at v1",
        "associativity": "associativity fails at (1, 1, v1)",
    }),
    # v1 v2 = 2 v1v2: (v1 v2) v3 = 2 v1v2v3 != v1 (v2 v3)
    (3, (1, 2), {4: Fraction(2)}, {"associativity": "associativity fails at (v1, v2, v3)"}),
])
def test_corrupted_constant_fails_with_first_triple(n, key, cell, failures):
    hopf = exterior_finite(n)
    hopf.mult[key] = cell
    report = check_finite_hopf_axioms(hopf)
    assert not report.ok
    witnesses = {c["name"]: c.get("witness", "") for c in report.failures()}
    for name, witness in failures.items():
        assert witnesses[name] == witness


def test_pairing_odd_permutation_sign():
    # <f1 ^ f2, v2 ^ v1> via the displayed permutation sum
    assert pairing_on_sequences([0, 1], [1, 0]) == -1
    assert pairing_on_sequences([0, 1], [0, 1]) == 1
    assert pairing_on_sequences([0], [1]) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pairing_agrees_with_permutation_oracle(n):
    # on normal blades the pairing is <f_I, v_J> = [I == J], as dual_iso_check
    # assumes; all blades up to n = 4, those of size <= 3 at the exterior
    # dimensions the benchmark runs
    max_size = n if n <= 4 else 3
    blades = [list(c) for size in range(max_size + 1) for c in combinations(range(n), size)]
    for left in blades:
        for right in blades:
            assert pairing_on_sequences(left, right) == (left == right)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_dual_iso(n):
    ok, report = dual_iso_check(n)
    assert ok, [c["name"] for c in report.failures()]


def _negate_delta_cell(p):
    p.delta[3][(2, 1)] = -p.delta[3][(2, 1)]


def _double_mult_cell(p):
    p.mult[(1, 2)] = {3: 2}


def _halve_counit_of_one(p):
    p.counit[0] = Fraction(1, 2)


def _extra_unit_term(p):
    p.unit = {0: 1, 1: 1}


def _wrong_antipode_row(p):
    p.antipode[1] = {1: 1}


def _no_antipode(p):
    p.antipode = None


@pytest.mark.parametrize("corrupt, failures", [
    (_negate_delta_cell, {
        "algebra-morphism": "products differ at (f2, f1)",
        "dual-satisfies-super-hopf-axioms":
            "coproduct-multiplicative: coproduct is not an algebra map at (v2*, v1*)",
    }),
    (_double_mult_cell, {
        "coalgebra-morphism": "coproducts differ at f1f2",
        "dual-satisfies-super-hopf-axioms":
            "coproduct-multiplicative: coproduct is not an algebra map at (v1*, v2*)",
    }),
    (_halve_counit_of_one, {
        "unit-preserved": "",
        "dual-satisfies-super-hopf-axioms": "unit: unit law fails at 1*",
    }),
    (_extra_unit_term, {
        "counit-preserved": "",
        "dual-satisfies-super-hopf-axioms": "counit: counit law fails at v1*",
    }),
    (_wrong_antipode_row, {
        "antipode-preserved": "",
        "dual-satisfies-super-hopf-axioms": "antipode: antipode identity fails at v1*",
    }),
    (_no_antipode, {
        "antipode-preserved": "no antipode table",
        "dual-satisfies-super-hopf-axioms": "antipode: no antipode table",
    }),
])
def test_corrupted_primal_fails_its_morphism_check(corrupt, failures):
    # the primal Lambda(2) has blades 1, v1, v2, v1v2; each corruption breaks
    # exactly one morphism check of the pairing, with this witness
    primal = finite_from_presentation(exterior_hopf(2))
    assert primal.labels == ["1", "v1", "v2", "v1v2"]
    corrupt(primal)
    ok, report = dual_iso_check(2, primal)
    assert not ok
    assert {c["name"]: c.get("witness", "") for c in report.failures()} == failures


def test_dual_of_dual_tables_are_consistent():
    hopf = exterior_finite(2)
    double = dual_hopf(dual_hopf(hopf))
    assert double.mult == hopf.mult
    assert double.delta == hopf.delta


def test_bosonize_trivial_is_group_algebra():
    result = bosonize(exterior_finite(0))
    assert result.dimension == 2
    g = result.labels.index("g")
    assert result.mult[(g, g)] == {0: Fraction(1)}  # g^2 = 1
    assert check_finite_hopf_axioms(result).ok


def test_bosonize_smash_coproduct_on_primitive():
    # D(1 x v) = (1 x v) (x) (g x 1) + (1 x 1) (x) (1 x v) on every primitive v
    for n in range(7):
        base = exterior_finite(n)
        result = bosonize(base)
        g = result.labels.index("g")
        unit = base.labels.index("1")
        assert result.labels[base.dimension + unit] == "g"
        for i in range(n):
            v = base.labels.index(f"v{i + 1}")
            expected = {(v, base.dimension + unit): Fraction(1), (unit, v): Fraction(1)}
            assert result.delta[v] == expected
            assert result.delta[v][(v, g)] == 1


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_bosonization_is_purely_even(n):
    # an ordinary Hopf algebra: its tensor square multiplies with no sign
    result = bosonize(exterior_finite(n))
    assert result.parity == [0] * result.dimension


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bosonize_ordinary_hopf_axioms(n):
    result = bosonize(exterior_finite(n))
    assert result.dimension == 2 ** (n + 1)
    assert result.antipode is not None
    assert check_finite_hopf_axioms(result).ok


def test_bosonization_stores_no_empty_cell_and_composes_with_its_antipode():
    # a missing pair is a zero product, so every stored cell is nonzero
    for n in range(4):
        base = exterior_finite(n)
        result = bosonize(base)
        assert all(cell and all(cell.values()) for cell in result.mult.values())
        assert len(result.mult) == 4 * len(base.mult)
    # S(g^s (x) v) has g^{s+1}: the antipode is not diagonal
    hopf = bosonize(exterior_finite(2))
    dim = hopf.dimension
    s = [[hopf.antipode[j].get(k, 0) for k in range(dim)] for j in range(dim)]
    assert any(s[j][k] for j in range(dim) for k in range(dim) if j != k)
    for seed in range(10):
        rng = random.Random(seed)
        f = {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for k in range(dim)}
        f = {k: c for k, c in f.items() if c}
        dense = [sum(s[j][k] * f.get(k, 0) for k in range(dim)) for j in range(dim)]
        assert compose_with_antipode(hopf, f) == {j: x for j, x in enumerate(dense) if x}


def _z3_times_exterior_1():
    """kZ3 (x) L(1) on e_a v^b (index 2a + b): g group-like of order 3, v odd
    primitive, e_a e_c = e_{a+c}, S(e_a v^b) = (-1)^b e_{-a} v^b."""
    basis = [(a, b) for a in range(3) for b in (0, 1)]
    return FiniteDimHopf(
        labels=["1", "v", "g", "g.v", "g2", "g2.v"],
        parity=[b for _, b in basis],
        unit={0: 1},
        mult={(2 * a + b, 2 * c + d): {2 * ((a + c) % 3) + b + d: 1}
              for a, b in basis for c, d in basis if not (b and d)},
        delta={2 * a + b: ({(2 * a + 1, 2 * a): 1, (2 * a, 2 * a + 1): 1} if b
                           else {(2 * a, 2 * a): 1})
               for a, b in basis},
        counit=[1 - b for _, b in basis],
        antipode={2 * a + b: {2 * (-a % 3) + b: -1 if b else 1} for a, b in basis},
    )


BOSONIZATION_BASES = (
    [(f"exterior[{n}]", lambda n=n: exterior_finite(n)) for n in range(5)]
    + [(f"dual-exterior[{n}]", lambda n=n: dual_hopf(exterior_finite(n))) for n in range(5)]
    + [(f"presentation[{n}]", lambda n=n: finite_from_presentation(exterior_hopf(n)))
       for n in range(5)]
    # ordinary bases whose antipode is not diagonal
    + [(f"bosonized-exterior[{n}]", lambda n=n: bosonize(exterior_finite(n))) for n in range(3)]
    + [("z3-times-exterior[1]", _z3_times_exterior_1)]
)


@pytest.mark.parametrize("build", [b for _, b in BOSONIZATION_BASES],
                         ids=[name for name, _ in BOSONIZATION_BASES])
def test_bosonization_antipode_equals_solved_convolution_inverse(build):
    base = build()
    assert check_finite_hopf_axioms(base).ok
    result = bosonize(base)
    assert result.antipode == solved_antipode(result)
    assert {type(c) for vec in result.antipode.values() for c in vec.values()} == {int}
    assert check_finite_hopf_axioms(result).ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wrong_base_antipode_fails_the_bosonization(n):
    # S(v1) = +v1 is carried into the bosonization, whose antipode check then fails at v1
    base = exterior_finite(n)
    v1 = base.labels.index("v1")
    base.antipode[v1] = {v1: 1}
    report = check_finite_hopf_axioms(bosonize(base))
    assert {c["name"]: c.get("witness", "") for c in report.failures()} == {
        "antipode": "antipode identity fails at v1",
    }


def test_base_without_antipode_gives_bosonization_without_one():
    base = exterior_finite(2)
    base.antipode = None
    result = bosonize(base)
    assert result.antipode is None
    report = check_finite_hopf_axioms(result)
    assert {c["name"]: c.get("witness", "") for c in report.failures()} == {
        "antipode": "no antipode table",
    }


def test_integrals_lambda_one():
    hopf = exterior_finite(1)
    space = integral_space(hopf)
    assert space.dimension == 1
    assert space.basis[0] == {1: Fraction(1)}  # vanishes on 1, takes 1 on v
    assert space.parity == 1


def test_integrals_lambda_two_is_top_dual():
    hopf = exterior_finite(2)
    space = integral_space(hopf)
    assert space.dimension == 1
    top = hopf.labels.index("v1v2")
    assert space.basis[0] == {top: Fraction(1)}
    assert space.parity == 0


def test_trivial_hopf_integral_is_counit():
    space = integral_space(exterior_finite(0))
    assert space.dimension == 1
    assert space.basis[0].get(0) == 1  # integral of 1 is nonzero: linear reductivity


def test_bosonization_integral_space_is_one_dimensional():
    result = bosonize(exterior_finite(2))
    space = integral_space(result)
    assert space.dimension == 1
    assert len(space.right_basis) == 1


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_integral_dimension_parity_and_antipode(n):
    hopf = exterior_finite(n)
    space = integral_space(hopf)
    assert space.dimension == 1
    assert space.parity == n % 2
    assert len(space.right_basis) == 1
    assert is_left_integral(hopf, space.basis[0])
    assert is_left_integral(hopf, {0: Fraction(1)}) == (n == 0)  # the dual of 1
    composed = compose_with_antipode(hopf, space.basis[0])
    assert is_right_integral(hopf, composed)


def _coefficient_types(hopf):
    found = set()
    for table in (hopf.mult, hopf.delta, hopf.antipode):
        for vec in table.values():
            found.update(type(c) for c in vec.values())
    return found


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_exterior_dual_and_bosonization_tables_are_int(n):
    hopf = exterior_finite(n)
    assert _coefficient_types(hopf) == {int}
    assert _coefficient_types(dual_hopf(hopf)) == {int}
    assert _coefficient_types(bosonize(hopf)) == {int}


def test_truncated_dual_product_is_int_and_spo_pair_data_is_fraction():
    from superalg import glmn_presentation, spo_pair, truncated_dual

    dual = truncated_dual(glmn_presentation(1, 1), 3)
    assert {type(c) for vec in dual.product.values() for c in vec.values()} == {int}
    lie = spo_pair(2)
    # the even-even, odd-even (the action), even-odd and odd-odd cells
    kinds = {(lie.parity[i], lie.parity[j]) for i, j in lie.bracket}
    assert kinds == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert {type(c) for vec in lie.bracket.values() for c in vec.values()} == {Fraction}


@pytest.mark.parametrize("n", [0, 1, 2, 4, 6])
def test_integral_of_int_tables_is_fraction(n):
    space = integral_space(exterior_finite(n))
    assert space.basis == [{2 ** n - 1: 1}]
    for vec in space.basis + space.right_basis:
        assert all(type(c) is Fraction for c in vec.values())
