import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from superalg import (
    GeneratorSet,
    GeneratorSetMismatch,
    SuperPoly,
    UnknownGenerator,
    evaluate_hom,
    parse_poly,
)
from superalg.core import SuperMonomial, mul_monomials

from conftest import GENS, homogeneous_polys, monomials, oracle_mul_monomials, polys

X = SuperPoly.generator(GENS, "x")
T1 = SuperPoly.generator(GENS, "t1")
T2 = SuperPoly.generator(GENS, "t2")
ONE = SuperPoly.one(GENS)


def bubble_sort_sign(gens, factors):
    """Oracle: sort odd factors by adjacent swaps, counting sign by hand."""
    odd = [gens.position(f) for f in factors if gens.parity(f) == 1]
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(odd) - 1):
            if odd[i] > odd[i + 1]:
                odd[i], odd[i + 1] = odd[i + 1], odd[i]
                sign = -sign
                changed = True
    for i in range(len(odd) - 1):
        if odd[i] == odd[i + 1]:
            return 0
    return sign


def product_of_generators(gens, factors):
    product = SuperPoly.one(gens)
    for name in factors:
        product = product * SuperPoly.generator(gens, name)
    return product


def test_normalize_product_examples():
    """A product of generators normalizes to one sorted monomial with its Koszul sign."""
    assert product_of_generators(GENS, ["t2", "t1"]).terms == {SuperMonomial((0, 0), 0b11): -1}
    assert product_of_generators(GENS, ["t2", "t1"]) == -(T1 * T2)
    assert product_of_generators(GENS, ["x", "t1"]).terms == {SuperMonomial((1, 0), 0b1): 1}
    assert product_of_generators(GENS, ["t1", "t1"]).is_zero()


def test_normalize_product_unknown_symbol():
    with pytest.raises(UnknownGenerator):
        product_of_generators(GENS, ["nope"])


@given(st.lists(st.sampled_from(["x", "y", "t1", "t2", "t3"]), max_size=7))
def test_generator_product_sign_matches_bubble_sort_oracle(factors):
    product = product_of_generators(GENS, factors)
    sign = bubble_sort_sign(GENS, factors)
    assert len(product.terms) == abs(sign)
    assert all(c == sign for c in product.terms.values())


@given(monomials(), monomials())
@example(SuperMonomial((0, 0), 0), SuperMonomial((0, 0), 0))
@example(SuperMonomial((0, 0), 0), SuperMonomial((1, 0), 0b101))
@example(SuperMonomial((0, 2), 0b110), SuperMonomial((0, 0), 0))
@example(SuperMonomial((0, 0), 0b110), SuperMonomial((0, 0), 0b001))
@example(SuperMonomial((0, 0), 0b010), SuperMonomial((0, 0), 0b011))
def test_mul_monomials_matches_tuple_merge_oracle(m1, m2):
    assert mul_monomials(m1, m2) == oracle_mul_monomials(m1, m2)


def test_add_examples():
    assert (T1 + (-T1)).is_zero()
    theta = T1 * T2
    assert (ONE + theta) + (ONE - theta) == ONE.scale(2)
    assert (X + T1).parity_of() == "mixed"


def test_add_generator_set_mismatch():
    other = GeneratorSet(odds=["s"])
    with pytest.raises(GeneratorSetMismatch):
        T1 + SuperPoly.generator(other, "s")


def test_mul_examples():
    assert T1 * T2 == -(T2 * T1)
    assert (T1 * T1).is_zero()
    el = ONE + T1 * T2
    assert el * el == ONE + (T1 * T2).scale(2)
    assert X * T1 == T1 * X


@given(homogeneous_polys(), homogeneous_polys())
def test_super_commutativity(a, b):
    pa = 1 if a.parity_of() == "odd" else 0
    pb = 1 if b.parity_of() == "odd" else 0
    sign = -1 if pa and pb else 1
    assert a * b == (b * a).scale(sign)


@given(polys(), polys(), polys())
def test_mul_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys())
def test_mul_unital(a):
    assert ONE * a == a
    assert a * ONE == a


def test_parity_examples():
    assert (T1 * T2).parity_of() == "even"
    assert (X * T1).parity_of() == "odd"
    assert SuperPoly.zero(GENS).parity_of() == "even"


def test_evaluate_hom_examples():
    target = GeneratorSet(odds=["h1", "h2"])
    h1 = SuperPoly.generator(target, "h1")
    h2 = SuperPoly.generator(target, "h2")
    one = SuperPoly.one(target)
    images = {"x": one + h1 * h2, "y": one, "t1": h1, "t2": h2, "t3": SuperPoly.zero(target)}
    assert evaluate_hom(T1 * T2, images, one) == h1 * h2
    assert evaluate_hom(X * X, images, one) == one + (h1 * h2).scale(2)
    assert evaluate_hom(T1 * T1, images, one).is_zero()


def test_evaluate_hom_missing_generator():
    with pytest.raises(UnknownGenerator):
        evaluate_hom(X, {"x": ONE}, ONE)


@given(polys(), polys())
def test_evaluate_hom_multiplicative(p, q):
    # substitution into another free algebra is an algebra map
    target = GeneratorSet(evens=["u"], odds=["s1", "s2"])
    u = SuperPoly.generator(target, "u")
    s1 = SuperPoly.generator(target, "s1")
    s2 = SuperPoly.generator(target, "s2")
    one = SuperPoly.one(target)
    images = {"x": u, "y": u * u, "t1": s1, "t2": s2, "t3": s1.scale(3)}
    f = lambda r: evaluate_hom(r, images, one)
    assert f(p * q) == f(p) * f(q)
    assert f(p + q) == f(p) + f(q)


def test_print_parse_round_trip_examples():
    p = parse_poly(GENS, "3/2 * x^2 * t1*t2 - y + 7")
    assert parse_poly(GENS, str(p)) == p
    assert str(SuperPoly.zero(GENS)) == "0"


def test_huge_parsed_powers_come_from_repeated_squaring():
    # e successive products would take minutes here; squaring takes about 31
    assert parse_poly(GENS, "t1^2000000000") == SuperPoly.zero(GENS)
    assert parse_poly(GENS, "x^1000000000").terms == {SuperMonomial((1000000000, 0), 0): 1}


@given(polys(max_terms=3), st.integers(0, 9))
def test_power_is_the_repeated_product(p, e):
    product = SuperPoly.one(GENS)
    for _ in range(e):
        product = product * p
    assert p ** e == product


@given(polys())
def test_print_parse_round_trip(p):
    assert parse_poly(GENS, str(p)) == p


def test_generator_set_declaration_round_trip():
    from superalg.parsing import format_generator_set, parse_generator_set

    gens = parse_generator_set("even x, y; odd t1, t2, t3;")
    assert gens == GENS
    assert parse_generator_set(format_generator_set(gens)) == gens
