import random
from fractions import Fraction
from itertools import product as cartesian

import pytest

from superalg import exterior_finite, table
from superalg.core import F1

# k[x]/(x^3) on 1, x, x^2: e_i e_j = e_{i+j}, zero past degree 2
DEGREE = [0, 1, 2]


def truncated_polynomials():
    return {(i, j): {i + j: F1} for i in range(3) for j in range(3) if i + j <= 2}


def constants(tab, dim):
    """c[i][j][k]: the dense structure constants."""
    return [[[tab.get((i, j), {}).get(k, 0) for k in range(dim)] for j in range(dim)] for i in range(dim)]


def dense_product(tab, dim, u, v):
    c = constants(tab, dim)
    out = [sum(u.get(i, 0) * v.get(j, 0) * c[i][j][k] for i in range(dim) for j in range(dim))
           for k in range(dim)]
    return {k: x for k, x in enumerate(out) if x}


def brute_force_bad_triples(tab, dim, degree=None, bound=None):
    c = constants(tab, dim)
    span = range(dim)
    bad = []
    for i, j, k in cartesian(span, repeat=3):
        if degree is not None and degree[i] + degree[j] + degree[k] > bound:
            continue
        lhs = [sum(c[i][j][t] * c[t][k][r] for t in span) for r in span]
        rhs = [sum(c[j][k][t] * c[i][t][r] for t in span) for r in span]
        if lhs != rhs:
            bad.append((i, j, k))
    return bad


def test_truncated_polynomials_are_associative_and_unital():
    tab = truncated_polynomials()
    assert table.first_nonunital(tab, 3, {0: F1}) is None
    assert table.first_nonassociative(tab, 3) is None
    assert table.first_nonassociative(tab, 3, DEGREE, 2) is None


def test_wrong_unit_constant_is_found_first_in_order():
    tab = truncated_polynomials()
    tab[(0, 1)] = {1: Fraction(2)}  # 1 x = 2x
    assert table.first_nonunital(tab, 3, {0: F1}) == 1
    # (1 1) x = 2x but 1 (1 x) = 4x
    assert table.first_nonassociative(tab, 3) == (0, 0, 1)
    assert table.first_nonassociative(tab, 3, DEGREE, 2) == (0, 0, 1)


def test_bad_triple_above_the_degree_bound_is_skipped():
    tab = truncated_polynomials()
    tab[(1, 2)] = {2: F1}  # x x^2 = x^2, although x^3 lies past the bound
    assert table.first_nonunital(tab, 3, {0: F1}) is None
    # (x x) x = x^2 x = 0 but x (x x) = x x^2 = x^2, at degree 3
    assert table.first_nonassociative(tab, 3) == (1, 1, 1)
    assert table.first_nonassociative(tab, 3, DEGREE, 2) is None
    assert table.first_nonassociative(tab, 3, DEGREE, 3) == (1, 1, 1)


def test_negative_bound_checks_nothing():
    tab = truncated_polynomials()
    tab[(0, 0)] = {}
    assert table.first_nonassociative(tab, 3, DEGREE, -1) is None


def test_add_into_scales_and_drops_cancellations():
    out = {0: F1, 1: Fraction(1, 2)}
    table.add_into(out, {1: F1, 2: Fraction(3)}, Fraction(-1, 2))
    assert out == {0: F1, 2: Fraction(-3, 2)}
    table.add_into(out, {5: F1}, 0)
    assert out == {0: F1, 2: Fraction(-3, 2)}


def test_image_applies_rows():
    rows = {0: {1: F1}, 1: {0: F1, 1: Fraction(2)}}
    assert table.image(rows, {0: Fraction(2), 1: F1}) == {0: F1, 1: Fraction(4)}
    assert table.image(rows, {0: Fraction(-2), 1: F1}) == {0: F1}


@pytest.mark.parametrize("seed", range(12))
def test_products_and_scans_match_dense_oracle(seed):
    # Lambda(3) with one structure constant replaced at random
    rng = random.Random(seed)
    dim = 8
    tab = {key: dict(cell) for key, cell in exterior_finite(3).mult.items() if cell}
    key = (rng.randrange(dim), rng.randrange(dim))
    cell = {**tab.get(key, {}), rng.randrange(dim): Fraction(rng.randint(-2, 2))}
    tab[key] = {k: c for k, c in cell.items() if c}
    u = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for i in range(dim)}
    u = {i: c for i, c in u.items() if c}
    v = {i: Fraction(rng.randint(-3, 3)) for i in range(dim) if rng.random() < 0.5}
    v = {i: c for i, c in v.items() if c}
    assert table.product(tab, u, v) == dense_product(tab, dim, u, v)
    assert table.times_basis(tab, u, key[1]) == dense_product(tab, dim, u, {key[1]: F1})
    assert table.basis_times(tab, key[0], u) == dense_product(tab, dim, {key[0]: F1}, u)
    bad = brute_force_bad_triples(tab, dim)
    assert table.first_nonassociative(tab, dim) == (bad[0] if bad else None)
    degree = [bin(i).count("1") for i in range(dim)]  # any nonnegative grading
    bad = brute_force_bad_triples(tab, dim, degree, 4)
    assert table.first_nonassociative(tab, dim, degree, 4) == (bad[0] if bad else None)


def test_transpose_swaps_keys_and_adds_requested_rows():
    rows = {0: {1: 2, 2: -1}, 1: {2: Fraction(3, 2)}}
    assert table.transpose(rows) == {1: {0: 2}, 2: {0: -1, 1: Fraction(3, 2)}}
    assert table.transpose(rows, range(4)) == {
        0: {}, 1: {0: 2}, 2: {0: -1, 1: Fraction(3, 2)}, 3: {},
    }
    assert table.transpose(table.transpose(rows)) == rows
    assert table.transpose({}, range(2)) == {0: {}, 1: {}}


def test_transpose_of_a_product_is_its_dual_coproduct():
    # k[x]/(x^3): Delta(e_k) = sum over i + j = k of e_i (x) e_j, all coefficients kept as given
    tab = truncated_polynomials()
    delta = table.transpose(tab, range(3))
    assert delta == {
        0: {(0, 0): F1},
        1: {(0, 1): F1, (1, 0): F1},
        2: {(0, 2): F1, (1, 1): F1, (2, 0): F1},
    }
    assert all(type(c) is Fraction for row in delta.values() for c in row.values())
    assert table.transpose(delta) == tab
