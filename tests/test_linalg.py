"""The sparse elimination core against a dense Gauss-Jordan oracle.

``dense_rref`` and the three solvers built on it are the list-of-lists
elimination the package used before its rows became sparse; reduced row
echelon form is unique, so both must agree exactly on every input.
"""

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import dense_rows, mat_mul, sparse_rows
from superalg import linalg
from superalg.table import add_into

F0, F1 = Fraction(0), Fraction(1)


# --- dense oracle ---------------------------------------------------------------


def dense_rref(matrix):
    m = [row[:] for row in matrix]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = F1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def dense_nullspace(matrix, cols):
    reduced, pivots = dense_rref(matrix) if matrix else ([], [])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [F0] * cols
        v[fc] = F1
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def dense_solve(a, b, cols):
    aug = [a[i][:] + [b[i]] for i in range(len(a))]
    reduced, pivots = dense_rref(aug)
    if cols in pivots:
        return None
    x = [F0] * cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][cols]
    return x


def dense_invert(matrix):
    n = len(matrix)
    aug = [matrix[i][:] + [F1 if i == j else F0 for j in range(n)] for i in range(n)]
    reduced, pivots = dense_rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced[:n]]


# --- helpers --------------------------------------------------------------------


def sparse(matrix):
    return [{j: c for j, c in enumerate(row) if c} for row in matrix]


def invert_dense(matrix):
    """``linalg.invert`` on a dense matrix, read back as a dense matrix."""
    inverse = linalg.invert(sparse_rows(matrix))
    return None if inverse is None else dense_rows(inverse, len(matrix))


def as_dict(vec):
    return {j: c for j, c in enumerate(vec) if c}


def assert_all_fractions(rows):
    for row in rows:
        assert all(type(c) is Fraction for c in row.values())


def check_against_oracle(matrix, cols, rhs):
    rows = sparse(matrix)
    before = [dict(row) for row in rows]

    reduced, pivots = linalg.rref(rows)
    dense, dense_pivots = dense_rref(matrix)
    assert pivots == dense_pivots
    assert reduced == sparse(dense[:len(dense_pivots)])
    assert_all_fractions(reduced)

    kernel = linalg.nullspace(rows, cols)
    assert kernel == [as_dict(v) for v in dense_nullspace(matrix, cols)]
    assert_all_fractions(kernel)
    for vec in kernel:
        assert all(sum(c * vec.get(j, 0) for j, c in row.items()) == 0 for row in rows)

    x = linalg.solve(rows, rhs, cols)
    expected = dense_solve(matrix, rhs, cols)
    assert x == (None if expected is None else as_dict(expected))
    if x is not None:
        assert_all_fractions([x])
        assert [sum(c * x.get(j, 0) for j, c in row.items()) for row in rows] == rhs

    if len(matrix) == cols:
        assert invert_dense(matrix) == dense_invert(matrix)
    assert rows == before  # the input rows are left as they were


def random_matrix(rng, rows, cols, rank, density):
    """A rows x cols rational matrix of rank <= ``rank`` with many zeros."""
    def entry():
        if rng.random() > density:
            return F0
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    left = [[entry() for _ in range(rank)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(rank)]
    if rank == 0:
        return [[F0] * cols for _ in range(rows)]
    return mat_mul(left, right) if rows else []


# --- tests ------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_seeded_matrices_match_dense_oracle(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    rank = rng.randint(0, min(rows, cols))
    matrix = random_matrix(rng, rows, cols, rank, rng.choice([0.3, 0.6, 1.0]))
    if rng.random() < 0.5:  # a consistent right-hand side
        sol = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        rhs = [sum((a * s for a, s in zip(row, sol)), F0) for row in matrix]
    else:
        rhs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rows)]
    check_against_oracle(matrix, cols, rhs)


@pytest.mark.parametrize("seed", range(10))
def test_seeded_square_matrices_invert_like_dense_oracle(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(1, 6)
    full = random_matrix(rng, n, n, n, 0.5)
    singular = random_matrix(rng, n, n, n - 1, 0.8)
    for matrix in (full, singular):
        assert invert_dense(matrix) == dense_invert(matrix)
    assert linalg.invert(sparse_rows(singular)) is None


@pytest.mark.parametrize("seed", range(10))
def test_sparse_inverse_matches_dense_invert(seed):
    # sparse rows in and out, all n rows present and no zero stored; a
    # matrix with an empty row is singular
    rng = random.Random(2000 + seed)
    n = rng.randint(1, 6)
    matrix = random_matrix(rng, n, n, n, 0.5)
    with_empty_row = [row[:] for row in matrix]
    with_empty_row[rng.randrange(n)] = [F0] * n
    for m in (matrix, with_empty_row):
        inverse, expected = linalg.invert(sparse_rows(m)), dense_invert(m)
        assert inverse == (None if expected is None else sparse_rows(expected))
        if inverse is not None:
            assert list(inverse) == list(range(n))
            assert all(c for row in inverse.values() for c in row.values())
    assert linalg.invert(sparse_rows(with_empty_row)) is None
    assert linalg.invert({}) == sparse_rows(dense_invert([])) == {}


coefficient = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=5),
)


@st.composite
def systems(draw):
    rows = draw(st.integers(min_value=0, max_value=6))
    cols = draw(st.integers(min_value=0, max_value=6))
    matrix = [[draw(coefficient) for _ in range(cols)] for _ in range(rows)]
    # repeat a row now and then, so rank deficiency is common
    if rows >= 2 and draw(st.booleans()):
        matrix[-1] = [draw(coefficient) * c for c in matrix[0]]
    rhs = [draw(coefficient) for _ in range(rows)]
    return matrix, cols, rhs


@given(systems())
@settings(max_examples=200, deadline=None)
def test_hypothesis_systems_match_dense_oracle(system):
    matrix, cols, rhs = system
    if matrix:
        check_against_oracle(matrix, cols, rhs)
    else:
        assert linalg.rref([]) == ([], [])
        assert linalg.solve([], [], cols) == {}


def test_zero_rows_and_columns():
    matrix = [[F0, F1, F0, Fraction(2)],
              [F0, F0, F0, F0],
              [F0, Fraction(2), F0, Fraction(4)]]
    check_against_oracle(matrix, 4, [F1, F0, Fraction(2)])
    check_against_oracle(matrix, 4, [F1, F1, F0])
    assert linalg.nullspace(sparse(matrix), 4) == [{0: F1}, {2: F1}, {3: F1, 1: -2}]


def test_inconsistent_system_has_no_solution():
    # x + y = 1 and 2x + 2y = 3
    rows = [{0: 1, 1: 1}, {0: 2, 1: 2}]
    assert linalg.solve(rows, [1, 3], 2) is None
    assert linalg.solve(rows, [1, 2], 2) == {0: F1}
    # an empty row with a nonzero right-hand side
    assert linalg.solve([{}], [F1], 3) is None


def test_empty_shapes():
    # 0 x n: no equations, so every unknown is free
    assert linalg.rref([]) == ([], [])
    assert linalg.nullspace([], 3) == [{0: F1}, {1: F1}, {2: F1}]
    assert linalg.solve([], [], 3) == {}
    # n x 0: no unknowns; consistent only with a zero right-hand side
    assert linalg.rref([{}, {}]) == ([], [])
    assert linalg.nullspace([{}, {}], 0) == []
    assert linalg.solve([{}, {}], [F0, F0], 0) == {}
    assert linalg.solve([{}, {}], [F0, F1], 0) is None
    assert linalg.invert({}) == {}


def test_integer_rows_give_fraction_answers():
    rows = [{0: 2, 1: 1}, {1: 3}]
    reduced, pivots = linalg.rref(rows)
    assert pivots == [0, 1]
    assert reduced == [{0: F1}, {1: F1}]
    assert_all_fractions(reduced)
    x = linalg.solve(rows, [1, 1], 2)
    assert x == {0: Fraction(1, 3), 1: Fraction(1, 3)}
    assert_all_fractions([x])
    kernel = linalg.nullspace([{0: 1, 1: -1}], 2)
    assert kernel == [{1: F1, 0: F1}]
    assert_all_fractions(kernel)
    inverse = linalg.invert(sparse_rows([[2, 0], [0, 1]]))
    assert dense_rows(inverse, 2) == [[Fraction(1, 2), F0], [F0, F1]]
    assert all(type(c) is Fraction for row in inverse.values() for c in row.values())


# --- coordinates in a nullspace basis ----------------------------------------------


def solve_coordinates(basis, vec, cols):
    """Coordinates of ``vec`` in ``basis`` by elimination: the oracle."""
    span = [{a: b[i] for a, b in enumerate(basis) if i in b} for i in range(cols)]
    return linalg.solve(span, [vec.get(i, F0) for i in range(cols)], len(basis))


@st.composite
def nullspace_probes(draw):
    matrix, cols, _ = draw(systems())
    basis = linalg.nullspace(sparse(matrix), cols)
    # callers rescale their basis vectors (sp_basis and primitives do)
    scales = [draw(coefficient.filter(bool)) for _ in basis]
    basis = [{k: c * s for k, c in vec.items()} for vec, s in zip(basis, scales)]
    inside = {}
    for vec in basis:
        add_into(inside, vec, draw(coefficient))
    anywhere = as_dict([draw(coefficient) for _ in range(cols)])
    nudged = dict(inside)
    if cols:
        add_into(nudged, {draw(st.integers(0, cols - 1)): F1})
    return basis, cols, [inside, anywhere, nudged]


@given(nullspace_probes())
@settings(max_examples=200, deadline=None)
def test_span_coordinates_match_solve(probe):
    basis, cols, vectors = probe
    coordinates = linalg.span_coordinates(basis)
    for vec in vectors:
        coords = coordinates(vec)
        assert coords == solve_coordinates(basis, vec, cols)
        if coords is not None:
            assert_all_fractions([coords])
    assert coordinates(vectors[0]) is not None


def test_span_coordinates_outside_the_span_and_without_private_columns():
    basis = linalg.nullspace([{0: 1, 1: 1, 2: 1}], 3)  # x + y + z = 0
    assert basis == [{1: F1, 0: -F1}, {2: F1, 0: -F1}]
    coordinates = linalg.span_coordinates(basis)
    assert coordinates({0: -3, 1: 1, 2: 2}) == {0: F1, 1: Fraction(2)}
    assert coordinates({0: 1, 1: 1, 2: 2}) is None  # right free entries, wrong sum
    assert coordinates({0: 1}) is None  # no free entries at all, but not zero
    assert coordinates({}) == {}
    assert linalg.span_coordinates([])({}) == {}
    assert linalg.span_coordinates([])({0: 1}) is None
    with pytest.raises(ValueError):
        linalg.span_coordinates([{0: 1, 1: 1}, {0: 1, 1: 2}])
