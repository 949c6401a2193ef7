import itertools
import json
import re
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import (
    coefficients, identity, mask_of, mat_mul, oracle_product, poly_mat_inv, poly_mat_mul,
    series_matrix_inv,
)
from superalg import (
    GeneratorSet,
    GeneratorSetMismatch,
    GrassmannAlgebra,
    NotAPoint,
    NotInvertible,
    PointSampler,
    SuperMatrix,
    invert_element,
)
from superalg import grassmann, linalg
from superalg.core import SuperMonomial, SuperPoly
from superalg.grassmann import (
    _body, _int_add, _int_neg, _poly_mat_mul, _split, _to_ints, grassmann_matrix_inv,
)

ALG = GrassmannAlgebra(4)


def point_1_1(x, y, p, q, alg=ALG):
    return SuperMatrix.from_blocks([[x]], [[p]], [[q]], [[y]], alg)


def test_invert_scalar():
    assert invert_element(ALG.scalar(2)) == ALG.scalar(Fraction(1, 2))


def test_invert_one_plus_blade():
    el = ALG.one() + ALG.theta(1) * ALG.theta(2)
    inv = invert_element(el)
    assert inv == ALG.one() - ALG.theta(1) * ALG.theta(2)
    assert el * inv == ALG.one()


def test_invert_zero_body_raises():
    with pytest.raises(NotInvertible):
        invert_element(ALG.theta(1))


def test_invert_sampled_elements():
    sampler = PointSampler(1, 1, 4, seed=99)
    for i in range(40):
        entry = sampler.sample(i).block_x()[0][0]
        assert invert_element(entry) * entry == ALG.one()


def test_identity_multiplication():
    sampler = PointSampler(2, 2, 4, seed=5)
    ident = SuperMatrix.identity(2, 2, sampler.alg)
    a = sampler.sample(0)
    assert ident * a == a
    assert a * ident == a


def test_1_1_square_has_x_block_one_plus_theta_theta():
    pt = point_1_1(ALG.one(), ALG.one(), ALG.theta(1), ALG.theta(2))
    square = pt * pt
    assert square.block_x()[0][0] == ALG.one() + ALG.theta(1) * ALG.theta(2)


def test_matrix_product_associative_on_points():
    sampler = PointSampler(2, 1, 5, seed=17)
    a, b, c = (sampler.sample(i) for i in range(3))
    assert (a * b) * c == a * (b * c)


def test_inverse_of_identity():
    ident = SuperMatrix.identity(2, 1, ALG)
    assert ident.inv() == ident


def test_1_1_inverse_x_block():
    pt = point_1_1(ALG.one(), ALG.one(), ALG.theta(1), ALG.theta(2))
    inv = pt.inv()
    assert inv.block_x()[0][0] == ALG.one() + ALG.theta(1) * ALG.theta(2)
    ident = SuperMatrix.identity(1, 1, ALG)
    assert pt * inv == ident
    assert inv * pt == ident


def test_inverse_on_samples():
    for (m, n) in ((1, 1), (2, 1), (2, 2), (3, 2)):
        sampler = PointSampler(m, n, 5, seed=10 * m + n)
        ident = SuperMatrix.identity(m, n, sampler.alg)
        for i in range(10):
            a = sampler.sample(i)
            assert a * a.inv() == ident
            assert a.inv() * a == ident


def test_group_axioms_all_shapes_up_to_three():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            sampler = PointSampler(m, n, 6, seed=7 * m + n)
            ident = SuperMatrix.identity(m, n, sampler.alg)
            a, b, c = (sampler.sample(i) for i in range(3))
            product = a * b
            assert product.is_gl_point()
            assert (product * c) == (a * (b * c))
            assert ident * a == a and a * ident == a
            assert a * a.inv() == ident


def test_is_gl_point():
    ident = SuperMatrix.identity(1, 1, ALG)
    assert ident.is_gl_point()
    t = ALG.theta
    nilpotent = t(1) * t(2)  # even, with zero body
    rank_one = [[ALG.one() + t(3) * t(4), ALG.one()], [ALG.one(), ALG.one()]]
    parity, singular = "not a GL(m|n) point", "matrix body is singular"
    not_points = [
        (point_1_1(ALG.theta(1), ALG.one(), ALG.zero(), ALG.zero()), parity),  # bad parity
        (point_1_1(ALG.one(), ALG.one(), ALG.scalar(2), ALG.zero()), parity),  # bad parity
        (point_1_1(ALG.one() + ALG.theta(1), ALG.one(), ALG.zero(), ALG.zero()), parity),  # mixed
        (point_1_1(ALG.zero(), ALG.one(), ALG.zero(), ALG.zero()), singular),  # X body
        (point_1_1(nilpotent, ALG.one(), t(3), t(4)), singular),  # X body
        (point_1_1(ALG.one(), nilpotent, t(3), t(4)), singular),  # Y body
        (point_1_1(ALG.scalar(2), ALG.zero(), ALG.zero(), t(1)), singular),  # Y body
        (SuperMatrix.from_blocks(rank_one, [[], []], [], [], ALG), singular),  # X, n = 0
        (SuperMatrix.from_blocks([], [], [[], []], rank_one, ALG), singular),  # Y, m = 0
    ]
    # a point keeps its body inverses, None for a singular block: every later
    # call must raise the same NotAPoint, never a TypeError
    for point, reason in not_points:
        assert not point.is_gl_point()
        for method in (point.inv, point.antipode_blocks, point.decomposition_coords) * 2:
            with pytest.raises(NotAPoint, match=re.escape(reason)):
                method()
        assert not point.is_gl_point()


def cold(point):
    """A copy of ``point`` that has computed nothing yet."""
    return SuperMatrix._of(point.m, point.n, point.alg, point.ints)


POINT_CALLS = ("is_gl_point", "inv", "antipode_blocks", "decomposition_coords")


@pytest.mark.parametrize("m, n", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)])
def test_kept_values_agree_with_a_cold_copy_in_every_call_order(m, n):
    # the uncached inverse is the oracle for inv() and antipode_blocks(); a cold
    # copy's decomposition is the oracle for the warm one
    sampler = PointSampler(m, n, 4 + (m + n) % 3, seed=300 + 10 * m + n)
    for index in range(2):
        point = sampler.sample(index)
        inverse = SuperMatrix._of(m, n, sampler.alg, grassmann_matrix_inv(point.ints))
        want = {"is_gl_point": True, "inv": inverse, "antipode_blocks": inverse,
                "decomposition_coords": cold(point).decomposition_coords()}
        for order in itertools.permutations(POINT_CALLS):
            warm = cold(point)
            for name in order:
                assert getattr(warm, name)() == want[name], (index, order, name)
            assert warm == point and hash(warm) == hash(point)


def count_inversions(monkeypatch) -> dict[str, int]:
    """Count the calls of ``linalg.invert`` and ``grassmann_matrix_inv`` from now on."""
    counts = {"invert": 0, "grassmann_matrix_inv": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg, "invert", counting("invert", linalg.invert))
    monkeypatch.setattr(grassmann, "grassmann_matrix_inv",
                        counting("grassmann_matrix_inv", grassmann.grassmann_matrix_inv))
    return counts


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (1, 3), (3, 3)])
def test_a_point_inverts_each_body_block_once(monkeypatch, m, n):
    # one gl-points operation: two body inversions, and one Grassmann inverse
    # each for the point, X, Y, X - P q' and Y - Q p'
    sampler = PointSampler(m, n, 6, seed=m + 7 * n)
    point = sampler.sample(0)
    counts = count_inversions(monkeypatch)
    assert point.is_gl_point()
    inverse = point.inv()
    assert point.antipode_blocks() == inverse
    rebuilt = SuperMatrix.from_decomposition(*point.decomposition_coords(), sampler.alg)
    ident = SuperMatrix.identity(m, n, sampler.alg)
    assert point * inverse == ident and inverse * point == ident and rebuilt == point
    assert counts == {"invert": 2, "grassmann_matrix_inv": 5}
    assert point == cold(point) and hash(point) == hash(cold(point))


def test_derived_points_start_with_nothing_kept():
    sampler = PointSampler(2, 1, 5, seed=11)
    point, other = sampler.sample(0), sampler.sample(1)
    for warm in (point, other):
        warm.antipode_blocks()
    derived = [
        point * other,
        point.map_entries(lambda e: e),
        sampler.sample_even(0),
        SuperMatrix.from_decomposition(*point.decomposition_coords(), sampler.alg),
        point.inv(),
        point.antipode_blocks(),
        SuperMatrix.from_json(point.to_json()),
    ]
    for fresh in derived:
        assert fresh._body_invs is None and fresh._coord_blocks is None


def test_entries_over_another_algebra_are_rejected():
    # t3 is no generator of the one-generator algebra
    small = GrassmannAlgebra(1)
    with pytest.raises(GeneratorSetMismatch):
        point_1_1(ALG.one(), ALG.one(), ALG.theta(3), ALG.zero(), alg=small)
    with pytest.raises(GeneratorSetMismatch):
        SuperMatrix.from_decomposition([[ALG.one()]], [[ALG.one()]], [[ALG.theta(3)]],
                                       [[ALG.zero()]], small)
    with pytest.raises(GeneratorSetMismatch):
        SuperMatrix.identity(1, 1, ALG).map_entries(lambda e: e, small)


@pytest.mark.parametrize("m, n", [(0, 2), (2, 0), (1, 1), (2, 1), (2, 2)])
def test_equal_points_built_by_different_paths_hash_equal(m, n):
    # every path must land on the same gcd-reduced integer form
    sampler = PointSampler(m, n, 5, seed=50 + 10 * m + n)
    alg = sampler.alg
    ident = SuperMatrix.identity(m, n, alg)
    for i in range(4):
        a, b, c = (sampler.sample(3 * i + d) for d in range(3))
        inverse = a.inv()
        pairs = [
            (a, SuperMatrix(m, n, alg, a.rows)),
            (a, SuperMatrix.from_blocks(a.block_x(), a.block_p(), a.block_q(), a.block_y(), alg)),
            (a, SuperMatrix.from_json(a.to_json())),
            (a, SuperMatrix.from_decomposition(*a.decomposition_coords(), alg)),
            ((a * b) * c, a * (b * c)),
            (inverse * a, ident),
            (a * inverse, ident),
            (a.antipode_blocks(), inverse),
        ]
        for left, right in pairs:
            assert left == right
            assert hash(left) == hash(right)


def test_antipode_without_odd_blocks_drops_the_points_denominator():
    # the inverse [[2]] has none, but the empty P and Q blocks carry the point's 2
    half = [[ALG.scalar(Fraction(1, 2))]]
    for point in (SuperMatrix.from_blocks(half, [[]], [], [], ALG),
                  SuperMatrix.from_blocks([], [], [[]], half, ALG)):
        antipode = point.antipode_blocks()
        assert antipode == point.inv() == point.map_entries(lambda e: e.scale(4))
        assert hash(antipode) == hash(point.inv())


def test_antipode_blocks_diagonal_case():
    x = ALG.scalar(2) + ALG.theta(1) * ALG.theta(2)
    y = ALG.scalar(Fraction(1, 3))
    pt = point_1_1(x, y, ALG.zero(), ALG.zero())
    s = pt.antipode_blocks()
    assert s.block_x()[0][0] == invert_element(x)
    assert s.block_y()[0][0] == invert_element(y)
    assert s.block_p()[0][0].is_zero() and s.block_q()[0][0].is_zero()


def test_antipode_blocks_equal_inverse_on_samples():
    # the module's central oracle: Hopf antipode formulas against the group inverse
    sampler = PointSampler(2, 1, 4, seed=7)
    for i in range(25):
        a = sampler.sample(i)
        assert a.antipode_blocks() == a.inv()


def test_antipode_failure_names_a_non_point():
    # an even blade in P breaks the parity pattern
    point = point_1_1(ALG.one(), ALG.one(), ALG.blade((0, 1)), ALG.zero())
    assert point.antipode_failure() == "sampled matrix is not a point"


def test_antipode_failure_names_antipode_blocks_that_differ(monkeypatch):
    point = PointSampler(1, 1, 4, seed=5).sample(0)
    assert point.antipode_failure() is None
    monkeypatch.setattr(SuperMatrix, "antipode_blocks", lambda self: self)
    assert point.antipode_failure() == "antipode blocks differ from the inverse"


def test_antipode_failure_names_an_inverse_that_fails_the_group_law(monkeypatch):
    # the antipode blocks agree with the patched inverse, so only the group law can fail
    point = PointSampler(1, 1, 4, seed=5).sample(0)
    wrong = point * point
    monkeypatch.setattr(SuperMatrix, "inv", lambda self: wrong)
    monkeypatch.setattr(SuperMatrix, "antipode_blocks", lambda self: wrong)
    assert point.antipode_failure() == "inverse fails the group law"


def test_antipode_identity_point():
    ident = SuperMatrix.identity(2, 2, ALG)
    assert ident.antipode_blocks() == ident


def test_decomposition_identity_and_diagonal():
    ident = SuperMatrix.identity(2, 1, ALG)
    x, y, pp, qp = ident.decomposition_coords()
    assert all(e.is_zero() for row in pp for e in row)
    assert all(e.is_zero() for row in qp for e in row)
    assert SuperMatrix.from_decomposition(x, y, pp, qp, ALG) == ident


def test_decomposition_scalar_division():
    pt = point_1_1(ALG.scalar(2), ALG.one(), ALG.theta(1), ALG.zero())
    _, _, pp, _ = pt.decomposition_coords()
    assert pp[0][0] == ALG.theta(1).scale(Fraction(1, 2))


def test_decomposition_round_trip_and_parity():
    sampler = PointSampler(2, 2, 5, seed=23)
    for i in range(15):
        a = sampler.sample(i)
        x, y, pp, qp = a.decomposition_coords()
        assert SuperMatrix.from_decomposition(x, y, pp, qp, sampler.alg) == a
        for block in (pp, qp):
            for row in block:
                for e in row:
                    assert e.is_zero() or e.parity_of() == "odd"


def test_even_subgroup_closed():
    sampler = PointSampler(2, 1, 4, seed=31)
    for i in range(8):
        g = sampler.sample_even(2 * i)
        h = sampler.sample_even(2 * i + 1)
        for result in (g * h, g.inv()):
            assert all(e.is_zero() for row in result.block_p() for e in row)
            assert all(e.is_zero() for row in result.block_q() for e in row)
    # blockwise: the even subgroup multiplies like GL_m x GL_n
    g, h = sampler.sample_even(100), sampler.sample_even(101)
    gh = g * h
    assert gh.block_x() == poly_mat_mul(g.block_x(), h.block_x(), sampler.alg)
    assert gh.block_y() == poly_mat_mul(g.block_y(), h.block_y(), sampler.alg)


@pytest.mark.parametrize("m", range(4))
@pytest.mark.parametrize("n", range(4))
def test_sample_even_matches_the_blockwise_route(m, n):
    # the old route: rebuild from the SuperPoly X and Y blocks with zero P and Q
    for k, seed in ((0, 1), (4, 7), (4, 23), (6, 3)):
        sampler = PointSampler(m, n, k, seed)
        zero = sampler.alg.zero()
        for index in (0, 1, 5):
            point = sampler.sample(index)
            old = SuperMatrix.from_blocks(point.block_x(), [[zero] * n for _ in range(m)],
                                          [[zero] * m for _ in range(n)], point.block_y(),
                                          sampler.alg)
            even = sampler.sample_even(index)
            assert even == old
            assert hash(even) == hash(old)


def test_json_round_trip_and_determinism():
    sampler1 = PointSampler(2, 1, 4, seed=77)
    sampler2 = PointSampler(2, 1, 4, seed=77)
    a, b = sampler1.sample(3), sampler2.sample(3)
    assert a == b
    assert a.to_json() == b.to_json()
    assert SuperMatrix.from_json(a.to_json()) == a


@pytest.mark.parametrize("support", [[0, 0], [1, 0], [4], [-1]])
def test_blade_support_must_be_increasing_positions(support):
    with pytest.raises(ValueError, match="blade support"):
        ALG.blade(tuple(support))
    text = json.dumps({"shape": [1, 0, 4], "entries": [[[[support, [1, 1]]]]]})
    with pytest.raises(ValueError, match="blade support"):
        SuperMatrix.from_json(text)


def test_shape_mismatch_rejected():
    a = PointSampler(1, 1, 3, seed=1).sample(0)
    b = PointSampler(2, 1, 3, seed=1).sample(0)
    with pytest.raises(ValueError):
        a * b
    one = ALG.one()
    with pytest.raises(ValueError, match="wrong shape"):  # p' is 1 x 0, not 1 x 1
        SuperMatrix.from_decomposition([[one]], [[one]], [[]], [[ALG.zero()]], ALG)


@pytest.mark.parametrize("block, rows", [
    pytest.param("x", [[1], [0]], id="x-2x1"),
    pytest.param("x", [[1, 0], [0]], id="x-ragged"),
    pytest.param("y", [[1, 0]], id="y-1x2"),
    pytest.param("pprime", [[0]], id="pprime-1x1"),
    pytest.param("pprime", [[0, 0], [0, 0]], id="pprime-2x2"),
    pytest.param("qprime", [[0]], id="qprime-1x1"),
    pytest.param("qprime", [[0, 0], [0, 0]], id="qprime-2x2"),
])
def test_decomposition_with_a_wrong_block_shape_is_rejected(block, rows):
    # the coordinates of a (2|1) point: x 2 x 2, y 1 x 1, p' 2 x 1 and q' 1 x 2
    one, zero = ALG.one(), ALG.zero()
    blocks = {"x": [[one, zero], [zero, one]], "y": [[one]],
              "pprime": [[ALG.theta(1)], [zero]], "qprime": [[zero, ALG.theta(2)]]}
    assert SuperMatrix.from_decomposition(**blocks, alg=ALG).is_gl_point()
    blocks[block] = [[ALG.scalar(c) for c in row] for row in rows]
    with pytest.raises(ValueError, match="matrix has the wrong shape"):
        SuperMatrix.from_decomposition(**blocks, alg=ALG)


@pytest.mark.parametrize("x, p, q, y", [
    # x 1 x 1 with p 2 x 1: the second row of p has no row of x to join
    pytest.param([[1]], [[0], [0]], [[0]], [[1]], id="p-2x1-under-x-1x1"),
    # x 2 x 2 with p 1 x 1: the second row of x has no row of p
    pytest.param([[1, 0], [0, 1]], [[0]], [[0, 0]], [[1]], id="p-1x1-under-x-2x2"),
    pytest.param([[1, 0], [0, 1]], [[0], [0]], [[0]], [[1]], id="q-1x1"),
    pytest.param([[1, 0], [0, 1]], [[0], [0]], [[0, 0]], [[1, 0]], id="y-1x2"),
])
def test_blocks_of_the_wrong_shape_are_rejected(x, p, q, y):
    def scalars(block):
        return [[ALG.scalar(c) for c in row] for row in block]

    with pytest.raises(ValueError, match="matrix has the wrong shape"):
        SuperMatrix.from_blocks(*map(scalars, (x, p, q, y)), ALG)


def test_purely_even_shape_degenerates():
    # n = 0: no odd coordinates at all, the split is the point itself
    sampler = PointSampler(2, 0, 3, seed=4)
    a = sampler.sample(0)
    x, y, pp, qp = a.decomposition_coords()
    assert y == [] and pp == [[], []] and qp == []
    assert SuperMatrix.from_decomposition(x, y, pp, qp, sampler.alg) == a
    assert a.antipode_blocks() == a.inv()


# --- differential tests: the integer bitmask kernel against SuperPoly products

def oracle_mul(a, b, alg):
    """Each entry as a sum of ``oracle_product`` terms (``merge_odds`` signs)."""
    cols = len(b[0]) if b else 0
    return [
        [sum((oracle_product(row[k], b[k][j]) for k in range(len(b))), alg.zero())
         for j in range(cols)]
        for row in a
    ]


def oracle_identity(size, alg):
    return [[alg.one() if i == j else alg.zero() for j in range(size)] for i in range(size)]


def series_inverse(r):
    """body^-1 * sum_i (-soul/body)^i, multiplied with ``oracle_product``."""
    body = r.body()
    nilpotent = r.soul().scale(-1 / body)
    result = power = SuperPoly.one(r.gens)
    while True:
        power = oracle_product(power, nilpotent)
        if power.is_zero():
            return result.scale(1 / body)
        result = result + power


SHAPES = [(0, 2), (2, 0), (1, 1), (2, 1), (1, 3), (3, 2)]


@pytest.mark.parametrize("k", range(8))
def test_kernel_matches_oracle_on_seeded_points(k):
    for m, n in SHAPES:
        sampler = PointSampler(m, n, k, seed=1000 * k + 10 * m + n)
        alg = sampler.alg
        ident = oracle_identity(m + n, alg)
        for i in range(3):
            a, b = sampler.sample(2 * i), sampler.sample(2 * i + 1)
            assert [list(r) for r in (a * b).rows] == oracle_mul(a.rows, b.rows, alg)
            inverse = a.inv()
            assert oracle_mul(a.rows, inverse.rows, alg) == ident
            assert oracle_mul(inverse.rows, a.rows, alg) == ident
            assert a.antipode_blocks() == inverse
            # rectangular blocks, with an empty side when m or n is 0
            x, p, q, y = a.block_x(), a.block_p(), a.block_q(), a.block_y()
            for left, right in ((x, p), (q, x), (y, q), (p, y)):
                if right:
                    assert poly_mat_mul(left, right, alg) == oracle_mul(left, right, alg)
            if p and q:
                assert poly_mat_mul(p, q, alg) == oracle_mul(p, q, alg)
                assert poly_mat_mul(q, p, alg) == oracle_mul(q, p, alg)
            for entry in (e for row in x + y for e in row):
                if entry.body():
                    assert invert_element(entry) == series_inverse(entry)


def test_product_over_an_empty_inner_side_is_the_square_zero_matrix():
    # n x 0 times 0 x n: the right factor has no row that tells its columns
    for n in range(1, 4):
        assert _poly_mat_mul(([[]] * n, 1), ([], 1), n) == ([[{}] * n for _ in range(n)], 1)


@pytest.mark.parametrize("m, n", [(0, 2), (2, 0), (0, 1), (1, 0)])
def test_antipode_blocks_are_the_inverse_on_one_sided_points(m, n):
    # Q p' at m = 0 and P q' at n = 0 are square zero matrices
    for k in range(5):
        sampler = PointSampler(m, n, k, seed=100 * k + 10 * m + n)
        for i in range(4):
            a = sampler.sample(i)
            assert a.antipode_blocks() == a.inv()


@pytest.mark.parametrize("k", range(9))
def test_degree_recurrence_matches_series_on_seeded_points(k):
    # the point, its diagonal blocks and their Schur complements X - P Y^-1 Q
    # and Y - Q X^-1 P, inverted by the recurrence and by the series oracle
    for m, n in SHAPES:
        sampler = PointSampler(m, n, k, seed=1000 * k + 10 * m + n + 1)
        for i in range(3):
            a = sampler.sample(i).ints
            x, p, q, y = _split(a, m)
            matrices = [a, x, y]
            if m and n:
                matrices.append(_int_add(x, _int_neg(
                    _poly_mat_mul(_poly_mat_mul(p, series_matrix_inv(y), n), q, m))))
                matrices.append(_int_add(y, _int_neg(
                    _poly_mat_mul(_poly_mat_mul(q, series_matrix_inv(x), m), p, n))))
            for matrix in matrices:
                assert grassmann_matrix_inv(matrix) == series_matrix_inv(matrix)


HYP_ALG = GrassmannAlgebra(4)


@st.composite
def grassmann_entries(draw, alg=HYP_ALG, soul_only=False, max_terms=3):
    blades = st.lists(
        st.integers(min_value=0, max_value=alg.k - 1), unique=True,
        min_size=1 if soul_only else 0, max_size=alg.k,
    ).map(lambda support: SuperMonomial((), mask_of(support)))
    return SuperPoly(alg.gens, draw(st.dictionaries(blades, coefficients, max_size=max_terms)))


@st.composite
def grassmann_matrices(draw, rows, cols):
    return [[draw(grassmann_entries()) for _ in range(cols)] for _ in range(rows)]


scalars = st.one_of(st.just(Fraction(0)), coefficients)


@st.composite
def invertible_matrices(draw):
    """Body L * U (unit lower times upper with nonzero diagonal) plus a soul."""
    size = draw(st.integers(min_value=1, max_value=3))
    lower, upper = identity(size), identity(size)
    for i in range(size):
        upper[i][i] = draw(coefficients)
        for j in range(i):
            lower[i][j] = draw(scalars)
            upper[j][i] = draw(scalars)
    body = mat_mul(lower, upper)
    return [
        [HYP_ALG.scalar(body[i][j]) + draw(grassmann_entries(soul_only=True)) for j in range(size)]
        for i in range(size)
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3), st.data())
def test_product_matches_oracle_on_generated_matrices(rows, inner, cols, data):
    a = data.draw(grassmann_matrices(rows, inner))
    b = data.draw(grassmann_matrices(inner, cols))
    assert poly_mat_mul(a, b, HYP_ALG) == oracle_mul(a, b, HYP_ALG)


@settings(max_examples=60, deadline=None)
@given(invertible_matrices())
def test_inverse_is_an_oracle_inverse_on_generated_matrices(a):
    inverse = poly_mat_inv(a, HYP_ALG)
    ident = oracle_identity(len(a), HYP_ALG)
    assert oracle_mul(a, inverse, HYP_ALG) == ident
    assert oracle_mul(inverse, a, HYP_ALG) == ident


@settings(max_examples=60, deadline=None)
@given(invertible_matrices())
def test_degree_recurrence_matches_series_on_generated_matrices(a):
    # souls of every degree and parity, in any entry: no parity pattern
    ints = _to_ints(a, HYP_ALG.gens)
    assert grassmann_matrix_inv(ints) == series_matrix_inv(ints)
    # a given body inverse changes nothing; the uncached call stays the oracle
    assert grassmann_matrix_inv(ints, linalg.invert(_body(ints))) == grassmann_matrix_inv(ints)


@settings(max_examples=60, deadline=None)
@given(coefficients, grassmann_entries(soul_only=True))
def test_invert_element_matches_series_on_generated_elements(body, soul):
    element = HYP_ALG.scalar(body) + soul
    assert invert_element(element) == series_inverse(element)


def test_sparse_entries_over_64_generators():
    # 2^64 blades: the kernel only ever touches the blades that occur
    alg = GrassmannAlgebra(64)
    t = alg.theta
    a = [[alg.one() + t(1) * t(64), t(2) + t(40) * t(41) * t(63)],
         [t(63).scale(Fraction(1, 3)), alg.scalar(2) + t(3) * t(4)]]
    b = [[t(64), alg.scalar(Fraction(-1, 2))], [t(5) * t(6), t(1)]]
    assert poly_mat_mul(a, b, alg) == oracle_mul(a, b, alg)
    inverse = poly_mat_inv(a, alg)
    assert oracle_mul(a, inverse, alg) == oracle_identity(2, alg)
    ints = _to_ints(a, alg.gens)
    assert grassmann_matrix_inv(ints) == series_matrix_inv(ints)
    assert invert_element(a[0][0]) == alg.one() - t(1) * t(64)


def test_singular_body_and_even_generators_are_rejected():
    with pytest.raises(NotAPoint):
        poly_mat_inv([[ALG.theta(1), ALG.one()], [ALG.zero(), ALG.one()]], ALG)
    with pytest.raises(NotAPoint):  # a nilpotent soul cannot make up for the body
        poly_mat_inv([[ALG.one() + ALG.blade((0, 1)), ALG.scalar(2)],
                      [ALG.scalar(Fraction(1, 2)), ALG.one() + ALG.theta(3)]], ALG)
    gens = GeneratorSet(evens=["x"], odds=["t"])
    with pytest.raises(ValueError):
        invert_element(SuperPoly.one(gens) + SuperPoly.generator(gens, "x"))
