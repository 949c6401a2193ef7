import functools
import hashlib
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from superalg import (
    StructureError,
    SuperLieAlgebraData,
    abelian_pair,
    additive_presentation,
    build_super_lie,
    glmn_presentation,
    primitives,
    sp_basis,
    spo_pair,
    truncated_dual,
    truncated_envelope,
    validate_hcpair,
)
from superalg import hcpair
from superalg.cli import run_envelope_suite
from superalg.hcpair import first_nonequivariant, sample_transvections, standard_J
import superalg.linalg as la
from superalg.table import whole_as_int

from conftest import (
    action_matrix,
    assemble_pair,
    brute_force_bad_triples,
    dense_J,
    dense_rows,
    dense_sample_transvections,
    dense_sp_basis,
    dense_spo_pair,
    envelope_pbw_count,
    envelope_table,
    flat_entries,
    is_symplectic,
    mat_mul,
    oracle_cubic_vanishes,
    oracle_envelope_product,
    sparse_rows,
    transpose,
    typed,
    unflatten,
    zeros,
)

F = Fraction


def bracket_matrix(lie, i, j):
    """[e_i, e_j] of the i-th and j-th odd basis vectors, as a matrix on the odd span."""
    odds = lie.odd_indices()
    return action_matrix(lie, lie.bracket_basis(odds[i], odds[j]))


def spo_parts(r, half=True):
    """``spo_pair(r, half)`` by its parts: the sp_2r structure constants, the
    sp basis as action matrices, and the bracket of V in sp coordinates."""
    lie = spo_pair(r, half)
    gd = len(lie.even_indices())
    g0 = {key: vec for key, vec in lie.bracket.items() if max(key) < gd}
    v = {(a - gd, b - gd): vec for (a, b), vec in lie.bracket.items() if min(a, b) >= gd}
    return g0, [unflatten(x, 2 * r) for x in sp_basis(r)], v


def equivariant(lie, g):
    """Whether the odd bracket of ``lie`` is equivariant under the one matrix ``g``."""
    return first_nonequivariant(lie, [g]) is None


@pytest.mark.parametrize("r,dim", [(1, 3), (2, 10), (3, 21)])
def test_sp_dimension(r, dim):
    assert len(sp_basis(r)) == dim == r * (2 * r + 1)


def test_sp_basis_closed_under_commutators():
    basis, J = [unflatten(x, 4) for x in sp_basis(2)], dense_rows(standard_J(2), 4)
    for x in basis:
        for y in basis:
            comm = [[a - b for a, b in zip(ra, rb)]
                    for ra, rb in zip(mat_mul(x, y), mat_mul(y, x))]
            prod = mat_mul(comm, J)
            assert prod == transpose(prod)


def test_spo_bracket_of_e1_e2():
    pair = spo_pair(1)
    expected = [[F(1, 2), F(0)], [F(0), F(-1, 2)]]
    assert bracket_matrix(pair, 0, 1) == expected


def test_spo_diagonal_bracket_and_axiom_ii():
    pair = spo_pair(1)
    assert bracket_matrix(pair, 0, 0) == [[F(0), F(0)], [F(-1), F(0)]]
    # e1 acted on by [e1, e1] vanishes
    acted = [sum((bracket_matrix(pair, 0, 0)[a][b] if a == 0 else F(0)) for a in range(2))
             for b in range(2)]
    assert acted == [F(0), F(0)]


def test_spo_bracket_symmetric():
    lie = spo_pair(2)
    for i in lie.odd_indices():
        for j in lie.odd_indices():
            assert lie.bracket_basis(i, j) == lie.bracket_basis(j, i)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_spo_action_rows_are_the_sp_basis_rows(r):
    # [e_a, X_k] is row a of the k-th sp basis matrix, and the pair's parts
    # assemble back into spo_pair's own bracket
    lie = spo_pair(r)
    assert [action_matrix(lie, {k: 1}) for k in lie.even_indices()] == [
        unflatten(x, 2 * r) for x in sp_basis(r)]
    assert assemble_pair(*spo_parts(r)).bracket == lie.bracket


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("half", [True, False])
def test_spo_pair_matches_dense_commutator_oracle(r, half):
    # the sparse commutators give the same cells, in the same order, of the same types
    lie, oracle = spo_pair(r, half), dense_spo_pair(r, half)
    assert lie == oracle
    assert list(lie.bracket) == list(oracle.bracket)
    assert typed(lie.bracket) == typed(oracle.bracket)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_spo_pair_axioms(r):
    assert validate_hcpair(spo_pair(r)) == []


@pytest.mark.parametrize("r", [1, 2])
def test_spo_super_lie_jacobi(r):
    lie = build_super_lie(spo_pair(r))
    assert lie.dimension == r * (2 * r + 1) + 2 * r
    assert lie.parity.count(0) == r * (2 * r + 1)
    assert lie.parity.count(1) == 2 * r


def test_zero_bracket_pair_is_semidirect_sum():
    g0, action, _ = spo_parts(1)
    build_super_lie(assemble_pair(g0, action, {}))  # Jacobi passes with the zero odd bracket


def test_abelian_pair_envelope_dimension_five():
    env = truncated_envelope(build_super_lie(abelian_pair(1, 1)), 2)
    assert env.dimension == 5
    assert set(env.labels) == {"1", "X1", "e1", "X1*X1", "X1*e1"}


def test_no_half_variant_passes_all_axioms():
    # Scaling the odd bracket leaves every axiom intact: the pair axioms are
    # linear in the bracket and the cubic ones vanish because v J tv = 0.
    # A negative control based on dropping the 1/2 therefore cannot fail.
    for r in (1, 2):
        pair = spo_pair(r, half=False)
        assert validate_hcpair(pair) == []
        build_super_lie(pair)
    doubled = bracket_matrix(spo_pair(1, half=False), 0, 1)
    assert doubled == [[F(1), F(0)], [F(0), F(-1)]]


def test_asymmetric_bracket_is_detected():
    # genuinely invalid data: J tv w without symmetrisation breaks symmetry
    g0, basis, vbracket = spo_parts(1)
    J = dense_rows(standard_J(1), 2)
    broken = dict(vbracket)
    size = 2

    coords_in = la.span_coordinates([flat_entries(m) for m in basis])
    for a in range(size):
        for b in range(size):
            matrix = zeros(size, size)
            for i in range(size):
                matrix[i][b] += J[i][a]
            broken[(a, b)] = coords_in(flat_entries(matrix)) or {}
    bad = assemble_pair(g0, basis, broken)
    assert validate_hcpair(bad) != []
    with pytest.raises(StructureError):
        build_super_lie(bad)


CUBIC_FAILURE = "v <| [v,v] does not vanish at "


def cubic_holds(pair) -> bool:
    return not any(f.startswith(CUBIC_FAILURE) for f in validate_hcpair(pair))


def rotation_pair():
    """k acting on V = k^2 by [[0,1],[-1,0]], with [e_i, e_i] = X1 and [e1, e2] = 0:
    symmetric and equivariant, but v <| [v,v] = (c1^2 + c2^2)(-c2, c1)."""
    return assemble_pair({}, [[[F(0), F(1)], [F(-1), F(0)]]],
                         {(0, 0): {0: F(1)}, (1, 1): {0: F(1)}})


def test_cubic_axiom_alone_is_detected():
    pair = rotation_pair()
    assert validate_hcpair(pair) == [CUBIC_FAILURE + "(e1, e1, e1): {e2: 1}"]
    assert not oracle_cubic_vanishes(pair)
    with pytest.raises(StructureError, match=r"^super Jacobi fails at \(e1, e1, e1\)"):
        build_super_lie(pair)


entries = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(1, 2), F(-2)])


@st.composite
def random_pairs(draw):
    """Pairs with v_dim <= 3, g_0 dim <= 2, small entries and a symmetric bracket."""
    vd, gd = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    action = [[[draw(entries) for _ in range(vd)] for _ in range(vd)] for _ in range(gd)]
    vbracket = {}
    for i in range(vd):
        for j in range(i, vd):
            vec = {k: c for k in range(gd) if (c := draw(entries))}
            if vec:
                vbracket[(i, j)] = vbracket[(j, i)] = vec
    return assemble_pair({}, action, vbracket)


@settings(max_examples=300, deadline=None)
@given(random_pairs())
def test_cubic_verdict_matches_symbolic_oracle(pair):
    assert cubic_holds(pair) == oracle_cubic_vanishes(pair)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("half", [True, False])
def test_cubic_verdict_matches_symbolic_oracle_on_spo(r, half):
    parts = spo_parts(r, half)
    pairs = [spo_pair(r, half)] + [scaled_cells(parts, seed) for seed in range(3)]
    for p in pairs:
        assert cubic_holds(p) == oracle_cubic_vanishes(p)


def test_scaled_g0_bracket_fails_jacobi():
    # corrupting the even structure constants is caught by the Jacobi scan
    g0, action, vbracket = spo_parts(1)
    corrupted = {key: {k: 2 * c for k, c in vec.items()} for key, vec in g0.items()}
    bad = assemble_pair(corrupted, action, vbracket)
    with pytest.raises(StructureError):
        build_super_lie(bad)


@pytest.mark.parametrize("d,dim", [(0, 1), (1, 6), (2, 19), (3, 44), (4, 85)])
def test_envelope_dimensions_spo1(d, dim):
    env = truncated_envelope(build_super_lie(spo_pair(1)), d)
    assert env.dimension == dim
    assert env.dimension == envelope_pbw_count(3, 2, d)


def test_envelope_degree_split_at_two():
    env = truncated_envelope(build_super_lie(spo_pair(1)), 2)
    assert env.dims_by_degree == [1, 5, 13]


@pytest.mark.parametrize("name,d", [("spo(1)", 0), ("spo(1)", 3), ("spo(2)", 2), ("gl(1|1)", 4)])
def test_envelope_rows_hold_each_word_below_the_bound(name, d):
    lie = envelope_algebra(name)
    env = truncated_envelope(lie, d)
    below = [x for x, word in enumerate(env.words) if len(word) < d]
    assert len(env.rows) == lie.dimension
    assert all(sorted(row) == below for row in env.rows)


def test_envelope_degree_bound_validation():
    with pytest.raises(ValueError):
        truncated_envelope(build_super_lie(spo_pair(1)), -1)


def osp_realization(r):
    """Independent oracle: the (1|2r) supermatrix realization.

    Even basis elements embed as diag(0, X); the odd vector v embeds as
    [[0, v], [J tv / 2, 0]].  Brackets are computed as matrix super
    commutators xy - (-1)^{|x||y|} yx, entirely outside the pair machinery.
    """
    size = 2 * r
    sp, J = [unflatten(x, size) for x in sp_basis(r)], dense_rows(standard_J(r), size)
    full = size + 1

    def embed_even(X):
        out = zeros(full, full)
        for i in range(size):
            for j in range(size):
                out[1 + i][1 + j] = X[i][j]
        return out

    def embed_odd(v):
        out = zeros(full, full)
        for j in range(size):
            out[0][1 + j] = v[j]
        jv = [sum((J[i][a] * v[a] for a in range(size)), F(0)) for i in range(size)]
        for i in range(size):
            out[1 + i][0] = F(1, 2) * jv[i]
        return out

    basis = [embed_even(X) for X in sp]
    basis += [embed_odd([F(1) if j == a else F(0) for j in range(size)]) for a in range(size)]
    parity = [0] * len(sp) + [1] * size
    return basis, parity


def matrix_coords(basis, matrix):
    flat_basis = [[e for row in b for e in row] for b in basis]
    span = [{j: flat[i] for j, flat in enumerate(flat_basis) if flat[i]}
            for i in range(len(flat_basis[0]))]
    coords = la.solve(span, [e for row in matrix for e in row], len(basis))
    assert coords is not None
    return coords


@pytest.mark.parametrize("r", [1, 2])
def test_spo_structure_constants_match_supermatrix_realization(r):
    lie = build_super_lie(spo_pair(r))
    basis, parity = osp_realization(r)
    assert parity == lie.parity
    for i in range(lie.dimension):
        for j in range(lie.dimension):
            xy = mat_mul(basis[i], basis[j])
            yx = mat_mul(basis[j], basis[i])
            sign = -1 if parity[i] and parity[j] else 1
            bracket = [[a - sign * b for a, b in zip(ra, rb)] for ra, rb in zip(xy, yx)]
            assert matrix_coords(basis, bracket) == lie.bracket_basis(i, j), (
                lie.labels[i], lie.labels[j],
            )


@pytest.mark.parametrize("r", [1, 2, 3])
def test_transvections_exactly_symplectic(r):
    J = dense_rows(standard_J(r), 2 * r)
    for g in sample_transvections(r, 10, seed=3):
        assert is_symplectic(dense_rows(g, 2 * r), J)
        assert la.invert(g) is not None


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_sparse_sp_basis_and_J_match_dense_oracle(r):
    # the basis entries come in row-major order, as the flattened dense basis lists them
    basis, oracle = sp_basis(r), [flat_entries(x) for x in dense_sp_basis(r)]
    assert basis == oracle
    assert [list(x) for x in basis] == [list(x) for x in oracle]
    assert standard_J(r) == sparse_rows(dense_J(r))


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 5, 9])
def test_sparse_transvections_match_dense_draws(r, seed):
    gs = sample_transvections(r, 12, seed)
    assert gs == [sparse_rows(g) for g in dense_sample_transvections(r, 12, seed)]
    assert all(list(g) == list(range(2 * r)) for g in gs)
    assert all(c for g in gs for row in g.values() for c in row.values())
    # some diagonal entry 1 + N[i][i] cancels, and is not stored
    assert any(i not in row for g in gs for i, row in g.items())


def test_first_nonequivariant_names_the_first_failing_matrix():
    g0, action, vbracket = spo_parts(1)
    vbracket = dict(vbracket)
    vbracket[(0, 0)] = {k: 2 * c for k, c in vbracket[(0, 0)].items()}
    bad, good = assemble_pair(g0, action, vbracket), spo_pair(1)
    one = {0: {0: F(1)}, 1: {1: F(1)}}
    singular = {0: {0: F(1)}, 1: {0: F(1)}}
    gs = sample_transvections(1, 3, seed=9)
    assert first_nonequivariant(good, gs) is None
    assert first_nonequivariant(good, gs[:1] + [singular] + gs[1:]) == 1
    assert first_nonequivariant(bad, [one, one] + gs) == 2
    assert first_nonequivariant(bad, []) is None


@pytest.mark.parametrize("r", [1, 2, 3])
def test_group_translation_preserves_bracket(r):
    pair = spo_pair(r)
    for g in sample_transvections(r, 6, seed=9):
        assert equivariant(pair, g)


def oracle_group_bracket_equivariance(lie, g):
    """The bracket of two row vectors expanded from scratch for every pair (a, b),
    for ``g`` given as sparse rows."""
    size = len(lie.odd_indices())
    ginv = la.invert(g)
    if ginv is None:
        return False
    g, ginv = dense_rows(g, size), dense_rows(ginv, size)
    basis = [[F(1) if i == j else F(0) for j in range(size)] for i in range(size)]

    def bracket_of(u, v):
        out = zeros(size, size)
        for a in range(size):
            for b in range(size):
                cc = u[a] * v[b]
                if not cc:
                    continue
                mat = bracket_matrix(lie, a, b)
                for i in range(size):
                    for j in range(size):
                        out[i][j] += cc * mat[i][j]
        return out

    for a in range(size):
        for b in range(size):
            lhs = bracket_of(g[a], g[b])
            rhs = mat_mul(mat_mul(ginv, bracket_of(basis[a], basis[b])), g)
            if lhs != rhs:
                return False
    return True


def scaled_cells(parts, seed):
    """The pair with one or two seeded odd-bracket cells scaled by 2 or -1."""
    g0, action, vbracket = parts
    rng = random.Random(seed)
    vbracket = dict(vbracket)
    for key in rng.sample(sorted(vbracket), min(2, len(vbracket))):
        scale = rng.choice([F(2), F(-1)])
        vbracket[key] = {k: scale * c for k, c in vbracket[key].items()}
    return assemble_pair(g0, action, vbracket)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_group_bracket_equivariance_matches_oracle(r):
    parts = spo_parts(r)
    pairs = [spo_pair(r)] + [scaled_cells(parts, seed) for seed in range(3)]
    for seed in (1, 9):
        for g in sample_transvections(r, 3, seed=seed):
            for p in pairs:
                assert equivariant(p, g) == oracle_group_bracket_equivariance(p, g)


def transvection(r, u, c):
    """I + c J tu u as sparse rows, symplectic for every vector u and scalar c."""
    J, size = dense_J(r), 2 * r
    ju = [sum((J[i][a] * u[a] for a in range(size)), F(0)) for i in range(size)]
    return sparse_rows([[F(i == j) + c * ju[i] * u[j] for j in range(size)] for i in range(size)])


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("scale", [F(1, 3), F(-2, 5)])
def test_integer_group_equivariance_matches_oracle_on_non_dyadic_cells(r, scale):
    # the integer comparison clears denominators 3 and 5 in the bracket and
    # in g; a singular g is rejected by both
    g0, action, vbracket = spo_parts(r)
    pairs = [spo_pair(r)]
    for key in sorted(vbracket)[:: max(1, len(vbracket) // 3)]:
        for cells in ({key}, {key, key[::-1]}):
            scaled = dict(vbracket)
            for cell in cells:
                scaled[cell] = {k: scale * c for k, c in vbracket[cell].items()}
            pairs.append(assemble_pair(g0, action, scaled))
    size = 2 * r
    gs = sample_transvections(r, 2, seed=4) + [
        transvection(r, [F(a % 3 - 1) for a in range(size)], F(1, 3)),
        transvection(r, [F(1)] + [F(0)] * (size - 1), F(-2, 5)),
    ]
    singular = [[F(i == j) for j in range(size)] for i in range(size)]
    singular[0] = list(singular[1])
    singular = sparse_rows(singular)
    verdicts = []
    for p in pairs:
        for g in gs:
            verdicts.append(equivariant(p, g))
            assert verdicts[-1] == oracle_group_bracket_equivariance(p, g)
        assert not equivariant(p, singular)
        assert not oracle_group_bracket_equivariance(p, singular)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("r", [1, 2])
def test_doubled_odd_bracket_cell_breaks_group_equivariance(r):
    g0, action, vbracket = spo_parts(r)
    vbracket = dict(vbracket)
    vbracket[(0, 0)] = {k: 2 * c for k, c in vbracket[(0, 0)].items()}
    bad = assemble_pair(g0, action, vbracket)
    for g in sample_transvections(r, 6, seed=9):
        assert not equivariant(bad, g)


# --- the envelope's letter rows against rewriting every cell from scratch

ENVELOPE_ALGEBRAS = {
    "spo(1)": lambda: build_super_lie(spo_pair(1)),
    "spo(2)": lambda: build_super_lie(spo_pair(2)),
    "abelian(2|3)": lambda: build_super_lie(abelian_pair(2, 3)),
    "ga(1|1)": lambda: primitives(truncated_dual(additive_presentation(1, 1), 3)),
    "gl(1|1)": lambda: primitives(truncated_dual(glmn_presentation(1, 1), 3)),
    "gl(2|1)": lambda: primitives(truncated_dual(glmn_presentation(2, 1), 3)),
}


@functools.cache
def envelope_algebra(name):
    return ENVELOPE_ALGEBRAS[name]()


@pytest.mark.parametrize("name", ["ga(1|1)", "gl(1|1)", "gl(2|1)"])
def test_pair_axioms_hold_on_lie_g_with_its_odd_indices_first(name):
    # Lie(G) read off a truncated dual lists its odd duals first
    lie = envelope_algebra(name)
    assert lie.parity[0] == 1 and lie.parity != sorted(lie.parity)
    assert validate_hcpair(lie) == []


def test_doubled_odd_cell_of_lie_g_fails_symmetry_at_its_labels():
    lie = envelope_algebra("gl(2|1)")
    p, q = lie.labels.index("D[p11]"), lie.labels.index("D[q11]")
    bracket = dict(lie.bracket)
    bracket[(p, q)] = {k: 2 * c for k, c in bracket[(p, q)].items()}
    failures = validate_hcpair(SuperLieAlgebraData(lie.labels, lie.parity, bracket))
    # one witness for the unordered pair, then a failure of another axiom
    assert failures[:2] == [
        "symmetry fails at (D[p11], D[q11])",
        "v <| [v,v] does not vanish at (D[p11], D[p21], D[q11]): {D[p21]: 1}",
    ]


# --- the super Jacobi certificate against the dense scan


def scaled_cell(lie, i, j, scale):
    """``lie`` with [e_i, e_j] and [e_j, e_i] both scaled by ``scale``, so super
    antisymmetry still holds; super Jacobi is not checked."""
    bracket = dict(lie.bracket)
    for key in {(i, j), (j, i)}:
        vec = {k: scale * c for k, c in lie.bracket_basis(*key).items() if scale * c}
        if vec:
            bracket[key] = vec
        else:
            bracket.pop(key, None)
    bad = SuperLieAlgebraData(lie.labels, lie.parity, bracket)
    bad.check_grading()
    bad.check_antisymmetry()
    return bad


def jacobi_outcome(check):
    """None when ``check`` passes, else its message."""
    try:
        check()
    except StructureError as exc:
        return str(exc)
    return None


def random_scaled_cell(name, rng):
    lie = envelope_algebra(name)
    i, j = rng.choice(sorted((i, j) for i, j in lie.bracket if i <= j))
    return scaled_cell(lie, i, j, rng.choice([F(2), F(-1), F(0), F(1, 3)]))


JACOBI_ALGEBRAS = ["spo(1)", "spo(2)", "gl(1|1)", "gl(2|1)"]


@pytest.mark.parametrize("name", JACOBI_ALGEBRAS)
def test_jacobi_certificate_matches_dense_scan_on_seeded_corruptions(name):
    lie = envelope_algebra(name)
    gens = lie.jacobi_generators()
    # Lie(G) of gl(m|1): [odd, odd] misses one even direction, so G needs it
    assert any(not lie.parity[g] for g in gens) == name.startswith("gl")
    assert jacobi_outcome(lie.check_jacobi) is None is jacobi_outcome(lie.scan_jacobi)
    verdicts = []
    for seed in range(12):
        bad = random_scaled_cell(name, random.Random(f"{name}/{seed}"))
        verdicts.append(jacobi_outcome(bad.check_jacobi))
        assert verdicts[-1] == jacobi_outcome(bad.scan_jacobi)
    assert any(v is not None for v in verdicts)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(JACOBI_ALGEBRAS), st.randoms(use_true_random=False))
def test_jacobi_certificate_matches_dense_scan_on_generated_corruptions(name, rng):
    bad = random_scaled_cell(name, rng)
    assert jacobi_outcome(bad.check_jacobi) == jacobi_outcome(bad.scan_jacobi)


def test_jacobi_failure_outside_the_odd_brackets_is_caught():
    # [X1, X2] = X3, [X2, X3] = X1, [X3, X1] = X1 is antisymmetric but not Lie,
    # and the odd part brackets to zero: every even index must be a generator
    cells = {(0, 1): {2: F(1)}, (1, 2): {0: F(1)}, (2, 0): {0: F(1)}}
    cells.update({(j, i): {k: -c for k, c in vec.items()} for (i, j), vec in cells.items()})
    lie = SuperLieAlgebraData(["X1", "X2", "X3", "e1"], [0, 0, 0, 1], cells)
    assert lie.jacobi_generators() == [3, 0, 1, 2]
    message = jacobi_outcome(lie.scan_jacobi)
    assert message == "super Jacobi fails at (X1, X2, X3): defect {X3: 1}"
    assert jacobi_outcome(lie.check_jacobi) == message


def test_jacobi_on_a_non_antisymmetric_bracket_raises_as_the_dense_scan():
    # the generator lemma needs super antisymmetry, so check_jacobi scans densely
    lie = envelope_algebra("spo(1)")
    key = min(k for k in lie.bracket if not lie.parity[k[0]] and not lie.parity[k[1]])
    bracket = dict(lie.bracket)
    bracket[key] = {k: 2 * c for k, c in bracket[key].items()}  # [X_j, X_i] kept
    bad = SuperLieAlgebraData(lie.labels, lie.parity, bracket)
    with pytest.raises(StructureError, match=r"^super antisymmetry fails"):
        bad.check_antisymmetry()
    message = jacobi_outcome(bad.scan_jacobi)
    assert message is not None and message.startswith("super Jacobi fails at (")
    assert jacobi_outcome(bad.check_jacobi) == message


def assert_matches_rewriting(lie, d):
    env = truncated_envelope(lie, d)
    evens = lie.parity.count(0)
    assert env.dimension == envelope_pbw_count(evens, lie.dimension - evens, d)
    oracle = oracle_envelope_product(lie, env.words, d)
    for a, row in enumerate(env.rows):
        assert typed(row) == typed({x: oracle[(env.words.index((a,)), x)] for x in row})
    assert typed(envelope_table(env)) == typed(oracle)


@pytest.mark.parametrize("name,d", [
    *(("spo(1)", d) for d in range(6)),
    *(("spo(2)", d) for d in range(4)),
    *(("abelian(2|3)", d) for d in range(5)),
    *((name, d) for name in ("ga(1|1)", "gl(1|1)", "gl(2|1)") for d in range(4)),
])
def test_envelope_matches_rewriting_oracle(name, d):
    # the primitives of a truncated dual come odd-first or interleaved, so
    # these also cover bases that are not sorted by parity
    assert_matches_rewriting(envelope_algebra(name), d)


def permuted(lie, perm):
    """``lie`` on the basis whose i-th element is the old ``perm[i]``."""
    new = {old: i for i, old in enumerate(perm)}
    return SuperLieAlgebraData(
        labels=[lie.labels[p] for p in perm],
        parity=[lie.parity[p] for p in perm],
        bracket={(new[i], new[j]): {new[k]: c for k, c in vec.items()}
                 for (i, j), vec in lie.bracket.items()},
    )


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(sorted(ENVELOPE_ALGEBRAS)), st.integers(0, 3), st.randoms())
def test_envelope_on_permuted_bases_matches_rewriting_oracle(name, d, rng):
    lie = envelope_algebra(name)
    perm = list(range(lie.dimension))
    rng.shuffle(perm)
    assert_matches_rewriting(permuted(lie, perm), d)


# sha256 of the canonical table (cells sorted by key, terms by index; the
# repr tells int from Fraction), taken from the rewriting construction; (2, 4)
# was taken before the envelope was certified by its letter relations
ENVELOPE_TABLE_DIGESTS = {
    (1, 4): "7977f531363bc00a141831e62443586678cb7a4616d0e208e77c4fe77db1cd05",
    (2, 3): "e24f9ead24b12818aca07c3d803af740bc63ce9ae0173a16a1f995c37a331da9",
    (2, 4): "ebabfb0c33b486df58904c08717e45624d2087d94f0e3ad6bc797046621b43b6",
}


@pytest.mark.parametrize("r,d", sorted(ENVELOPE_TABLE_DIGESTS))
def test_envelope_table_digest(r, d):
    env = truncated_envelope(build_super_lie(spo_pair(r)), d)
    canonical = [(key, sorted(cell.items())) for key, cell in sorted(envelope_table(env).items())]
    assert hashlib.sha256(repr(canonical).encode()).hexdigest() == ENVELOPE_TABLE_DIGESTS[(r, d)]


def test_envelope_halves_int_brackets_exactly():
    lie = build_super_lie(spo_pair(1))
    whole = SuperLieAlgebraData(lie.labels, lie.parity,
                                {key: whole_as_int(vec) for key, vec in lie.bracket.items()})
    assert any(type(c) is int for vec in whole.bracket.values() for c in vec.values())
    assert typed(envelope_table(truncated_envelope(whole, 3))) \
        == typed(envelope_table(truncated_envelope(lie, 3)))


@pytest.mark.parametrize("d", [3, 4])
def test_envelope_of_a_non_lie_bracket_is_not_confluent(d):
    # doubling every [X_i, X_j] breaks super Jacobi on each triple that mixes
    # even and odd letters; the data skips build_super_lie's validation, so
    # the envelope's letter relations must catch it
    lie = build_super_lie(spo_pair(1))
    bracket = {(i, j): ({k: 2 * c for k, c in vec.items()}
                        if not lie.parity[i] and not lie.parity[j] else vec)
               for (i, j), vec in lie.bracket.items()}
    bad = SuperLieAlgebraData(lie.labels, lie.parity, bracket)
    with pytest.raises(StructureError, match=r"rewriting is not confluent at words \("):
        truncated_envelope(bad, d)


# --- the letter-relation certificate against a brute-force triple scan


def corrupted_bracket(lie, rng):
    """``lie`` with one cell [i, j] doubled, negated or given an extra term of
    its parity, and [j, i] changed with it so that super antisymmetry holds;
    super Jacobi is not checked."""
    parity, n = lie.parity, lie.dimension
    i, j = rng.choice([(i, j) for i in range(n) for j in range(i, n) if i != j or parity[i]])
    kind = rng.choice(["doubled", "negated", "extra term"])
    vec = dict(lie.bracket_basis(i, j))
    if kind == "extra term":
        k = rng.choice([k for k in range(n) if parity[k] == parity[i] ^ parity[j]])
        vec[k] = vec.get(k, 0) + rng.choice([1, -1, F(1, 2)])
    else:
        vec = {k: (2 if kind == "doubled" else -1) * c for k, c in vec.items()}
    vec = {k: c for k, c in vec.items() if c}
    bracket = {key: cell for key, cell in lie.bracket.items() if key not in ((i, j), (j, i))}
    if vec:
        sign = 1 if parity[i] and parity[j] else -1
        bracket[(i, j)], bracket[(j, i)] = vec, {k: sign * c for k, c in vec.items()}
    bad = SuperLieAlgebraData(lie.labels, lie.parity, bracket)
    bad.check_grading()
    bad.check_antisymmetry()
    return bad


def unchecked_envelope(lie, d):
    """The envelope's letter rows as they are built, with no relation checked."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hcpair, "_first_bracket_failure", lambda *args: None)
        return truncated_envelope(lie, d)


def assert_certificate_matches_triple_scan(lie, d):
    """``truncated_envelope`` raises exactly when a bounded triple scan of the
    unchecked table fails, and names one of the failing triples."""
    env = unchecked_envelope(lie, d)
    bad = brute_force_bad_triples(envelope_table(env), env.dimension, [len(w) for w in env.words], d)
    try:
        truncated_envelope(lie, d)
    except StructureError as exc:
        names = str(exc).removeprefix("rewriting is not confluent at words (").removesuffix(")")
        witness = tuple(env.labels.index(name) for name in names.split(", "))
        assert witness in bad
        return True
    assert bad == []
    return False


CORRUPTIBLE = [("spo(1)", 2), ("spo(1)", 3), ("spo(1)", 4), ("spo(2)", 3),
               ("gl(1|1)", 3), ("gl(1|1)", 4)]


@pytest.mark.parametrize("name,d", CORRUPTIBLE)
def test_envelope_certificate_matches_triple_scan_on_seeded_corruptions(name, d):
    lie = envelope_algebra(name)
    assert not assert_certificate_matches_triple_scan(lie, d)
    verdicts = [assert_certificate_matches_triple_scan(corrupted_bracket(lie, random.Random(f"{name}/{seed}")), d)
                for seed in range(6 if name == "spo(2)" else 12)]
    assert any(verdicts) or d == 2  # at d = 2 no relation has a word to act on


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CORRUPTIBLE), st.randoms(use_true_random=False))
def test_envelope_certificate_matches_triple_scan_on_generated_corruptions(case, rng):
    name, d = case
    assert_certificate_matches_triple_scan(corrupted_bracket(envelope_algebra(name), rng), d)


@pytest.mark.parametrize("i,j,witness", [
    (0, 2, "X3, X2, X1"),  # even-even: [X1, X3]
    (3, 0, "e1, X2, X1"),  # odd-even: [e1, X1]
    (3, 3, "e1, e1, X1"),  # odd-odd: [e1, e1]
])
def test_envelope_names_the_first_failing_relation(i, j, witness):
    lie = build_super_lie(spo_pair(1))
    bracket = {key: ({k: 2 * c for k, c in vec.items()} if key in ((i, j), (j, i)) else vec)
               for key, vec in lie.bracket.items()}
    with pytest.raises(StructureError, match=rf"^rewriting is not confluent at words \({witness}\)$"):
        truncated_envelope(SuperLieAlgebraData(lie.labels, lie.parity, bracket), 3)


def test_envelope_suite_checks_jacobi_once(monkeypatch):
    calls = []
    check_jacobi = SuperLieAlgebraData.check_jacobi
    monkeypatch.setattr(SuperLieAlgebraData, "check_jacobi",
                        lambda self: calls.append(1) or check_jacobi(self))
    assert run_envelope_suite(1, 3, None).ok
    assert len(calls) == 1
