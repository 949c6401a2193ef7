import copy
import os
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import permutations, product as cartesian
from math import comb
from pathlib import Path

import hypothesis.strategies as st

from superalg import GeneratorSet, SuperPoly, TensorPoly, linalg
from superalg.core import EVEN, F0, F1, ODD, SuperMonomial, mul_monomials
from superalg.grassmann import (
    NotAPoint, _body, _from_ints, _int_add, _poly_mat_mul, _to_ints, grassmann_matrix_inv,
)
from superalg.hopf import _monomials_up_to, even_quotient
from superalg.hyper import primitives, truncated_dual
from superalg.liealg import StructureError, SuperLieAlgebraData
from superalg.table import add_into, cleared, image, whole_as_int

GENS = GeneratorSet(evens=["x", "y"], odds=["t1", "t2", "t3"])

# --- the Koszul sign oracle on increasing support tuples, independent of the
# bitmask rule (``core.cross``) that the engine uses


def mask_of(support) -> int:
    return sum(1 << i for i in support)


def support_of(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def merge_odds(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Merge two increasing odd supports; sign counts crossings, None on a repeat."""
    merged: list[int] = []
    inversions = 0
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            merged.append(a[i])
            i += 1
        else:
            merged.append(b[j])
            inversions += len(a) - i
            j += 1
    merged.extend(a[i:])
    merged.extend(b[j:])
    return (-1 if inversions & 1 else 1), tuple(merged)


def oracle_mul_monomials(m1: SuperMonomial, m2: SuperMonomial):
    merged = merge_odds(support_of(m1.odds), support_of(m2.odds))
    if merged is None:
        return None
    sign, odds = merged
    return sign, SuperMonomial(tuple(a + b for a, b in zip(m1.evens, m2.evens)), mask_of(odds))


def oracle_product(p: SuperPoly, q: SuperPoly) -> SuperPoly:
    """``p * q`` term by term with the signs of ``merge_odds``."""
    terms: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            prod = oracle_mul_monomials(m1, m2)
            if prod is not None:
                sign, mono = prod
                terms[mono] = terms.get(mono, 0) + sign * c1 * c2
    return SuperPoly(p.gens, terms)


coefficients = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4
).filter(lambda c: c != 0)


@st.composite
def monomials(draw, gens=GENS, max_exp=2):
    evens = tuple(draw(st.integers(min_value=0, max_value=max_exp)) for _ in gens.evens)
    size = draw(st.integers(min_value=0, max_value=len(gens.odds)))
    odds = mask_of(draw(
        st.lists(st.integers(min_value=0, max_value=len(gens.odds) - 1),
                 min_size=size, max_size=size, unique=True)
    ))
    return SuperMonomial(evens, odds)


@st.composite
def polys(draw, gens=GENS, max_terms=4):
    terms = draw(st.dictionaries(monomials(gens), coefficients, max_size=max_terms))
    return SuperPoly(gens, terms)


@st.composite
def homogeneous_polys(draw, gens=GENS, max_terms=3):
    parity = draw(st.integers(min_value=0, max_value=1))
    terms = draw(st.dictionaries(
        monomials(gens).filter(lambda m: m.parity == parity),
        coefficients, min_size=1, max_size=max_terms,
    ))
    return SuperPoly(gens, terms)


# --- the PBW envelope by leftmost rewriting of each concatenated pair of
# normal words from scratch, independent of the letter rows that
# ``hcpair.truncated_envelope`` builds


class Rewriter:
    """Leftmost rewriting to the ordered PBW normal form, with memoisation."""

    def __init__(self, lie):
        self.lie = lie
        self.cache: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}

    def rewrite(self, word: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
        cached = self.cache.get(word)
        if cached is not None:
            return cached
        parity = self.lie.parity
        spot = None
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a > b or (a == b and parity[a]):
                spot = i
                break
        if spot is None:
            result = {word: 1}
            self.cache[word] = result
            return result
        a, b = word[spot], word[spot + 1]
        head, tail = word[:spot], word[spot + 2 :]
        result: dict[tuple[int, ...], Fraction] = {}
        if a == b:
            # odd square: a a = [a,a] / 2
            for k, c in self.lie.bracket_basis(a, a).items():
                add_into(result, self.rewrite(head + (k,) + tail), Fraction(c, 2))
        else:
            sign = -1 if parity[a] and parity[b] else 1
            add_into(result, self.rewrite(head + (b, a) + tail), sign)
            for k, c in self.lie.bracket_basis(a, b).items():
                add_into(result, self.rewrite(head + (k,) + tail), c)
        self.cache[word] = result
        return result


def oracle_envelope_product(lie, words, bound):
    """The table of U(lie) on ``words``: each cell w1 w2 with |w1| + |w2| <= bound
    rewritten from scratch, whole coefficients as ``int``.  Raises when a word
    is not in normal form or a product leaves ``words``."""
    rewriter = Rewriter(lie)
    index = {w: i for i, w in enumerate(words)}
    assert all(rewriter.rewrite(w) == {w: 1} for w in words)
    return {
        (i, j): {index[w]: c.numerator if c.denominator == 1 else c
                 for w, c in rewriter.rewrite(w1 + w2).items()}
        for i, w1 in enumerate(words) for j, w2 in enumerate(words)
        if len(w1) + len(w2) <= bound
    }


def typed(table):
    """``table`` with each coefficient paired with its type, so ``==`` also
    tells ``int`` from ``Fraction``."""
    return {key: {k: (c, type(c)) for k, c in cell.items()} for key, cell in table.items()}


def envelope_table(env):
    """The product table of a ``TruncatedEnvelope``: every cell (i, j) whose
    word lengths sum to at most its bound, expanded from the letter rows as
    e_(a w) e_v = e_a (e_w e_v), whole coefficients as ``int``."""
    words, bound = env.words, env.degree_bound
    index = {w: i for i, w in enumerate(words)}
    lengths = [len(w) for w in words]
    product = {}
    for i, word in enumerate(words):
        # words are sorted by length, so the v with |word| + |v| <= bound are a prefix
        fits = range(bisect_right(lengths, bound - lengths[i]))
        if not word:
            product.update(((i, j), {j: 1}) for j in fits)
            continue
        row, w = env.rows[word[0]], index[word[1:]]
        for j in fits:
            product[(i, j)] = whole_as_int(image(row, product[(w, j)]))
    return product


# --- Harish-Chandra pairs given by their parts, and the cubic pair axiom
# v <| [v,v] = 0 expanded symbolically, independent of the coefficient rule
# that ``hcpair.validate_hcpair`` uses


def assemble_pair(g0_bracket, action, vbracket) -> SuperLieAlgebraData:
    """The unvalidated super Lie data g_0 (+) V of a pair given by its parts:
    the g_0 structure constants, the action matrices (v <| X_k = v @ action[k])
    and the bracket of V in g_0 coordinates.  Labels X1, ..., e1, ..., evens first."""
    gd, vd = len(action), len(action[0])
    bracket = {key: dict(vec) for key, vec in g0_bracket.items()}
    for k, matrix in enumerate(action):
        for a, row in enumerate(matrix):
            acted = {gd + b: c for b, c in enumerate(row) if c}
            if acted:
                bracket[(gd + a, k)] = acted
                bracket[(k, gd + a)] = {key: -c for key, c in acted.items()}
    for (a, b), vec in vbracket.items():
        if vec:
            bracket[(gd + a, gd + b)] = dict(vec)
    return SuperLieAlgebraData(
        labels=[f"X{k + 1}" for k in range(gd)] + [f"e{a + 1}" for a in range(vd)],
        parity=[0] * gd + [1] * vd,
        bracket=bracket,
    )


def action_matrix(lie, y: dict) -> list[list[Fraction]]:
    """The matrix of the even element ``y`` on the odd span of ``lie``, row i
    being [e_i, y] (so v <| y = v @ matrix), read cell by cell off the bracket."""
    odds = lie.odd_indices()
    return [[sum((c * lie.bracket_basis(i, k).get(j, 0) for k, c in y.items()), F0)
             for j in odds] for i in odds]


def oracle_cubic_vanishes(lie) -> bool:
    """Whether v <| [v,v] is zero as a polynomial in the commuting coordinates
    c_i of v = sum c_i e_i, with e_i the odd basis of ``lie``."""
    odds = lie.odd_indices()
    vd = len(odds)
    coords = GeneratorSet(evens=[f"c{i + 1}" for i in range(vd)])
    c = [SuperPoly.generator(coords, f"c{i + 1}") for i in range(vd)]
    acted = [SuperPoly.zero(coords) for _ in range(vd)]
    for i in range(vd):
        for j in range(vd):
            mat = action_matrix(lie, lie.bracket_basis(odds[i], odds[j]))
            for a in range(vd):
                for b in range(vd):
                    if mat[a][b]:
                        acted[b] = acted[b] + c[i] * c[j] * c[a] * mat[a][b]
    return all(entry.is_zero() for entry in acted)


# --- dense matrices as lists of rows, independent of the sparse rows that
# ``linalg``, ``grassmann`` and ``hcpair`` hold, for differential tests


def zeros(rows, cols):
    return [[F0] * cols for _ in range(rows)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = F1
    return out


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += aik * bk[j]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def sparse_rows(matrix):
    """A dense matrix as the sparse rows ``{i: {j: c}}`` of the package."""
    return {i: {j: c for j, c in enumerate(row) if c} for i, row in enumerate(matrix)}


def dense_rows(rows, cols):
    """Sparse rows ``{i: {j: c}}`` as a dense matrix with ``Fraction`` zeros."""
    return [[rows[i].get(j, F0) for j in range(cols)] for i in range(len(rows))]


def flat_entries(matrix):
    """A dense square matrix as a sparse vector in its row-major entries."""
    size = len(matrix)
    return {i * size + j: c for i, row in enumerate(matrix) for j, c in enumerate(row) if c}


def unflatten(vec, size):
    """A sparse vector in row-major entries as a dense ``size`` x ``size`` matrix."""
    return [[vec.get(i * size + j, F0) for j in range(size)] for i in range(size)]


def dense_J(r):
    """The block form (0 I; -I 0)."""
    size = 2 * r
    J = zeros(size, size)
    for i in range(r):
        J[i][r + i] = F1
        J[r + i][i] = -F1
    return J


def dense_sp_basis(r):
    """The solutions X of 'X J symmetric', each scaled so that its first
    nonzero row-major entry is 1, as dense matrices."""
    size = 2 * r
    J = dense_J(r)
    rows = []
    for a in range(size):
        for b in range(a + 1, size):
            row = {a * size + k: J[k][b] for k in range(size) if J[k][b]}
            row.update({b * size + k: -J[k][a] for k in range(size) if J[k][a]})
            rows.append(row)
    basis = []
    for vec in linalg.nullspace(rows, size * size):
        lead = vec[min(vec)]
        basis.append([[vec.get(i * size + j, F0) / lead for j in range(size)]
                      for i in range(size)])
    return basis


def dense_sample_transvections(r, count, seed):
    """The transvections I + c J tu u of ``hcpair.sample_transvections``, as
    dense matrices built from the same draws."""
    rng = random.Random(seed)
    size = 2 * r
    J = dense_J(r)
    out = []
    pool = [F1, -F1, Fraction(2), Fraction(1, 2), Fraction(-1, 2)]
    for _ in range(count):
        u = [Fraction(rng.randint(-2, 2)) for _ in range(size)]
        if not any(u):
            u[rng.randrange(size)] = F1
        c = rng.choice(pool)
        ju = [sum((J[i][a] * u[a] for a in range(size)), F0) for i in range(size)]
        N = [[c * ju[i] * u[j] for j in range(size)] for i in range(size)]
        out.append([[(F1 if i == j else F0) + N[i][j] for j in range(size)] for i in range(size)])
    return out


def is_symplectic(g, J) -> bool:
    """Exact membership test g J tg = J."""
    return mat_mul(mat_mul(g, J), transpose(g)) == J


def dense_commutator(a, b):
    """xy - yx of two dense matrices, from two full matrix products."""
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(mat_mul(a, b), mat_mul(b, a))]


def dense_spo_pair(r: int, half: bool = True) -> SuperLieAlgebraData:
    """``hcpair.spo_pair`` with every [X_i, X_j] a dense matrix commutator and
    every odd bracket J(tv w + tw v)/2 a dense matrix, read in sp coordinates."""
    basis, J = dense_sp_basis(r), dense_J(r)
    gd, size = len(basis), 2 * r
    coords_in = linalg.span_coordinates([flat_entries(b) for b in basis])
    bracket = {}
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            coords = coords_in(flat_entries(dense_commutator(x, y)))
            assert coords is not None
            if coords:
                bracket[(i, j)] = coords
    for k, x in enumerate(basis):
        for a, row in enumerate(x):
            acted = {gd + b: c for b, c in enumerate(row) if c}
            if acted:
                bracket[(gd + a, k)] = acted
                bracket[(k, gd + a)] = {key: -c for key, c in acted.items()}
    scale = Fraction(1, 2) if half else F1
    for a in range(size):
        for b in range(size):
            matrix = zeros(size, size)
            for i in range(size):
                matrix[i][b] += scale * J[i][a]
                matrix[i][a] += scale * J[i][b]
            coords = coords_in(flat_entries(matrix))
            assert coords is not None
            if coords:
                bracket[(gd + a, gd + b)] = coords
    return SuperLieAlgebraData(
        labels=[f"X{i + 1}" for i in range(gd)] + [f"e{a + 1}" for a in range(size)],
        parity=[0] * gd + [1] * size,
        bracket=bracket,
    )


# --- two relations that hold by construction, so no report states them as
# checks: the PBW count of a truncated dual (its basis is the monomials of
# degree < order in the generators, and Lie(G) is their degree-1 duals), and
# Lie(G)_0 = Lie(G_ev) (the even quotient keeps exactly the odd-free terms of
# each Delta(g), and odd factors never cancel in a product of monomials)


def super_pbw_count(even_dim: int, odd_dim: int, order: int) -> int:
    """Monomials of total degree < order in even_dim commuting and odd_dim
    anticommuting variables: sum over odd supports b of C(odd_dim, b) times
    the C(order - 1 - b + even_dim, even_dim) even monomials of degree <= order - 1 - b."""
    return sum(
        comb(odd_dim, b) * comb(order - 1 - b + even_dim, even_dim)
        for b in range(min(odd_dim, order - 1) + 1)
    )


def check_lie_even(pres, lie) -> bool:
    """Lie(G)_0 = Lie(G_ev): ``lie``, the primitives of ``pres``, has the even
    quotient's primitives as its even labels, with equal brackets by label;
    read at order 3, the least order whose brackets are faithful."""
    even = primitives(truncated_dual(even_quotient(pres), 3))
    evens = lie.even_indices()
    if [lie.labels[i] for i in evens] != even.labels:
        return False

    def named(alg, i, j):
        return {alg.labels[k]: c for k, c in alg.bracket_basis(i, j).items()}

    return all(
        named(lie, a, b) == named(even, c, d)
        for c, a in enumerate(evens)
        for d, b in enumerate(evens)
    )


def envelope_pbw_count(g0_dim: int, v_dim: int, degree_bound: int) -> int:
    """PBW monomials of degree <= degree_bound: multisets over the g_0 basis
    times subsets of the V basis."""
    return super_pbw_count(g0_dim, v_dim, degree_bound + 1)


# --- associativity on every triple by definition, independent of the scans in
# ``superalg.table`` and of the letter relations that certify
# ``hcpair.truncated_envelope``


def brute_force_bad_triples(tab, dim, degree=None, bound=None):
    """Every (i, j, k) with (e_i e_j) e_k != e_i (e_j e_k), in lexicographic
    order, each side expanded from the cells term by term; given ``degree``
    and ``bound``, only the triples whose degrees sum to at most ``bound``."""
    if degree is None:
        degree, bound = [0] * dim, 0

    def times(u, v):
        out = {}
        for (i, a), (j, b) in cartesian(u.items(), v.items()):
            for k, c in tab.get((i, j), {}).items():
                out[k] = out.get(k, 0) + a * b * c
        return {k: c for k, c in out.items() if c}

    # within[r]: the indices of degree <= r, in increasing order
    within = [[x for x in range(dim) if degree[x] <= r] for r in range(bound + 1)]
    bad = []
    for i in within[bound]:
        for j in within[bound - degree[i]]:
            for k in within[bound - degree[i] - degree[j]]:
                if times(tab.get((i, j), {}), {k: 1}) != times({i: 1}, tab.get((j, k), {})):
                    bad.append((i, j, k))
    return bad


# --- the primitives of a truncated dual solved from D(u) = 1 (x) u + u (x) 1,
# independent of the lemma that reads them off the degree-1 duals in
# ``hyper.primitives``


def bilinear(tab, u, v):
    """The product u v on the table ``tab``, term by term."""
    out = {}
    for (i, a), (j, b) in cartesian(u.items(), v.items()):
        add_into(out, tab.get((i, j), {}), a * b)
    return out


def nullspace_primitives(dual):
    """``(lie, vectors)``: the primitive functionals of ``dual`` as a kernel basis
    of the coproduct rows, parity by parity, each scaled to lead with 1 and
    sorted by its leading index, and their super commutators in that basis."""
    if dual.order < 3:
        raise ValueError("order must be at least 3 for faithful brackets")
    dim = dual.dimension
    vectors = []
    for wanted in (EVEN, ODD):
        idxs = [i for i in range(dim) if dual.parity[i] == wanted]
        rows = {}
        for col, i in enumerate(idxs):
            for key, c in dual.coproduct.get(i, {}).items():
                add_into(rows.setdefault(key, {}), {col: c})
            # subtract the primitive pattern u (x) eps + eps (x) u
            add_into(rows.setdefault((i, 0), {}), {col: -F1})
            add_into(rows.setdefault((0, i), {}), {col: -F1})
        for vec in linalg.nullspace(list(rows.values()), len(idxs)):
            lead = vec[min(vec)]
            vectors.append({idxs[c]: vec[c] / lead for c in sorted(vec)})
    vectors.sort(key=lambda v: min(v))
    labels = [dual.labels[min(vec)] for vec in vectors]
    parity = [dual.parity[min(vec)] for vec in vectors]

    coords_in = linalg.span_coordinates(vectors)
    bracket = {}
    for a, u in enumerate(vectors):
        for b, v in enumerate(vectors):
            sign = -F1 if not (parity[a] and parity[b]) else F1
            comm = bilinear(dual.product, u, v)
            add_into(comm, bilinear(dual.product, v, u), sign)
            coords = coords_in(comm)
            if coords is None:
                raise StructureError(
                    f"bracket [{labels[a]}, {labels[b]}] escapes the primitive subspace"
                )
            if coords:
                bracket[(a, b)] = coords
    data = SuperLieAlgebraData(labels=labels, parity=parity, bracket=bracket)
    data.validate()
    return data, vectors


# --- the antipode of a finite Hopf table solved as the convolution inverse of
# the identity, independent of the formula in S_A that ``finite.bosonize`` uses


def solved_antipode(hopf):
    """Convolution inverse of the identity (integral values as int), or None.

    Unknown ``j * dim + l`` is the e_l coefficient of S(e_j); equation (a, r)
    is the e_r coefficient of sum S(a1) a2 = eps(a) 1."""
    dim = hopf.dimension
    get = hopf.mult.get
    rows = []
    rhs = []
    for a in range(dim):
        equations = {}
        for (j, k), c in hopf.delta.get(a, {}).items():
            for l in range(dim):
                for r, coeff in get((l, k), {}).items():
                    add_into(equations.setdefault(r, {}), {j * dim + l: coeff}, c)
        for r in range(dim):
            rows.append(equations.get(r, {}))
            rhs.append(hopf.counit[a] * hopf.unit.get(r, 0))
    solution = linalg.solve(rows, rhs, dim * dim)
    if solution is None:
        return None
    antipode = {j: {} for j in range(dim)}
    for x, c in solution.items():  # in increasing x
        antipode[x // dim][x % dim] = c
    return {j: whole_as_int(row) for j, row in antipode.items()}


# --- the odd cotangent space A_1 / A_0^+ A_1 by truncated row reduction,
# independent of the lemma that reads it off the odd generators in
# ``hopf.compute_W``


def rref_cotangent(pres):
    """Names of the odd generators that span A_1 / A_0^+ A_1, found by row
    reducing the products (nonconstant even monomial) * (odd monomial) among
    the odd monomials of degree <= 3, the least degree holding both kinds of
    product, x * tau and (tau1 tau2) * tau3.  Raises when a non-pivot column
    is not a single odd generator."""
    gens = pres.gens
    degree_bound = 3
    monos = _monomials_up_to(gens, degree_bound)
    odd_monos = [m for m in monos if m.parity == ODD]
    index = {m: i for i, m in enumerate(odd_monos)}
    rows = []
    for u in monos:
        if u.parity != EVEN or is_one(u):
            continue
        for w in odd_monos:
            if u.degree() + w.degree() > degree_bound:
                continue
            prod = mul_monomials(u, w)
            if prod is not None:
                sign, mono = prod
                rows.append({index[mono]: sign})
    _, pivots = linalg.rref(rows)
    pivot_set = set(pivots)
    names = []
    for i, mono in enumerate(odd_monos):
        if i in pivot_set:
            continue
        if any(mono.evens) or mono.odds.bit_count() != 1:
            raise AssertionError(f"unexpected odd cotangent representative {mono}")
        names.append(gens.odds[mono.odds.bit_length() - 1])
    return names


# --- the exterior pairing by its permutation sum, independent of the rule
# <f_I, v_J> = [I == J] on normal blades that ``finite.dual_iso_check`` assumes


def pairing_on_sequences(fs, vs):
    """Brute-force sum over permutations of sgn(s) f_1(v_s(1)) ... f_k(v_s(k)),
    for dual bases: f_i(v_j) = [i == j]."""
    if len(fs) != len(vs):
        return F0
    total = F0
    k = len(fs)
    for perm in permutations(range(k)):
        inversions = sum(1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b])
        if all(fs[a] == vs[perm[a]] for a in range(k)):
            total += F1 if inversions % 2 == 0 else -F1
    return total


# --- the integer kernel of ``superalg.grassmann`` on matrices of ``SuperPoly``
# entries (lists of rows), for differential tests against ``oracle_product``


def poly_mat_mul(a, b, alg):
    """``a * b`` by ``grassmann._poly_mat_mul``; ``b`` has at least one row."""
    gens = alg.gens
    return _from_ints(_poly_mat_mul(_to_ints(a, gens), _to_ints(b, gens), len(b[0])), gens)


def poly_mat_inv(rows, alg):
    """The inverse by ``grassmann.grassmann_matrix_inv``."""
    return _from_ints(grassmann_matrix_inv(_to_ints(rows, alg.gens)), alg.gens)


def series_matrix_inv(a):
    """The inverse of an integer-form matrix A = B + S (body B, soul S) by the
    terminating Neumann series sum_i (-N)^i B^-1 with N = B^-1 S: each term is
    the whole previous one multiplied on the left by -N, and the running sum
    is gcd-reduced after each term.  An oracle for the soul-degree recurrence
    of ``grassmann_matrix_inv``."""
    rows, den = a
    body_inv = linalg.invert(_body(a))
    if body_inv is None:
        raise NotAPoint("matrix body is singular")
    bden, cleared_inv = cleared(body_inv)
    binv = ([[{0: row[j]} if j in row else {} for j in range(len(rows))]
             for row in cleared_inv.values()], bden)
    neg_soul = ([[{m: -c for m, c in terms.items() if m} for terms in row] for row in rows], den)
    neg_nil = _poly_mat_mul(binv, neg_soul, len(rows))
    total = term = binv
    while True:
        term = _poly_mat_mul(neg_nil, term, len(rows))
        if not any(terms for row in term[0] for terms in row):
            return total
        total = _int_add(total, term)


# --- small operations that only the tests need


def child_env() -> dict:
    """The environment for a child interpreter: this checkout's ``src`` first on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def associativity_outcome(dual):
    """The witness ``check_associative_unital`` raises on ``dual``, else None."""
    try:
        dual.check_associative_unital()
    except StructureError as exc:
        return str(exc)
    return None


def replace(obj, **changes):
    """A shallow copy of ``obj`` with the attributes in ``changes`` set."""
    out = copy.copy(obj)
    for name, value in changes.items():
        if not hasattr(out, name):
            raise AttributeError(f"{type(obj).__name__} has no attribute {name!r}")
        setattr(out, name, value)
    return out


def is_one(mono: SuperMonomial) -> bool:
    return not mono.odds and not any(mono.evens)


def delta_of(pres, poly: SuperPoly) -> TensorPoly:
    """The coproduct of ``pres`` on a polynomial, monomial by monomial."""
    terms: dict = {}
    for mono, coeff in poly.terms.items():
        add_into(terms, pres.delta_monomial(mono).terms, coeff)
    return TensorPoly((pres.gens, pres.gens), terms)


def flip(t: TensorPoly) -> TensorPoly:
    """The super symmetry ``a⊗b -> (-1)^{|a||b|} b⊗a`` of a two-slot tensor."""
    if len(t.gens) != 2:
        raise ValueError("flip is defined on two-slot tensors")
    return TensorPoly((t.gens[1], t.gens[0]), {
        (m2, m1): -c if m1.parity and m2.parity else c for (m1, m2), c in t.terms.items()
    })


def is_left_integral(hopf, functional) -> bool:
    """(id (x) I) D(a) = I(a) 1 for every basis element a, from the tables."""
    for a in range(hopf.dimension):
        acted = {}
        for (j, k), c in hopf.delta.get(a, {}).items():
            add_into(acted, {j: c * functional.get(k, 0)})
        scaled = {r: u * functional.get(a, 0) for r, u in hopf.unit.items()}
        if acted != {r: c for r, c in scaled.items() if c}:
            return False
    return True
