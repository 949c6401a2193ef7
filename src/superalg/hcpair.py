"""Harish-Chandra pairs, the symplectic-odd construction, and envelopes.

A Harish-Chandra pair is held as the even/odd split of a super Lie algebra
(``SuperLieAlgebraData``): the even part g_0 is a Lie algebra, the odd part
V is a right g_0-module through v <| X = [v, X], and [V, V] lands in g_0.
``validate_hcpair`` reads the pair axioms off the bracket of any such data,
whatever the order of its even and odd indices.  The flagship instance takes
the symplectic Lie algebra (matrices X with XJ symmetric) acting on row
vectors, with bracket J(tv w + tw v)/2, and is verified exactly: super
Jacobi from its odd generators in ``int`` (``build_super_lie``), and the
group translations on cleared denominators (``first_nonequivariant``).
Every matrix is sparse (``superalg.linalg``): J and the transvections are
rows ``{i: {j: c}}``, and an sp basis matrix is a vector in its row-major
entries i * 2r + j.
The truncated PBW envelope of a super Lie algebra is its rows of left
multiplication by one letter on the ordered normal words (the PBW theorem
makes these words a basis, and the rows fix every product), and the bracket
relations of the rows prove it associative exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

from . import linalg
from .core import F0, F1
from .liealg import StructureError, SuperLieAlgebraData
from .table import (
    Vec, add_into, basis_times, cleared, image, times_basis, transpose, whole_as_int,
)

Rows = dict[int, Vec]


def standard_J(r: int) -> Rows:
    """Block form (0 I; -I 0) as sparse rows; any invertible antisymmetric choice is isomorphic."""
    J = {i: {r + i: F1} for i in range(r)}
    J.update({r + i: {i: -F1} for i in range(r)})
    return J


def sp_basis(r: int) -> list[Vec]:
    """A basis of sp_2r: the solutions X of 'X J symmetric' for J = ``standard_J(r)``.

    Each basis matrix is a sparse vector in the row-major unknowns
    i * 2r + j of its entries, scaled so that its first nonzero entry is 1.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    size = 2 * r
    columns = transpose(standard_J(r), range(size))
    # constraints: (XJ)[a][b] - (XJ)[b][a] = 0, where (XJ)[a][b] = sum_k X[a][k] J[k][b]
    rows = []
    for a in range(size):
        for b in range(a + 1, size):
            row = {a * size + k: c for k, c in columns[b].items()}
            row.update({b * size + k: -c for k, c in columns[a].items()})
            rows.append(row)
    basis = []
    for vec in linalg.nullspace(rows, size * size):
        lead = vec[min(vec)]
        basis.append({p: vec[p] / lead for p in sorted(vec)})
    return basis


def _commutator(x: Vec, y: Vec, size: int) -> Vec:
    """xy - yx for two ``size`` x ``size`` matrices in the row-major form of ``sp_basis``."""
    out: Vec = {}
    for u, v, sign in ((x, y, 1), (y, x, -1)):
        for p, c in u.items():
            for q, d in v.items():
                if p % size == q // size:  # (i, j) times (j, l) lands at (i, l)
                    add_into(out, {p - p % size + q % size: c * d}, sign)
    return out


def validate_hcpair(lie: SuperLieAlgebraData) -> list[str]:
    """Check the three pair axioms on the bracket of ``lie``; returns failures.

    With X in the even part and u, v, w odd, the axioms are: [V, V] is
    symmetric, it is equivariant ([u <| X, w] + [u, w <| X] = [[u, w], X],
    where u <| X = [u, X]), and v <| [v,v] = 0.  The first two are
    multilinear, so basis tuples suffice.  For v = sum c_i e_i the third is a
    cubic form in commuting c_i; it vanishes identically when each
    coefficient does, and the coefficient of c_i c_j c_a is the sum of
    e_a <| [e_i, e_j] over the distinct orderings of (i, j, a); the first
    triple whose coefficient survives is the witness.
    """
    failures: list[str] = []
    evens, odds = lie.even_indices(), lie.odd_indices()
    br, labels, table = lie.bracket_basis, lie.labels, lie.bracket

    # one witness per unordered pair: (i, j) and (j, i) compare the same cells
    for i, j in combinations(odds, 2):
        if br(i, j) != br(j, i):
            failures.append(f"symmetry fails at ({labels[i]}, {labels[j]})")

    for triple in combinations_with_replacement(odds, 3):
        coefficient: Vec = {}
        for i, j, a in set(permutations(triple)):
            for k, ck in br(i, j).items():
                add_into(coefficient, br(a, k), ck)
        if coefficient:
            at = ", ".join(labels[i] for i in triple)
            cell = ", ".join(f"{labels[k]}: {c}" for k, c in sorted(coefficient.items()))
            failures.append(f"v <| [v,v] does not vanish at ({at}): {{{cell}}}")
            break

    for a in odds:
        for b in odds:
            for k in evens:
                # [a <| X_k, b] + [a, b <| X_k] = [[a, b], X_k]
                lhs = times_basis(table, br(a, k), b)
                add_into(lhs, basis_times(table, a, br(b, k)))
                if lhs != times_basis(table, br(a, b), k):
                    failures.append(
                        f"equivariance fails at ({labels[a]}, {labels[b]}, {labels[k]})"
                    )
    return failures


def spo_pair(r: int, half: bool = True) -> SuperLieAlgebraData:
    """The pair behind the ortho-symplectic supergroup of type (1|2r).

    The even part is ``sp_basis(r)`` (labels X1, ...); V is the space of row
    vectors of length 2r (labels e1, ...) with the right matrix action, so
    [e_a, X_k] is row a of the k-th basis matrix; the bracket of V is
    J(tv w + tw v)/2.  Passing ``half=False`` drops the 1/2 normalisation (a
    negative-control variant).
    """
    basis, size = sp_basis(r), 2 * r
    gd = len(basis)
    coords_in = linalg.span_coordinates(basis)
    bracket: dict[tuple[int, int], Vec] = {}
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            coords = coords_in(_commutator(x, y, size))
            if coords is None:
                raise StructureError("sp basis is not closed under commutators")
            if coords:
                bracket[(i, j)] = coords
    for k, x in enumerate(basis):
        acted: Rows = {}  # row a of X_k, in odd indices
        for p, c in x.items():
            acted.setdefault(p // size, {})[gd + p % size] = c
        for a, row in acted.items():
            bracket[(gd + a, k)] = row
            bracket[(k, gd + a)] = {key: -c for key, c in row.items()}
    scale = Fraction(1, 2) if half else F1
    columns = transpose(standard_J(r), range(size))  # one nonzero per column
    for a in range(size):
        for b in range(size):
            # J (t e_a e_b + t e_b e_a) holds column a of J in column b, and column b in column a
            sym: Vec = {}
            add_into(sym, {i * size + b: c for i, c in columns[a].items()}, scale)
            add_into(sym, {i * size + a: c for i, c in columns[b].items()}, scale)
            coords = coords_in(sym)
            if coords is None:
                raise StructureError("odd bracket does not land in sp")
            if coords:
                bracket[(gd + a, gd + b)] = coords
    return SuperLieAlgebraData(
        labels=[f"X{i + 1}" for i in range(gd)] + [f"e{a + 1}" for a in range(size)],
        parity=[0] * gd + [1] * size,
        bracket=bracket,
    )


def abelian_pair(g0_dim: int, v_dim: int) -> SuperLieAlgebraData:
    """All brackets zero and trivial action; the semi-direct degenerate case."""
    return SuperLieAlgebraData(
        labels=[f"X{i + 1}" for i in range(g0_dim)] + [f"e{a + 1}" for a in range(v_dim)],
        parity=[0] * g0_dim + [1] * v_dim,
    )


def build_super_lie(lie: SuperLieAlgebraData) -> SuperLieAlgebraData:
    """``lie`` after its grading, super antisymmetry and super Jacobi pass;
    raises StructureError with the offending tuple.

    Super Jacobi is certified on the triples (g, b, c) with g in a generating
    set G, by the lemma and proof in the ``superalg.liealg`` docstring; for
    ``spo_pair``, G is the odd indices alone.
    """
    lie.validate()
    return lie


# --- truncated PBW envelope -----------------------------------------------------


class TruncatedEnvelope:
    """Degree-bounded piece of U(g) on its ordered normal words, as its letter rows.

    ``rows[a][x]`` expands e_a e_x in the normal words for each word x with
    |x| < ``degree_bound``; every other product is e_(a w) e_v = e_a (e_w e_v).
    """

    def __init__(self, degree_bound: int, words: list[tuple[int, ...]], labels: list[str],
                 dims_by_degree: list[int], rows: list[dict[int, Vec]]) -> None:
        self.degree_bound = degree_bound
        self.words = words
        self.labels = labels
        self.dims_by_degree = dims_by_degree
        self.rows = rows

    @property
    def dimension(self) -> int:
        return len(self.words)


def _normal_words(parity: list[int], degree: int) -> list[tuple[int, ...]]:
    """Non-decreasing words of length <= degree in which no odd letter repeats."""
    out: list[tuple[int, ...]] = []

    def extend(word: tuple[int, ...], last: int, remaining: int):
        out.append(word)
        if remaining == 0:
            return
        for letter in range(last, len(parity)):
            if parity[letter] and word and word[-1] == letter:
                continue  # a·a = [a,a]/2 for odd a
            extend(word + (letter,), letter, remaining - 1)

    extend((), 0, degree)
    return sorted(out, key=lambda w: (len(w), w))


def _first_bracket_failure(left, words, parity, bracket, bound) -> tuple[int, int, int] | None:
    """The first (a, b, y), in that order, at which the letter rows break a
    bracket relation on e_y, else None: b <= a are letters, |y| <= bound - 2,
    and the relation is L_a L_b - (-1)^{|a||b|} L_b L_a = sum_k [a,b]_k L_k for
    b < a and L_a L_a = sum_k ([a,a]_k / 2) L_k for odd a = b.  Only the y that
    begin with a letter below b, or with b itself when b is odd, are compared:
    on every other y, L_b e_y is the normal word (b, *y) and the rows satisfy
    the relation by construction."""
    tops = [y for y, word in enumerate(words) if len(word) <= bound - 2]
    for a, row in enumerate(left):
        for b in range(a + 1):
            if a == b and not parity[a]:
                continue
            swap = 1 if parity[a] and parity[b] else -1
            terms = [(left[k], c if a != b else Fraction(c, 2)) for k, c in bracket(a, b).items()]
            for y in tops:
                word = words[y]
                if not word or word[0] > b or (word[0] == b and not parity[b]):
                    continue
                out = image(row, left[b][y])
                if a != b:
                    add_into(out, image(left[b], row[y]), swap)
                for rows, c in terms:
                    add_into(out, rows[y], -c)
                if out:
                    return a, b, y
    return None


def truncated_envelope(lie: SuperLieAlgebraData, degree_bound: int) -> TruncatedEnvelope:
    """U(lie) on the normal words of length <= degree_bound, as its letter rows.

    ``lie`` must satisfy the super Lie axioms (``build_super_lie`` and
    ``primitives`` check them).  By the PBW theorem the ordered normal words
    are a basis of U(lie), so its product is fixed by the letter rows
    ``rows[a][x] = e_a e_x`` for the normal words x with |x| < bound, built in
    order of |x| and then of a, each from rows already built:
    e_a e_(b y) is the normal word (a, b, *y) when a < b or a = b is even,
    [a,a]/2 e_y when a = b is odd, and +-e_b (e_a e_y) + [a,b] e_y when b < a.
    Every other product is e_(a w) e_v = e_a (e_w e_v), certified associative
    inside the bound by the bracket relations of the letter rows
    (``_first_bracket_failure``), as in the standard proof of the PBW theorem
    (Bergman, "The diamond lemma for ring theory", Adv. Math. 29, 1978; Kac,
    "Lie superalgebras", Adv. Math. 26, 1977).  *Sketch.*  The products
    e_a e_b and e_(b a) e_y come from the same rows, so the relation at
    (a, b, y) is (e_a e_b) e_y = e_a (e_b e_y): a failure raises with a
    nonassociative triple inside the bound.  When none fails, the rows make
    the words a U(lie)-module generated by 1, which makes the product
    associative inside the bound.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    parity, bracket = lie.parity, lie.bracket_basis
    words = _normal_words(parity, degree_bound)
    index = {w: i for i, w in enumerate(words)}
    labels = ["*".join(lie.labels[a] for a in w) or "1" for w in words]
    lengths = [len(w) for w in words]
    dims = [lengths.count(d) for d in range(degree_bound + 1)]

    left: list[dict[int, Vec]] = [{} for _ in parity]
    for length in range(degree_bound):
        of_length = [x for x, w in enumerate(words) if len(w) == length]
        for a, row in enumerate(left):
            for x in of_length:
                word = words[x]
                if not word or a < word[0] or (a == word[0] and not parity[a]):
                    row[x] = {index[(a,) + word]: 1}
                    continue
                b, y = word[0], index[word[1:]]
                out: Vec = {}
                if a == b:
                    for k, c in bracket(a, a).items():
                        add_into(out, left[k][y], Fraction(c, 2))
                else:
                    add_into(out, image(left[b], left[a][y]), -1 if parity[a] and parity[b] else 1)
                    for k, c in bracket(a, b).items():
                        add_into(out, left[k][y], c)
                row[x] = whole_as_int(out)

    failure = _first_bracket_failure(left, words, parity, bracket, degree_bound)
    if failure is not None:
        a, b, y = failure
        raise StructureError(
            f"rewriting is not confluent at words ({lie.labels[a]}, {lie.labels[b]}, {labels[y]})"
        )

    return TruncatedEnvelope(
        degree_bound=degree_bound, words=words, labels=labels,
        dims_by_degree=dims, rows=left,
    )


# --- group-level symplectic checks ------------------------------------------------


def sample_transvections(r: int, count: int, seed: int) -> list[Rows]:
    """Exact unipotent symplectic elements I + c J tu u (squares to zero), as sparse rows."""
    rng = random.Random(seed)
    size = 2 * r
    J = standard_J(r)
    out = []
    pool = [F1, -F1, Fraction(2), Fraction(1, 2), Fraction(-1, 2)]
    for _ in range(count):
        u = [Fraction(rng.randint(-2, 2)) for _ in range(size)]
        if not any(u):
            u[rng.randrange(size)] = F1
        c = rng.choice(pool)
        # N = c J tu u lies in sp, N^2 = 0 and (I + N) J t(I + N) = J
        cju = [c * sum((x * u[a] for a, x in J[i].items()), F0) for i in range(size)]
        out.append({i: {j: x for j in range(size) if (x := (F1 if i == j else F0) + cju[i] * u[j])}
                    for i in range(size)})
    return out


def first_nonequivariant(lie: SuperLieAlgebraData, gs: list[Rows]) -> int | None:
    """The first index i at which [u g, v g] = g^-1 [u, v] g fails for some
    odd u, v with g = ``gs[i]``, exactly, or None when every g passes.

    Each g is a matrix on the odd span as sparse rows; a singular g fails.
    An even element Y is read as the matrix of its action on the odd span,
    row i being [e_i, Y]; for ``spo_pair`` this is the defining
    representation.  The comparison runs in ``int``: with G = d g and
    H = e g^-1 the integer matrices of ``cleared``, and B'[a,b] the matrix of
    [e_a, e_b] read off the integer-scaled bracket (a fixed nonzero multiple
    of the true one), it is e sum G[a][a'] G[b][b'] B'[a',b'] = d H B'[a,b] G,
    which is the identity above times d^2 e and that multiple.  The bracket
    is scaled and every B'[a,b] read once for all of ``gs``.
    """
    odds = lie.odd_indices()
    size = len(odds)
    span = range(size)
    _, table = cleared(lie.bracket)
    at = {o: p for p, o in enumerate(odds)}
    # the nonzero entries (i, j, c) of B'[a, b]
    entries = {}
    for a, oa in enumerate(odds):
        for b, ob in enumerate(odds):
            vec = table.get((oa, ob))
            if vec:
                entries[(a, b)] = [(i, at[j], c) for i, oi in enumerate(odds)
                                   for j, c in basis_times(table, oi, vec).items()]
    for index, g in enumerate(gs):
        ginv = linalg.invert(g)
        if ginv is None:
            return index
        d, G = cleared(g)
        e, H = cleared(ginv)
        h_columns = transpose(H, span)
        for a in span:
            for b in span:
                # e_a g is row a of g, so [e_a g, e_b g] = sum g[a][a'] g[b][b'] [e_a', e_b']
                lhs = [[0] * size for _ in span]
                for a2, ga in G[a].items():
                    for b2, gb in G[b].items():
                        cc = e * ga * gb
                        for i, j, c in entries.get((a2, b2), ()):
                            lhs[i][j] += cc * c
                rhs = [[0] * size for _ in span]
                for i, k, c in entries.get((a, b), ()):
                    for i2, h in h_columns[i].items():
                        row, hc = rhs[i2], d * h * c
                        for j2, gk in G[k].items():
                            row[j2] += hc * gk
                if lhs != rhs:
                    return index
    return None
