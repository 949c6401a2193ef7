"""Harish-Chandra pairs, the symplectic-odd construction, and envelopes.

A Harish-Chandra pair is held as the even/odd split of a super Lie algebra
(``SuperLieAlgebraData``): the even part g_0 is a Lie algebra, the odd part
V is a right g_0-module through v <| X = [v, X], and [V, V] lands in g_0.
``validate_hcpair`` reads the pair axioms off the bracket of any such data,
whatever the order of its even and odd indices.  The flagship instance takes
the symplectic Lie algebra (matrices X with XJ symmetric) acting on row
vectors, with bracket J(tv w + tw v)/2, and is verified exactly: super
Jacobi from its odd generators in ``int`` (``build_super_lie``), and the
group translations on cleared denominators (``group_bracket_equivariance``).
The truncated PBW envelope of a super Lie algebra is built on its ordered
normal words from the rows of left multiplication by one letter (the PBW
theorem makes these words a basis), and the bracket relations of the rows
prove it associative exactly.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from . import linalg
from .core import F0, F1
from .liealg import StructureError, SuperLieAlgebraData
from .table import Vec, add_into, basis_times, cleared, image, times_basis, whole_as_int

Matrix = list[list[Fraction]]


def standard_J(r: int) -> Matrix:
    """Block form (0 I; -I 0); any invertible antisymmetric choice is isomorphic."""
    size = 2 * r
    J = linalg.zeros(size, size)
    for i in range(r):
        J[i][r + i] = F1
        J[r + i][i] = -F1
    return J


def sp_basis(r: int) -> list[Matrix]:
    """A basis of sp_2r: the solutions X of 'X J symmetric' for J = ``standard_J(r)``.

    Each basis matrix is scaled so that its first nonzero row-major entry is 1.
    """
    if r < 1:
        raise ValueError("need r >= 1")
    size = 2 * r
    J = standard_J(r)
    # unknowns: entries of X, row-major; constraints: XJ - t(XJ) = 0
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


def _entries(matrix: Matrix) -> Vec:
    """A matrix as a sparse vector in the row-major unknowns of ``sp_basis``."""
    size = len(matrix)
    return {i * size + j: c for i, row in enumerate(matrix) for j, c in enumerate(row) if c}


def _commutator(x: Vec, y: Vec, size: int) -> Vec:
    """xy - yx for two ``size`` x ``size`` matrices in the form of ``_entries``."""
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

    for i in odds:
        for j in odds:
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
    basis, J = sp_basis(r), standard_J(r)
    gd, size = len(basis), 2 * r
    entries = [_entries(b) for b in basis]
    coords_in = linalg.span_coordinates(entries)
    bracket: dict[tuple[int, int], Vec] = {}
    for i, x in enumerate(entries):
        for j, y in enumerate(entries):
            coords = coords_in(_commutator(x, y, size))
            if coords is None:
                raise StructureError("sp basis is not closed under commutators")
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
            # J (t e_a e_b + t e_b e_a): entry (i, j) = J[i][a] [b==j] + J[i][b] [a==j]
            matrix = linalg.zeros(size, size)
            for i in range(size):
                matrix[i][b] += scale * J[i][a]
                matrix[i][a] += scale * J[i][b]
            coords = coords_in(_entries(matrix))
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
    set G (``superalg.liealg``).  *Lemma.*  Once the bracket is graded and
    super antisymmetric, the x whose ad x is a super-derivation (the x with
    a zero defect at every (x, b, c)) form a subspace closed under the
    bracket, because ad [x, y] = [ad x, ad y] for such x; so Jacobi on G
    gives Jacobi everywhere when G and [G, G] span.  G is the odd indices
    and the even ones that no [odd, odd] bracket reaches (the non-pivot
    columns of one ``rref``); for ``spo_pair`` the odd indices alone.  The
    triples run in ``int`` on the bracket scaled by the lcm L of its
    denominators, whose defect is L^2 times the true one; a defect falls
    back to the dense scan, which names the first failing triple.
    """
    lie.validate()
    return lie


# --- truncated PBW envelope -----------------------------------------------------


@dataclass
class TruncatedEnvelope:
    """Degree-bounded piece of U(g) on its ordered normal words.

    ``product[(i, j)]`` expands ``words[i] * words[j]`` in the normal words,
    for every pair whose lengths sum to at most ``degree_bound``.
    """

    degree_bound: int
    words: list[tuple[int, ...]]
    labels: list[str]
    dims_by_degree: list[int]
    product: dict[tuple[int, int], Vec]

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
    """The product table of U(lie) on the normal words of length <= degree_bound.

    ``lie`` must satisfy the super Lie axioms (``build_super_lie`` and
    ``primitives`` check them).  By the PBW theorem the ordered normal words
    are a basis of U(lie), so the table is fixed by the letter rows
    ``left[a][x] = e_a e_x`` for the normal words x with |x| < bound, built in
    order of |x| and then of a, each from rows already built:
    e_a e_(b y) is the normal word (a, b, *y) when a < b or a = b is even,
    [a,a]/2 e_y when a = b is odd, and +-e_b (e_a e_y) + [a,b] e_y when b < a.
    Every other cell is e_(a w) e_v = e_a (e_w e_v).  The table is certified
    associative inside the bound by the bracket relations of the letter rows
    (``_first_bracket_failure``), as in the standard proof of the PBW theorem
    (Bergman, "The diamond lemma for ring theory", Adv. Math. 29, 1978; Kac,
    "Lie superalgebras", Adv. Math. 26, 1977).  *Sketch.*  The cells (a, b) and
    (b a, y) come from the same rows, so the relation at (a, b, y) is
    (e_a e_b) e_y = e_a (e_b e_y): a failure raises with a nonassociative triple
    inside the bound.  When none fails, the rows make the words a U(lie)-module
    generated by 1, which makes the table associative inside the bound.
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

    product: dict[tuple[int, int], Vec] = {}
    for i, word in enumerate(words):
        # words are sorted by length, so the v with |word| + |v| <= bound are a prefix
        fits = range(bisect_right(lengths, degree_bound - lengths[i]))
        if not word:
            product.update(((i, j), {j: 1}) for j in fits)
            continue
        row, w = left[word[0]], index[word[1:]]
        for j in fits:
            product[(i, j)] = whole_as_int(image(row, product[(w, j)]))
    return TruncatedEnvelope(
        degree_bound=degree_bound, words=words, labels=labels,
        dims_by_degree=dims, product=product,
    )


# --- group-level symplectic checks ------------------------------------------------


def sample_transvections(r: int, count: int, seed: int) -> list[Matrix]:
    """Exact unipotent symplectic elements I + c J tu u (squares to zero)."""
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
        ju = [sum((J[i][a] * u[a] for a in range(size)), F0) for i in range(size)]
        N = [[c * ju[i] * u[j] for j in range(size)] for i in range(size)]
        g = [[(F1 if i == j else F0) + N[i][j] for j in range(size)] for i in range(size)]
        out.append(g)
    return out


def group_bracket_equivariance(lie: SuperLieAlgebraData, g: Matrix) -> bool:
    """[u g, v g] = g^-1 [u, v] g for odd u, v, exactly.

    An even element Y is read as the matrix of its action on the odd span,
    row i being [e_i, Y]; for ``spo_pair`` this is the defining
    representation.  The comparison runs in ``int``: with G = d g and
    H = e g^-1 the integer matrices of ``cleared``, and B'[a,b] the matrix of
    [e_a, e_b] read off the integer-scaled bracket (a fixed nonzero multiple
    of the true one), it is e sum G[a][a'] G[b][b'] B'[a',b'] = d H B'[a,b] G,
    which is the identity above times d^2 e and that multiple.  False when g
    is singular.
    """
    odds = lie.odd_indices()
    size = len(odds)
    ginv = linalg.invert(g)
    if ginv is None:
        return False
    d, G = cleared({i: dict(enumerate(row)) for i, row in enumerate(g)})
    e, H = cleared({i: dict(enumerate(row)) for i, row in enumerate(ginv)})
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
    span = range(size)
    for a in span:
        for b in span:
            # e_a g is row a of g, so [e_a g, e_b g] = sum g[a][a'] g[b][b'] [e_a', e_b']
            lhs = [[0] * size for _ in span]
            for (a2, b2), nonzero in entries.items():
                cc = e * G[a][a2] * G[b][b2]
                if cc:
                    for i, j, c in nonzero:
                        lhs[i][j] += cc * c
            rhs = [[0] * size for _ in span]
            for i, k, c in entries.get((a, b), ()):
                Gk = G[k]
                for i2, row in zip(span, rhs):
                    hc = d * H[i2][i] * c
                    if hc:
                        for j2 in span:
                            row[j2] += hc * Gk[j2]
            if lhs != rhs:
                return False
    return True
