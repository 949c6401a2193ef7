"""Grassmann algebras, parity-patterned super matrices and GL(m|n) points.

A point of the general linear supergroup over a Grassmann algebra R is a
block matrix (X P; Q Y) with X, Y even-entried and P, Q odd-entried, whose
diagonal blocks have invertible rational body.  Inversion is exact: invert
the body, held as sparse rows (``superalg.linalg``), over the rationals,
then solve for the inverse one soul degree at a time.  The degree-d part
is a sum of products of lower-degree parts; it is exact because every part
is homogeneous and the degrees of blades only add in a product
(``grassmann_matrix_inv``).

A point is held in one form, the integer kernel's, and nothing writes to it
after construction.  A blade t_{i1}...t_{ir} (0-based i1 < ... < ir) is the
int bitmask with bits i1..ir set, an entry is a dict from bitmask to int
numerator, and one positive denominator is shared by the whole matrix and
reduced by a gcd after each product, so equal points have equal integer
forms.  The bitmask is ``SuperMonomial.odds``, so entries cross to and from
``SuperPoly`` without re-encoding, and only at the API edge: the constructor,
``rows``, the blocks, ``map_entries`` and ``decomposition_coords``.  Two
blades with a common bit multiply to zero; otherwise m1 * m2 =
(-1)^popcount(m2 & cross(m1)) * (m1 | m2), the sign rule of ``core.cross``.
Nothing is sized by 2^k.  Being immutable, a point keeps its body inverses
and its coordinates (X, P, Q, Y, X^-1 P, Y^-1 Q) once computed, and
``is_gl_point``, ``inv``, ``antipode_blocks`` and ``decomposition_coords``
share them; the uncached ``grassmann_matrix_inv`` and the group law
g g^-1 = 1 stay the oracles for those shared inverses.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import partialmethod
from math import gcd, lcm

from . import linalg
from .core import (
    F0,
    F1,
    GeneratorSet,
    GeneratorSetMismatch,
    SuperMonomial,
    SuperPoly,
    cross,
    odd_positions,
    one_monomial,
)
from .table import cleared, image


class NotInvertible(ValueError):
    """Grassmann element with zero body has no inverse."""


class NotAPoint(ValueError):
    """Matrix violates the GL(m|n) parity pattern or has a singular body."""


class GrassmannAlgebra:
    """The exterior algebra on k odd generators t1..tk (dimension 2^k)."""

    def __init__(self, k: int):
        if k < 0:
            raise ValueError("need k >= 0")
        self.k = k
        self.gens = GeneratorSet(odds=[f"t{i}" for i in range(1, k + 1)])

    def zero(self) -> SuperPoly:
        return SuperPoly.zero(self.gens)

    def one(self) -> SuperPoly:
        return SuperPoly.one(self.gens)

    def scalar(self, value) -> SuperPoly:
        return SuperPoly.scalar(self.gens, value)

    def theta(self, i: int) -> SuperPoly:
        """The i-th odd generator (1-based)."""
        return SuperPoly.generator(self.gens, f"t{i}")

    def blade(self, support: tuple[int, ...], coeff=F1) -> SuperPoly:
        """Monomial with the given increasing 0-based support."""
        return SuperPoly.monomial(self.gens, SuperMonomial((), _mask(support, self.k)), coeff)

    def __eq__(self, other):
        return isinstance(other, GrassmannAlgebra) and self.gens == other.gens

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"GrassmannAlgebra(k={self.k})"


def invert_element(r: SuperPoly) -> SuperPoly:
    """Exact inverse of a Grassmann element with nonzero body.

    Computed as the 1x1 case of the matrix inverse, one soul degree at a time.
    """
    if not r.body():
        raise NotInvertible("element has zero body")
    if any(any(m.evens) for m in r.terms):
        raise ValueError("not a Grassmann element: it has even generators")
    return _from_ints(grassmann_matrix_inv(_to_ints([[r]], r.gens)), r.gens)[0][0]


def _mask(support, k: int) -> int:
    """The blade bitmask of strictly increasing 0-based positions of k generators."""
    mask = 0
    for i in support:
        if not 0 <= i < k or mask >> i:
            raise ValueError(f"blade support {list(support)} is not increasing positions below {k}")
        mask |= 1 << i
    return mask


# --- integer bitmask kernel (see the module docstring) ----------------------
#
# A matrix is held as ``(rows, den)``: ``rows[i][j]`` maps a blade bitmask to
# a nonzero int numerator and ``den > 0`` is shared by every entry.  Products,
# sums and inverses come out gcd-reduced, so equal matrices are equal tuples.

IntMatrix = tuple[list[list[dict[int, int]]], int]


def _to_ints(rows, gens: GeneratorSet) -> IntMatrix:
    """Integer form of a matrix of ``SuperPoly`` entries over ``gens``; the lcm
    of reduced denominators leaves it gcd-reduced."""
    if any(entry.gens != gens for row in rows for entry in row):
        raise GeneratorSetMismatch(f"a matrix entry does not lie in {gens!r}")
    den = lcm(*(c.denominator for row in rows for entry in row for c in entry.terms.values()))
    return [
        [{mono.odds: c.numerator * (den // c.denominator) for mono, c in entry.terms.items()}
         for entry in row]
        for row in rows
    ], den


def _from_ints(mat: IntMatrix, gens: GeneratorSet) -> list[list[SuperPoly]]:
    """``SuperPoly`` entries over ``gens`` from the integer form."""
    rows, den = mat
    evens = one_monomial(gens).evens
    out = []
    for row in rows:
        out_row = []
        for terms in row:
            entry = SuperPoly.__new__(SuperPoly)
            entry.gens = gens
            entry.terms = {SuperMonomial(evens, mask): Fraction(num, den) for mask, num in terms.items()}
            out_row.append(entry)
        out.append(out_row)
    return out


def _reduced(rows: list[list[dict[int, int]]], den: int) -> IntMatrix:
    """Divide the numerators and the shared denominator by their gcd."""
    g = den
    for row in rows:
        for terms in row:
            if g == 1:
                return rows, den
            g = gcd(g, *terms.values())
    if g == 1:
        return rows, den
    return [[{m: c // g for m, c in terms.items()} for terms in row] for row in rows], den // g


def _body(a: IntMatrix) -> dict[int, dict[int, Fraction]]:
    """The rational body matrix, as sparse rows: the coefficients of the empty blade."""
    rows, den = a
    return {i: {j: Fraction(terms[0], den) for j, terms in enumerate(row) if terms.get(0)}
            for i, row in enumerate(rows)}


def _add_row_product(out: list[dict[int, int]], left, right) -> None:
    """Add sum_k left[k] * right[k][j] into each ``out[j]``.

    ``left`` holds pairs (k, [(blade, cross(blade), numerator)]) and ``right[k]``
    is the sparse row [(j, [(blade, numerator)])]; zero sums are left in ``out``.
    """
    for k, left_terms in left:
        for j, right_terms in right[k]:
            acc = out[j]
            get = acc.get
            for m1, x1, c1 in left_terms:
                for m2, c2 in right_terms:
                    if m1 & m2:
                        continue
                    m = m1 | m2
                    if (m2 & x1).bit_count() & 1:
                        acc[m] = get(m, 0) - c1 * c2
                    else:
                        acc[m] = get(m, 0) + c1 * c2


def _sparse_rows(rows: list[list[dict[int, int]]]) -> list[list[tuple[int, list]]]:
    """Each row as its nonzero entries (j, [(blade, numerator)])."""
    return [[(j, list(terms.items())) for j, terms in enumerate(row) if terms] for row in rows]


def _poly_mat_mul(a: IntMatrix, b: IntMatrix, cols: int) -> IntMatrix:
    """Product of two integer-form matrices of Grassmann elements; ``b`` has
    ``cols`` columns, which its rows cannot tell when it has none."""
    arows, aden = a
    brows, bden = b
    right = _sparse_rows(brows)
    out = []
    for arow in arows:
        left = [(k, [(m1, cross(m1), c1) for m1, c1 in terms.items()])
                for k, terms in enumerate(arow) if terms]
        accs: list[dict[int, int]] = [{} for _ in range(cols)]
        _add_row_product(accs, left, right)
        out.append([{m: c for m, c in acc.items() if c} for acc in accs])
    return _reduced(out, aden * bden)


def _scaled(a: IntMatrix, den: int) -> list[list[dict[int, int]]]:
    """The numerators of ``a`` over ``den``, a multiple of its denominator."""
    rows, aden = a
    scale = den // aden
    return [[{m: c * scale for m, c in terms.items()} for terms in row] for row in rows]


def _int_add(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    den = lcm(a[1], b[1])
    out = _scaled(a, den)
    for out_row, brow in zip(out, _scaled(b, den)):
        for j, bterms in enumerate(brow):
            terms = out_row[j]
            for m, c in bterms.items():
                terms[m] = terms.get(m, 0) + c
            out_row[j] = {m: c for m, c in terms.items() if c}
    return _reduced(out, den)


def _int_neg(a: IntMatrix) -> IntMatrix:
    rows, den = a
    return [[{m: -c for m, c in terms.items()} for terms in row] for row in rows], den


def _split(a: IntMatrix, m: int) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """The blocks (X, P, Q, Y) of a matrix whose even rows and columns come first."""
    rows, den = a
    top, bottom = rows[:m], rows[m:]
    return (
        ([row[:m] for row in top], den),
        ([row[m:] for row in top], den),
        ([row[:m] for row in bottom], den),
        ([row[m:] for row in bottom], den),
    )


def _join(x: IntMatrix, p: IntMatrix, q: IntMatrix, y: IntMatrix) -> IntMatrix:
    """The matrix (X P; Q Y), gcd-reduced: the inverse of ``_split``."""
    den = lcm(x[1], p[1], q[1], y[1])
    x, p, q, y = (_scaled(block, den) for block in (x, p, q, y))
    return _reduced([a + b for a, b in zip(x, p)] + [a + b for a, b in zip(q, y)], den)


def grassmann_matrix_inv(a: IntMatrix, body_inv=None) -> IntMatrix:
    """Inverse of a square integer-form matrix with invertible body B.

    With soul S and N = B^-1 S, the inverse X = (1 + N)^-1 B^-1 solves
    X = B^-1 - N X.  Split X and N by soul degree (the popcount of a blade):
    X_0 = B^-1 and X_d = sum_e (-N_e) X_{d-e} for d >= 1.  This is exact
    because the parts are homogeneous and the degrees of two blades only add
    in their product, so the degree-d part of -N X is that sum and no pair
    whose degrees pass d is formed.  N has no degree-0 part, so X_d vanishes
    past the popcount of the union of N's blades, and once max-e consecutive
    parts vanish every later one does.  B^-1 is the sparse inverse of
    ``linalg.invert``, its denominators cleared to bden; -N has denominator
    nden.  X_d is held over bden * nden^d, so -N_e enters scaled by
    nden^(e-1); the parts are summed over the last one's denominator and
    gcd-reduced once.  A caller that knows B^-1 passes it as ``body_inv``.
    """
    rows, den = a
    size = len(rows)
    if body_inv is None:
        body_inv = linalg.invert(_body(a))
    if body_inv is None:
        raise NotAPoint("matrix body is singular")
    bden, cleared_inv = cleared(body_inv)
    binv = [[{0: row[j]} if j in row else {} for j in range(size)] for row in cleared_inv.values()]
    neg_soul = ([[{m: -c for m, c in terms.items() if m} for terms in row] for row in rows], den)
    neg_nil, nden = _poly_mat_mul((binv, bden), neg_soul, size)
    # n_parts[e][i][k]: the (blade, cross(blade), scaled numerator) of -N_e at (i, k)
    n_parts: dict[int, list[dict[int, list]]] = {}
    union = 0
    for i, row in enumerate(neg_nil):
        for k, terms in enumerate(row):
            for m, c in terms.items():
                e = m.bit_count()
                union |= m
                part = n_parts.setdefault(e, [{} for _ in range(size)])
                part[i].setdefault(k, []).append((m, cross(m), c * nden ** (e - 1)))
    top = max(n_parts, default=0)
    # x_parts[d][k]: the nonzero entries (j, [(blade, numerator)]) of row k of X_d
    x_parts = [_sparse_rows(binv)]
    last = 0
    for d in range(1, union.bit_count() + 1):
        if d - last > top:
            break
        pairs = [(part, x_parts[d - e]) for e, part in n_parts.items()
                 if e <= d and any(x_parts[d - e])]
        x_d = []
        for i in range(size):
            accs: list[dict[int, int]] = [{} for _ in range(size)]
            for part, prev in pairs:
                _add_row_product(accs, part[i].items(), prev)
            x_d.append([(j, items) for j, acc in enumerate(accs)
                        if (items := [(m, c) for m, c in acc.items() if c])])
        x_parts.append(x_d)
        if any(x_d):
            last = d
    total = [[{} for _ in range(size)] for _ in range(size)]
    for d, x_d in enumerate(x_parts[:last + 1]):
        scale = nden ** (last - d)
        for total_row, row in zip(total, x_d):
            for j, items in row:
                total_row[j].update({m: c * scale for m, c in items})
    return _reduced(total, bden * nden ** last)


def _check_blocks(blocks) -> None:
    """Raise unless each (block, height, width) has ``height`` rows of ``width`` entries."""
    for block, height, width in blocks:
        if len(block) != height or any(len(row) != width for row in block):
            raise ValueError("matrix has the wrong shape")


class SuperMatrix:
    """(m|n)-patterned block matrix over a Grassmann algebra, held as ``ints``."""

    __slots__ = ("m", "n", "alg", "ints", "_body_invs", "_coord_blocks")

    def __init__(self, m: int, n: int, alg: GrassmannAlgebra, rows):
        size = m + n
        if len(rows) != size or any(len(r) != size for r in rows):
            raise ValueError("matrix has the wrong shape")
        self.m, self.n, self.alg = m, n, alg
        self.ints = _to_ints(rows, alg.gens)
        self._body_invs = self._coord_blocks = None

    @classmethod
    def _of(cls, m: int, n: int, alg: GrassmannAlgebra, ints: IntMatrix) -> SuperMatrix:
        """The matrix whose gcd-reduced integer form is ``ints``."""
        point = cls.__new__(cls)
        point.m, point.n, point.alg, point.ints = m, n, alg, ints
        point._body_invs = point._coord_blocks = None
        return point

    @classmethod
    def identity(cls, m: int, n: int, alg: GrassmannAlgebra) -> SuperMatrix:
        size = m + n
        return cls._of(m, n, alg, ([[{0: 1} if i == j else {} for j in range(size)]
                                    for i in range(size)], 1))

    @classmethod
    def from_blocks(cls, x, p, q, y, alg: GrassmannAlgebra) -> SuperMatrix:
        m, n = len(x), len(y)
        _check_blocks(((x, m, m), (p, m, n), (q, n, m), (y, n, n)))
        rows = [list(x[i]) + list(p[i]) for i in range(m)]
        rows += [list(q[k]) + list(y[k]) for k in range(n)]
        return cls(m, n, alg, rows)

    @property
    def rows(self) -> list[list[SuperPoly]]:
        return _from_ints(self.ints, self.alg.gens)

    def _block(self, index: int) -> list[list[SuperPoly]]:
        return _from_ints(_split(self.ints, self.m)[index], self.alg.gens)

    block_x = partialmethod(_block, 0)
    block_p = partialmethod(_block, 1)
    block_q = partialmethod(_block, 2)
    block_y = partialmethod(_block, 3)

    def __mul__(self, other: SuperMatrix) -> SuperMatrix:
        if (self.m, self.n) != (other.m, other.n) or self.alg != other.alg:
            raise ValueError("shape or base algebra mismatch")
        return self._of(self.m, self.n, self.alg, _poly_mat_mul(self.ints, other.ints, self.m + self.n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SuperMatrix)
            and (self.m, self.n) == (other.m, other.n)
            and self.alg == other.alg
            and self.ints == other.ints
        )

    def __hash__(self):
        rows, den = self.ints
        return hash((self.m, self.n, den, tuple(frozenset(t.items()) for row in rows for t in row)))

    def map_entries(self, fn, alg: GrassmannAlgebra | None = None) -> SuperMatrix:
        return SuperMatrix(self.m, self.n, alg or self.alg, [[fn(e) for e in row] for row in self.rows])

    def parity_pattern_ok(self) -> bool:
        """Every blade is even in X and Y and odd in P and Q."""
        m = self.m
        return all(
            mask.bit_count() & 1 == ((i >= m) ^ (j >= m))
            for i, row in enumerate(self.ints[0])
            for j, terms in enumerate(row)
            for mask in terms
        )

    def _body_inverses(self) -> tuple[dict, dict]:
        """The inverses of the X and Y bodies, as ``linalg.invert`` returns them,
        computed once; raise ``NotAPoint`` unless this is a GL(m|n) point."""
        if not self.parity_pattern_ok():
            raise NotAPoint("not a GL(m|n) point")
        if self._body_invs is None:
            x, _, _, y = _split(self.ints, self.m)
            self._body_invs = linalg.invert(_body(x)), linalg.invert(_body(y))
        if None in self._body_invs:
            raise NotAPoint("matrix body is singular")
        return self._body_invs

    def is_gl_point(self) -> bool:
        """Parity pattern holds and both diagonal body blocks are invertible."""
        try:
            self._body_inverses()
        except NotAPoint:
            return False
        return True

    def inv(self) -> SuperMatrix:
        """Exact two-sided inverse (body inversion, then one soul degree at a time)."""
        bx, by = self._body_inverses()
        m = self.m
        # P and Q have no body, so the body inverse is diag(B_X^-1, B_Y^-1)
        body_inv = {**bx, **{m + i: {m + j: c for j, c in row.items()} for i, row in by.items()}}
        return self._of(m, self.n, self.alg, grassmann_matrix_inv(self.ints, body_inv))

    def antipode_blocks(self) -> SuperMatrix:
        """Matrix assembled from the closed-form antipode blocks.

        With p' = X^-1 P and q' = Y^-1 Q (``decomposition_coords``):
        S(X) = (X - P q')^-1,   S(Y) = (Y - Q p')^-1,
        S(P) = -p' S(Y),        S(Q) = -q' S(X).
        Must equal ``inv()`` exactly.  P q' and Q p' are products of odd
        entries, so X - P q' and Y - Q p' have the bodies of X and Y.
        """
        m, n = self.m, self.n
        x, p, q, y, pprime, qprime = self._coords()
        bx, by = self._body_invs  # set by _coords
        mul, inv = _poly_mat_mul, grassmann_matrix_inv
        s_x = inv(_int_add(x, _int_neg(mul(p, qprime, m))), bx)
        s_y = inv(_int_add(y, _int_neg(mul(q, pprime, n))), by)
        s_p, s_q = _int_neg(mul(pprime, s_y, n)), _int_neg(mul(qprime, s_x, m))
        return self._of(m, n, self.alg, _join(s_x, s_p, s_q, s_y))

    def antipode_failure(self) -> str | None:
        """Why the closed-form antipode is not this point's group inverse, or None."""
        if not self.is_gl_point():
            return "sampled matrix is not a point"
        inverse = self.inv()
        if self.antipode_blocks() != inverse:
            return "antipode blocks differ from the inverse"
        ident = self.identity(self.m, self.n, self.alg)
        if self * inverse != ident or inverse * self != ident:
            return "inverse fails the group law"
        return None

    def _coords(self) -> tuple[IntMatrix, ...]:
        """The blocks (X, P, Q, Y) and odd coordinates p' = X^-1 P, q' = Y^-1 Q, kept."""
        if self._coord_blocks is None:
            bx, by = self._body_inverses()
            x, p, q, y = _split(self.ints, self.m)
            pprime = _poly_mat_mul(grassmann_matrix_inv(x, bx), p, self.n)
            qprime = _poly_mat_mul(grassmann_matrix_inv(y, by), q, self.m)
            self._coord_blocks = x, p, q, y, pprime, qprime
        return self._coord_blocks

    def decomposition_coords(self):
        """Split a point into (X, Y, p', q') with p' = X^-1 P and q' = Y^-1 Q.

        All entries of p', q' are odd and the point is recovered exactly via
        P = X p', Q = Y q'; the identity decomposes as (identity, 0, 0).
        """
        x, _, _, y, pprime, qprime = self._coords()
        return tuple(_from_ints(block, self.alg.gens) for block in (x, y, pprime, qprime))

    @classmethod
    def from_decomposition(cls, x, y, pprime, qprime, alg: GrassmannAlgebra) -> SuperMatrix:
        """Rebuild the point: P = X p', Q = Y q'."""
        m, n = len(x), len(y)
        _check_blocks(((x, m, m), (y, n, n), (pprime, m, n), (qprime, n, m)))
        x, y, pprime, qprime = (_to_ints(block, alg.gens) for block in (x, y, pprime, qprime))
        p, q = _poly_mat_mul(x, pprime, n), _poly_mat_mul(y, qprime, m)
        return cls._of(m, n, alg, _join(x, p, q, y))

    def to_json(self) -> str:
        """Deterministic JSON: shape plus (odd-support, rational) term lists."""
        rows, den = self.ints
        entries = []
        for row in rows:
            out_row = []
            for terms in row:
                cells = []
                for mask, num in terms.items():
                    g = gcd(num, den)
                    cells.append([list(odd_positions(mask)), [num // g, den // g]])
                out_row.append(sorted(cells))
            entries.append(out_row)
        return json.dumps(
            {"shape": [self.m, self.n, self.alg.k], "entries": entries},
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> SuperMatrix:
        data = json.loads(text)
        m, n, k = data["shape"]
        alg = GrassmannAlgebra(k)
        rows = []
        for row in data["entries"]:
            out_row = []
            for entry in row:
                terms = {
                    SuperMonomial((), _mask(support, k)): Fraction(num, den)
                    for support, (num, den) in entry
                }
                out_row.append(SuperPoly(alg.gens, terms))
            rows.append(out_row)
        return cls(m, n, alg, rows)

    def __repr__(self):
        return f"SuperMatrix(m={self.m}, n={self.n}, k={self.alg.k})"


class PointSampler:
    """Seeded sampler of GL(m|n) points over a Grassmann algebra.

    Diagonal body blocks are built invertible by construction (unit lower
    times diagonal of nonzero small rationals times unit upper, as sparse
    rows); souls draw a bounded number of monomials with small integer
    coefficients.
    """

    _BODY_POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(3)]
    _COEFF_POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2)]

    def __init__(self, m: int, n: int, k: int, seed: int):
        self.m = m
        self.n = n
        self.alg = GrassmannAlgebra(k)
        self.seed = seed

    def _support(self, rng: random.Random, size: int) -> int:
        return _mask(sorted(rng.sample(range(self.alg.k), size)), self.alg.k)

    def _even_soul(self, rng: random.Random) -> SuperPoly:
        terms = {}
        if self.alg.k >= 2 and rng.random() < 0.8:
            terms[SuperMonomial((), self._support(rng, 2))] = rng.choice(self._COEFF_POOL)
        if self.alg.k >= 4 and rng.random() < 0.2:
            terms[SuperMonomial((), self._support(rng, 4))] = rng.choice(self._COEFF_POOL)
        return SuperPoly(self.alg.gens, terms)

    def _odd_entry(self, rng: random.Random) -> SuperPoly:
        terms = {}
        if self.alg.k >= 1 and rng.random() < 0.9:
            terms[SuperMonomial((), self._support(rng, 1))] = rng.choice(self._COEFF_POOL)
        if self.alg.k >= 3 and rng.random() < 0.2:
            terms[SuperMonomial((), self._support(rng, 3))] = rng.choice(self._COEFF_POOL)
        return SuperPoly(self.alg.gens, terms)

    def _invertible_body(self, rng: random.Random, size: int) -> dict[int, dict[int, Fraction]]:
        """L D U as sparse rows: unit lower, nonzero diagonal, unit upper."""
        lower = {i: {i: F1} for i in range(size)}
        upper = {i: {i: F1} for i in range(size)}
        for i in range(size):
            for j in range(i):
                if rng.random() < 0.5:
                    lower[i][j] = rng.choice(self._COEFF_POOL)
                if rng.random() < 0.5:
                    upper[j][i] = rng.choice(self._COEFF_POOL)
        diag = {i: {i: rng.choice(self._BODY_POOL)} for i in range(size)}
        return {i: image(upper, image(diag, row)) for i, row in lower.items()}

    def sample(self, index: int) -> SuperMatrix:
        """The ``index``-th point, drawn from a seed derived from ``seed`` and ``index``."""
        rng = random.Random(self.seed * 1_000_003 + index)
        m, n, alg = self.m, self.n, self.alg
        xb = self._invertible_body(rng, m)
        yb = self._invertible_body(rng, n)
        x = [[alg.scalar(xb[i].get(j, F0)) + self._even_soul(rng) for j in range(m)]
             for i in range(m)]
        y = [[alg.scalar(yb[i].get(j, F0)) + self._even_soul(rng) for j in range(n)]
             for i in range(n)]
        p = [[self._odd_entry(rng) for _ in range(n)] for _ in range(m)]
        q = [[self._odd_entry(rng) for _ in range(m)] for _ in range(n)]
        return SuperMatrix.from_blocks(x, p, q, y, alg)

    def sample_even(self, index: int) -> SuperMatrix:
        """A point of the even subgroup: P = Q = 0, entries in the even part."""
        x, p, q, y = _split(self.sample(index).ints, self.m)
        zero_p, zero_q = (([[{} for _ in row] for row in rows], 1) for rows, _ in (p, q))
        return SuperMatrix._of(self.m, self.n, self.alg, _join(x, zero_p, zero_q, y))


def truncate_map(target: GrassmannAlgebra):
    """Algebra map Λ(t1..tk) -> Λ(t1..tk') sending t_j to 0 for j > k'.

    It keeps the blades on t1..tk' with their coefficients: their factors
    keep their order, so no sign changes.
    """
    limit = 1 << target.k

    def apply(p: SuperPoly) -> SuperPoly:
        return SuperPoly(target.gens, {m: c for m, c in p.terms.items() if m.odds < limit})

    return apply
