"""Truncated duals (A/(A+)^n)* and the super Lie algebra of primitives.

The hyperalgebra of a supergroup is materialised to finite order: for a
presentation in identity-shifted coordinates the quotient A/(A+)^n has the
normal monomials of total degree < n as a basis (every generator lies in A+
and has degree 1, so the total degree of a monomial is its word length), and
the dual carries the convolution product (truncated back to the basis) and
the coproduct dual to multiplication.  Products of functionals whose
degrees sum below the order are exact: the true products of
Dist(G) = union of the (A/(A+)^n)*, as degrees add in Dist(G).  Associativity
is checked on that range only (``check_associative_unital``), and
``exact_only`` builds only those cells.

The product table is built in basis-index space: Delta(m) of each basis
monomial comes from the coproduct of an earlier one and of one generator,
with ``int`` coefficients when the generator coproducts are whole (whole
coefficients as ``int`` otherwise).  Each finished Delta(m) is folded into the
table and kept only while deg m <= n - 2, the degrees a split head can have,
so the build holds one copy of the table.  The multiplicative extension
``HopfPresentation.delta_monomial`` on ``TensorPoly`` products is the
independent oracle the tests compare with.

Lie(G) = (A+/(A+)^2)*, the primitives of the dual, is the span of the degree-1
duals (the lemma in ``primitives``); the unit D[1] is always basis index 0.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .core import F1, SuperMonomial, mul_monomials, odd_positions
from .hopf import HopfPresentation, PresentationError, _monomials_up_to
from .liealg import StructureError, SuperLieAlgebraData
from .parsing import format_monomial
from .table import (
    Table,
    Vec,
    add_into,
    certify_associative,
    first_nonassociative,
    first_nonunital,
    whole_as_int,
)


class TruncatedDual:
    """The finite-dimensional algebra/coalgebra (A/(A+)^n)* on dual monomials."""

    def __init__(self, order: int, basis: list[SuperMonomial], labels: list[str],
                 parity: list[int], degree: list[int], product: dict[tuple[int, int], Vec],
                 coproduct: dict[int, Vec2], exact_only: bool = False) -> None:
        self.order = order
        self.basis = basis
        self.labels = labels
        self.parity = parity
        self.degree = degree
        self.product = product
        self.coproduct = coproduct
        self.exact_only = exact_only

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def check_associative_unital(self) -> None:
        """Unit scan, then associativity on the exact range
        deg i + deg j + deg k < n, certified from the degree-1 duals by the
        graded lemma of ``superalg.table`` (the triples of the range are
        compared where it does not apply, and the first failing one is the
        witness).

        On that range every product is the true product of Dist(G), so an
        associative presentation passes whatever its Delta.  A cell with
        deg i + deg j >= n is a truncated product: when some Delta(g) has a
        slot of degree >= 2 the truncation is no algebra map, and such a cell
        can break a triple of an associative presentation, so no triple
        reads one.  At n <= 3 every triple of the range has a unit factor,
        so only the unit law can fail."""
        dim, unit = self.dimension, {0: F1}
        bad = first_nonunital(self.product, dim, unit)
        if bad is not None:
            raise StructureError(f"unit law fails at {self.labels[bad]}")
        gens = [i for i, d in enumerate(self.degree) if d == 1]
        if certify_associative(self.product, dim, unit, gens, self.degree, self.order):
            return
        triple = first_nonassociative(self.product, dim, self.degree, self.order)
        if triple is not None:
            names = ", ".join(self.labels[t] for t in triple)
            raise StructureError(f"associativity fails at ({names})")

    def counit_is_unique_group_like(self) -> bool:
        """Certify that the counit functional is the only group-like element.

        A group-like u is an algebra map on the quotient, hence determined by
        its generator values c_g; since g^k vanishes in the quotient for some
        k (k = order for even g, 2 for odd g), c_g^k = 0 forces every c_g = 0
        over the rationals, and u = counit on all monomials.  The direct
        group-like property of the counit is checked from the tables.

        It cannot fail on a table ``truncated_dual`` built (only 1 * 1 reaches
        index 0, the empty monomial), so no report carries it; acceptance
        criterion 6 and the tests on edited tables call it.
        """
        # g^order has degree >= order and the basis stops at order - 1, so no
        # power survives the truncation; what is left is Delta(eps) = eps (x) eps
        return self.coproduct.get(0, {}) == {(0, 0): F1}

    def embeds_in(self, larger: TruncatedDual) -> bool:
        """Compatibility of the inclusion into the next-order dual.

        The basis must be a prefix of the larger one (both are sorted by
        degree first).  Coproducts agree exactly on the common basis; products
        agree exactly when the degrees sum below this order, and after
        truncation otherwise (the union carries the full product).

        It cannot fail on duals that ``truncated_dual`` built from one
        presentation obeying the counit law (no 1 (x) 1 term in a Delta(g), so
        every term of Delta(m) has degree >= deg m), so no report carries it;
        acceptance criterion 6 and the tests on edited tables call it.  Each
        order drops the terms with a slot of degree >= order, which never come
        back since degrees only add, so order k is order k + 1 below degree k.
        An ``exact_only`` dual on either side is refused.
        """
        if self.exact_only or larger.exact_only:
            raise ValueError("embeds_in compares full tables, not an exact_only dual")
        dim = self.dimension
        if larger.order < self.order or larger.basis[:dim] != self.basis:
            return False
        if any(self.coproduct.get(i, {}) != larger.coproduct.get(i, {}) for i in range(dim)):
            return False
        for i in range(dim):
            for j in range(dim):
                small = self.product.get((i, j), {})
                big = larger.product.get((i, j), {})
                truncated = {k: c for k, c in big.items() if larger.degree[k] < self.order}
                if small != truncated:
                    return False
                if self.degree[i] + self.degree[j] < self.order and small != big:
                    return False
        return True


Vec2 = dict[tuple[int, int], Fraction | int]


def truncated_dual(pres: HopfPresentation, order: int, *, exact_only: bool = False) -> TruncatedDual:
    """Build (A/(A+)^n)* on the dual monomial basis of degree < n.

    With ``exact_only`` the product table holds only the exact cells, those
    with deg i + deg j < n: all that ``check_associative_unital`` and
    ``primitives`` read.  ``embeds_in`` and ``export_structure``, which need
    the full table, refuse such a dual.
    """
    if order <= 0:
        raise ValueError("order must be positive")
    gens = pres.gens
    for name in gens.names:
        if pres.counit[name] != 0:
            raise PresentationError(
                "truncated duals need identity-shifted coordinates (generators in A+)"
            )
    basis = sorted(
        (m for m in _monomials_up_to(gens, order - 1)),
        key=lambda m: (m.degree(), m.evens, odd_positions(m.odds)),
    )
    index = {m: i for i, m in enumerate(basis)}
    labels = ["D[" + (format_monomial(gens, m) or "1") + "]" for m in basis]
    parity = [m.parity for m in basis]
    degree = [m.degree() for m in basis]

    # generator coproduct terms as basis-index pairs, keyed by the generator's
    # degree-1 index; terms with a slot outside the basis never come back into
    # it, since degrees only add
    gen_terms: dict[int, list[tuple[int, int, Fraction | int]]] = {}
    for name in gens.names:
        (mono,) = pres.generator_poly(name).terms
        if mono in index:
            gen_terms[index[mono]] = [
                (index[m1], index[m2], c)
                for (m1, m2), c in whole_as_int(pres.delta[name].terms).items()
                if m1 in index and m2 in index
            ]
    # right[k][i]: basis[i] * basis[k] as (sign, index) where the product stays
    # in the basis, None elsewhere, for each slot k of a generator term
    right: dict[int, list[tuple[int, int] | None]] = {
        k: [None] * len(basis) for terms in gen_terms.values() for i, j, _ in terms for k in (i, j)
    }

    # the one pass over monomial products.  Degrees add and the basis is sorted
    # by degree, so m1 * m2 survives exactly for m2 in the prefix of degree
    # <= order - 1 - deg(m1), and lands in the basis.  Each surviving
    # basis[i] * basis[j] = sign basis[t] is a coproduct term of t (the dual of
    # multiplication), a cell of a right row, and, when deg j = 1, a split of t
    coproduct: dict[int, Vec2] = {i: {} for i in range(len(basis))}
    split: dict[int, tuple[int, int, int]] = {}
    for i, m1 in enumerate(basis):
        for j in range(bisect_right(degree, order - 1 - degree[i])):
            prod = mul_monomials(m1, basis[j])
            if prod is not None:
                sign, t = prod[0], index[prod[1]]
                coproduct[t][(i, j)] = sign
                row = right.get(j)
                if row is not None:
                    row[i] = (sign, t)
                if degree[j] == 1:
                    split[t] = (sign, i, j)

    # product: (u * v)(m) is the coefficient of u (x) v in Delta(m), and
    # Delta(t) = flip Delta(p) Delta(g) for any split basis[p] * basis[g] =
    # flip basis[t] with deg g = 1 (p comes earlier in the basis).  The terms
    # dropped with a slot of degree >= order are the same whichever split is
    # kept, since degrees only add.  Each finished Delta(t) is folded into the
    # table as column t, in increasing t as a transpose would, and kept only
    # while it can be a split head (deg t <= order - 2: the prefix below
    # ``heads``).  Non-whole presentations store each whole coefficient as an
    # ``int``, so a cell's type does not depend on the split.  ``exact_only``
    # drops the finished terms with deg a + deg b >= order: a term of a head
    # only feeds terms of a larger degree sum.
    whole = not any(isinstance(c, Fraction) for terms in gen_terms.values() for *_, c in terms)
    heads = bisect_right(degree, order - 2)
    deltas: list[Vec2] = [{(0, 0): 1}]
    table: Table = {(0, 0): {0: 1}}
    for t in range(1, len(basis)):
        flip, p, g = split[t]
        head_delta = deltas[p].items()
        out: Vec2 = {}
        # (i (x) j)(k (x) l) = (-1)^{|j||k|} ik (x) jl
        for k, l, d in gen_terms[g]:
            rk, rl, odd_k = right[k], right[l], parity[k]
            if flip < 0:
                d = -d
            for (i, j), c in head_delta:
                a, b = rk[i], rl[j]
                if a is None or b is None:
                    continue
                sign = -a[0] * b[0] if odd_k and parity[j] else a[0] * b[0]
                x = c * d if sign > 0 else -(c * d)
                key = (a[1], b[1])
                s = out.get(key)
                s = x if s is None else s + x
                if s:
                    out[key] = s
                else:
                    del out[key]
        if not whole:
            out = whole_as_int(out)
        if exact_only:
            out = {key: c for key, c in out.items() if degree[key[0]] + degree[key[1]] < order}
        if t < heads:
            deltas.append(out)
        for key, c in out.items():
            cell = table.get(key)
            if cell is None:
                table[key] = {t: c}
            else:
                cell[t] = c

    return TruncatedDual(
        order=order, basis=basis, labels=labels, parity=parity,
        degree=degree, product=table, coproduct=coproduct, exact_only=exact_only,
    )


def primitives(dual: TruncatedDual) -> SuperLieAlgebraData:
    """Lie(G) = (A+/(A+)^2)*: the primitive functionals with the super commutator.

    *Lemma.*  u is primitive, D(u) = 1 (x) u + u (x) 1, exactly when u
    vanishes on 1 and on every product of two monomials of positive degree.
    Every basis monomial of degree >= 2 is such a product inside the
    truncation (split off its last factor), so the primitives are the
    degree-1 duals D[g], whatever the presentation's Delta.  Their brackets
    [u, v] = u*v - (-1)^{|u||v|} v*u are read off the product table, must
    close on them, and must satisfy the super Lie axioms.
    """
    if dual.order < 3:
        raise ValueError("order must be at least 3 for faithful brackets")
    gens = [i for i, d in enumerate(dual.degree) if d == 1]
    position = {i: a for a, i in enumerate(gens)}
    labels = [dual.labels[i] for i in gens]
    parity = [dual.parity[i] for i in gens]
    bracket: dict[tuple[int, int], Vec] = {}
    for a, i in enumerate(gens):
        for b, j in enumerate(gens):
            comm: Vec = {}
            add_into(comm, dual.product.get((i, j), {}), F1)
            add_into(comm, dual.product.get((j, i), {}), F1 if parity[a] and parity[b] else -F1)
            if any(k not in position for k in comm):
                raise StructureError(
                    f"bracket [{labels[a]}, {labels[b]}] escapes the primitive subspace"
                )
            if comm:
                bracket[(a, b)] = {position[k]: c for k, c in sorted(comm.items())}
    data = SuperLieAlgebraData(labels=labels, parity=parity, bracket=bracket)
    data.validate()
    return data


def vec_json(vec: Vec) -> list:
    """A sparse vector as ``[index, [numerator, denominator]]`` pairs by index
    (a tuple index serialises as a JSON list)."""
    return [[k, [c.numerator, c.denominator]] for k, c in sorted(vec.items())]


def export_structure(dual: TruncatedDual) -> dict:
    """JSON-ready structure constants (basis labels, parity, tables)."""
    if dual.exact_only:
        raise ValueError("export_structure needs the full table, not an exact_only dual")
    return {
        "order": dual.order,
        "labels": dual.labels,
        "parity": dual.parity,
        "product": {
            f"{i},{j}": vec_json(vec) for (i, j), vec in sorted(dual.product.items())
        },
        "coproduct": {str(i): vec_json(vec) for i, vec in sorted(dual.coproduct.items())},
    }
