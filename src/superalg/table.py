"""Sparse structure-constant tables shared by every finite algebra type.

A table maps a basis pair ``(i, j)`` to the expansion ``{k: c}`` of
``e_i e_j``; a missing pair is a zero product, and no stored cell is empty.
Vectors are ``{index: c}`` with no zero coefficients.  The Hopf tables
(``finite``), the truncated hyperalgebra (``hyper``), the PBW envelope
(``hcpair``) and the super Lie bracket (``liealg``) all hold their products
in this form, and their unit, associativity and Jacobi checks run on the
loops below.  Each loop looks up
``e_i e_j`` once per pair and accumulates in place, starting from the first
term rather than from a ``Fraction`` zero: ``int`` tables (the +-1 exterior
tables, and the truncated hyperalgebra of a presentation with whole
coproduct coefficients) stay in ``int`` and ``Fraction`` tables in
``Fraction``.

Associativity is certified from generators rather than scanned on every
triple (``certify_associative``).  *Lemma.*  Let the table have a left unit
1 and let G be a set of basis indices such that the span of the closure of
1 under left multiplication by G is the whole algebra.  If
(g e_b) e_k = g (e_b e_k) for every g in G and all b, k, the table is
associative.  *Proof.*  Let S be the set of x with (xy)z = x(yz) for all y
and z.  S is a subspace, it holds 1, and for x in S and g in G,
((gx)y)z = (g(xy))z = g((xy)z) = g(x(yz)) = (gx)(yz), so gx is in S; hence
S is everything.  The same induction shows that once the algebra is
associative, a coproduct that is multiplicative on the pairs (g, b) with g
in G or g = 1 is multiplicative everywhere, when the product respects
parity so that the Koszul-signed tensor square is associative.  The dense
scan ``first_nonassociative`` stays as the fallback, the witness finder and
the test oracle.

*Graded form.*  Let each index carry a degree, 1 of degree 0, and let every
cell (i, j) with deg i + deg j < n lie in degrees <= deg i + deg j.  Let the
closure admit a new index m from g e_b only when deg g + deg b < n and
deg m = deg g + deg b.  If (g e_b) e_k = g (e_b e_k) for every g in G and
all b, k with deg g + deg b + deg k < n, every triple with
deg i + deg j + deg k < n is associative.  *Proof.*  Let T_d be the set of x
of degree <= d with (xy)z = x(yz) whenever d + deg y + deg z < n: a subspace
holding 1 for d = 0, with T_d inside T_d' for d <= d'.  For x in T_d the
four steps above pass through generator triples and one triple of x, all in
range, so gx is in T_{deg g + d}; each e_m the closure reaches is
(g e_b - reached terms of degree <= deg m) / c, so by induction e_m is in
T_{deg m}.  The truncated hyperalgebra needs this form: there only the
products of degree sum < n are true products (``hyper``).

Two more corollaries decide the rest of a Hopf table's multiplicative axioms
from G (``finite.check_finite_hopf_axioms``).  *Coassociativity.*  Let Delta
be multiplicative and even: each term e_a (x) e_b of Delta(e_i) has
p_a + p_b = p_i.  Then L = (Delta (x) 1)Delta and R = (1 (x) Delta)Delta are
multiplicative into the Koszul-signed triple tensor product.  Indeed
(Delta (x) 1)((a (x) b)(c (x) d)) = (-1)^{p_b p_c} Delta(a)Delta(c) (x) bd,
and the product (Delta(a) (x) b)(Delta(c) (x) d) moves b past both legs of
each term of Delta(c), whose parities add up to p_c, so it carries the same
sign; likewise for 1 (x) Delta.  The set where L and R agree is a
subspace, and it is closed under left multiplication by G, as
L(gx) = L(g)L(x) = R(g)R(x) = R(gx).  So if L and R agree on 1 and on G,
they agree everywhere.  *Counit multiplicativity.*  Let the table be
associative with a left unit 1 and eps(1) = 1, and let
eps(g y) = eps(g)eps(y) for every g in G and every y.  Let T be the set of
x with eps(xy) = eps(x)eps(y) for all y.  T is a subspace, it holds 1, and
for x in T, eps((gx)y) = eps(g(xy)) = eps(g)eps(x)eps(y) = eps(gx)eps(y),
so gx is in T; hence T is everything.

Both scans compare (e_i e_j) e_k with e_i (e_j e_k) through ``times_basis``
and ``basis_times``, for k in the row support of j or of some t in
supp(e_i e_j) only: the row support of t is the set of k with a stored cell
(t, k), and off that union both sides are empty, so every verdict and every
first witness is that of the scan over all k.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import lcm

Vec = dict[int, Fraction]
Table = dict[tuple[int, int], Vec]

_EMPTY: Vec = {}


def add_into(out: dict, vec: dict, scale: Fraction | int = 1) -> None:
    """out += scale * vec in place, dropping coefficients that cancel."""
    if not scale:
        return
    for k, c in vec.items():
        x = scale * c
        s = out.get(k)
        s = x if s is None else s + x
        if s:
            out[k] = s
        else:
            out.pop(k, None)


def whole_as_int(vec: dict) -> dict:
    """``vec`` with each whole coefficient as an ``int``, so whole tables multiply in ``int``."""
    return {k: c.numerator if c.denominator == 1 else c for k, c in vec.items()}


def cleared(rows: dict) -> tuple[int, dict]:
    """(L, L * ``rows``): L is the lcm of the denominators in the vectors of
    ``rows``, and each coefficient of the scaled rows is an ``int``."""
    den = lcm(*(c.denominator for vec in rows.values() for c in vec.values()))
    return den, {key: {k: c.numerator * (den // c.denominator) for k, c in vec.items()}
                 for key, vec in rows.items()}


def transpose(rows: dict, keys=()) -> dict:
    """``{a: {b: c}}`` as ``{b: {a: c}}``, with a row (maybe empty) for each of ``keys``.

    The dual of a finite table is its transpose: a product table transposes
    to the dual coproduct, a coproduct to the dual product, and a linear map
    to its dual map.
    """
    out: dict = {b: {} for b in keys}
    for a, row in rows.items():
        for b, c in row.items():
            out.setdefault(b, {})[a] = c
    return out


def image(rows: dict, vec: Vec) -> dict:
    """The linear map sending e_i to ``rows[i]``, applied to ``vec``."""
    out: dict = {}
    for i, c in vec.items():
        add_into(out, rows.get(i, _EMPTY), c)
    return out


def times_basis(table: Table, u: Vec, k: int) -> Vec:
    """u e_k."""
    out: Vec = {}
    for i, c in u.items():
        add_into(out, table.get((i, k), _EMPTY), c)
    return out


def basis_times(table: Table, i: int, v: Vec) -> Vec:
    """e_i v."""
    out: Vec = {}
    for j, c in v.items():
        add_into(out, table.get((i, j), _EMPTY), c)
    return out


def first_nonunital(table: Table, dim: int, unit: Vec) -> int | None:
    """The first index i with 1 e_i != e_i or e_i 1 != e_i, else None."""
    for i in range(dim):
        e = {i: 1}
        if times_basis(table, unit, i) != e or basis_times(table, i, unit) != e:
            return i
    return None


def first_nonassociative(table: Table, dim: int, degree: list[int] | None = None,
                         bound: int | None = None) -> tuple[int, int, int] | None:
    """The first (i, j, k) in lexicographic order with (e_i e_j) e_k != e_i (e_j e_k);
    given ``degree`` and ``bound``, among the triples with
    degree[i] + degree[j] + degree[k] < bound only."""
    return next(_failing_triples(table, range(dim), dim, degree, bound), None)


def _failing_triples(table: Table, lefts: Iterable[int], dim: int,
                     degree: list[int] | None = None, bound: int | None = None):
    """The triples (i, j, k) with i in ``lefts`` and (e_i e_j) e_k != e_i (e_j e_k),
    in lexicographic order, within the degree range of ``first_nonassociative``.
    Both sides are empty unless k lies in the row support of j or of some t in
    supp(e_i e_j), so k runs over that union only."""
    rows: dict[int, set[int]] = {}
    for t, k in table:
        rows.setdefault(t, set()).add(k)
    get = table.get
    for i in lefts:
        js = range(dim) if bound is None else [j for j in range(dim) if degree[i] + degree[j] < bound]
        for j in js:
            ij = get((i, j), _EMPTY)
            ks = set().union(rows.get(j, ()), *(rows.get(t, ()) for t in ij))
            if bound is not None:
                room = bound - degree[i] - degree[j]
                ks = [k for k in ks if degree[k] < room]
            for k in sorted(ks):
                if times_basis(table, ij, k) != basis_times(table, i, get((j, k), _EMPTY)):
                    yield i, j, k


def certify_associative(table: Table, dim: int, unit: Vec, gens: list[int],
                        degree: list[int] | None = None, bound: int | None = None) -> bool:
    """True when the lemma above proves ``table`` associative from ``gens``;
    given ``degree`` and ``bound``, the graded lemma proves it on the triples
    with degree[i] + degree[j] + degree[k] < bound.

    False says only that the certificate does not apply (``unit`` is not one
    basis index with coefficient 1, the left unit law fails, a cell of the
    range raises degree, or the closure of 1 under ``gens`` misses an index)
    or that a generator triple fails: the dense scan then decides.
    """
    if len(unit) != 1:
        return False
    ((one, c),) = unit.items()
    if c != 1:
        return False
    get = table.get
    if any(get((one, y)) != {y: 1} for y in range(dim)):
        return False
    if bound is not None and any(degree[k] > degree[i] + degree[j] for (i, j), cell in table.items()
                                 if degree[i] + degree[j] < bound for k in cell):
        return False
    # triangular closure: e_x is reached when some g e_b, with b reached, has
    # x as its only unreached index (of degree deg g + deg b, given a bound)
    def spread(m):
        return [(h, m) for h in gens if bound is None or degree[h] + degree[m] < bound]

    reached = [False] * dim
    reached[one] = True
    stuck = spread(one)
    progress = True
    while progress:
        progress = False
        queue, stuck = stuck, []
        while queue:
            g, b = queue.pop()
            new = [k for k in get((g, b), _EMPTY) if not reached[k]]
            if len(new) > 1 or new and bound is not None and degree[new[0]] != degree[g] + degree[b]:
                stuck.append((g, b))
            elif new:
                reached[new[0]] = progress = True
                queue.extend(spread(new[0]))
    if not all(reached):
        return False
    return next(_failing_triples(table, gens, dim, degree, bound), None) is None
