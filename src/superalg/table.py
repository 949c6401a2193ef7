"""Sparse structure-constant tables shared by every finite algebra type.

A table maps a basis pair ``(i, j)`` to the expansion ``{k: c}`` of
``e_i e_j``; a missing pair is a zero product.  Vectors are ``{index: c}``
with no zero coefficients.  The Hopf tables (``finite``), the truncated
hyperalgebra (``hyper``), the PBW envelope (``hcpair``) and the super Lie
bracket (``liealg``) all hold their products in this form, and their unit,
associativity and Jacobi checks run on the loops below.  Each loop looks up
``e_i e_j`` once per pair and accumulates in place, starting from the first
term rather than from a ``Fraction`` zero: ``int`` tables (the +-1 exterior
tables, and the truncated hyperalgebra of a presentation with whole
coproduct coefficients) stay in ``int`` and ``Fraction`` tables in
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

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


def product(table: Table, u: Vec, v: Vec) -> Vec:
    """The bilinear product u v."""
    get = table.get
    out: Vec = {}
    for i, ci in u.items():
        for j, cj in v.items():
            cell = get((i, j))
            if not cell:
                continue
            c = ci * cj
            for k, ck in cell.items():
                x = c * ck
                s = out.get(k)
                s = x if s is None else s + x
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
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


def first_nonassociative(
    table: Table,
    dim: int,
    degree: list[int] | None = None,
    bound: int | None = None,
) -> tuple[int, int, int] | None:
    """The first (i, j, k) in lexicographic order with (e_i e_j) e_k != e_i (e_j e_k).

    Given nonnegative per-index ``degree`` and a ``bound``, only the triples
    whose degrees sum to at most ``bound`` are compared: a table truncated
    by degree is exact only there.
    """
    if degree is None or bound is None:
        degree, bound = [0] * dim, 0
    if bound < 0:
        return None
    # fits[r]: the indices of degree <= r, in increasing order
    fits = [[x for x in range(dim) if degree[x] <= r] for r in range(bound + 1)]
    get = table.get
    for i in fits[bound]:
        left_budget = bound - degree[i]
        for j in fits[left_budget]:
            ij = get((i, j), _EMPTY)
            for k in fits[left_budget - degree[j]]:
                lhs: Vec = {}
                for t, c in ij.items():
                    for r, cr in get((t, k), _EMPTY).items():
                        x = c * cr
                        s = lhs.get(r)
                        s = x if s is None else s + x
                        if s:
                            lhs[r] = s
                        else:
                            lhs.pop(r, None)
                rhs: Vec = {}
                for t, c in get((j, k), _EMPTY).items():
                    for r, cr in get((i, t), _EMPTY).items():
                        x = c * cr
                        s = rhs.get(r)
                        s = x if s is None else s + x
                        if s:
                            rhs[r] = s
                        else:
                            rhs.pop(r, None)
                if lhs != rhs:
                    return i, j, k
    return None
