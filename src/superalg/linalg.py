"""Exact linear algebra over the rationals on sparse rows.

A row is a ``dict`` from column to a nonzero ``int`` or ``Fraction``.
``rref`` is the one elimination; the reduced row echelon form is unique, so
``nullspace``, ``invert`` (dense square matrices, for ``grassmann`` and
``hcpair``) and ``solve`` (no caller in the package) read exact answers off it.
``span_coordinates`` expresses vectors in a ``nullspace`` basis by lookup.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from fractions import Fraction

from .core import F0, F1
from .table import add_into

Matrix = list[list[Fraction]]
Row = dict[int, Fraction]


def zeros(rows: int, cols: int) -> Matrix:
    return [[F0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = F1
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
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


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form: its nonzero rows by pivot, and the pivot columns.

    Each row is reduced by the pivot rows it meets; a nonzero remainder
    becomes a pivot row on its leftmost column, which is then cleared from
    the other pivot rows.  That column is not yet a pivot column, so the
    pivots are those of the reduced row echelon form.  ``rows`` is not
    modified.
    """
    pivot_rows: dict[int, Row] = {}
    for row in rows:
        hits = [c for c in row if c in pivot_rows]
        if hits:
            row = dict(row)
            for c in hits:  # pivot rows vanish on each other's pivot columns
                add_into(row, pivot_rows[c], -row[c])
        if not row:
            continue
        lead = min(row)
        inv = F1 / row[lead]
        row = {k: v * inv for k, v in row.items()}
        for other in pivot_rows.values():
            if lead in other:
                add_into(other, row, -other[lead])
        pivot_rows[lead] = row
    pivots = sorted(pivot_rows)
    return [pivot_rows[c] for c in pivots], pivots


def nullspace(rows: list[Row], cols: int) -> list[Row]:
    """Basis of the right kernel in ``cols`` unknowns, one vector per free column."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc not in pivot_set:
            vec = {fc: F1}
            vec.update((pc, -row[fc]) for pc, row in zip(pivots, reduced) if fc in row)
            basis.append(vec)
    return basis


def span_coordinates(basis: list[Row]) -> Callable[[Row], Row | None]:
    """Coordinates in the span of ``basis``, or None for a vector outside it.

    Every basis vector must have a column that no other one touches, as a
    ``nullspace`` basis has in its free column; a coordinate is read there
    with one division.  The vector is then rebuilt from its coordinates and
    compared exactly, so nothing outside the span gets coordinates.
    """
    touched = Counter(c for vec in basis for c in vec)
    private = []
    for vec in basis:
        col = next((c for c in vec if touched[c] == 1), None)
        if col is None:
            raise ValueError("a basis vector has no column of its own")
        private.append((col, vec[col]))

    def coordinates(vec: Row) -> Row | None:
        coords = {a: Fraction(vec[col]) / lead
                  for a, (col, lead) in enumerate(private) if vec.get(col)}
        rebuilt: Row = {}
        for a, c in coords.items():
            add_into(rebuilt, basis[a], c)
        return coords if rebuilt == {k: c for k, c in vec.items() if c} else None

    return coordinates


def solve(rows: list[Row], rhs: Sequence[Fraction], cols: int) -> Row | None:
    """One exact solution of rows . x = rhs in ``cols`` unknowns, or None.

    The solution is sparse and sets every free unknown to zero.
    """
    aug = [{**row, cols: b} if b else row for row, b in zip(rows, rhs)]
    reduced, pivots = rref(aug)
    if pivots and pivots[-1] == cols:
        return None
    return {pc: row[cols] for pc, row in zip(pivots, reduced) if cols in row}


def invert(matrix: Matrix) -> Matrix | None:
    """Exact inverse of a dense square matrix, or None if singular."""
    n = len(matrix)
    aug = [{**{j: c for j, c in enumerate(line) if c}, n + i: F1}
           for i, line in enumerate(matrix)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [[row.get(n + j, F0) for j in range(n)] for row in reduced]
