"""Exact linear algebra over the rationals on sparse rows.

A row is a ``dict`` from column to a nonzero ``int`` or ``Fraction``, and an
n x n matrix is ``{i: row}`` with all n rows present, maybe empty; there is
no dense form.  A product of two matrices is ``table.image`` applied to each
row of the left one.  ``rref`` is the one elimination; the reduced row
echelon form is unique, so ``nullspace``, ``invert`` and ``solve`` (no caller
in the package) read exact answers off it.  ``span_coordinates`` expresses
vectors in a ``nullspace`` basis by lookup.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from fractions import Fraction

from .core import F1
from .table import add_into

Row = dict[int, Fraction]


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
    with one division, and only the vector's own columns are looked up.  The
    coordinates come in increasing basis index.  The vector is then rebuilt from its coordinates and
    compared exactly, so nothing outside the span gets coordinates.
    """
    touched = Counter(c for vec in basis for c in vec)
    owner: dict[int, tuple[int, Fraction]] = {}  # private column -> (basis index, entry)
    for a, vec in enumerate(basis):
        col = next((c for c in vec if touched[c] == 1), None)
        if col is None:
            raise ValueError("a basis vector has no column of its own")
        owner[col] = (a, vec[col])

    def coordinates(vec: Row) -> Row | None:
        hits = sorted((owner[col], c) for col, c in vec.items() if c and col in owner)
        coords = {a: Fraction(c) / lead for (a, lead), c in hits}
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


def invert(matrix: dict[int, Row]) -> dict[int, Row] | None:
    """Exact inverse of an n x n matrix ``{i: row}`` (rows 0..n-1), or None if singular."""
    n = len(matrix)
    aug = [{**matrix[i], n + i: F1} for i in range(n)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    # row i of the reduced form is e_i followed by row i of the inverse
    return {i: {j - n: c for j, c in row.items() if j >= n} for i, row in enumerate(reduced)}
