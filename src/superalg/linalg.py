"""Exact linear algebra over the rationals (dense, list-of-lists)."""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]

F0 = Fraction(0)
F1 = Fraction(1)


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


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [row[:] for row in matrix]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = F1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(matrix: Matrix) -> list[Vector]:
    """Basis of the right kernel, one vector per free column."""
    if not matrix:
        return []
    cols = len(matrix[0])
    reduced, pivots = rref(matrix)
    free = [c for c in range(cols) if c not in pivots]
    basis: list[Vector] = []
    for fc in free:
        v = [F0] * cols
        v[fc] = F1
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


def invert(matrix: Matrix) -> Matrix | None:
    """Exact inverse, or None if singular."""
    n = len(matrix)
    aug = [matrix[i][:] + identity(n)[i] for i in range(n)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced[:n]]


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One exact solution of a x = b, or None if inconsistent."""
    if not a:
        return [] if not any(b) else None
    cols = len(a[0])
    aug = [a[i][:] + [b[i]] for i in range(len(a))]
    reduced, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [F0] * cols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][cols]
    return x
