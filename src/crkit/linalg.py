"""Exact dense linear algebra over Gaussian rationals.

Matrices are lists of lists of GaussRational. One forward Gaussian
elimination, taking the first nonzero pivot in each column and reducing
only the rows below it, underlies the rank, the determinant and the
inverse, so every result is exact and every pivot choice deterministic.
The determinant of a matrix of series, by cofactor expansion, lives here
too.
"""

from __future__ import annotations

from .rational import GaussRational, ONE, ZERO
from .series import TruncatedSeries


def _eliminate(matrix):
    """Row echelon form of ``matrix`` by forward elimination.

    Returns (rows, order, pivot_cols, sign): the echelon rows, the original
    index of each of them, the pivot column of each leading row, and the
    sign of the row permutation. Elimination stops once every row holds a
    pivot.
    """
    rows = [list(row) for row in matrix]
    order = list(range(len(rows)))
    ncols = len(rows[0]) if rows else 0
    pivot_cols: list[int] = []
    sign = 1
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if not rows[i][col].is_zero()), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            order[r], order[pivot] = order[pivot], order[r]
            sign = -sign
        head = rows[r]
        inv = ONE / head[col]
        for row in rows[r + 1 :]:
            if row[col].is_zero():
                continue
            factor = row[col] * inv
            for j in range(col, ncols):
                row[j] = row[j] - factor * head[j]
        pivot_cols.append(col)
        r += 1
    return rows, order, pivot_cols, sign


def _require_square(matrix, what: str) -> int:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError(f"{what} needs a square matrix")
    return n


def determinant(matrix) -> GaussRational:
    n = _require_square(matrix, "determinant")
    rows, _, pivot_cols, sign = _eliminate(matrix)
    if len(pivot_cols) < n:
        return ZERO
    det = ONE if sign > 0 else -ONE
    for i in range(n):
        det = det * rows[i][i]
    return det


def inverse(matrix) -> list[list[GaussRational]]:
    """Inverse by elimination on [A | I] and back-substitution."""
    n = _require_square(matrix, "inverse")
    augmented = [
        list(row) + [ONE if i == j else ZERO for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    rows, _, pivot_cols, _ = _eliminate(augmented)
    if pivot_cols != list(range(n)):
        raise ValueError("matrix is singular")
    out: list = [None] * n
    for i in reversed(range(n)):
        row = rows[i]
        acc = row[n:]
        for k in range(i + 1, n):
            if not row[k].is_zero():
                acc = [a - row[k] * b for a, b in zip(acc, out[k])]
        inv = ONE / row[i]
        out[i] = [a * inv for a in acc]
    return out


def _series_det(matrix: list[list[TruncatedSeries]]) -> TruncatedSeries:
    """Determinant of a square matrix of series, by cofactor expansion."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    if n == 1:
        return matrix[0][0]

    def minor_det(row: int, cols: tuple[int, ...]) -> TruncatedSeries:
        if len(cols) == 1:
            return matrix[row][cols[0]]
        total = None
        sign = 1
        for k, col in enumerate(cols):
            entry = matrix[row][col]
            if not entry.is_zero():
                rest = cols[:k] + cols[k + 1 :]
                piece = entry * minor_det(row + 1, rest)
                if sign < 0:
                    piece = -piece
                total = piece if total is None else total + piece
            sign = -sign
        if total is None:
            example = matrix[row][cols[0]]
            return TruncatedSeries.zero(example.nvars, example.order)
        return total

    return minor_det(0, tuple(range(n)))
