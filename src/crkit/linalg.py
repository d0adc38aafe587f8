"""Exact dense linear algebra over Gaussian rationals.

Matrices are lists of lists of Gaussian rationals; ``int`` and
``Fraction`` entries are read as such. The determinant and the inverse
share one fraction-free elimination over Gaussian integers (Bareiss,
1968): ``series._integers`` puts the entries over one common denominator
once, and each step is integer multiplication plus an exact division by
the previous pivot. It takes the first nonzero pivot in each column, so
every result is exact and every pivot choice deterministic, and results
become Gaussian rationals only on the way out, through
``series._coefficient``. The determinant of a matrix of series, by
cofactor expansion, lives here too.
"""

from __future__ import annotations

from .rational import GaussRational, ZERO
from .series import TruncatedSeries, _coefficient, _integers


def _integer_rows(matrix, n: int):
    """(den, rows): the n x n ``matrix`` through ``_integers``, each entry
    a Gaussian integer (a, b) over the one ``den``."""
    den, flat = _integers([GaussRational.coerce(c) for row in matrix for c in row])
    return den, [flat[i * n : i * n + n] for i in range(n)]


def _eliminate(rows, n: int):
    """Fraction-free Gauss-Jordan elimination on the first ``n`` columns of
    the Gaussian-integer ``rows``, in place.

    Step k takes the first row from k on with a nonzero entry in column k
    as the pivot row, swaps it to row k, and replaces every other row by
    (pivot * row - row[k] * pivot row) / previous pivot. The division is
    exact, by the conjugate over the norm: each entry is then a minor of
    the input. Afterwards the first ``n`` columns are the last pivot times
    the identity, and that pivot is the determinant of the row-permuted
    input. Returns (sign of the permutation, last pivot), or None when a
    column has no pivot, that is, the first ``n`` columns are singular.
    """
    sign, prev = 1, (1, 0)
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k] != (0, 0)), None)
        if pivot is None:
            return None
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        head = rows[k]
        (p, q), (s, t) = head[k], prev
        norm = s * s + t * t
        for i, row in enumerate(rows):
            if i == k:
                continue
            u, v = row[k]
            reduced = []
            for (a, b), (c, d) in zip(row, head):
                re = p * a - q * b - u * c + v * d
                im = p * b + q * a - u * d - v * c
                reduced.append(((re * s + im * t) // norm, (im * s - re * t) // norm))
            rows[i] = reduced
        prev = head[k]
    return sign, prev


def _require_square(matrix, what: str) -> int:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError(f"{what} needs a square matrix")
    return n


def determinant(matrix) -> GaussRational:
    n = _require_square(matrix, "determinant")
    den, rows = _integer_rows(matrix, n)
    result = _eliminate(rows, n)
    if result is None:
        return ZERO
    sign, (p, q) = result
    # det(den * A) = den^n det(A)
    return _coefficient(sign * den**n, p, q)


def inverse(matrix) -> list[list[GaussRational]]:
    """Inverse by elimination on [den * A | I].

    The elimination leaves [p I | T] with T den A = p I, so A^-1 is
    den T / p.
    """
    n = _require_square(matrix, "inverse")
    den, rows = _integer_rows(matrix, n)
    for i, row in enumerate(rows):
        row.extend((1, 0) if j == i else (0, 0) for j in range(n))
    result = _eliminate(rows, n)
    if result is None:
        raise ValueError("matrix is singular")
    _, (p, q) = result
    norm = p * p + q * q
    # (a + b i) / (p + q i) = (a + b i)(p - q i) / norm
    return [
        [_coefficient(norm, den * (a * p + b * q), den * (b * p - a * q)) for a, b in row[n:]]
        for row in rows
    ]


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
