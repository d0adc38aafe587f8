"""Generic rank of matrices of series, with symbolic certificates.

The generic rank of a matrix over the series ring is the largest size of
a square submatrix whose determinant is a nonzero series at the working
truncation. One deterministic climb finds it: for size 1, 2, ... take the
first (rows, cols) in ``itertools.combinations`` order whose determinant
is nonzero, and stop at the first size that has none. The last minor
found is the certificate, so the answer reported as "certified" is backed
by a symbolic nonzero minor plus an exhaustive check that every minor one
size larger truncates to zero. If the minor budget runs out first, the
answer is only "probable": a lower bound certified by the last minor
found, which strict callers treat as a failure.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .rational import GaussRational
from .series import SeriesMap, TruncatedSeries
from .linalg import _series_det

DEFAULT_MINOR_BUDGET = 20000

CERTIFIED = "certified"
PROBABLE = "probable"


class RankCertificate(NamedTuple):
    """Which rows and columns realize the rank, and why it is nonzero.

    ``rows`` and ``cols`` are the first minor of the reported size, in
    index order, whose determinant is nonzero. ``witness_monomial`` is the
    graded-lex-least exponent tuple at which that determinant has a nonzero
    coefficient. A ``probable`` status means the minor budget ran out
    before the climb finished: the reported rank is then only a lower
    bound, certified by this minor.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    witness_monomial: tuple[int, ...] | None
    witness_coefficient: GaussRational | None
    status: str


class RankResult(NamedTuple):
    rank: int
    certificate: RankCertificate


def matrix_generic_rank(
    matrix: list[list[TruncatedSeries]],
    *,
    minor_budget: int = DEFAULT_MINOR_BUDGET,
) -> RankResult:
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    live_rows = [i for i in range(nrows) if any(not e.is_zero() for e in matrix[i])]
    live_cols = [
        j for j in range(ncols) if any(not matrix[i][j].is_zero() for i in range(nrows))
    ]
    rank, rows, cols, det = 0, (), (), None
    status = CERTIFIED
    for size in range(1, min(len(live_rows), len(live_cols)) + 1):
        minors = (
            (minor_rows, minor_cols)
            for minor_rows in combinations(live_rows, size)
            for minor_cols in combinations(live_cols, size)
        )
        for minor_rows, minor_cols in minors:
            if minor_budget <= 0:
                status = PROBABLE
                break
            minor_budget -= 1
            minor = _series_det([[matrix[i][j] for j in minor_cols] for i in minor_rows])
            if not minor.is_zero():
                rank, rows, cols, det = size, minor_rows, minor_cols, minor
                break
        if rank < size:
            break  # no nonzero minor of this size, or the budget ran out
    witness = det.least_term() if det is not None else (None, None)
    return RankResult(rank, RankCertificate(rows, cols, *witness, status))


def generic_rank(fmap: SeriesMap) -> RankResult:
    """Generic rank of the Jacobian of a map.

    Differentiation costs one order, so the map must carry order >= 1 for
    its Jacobian to hold any information at truncation.
    """
    if fmap.order < 1:
        raise ValueError("generic rank needs a map of order >= 1")
    return matrix_generic_rank(fmap.jacobian())
