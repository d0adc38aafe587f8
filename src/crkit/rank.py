"""Generic rank of matrices of series, with symbolic certificates.

The generic rank of a matrix over the series ring is the largest size of
a square submatrix whose determinant is a nonzero series at the working
truncation. Random rational evaluations locate a candidate quickly; the
answer reported as "certified" is always backed by a symbolic nonzero
minor plus an exhaustive check that every larger minor truncates to zero.
If the enumeration budget runs out first, the answer is only "probable",
which strict callers treat as a failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import linalg
from .rational import GaussRational
from .series import SeriesMap, TruncatedSeries
from .linalg import _series_det

DEFAULT_SEED = 1729
DEFAULT_TRIALS = 5
DEFAULT_MINOR_BUDGET = 20000

CERTIFIED = "certified"
PROBABLE = "probable"


@dataclass(frozen=True)
class RankCertificate:
    """Which rows and columns realize the rank, and why it is nonzero.

    ``witness_monomial`` is the graded-lex-least exponent tuple at which
    the chosen minor's determinant has a nonzero coefficient. A
    ``probable`` status means the enumeration budget was exhausted before
    the symbolic search finished.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    witness_monomial: tuple[int, ...] | None
    witness_coefficient: GaussRational | None
    status: str


@dataclass(frozen=True)
class RankResult:
    rank: int
    certificate: RankCertificate


class _BudgetExceeded(Exception):
    pass


def sample_point(rng: random.Random, nvars: int) -> list[Fraction]:
    """A deterministic pseudo-random rational point of height at most 100."""
    return [
        Fraction(rng.randint(-100, 100), rng.randint(1, 100)) for _ in range(nvars)
    ]


def matrix_generic_rank(
    matrix: list[list[TruncatedSeries]],
    *,
    seed: int = DEFAULT_SEED,
    minor_budget: int = DEFAULT_MINOR_BUDGET,
    prefer_least: bool = False,
) -> RankResult:
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    live_rows = [i for i in range(nrows) if any(not e.is_zero() for e in matrix[i])]
    live_cols = [
        j for j in range(ncols) if any(not matrix[i][j].is_zero() for i in range(nrows))
    ]
    upper = min(len(live_rows), len(live_cols))
    if upper == 0:
        return RankResult(0, RankCertificate((), (), None, None, CERTIFIED))

    nvars = matrix[0][0].nvars
    rng = random.Random(seed)
    best = 0
    hint = None
    for _ in range(DEFAULT_TRIALS):
        point = sample_point(rng, nvars)
        values = [[matrix[i][j].evaluate(point) for j in live_cols] for i in live_rows]
        r, pivot_rows, pivot_cols = linalg.rank_and_pivots(values)
        if r > best:
            best = r
            hint = (
                tuple(live_rows[i] for i in pivot_rows),
                tuple(sorted(live_cols[j] for j in pivot_cols)),
            )

    budget = [minor_budget]

    def nonzero_minor(size, first_guess=None):
        """First (rows, cols, det) with det a nonzero series, in index order."""
        if first_guess is not None:
            found = _try_minor(matrix, *first_guess, budget)
            if found is not None:
                return first_guess + (found,)
        for rows in combinations(live_rows, size):
            for cols in combinations(live_cols, size):
                if first_guess is not None and (rows, cols) == first_guess:
                    continue
                found = _try_minor(matrix, rows, cols, budget)
                if found is not None:
                    return rows, cols, found
        return None

    try:
        size = best
        found = None
        while size > 0:
            guess = hint if (hint is not None and size == best) else None
            found = nonzero_minor(size, guess)
            if found is not None:
                break
            size -= 1
        if found is None:
            # sampling said zero everywhere, but live entries exist
            found = nonzero_minor(1)
            size = 1 if found is not None else 0
        if found is None:
            raise AssertionError("a live entry must yield a nonzero 1-minor")
        while size < upper:
            bigger = nonzero_minor(size + 1)
            if bigger is None:
                break
            found = bigger
            size += 1
        if prefer_least and found is not None:
            # retake the first rank-realizing minor in plain index order, so
            # the certificate names the least row set, not the sampling hint
            found = nonzero_minor(size)
    except _BudgetExceeded:
        rows, cols = hint if hint is not None else ((), ())
        return RankResult(
            best, RankCertificate(tuple(rows), tuple(cols), None, None, PROBABLE)
        )
    rows, cols, det = found
    exponents, coeff = det.least_term()
    return RankResult(
        size,
        RankCertificate(tuple(rows), tuple(cols), exponents, coeff, CERTIFIED),
    )


def _try_minor(matrix, rows, cols, budget):
    if budget[0] <= 0:
        raise _BudgetExceeded
    budget[0] -= 1
    det = _series_det([[matrix[i][j] for j in cols] for i in rows])
    return det if not det.is_zero() else None


def generic_rank(fmap: SeriesMap, *, seed: int = DEFAULT_SEED) -> RankResult:
    """Generic rank of the Jacobian of a map.

    Differentiation costs one order, so the map must carry order >= 1 for
    its Jacobian to hold any information at truncation.
    """
    if fmap.order < 1:
        raise ValueError("generic rank needs a map of order >= 1")
    return matrix_generic_rank(fmap.jacobian(), seed=seed)
