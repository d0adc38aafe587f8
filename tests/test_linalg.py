from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, strategies as st

from crkit.linalg import _series_det, determinant, inverse
from crkit.rank import CERTIFIED, matrix_generic_rank
from crkit.rational import GaussRational, I, ONE, ZERO
from crkit.series import TruncatedSeries


def G(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def constant_rank(matrix):
    return matrix_generic_rank(
        [[TruncatedSeries.constant(entry, 1, 0) for entry in row] for row in matrix]
    )


def test_rank_and_pivots():
    matrix = [
        [G(1), G(2), G(3)],
        [G(2), G(4), G(6)],
        [G(0), G(1), G(1)],
    ]
    result = constant_rank(matrix)
    assert result.rank == 2
    assert list(result.certificate.rows) == [0, 2]
    assert list(result.certificate.cols) == [0, 1]


def test_rank_of_zero_and_identity():
    zero = [[G(0), G(0)], [G(0), G(0)]]
    assert constant_rank(zero).rank == 0
    ident = [[ONE, G(0)], [G(0), ONE]]
    assert constant_rank(ident).rank == 2


def test_determinant():
    assert determinant([[G(2)]]) == G(2)
    assert determinant([[G(1), G(2)], [G(3), G(4)]]) == G(-2)
    # complex entries: det [[i, 1], [1, i]] = i*i - 1 = -2
    assert determinant([[I, ONE], [ONE, I]]) == G(-2)
    singular = [[G(1), G(2)], [G(2), G(4)]]
    assert determinant(singular) == G(0)


def test_inverse():
    matrix = [[G(1), G(2)], [G(3), G(4)]]
    inv = inverse(matrix)
    assert inv == [
        [G(-2), G(1)],
        [G(Fraction(3, 2)), G(Fraction(-1, 2))],
    ]
    with pytest.raises(ValueError):
        inverse([[G(1), G(2)], [G(2), G(4)]])



# ---------------------------------------------------------------------------
# the elimination core against cofactor expansion, on matrices with many
# zeros so that singular and rank-deficient cases are common

small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
entries = st.one_of(st.just(ZERO), st.builds(GaussRational, small, small))


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 4))
    return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]


def minor(matrix, rows, cols) -> GaussRational:
    """Determinant of a submatrix by cofactor expansion over constant series."""
    return _series_det(
        [[TruncatedSeries.constant(matrix[i][j], 1, 0) for j in cols] for i in rows]
    ).constant_term()


@given(matrices(square=True))
def test_determinant_matches_cofactor_expansion(matrix):
    n = len(matrix)
    assert determinant(matrix) == minor(matrix, range(n), range(n))


@given(matrices(square=True))
def test_inverse_is_a_left_inverse_or_singular(matrix):
    n = len(matrix)
    if determinant(matrix).is_zero():
        with pytest.raises(ValueError, match="^matrix is singular$"):
            inverse(matrix)
        return
    inv = inverse(matrix)
    for i in range(n):
        for j in range(n):
            total = ZERO
            for k in range(n):
                total = total + inv[i][k] * matrix[k][j]
            assert total == (ONE if i == j else ZERO)


@given(matrices())
@example([[G(1), G(2), G(3)], [G(2), G(4), G(6)], [G(0), G(1), G(1)]])
@example([[ZERO, ZERO], [ZERO, ZERO]])
@example([[ONE, ZERO], [ZERO, ONE]])
@example([[ZERO, ONE], [ONE, ZERO]])
def test_rank_is_the_largest_nonzero_minor(matrix):
    """matrix_generic_rank over constant series: the rank is the largest
    size of a nonzero minor, and the certificate is the first such minor
    in combinations order, rows before columns."""
    nrows, ncols = len(matrix), len(matrix[0])
    nonzero = [
        (r, c)
        for k in range(1, min(nrows, ncols) + 1)
        for r in combinations(range(nrows), k)
        for c in combinations(range(ncols), k)
        if not minor(matrix, r, c).is_zero()
    ]
    largest = max((len(r) for r, _ in nonzero), default=0)
    result = constant_rank(matrix)
    cert = result.certificate
    assert (result.rank, cert.status) == (largest, CERTIFIED)
    first = next(((r, c) for r, c in nonzero if len(r) == largest), ((), ()))
    assert (cert.rows, cert.cols) == first
    if largest:
        assert cert.witness_monomial == (0,)
        assert cert.witness_coefficient == minor(matrix, *first)
