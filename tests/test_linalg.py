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


# ---------------------------------------------------------------------------
# entries that are not GaussRational


def test_int_and_fraction_entries_read_as_gaussian_rationals():
    assert determinant([[1, 2], [3, 4]]) == determinant([[G(1), G(2)], [G(3), G(4)]]) == G(-2)
    assert repr(inverse([[Fraction(1, 2)]])) == repr(inverse([[G(Fraction(1, 2))]]))
    mixed = [[1, Fraction(1, 3)], [I, G(2, -1)]]
    typed = [[GaussRational.coerce(entry) for entry in row] for row in mixed]
    assert repr(determinant(mixed)) == repr(determinant(typed))
    assert repr(inverse(mixed)) == repr(inverse(typed))


@pytest.mark.parametrize("call, message", [
    (lambda: determinant([[1, 2]]), "determinant needs a square matrix"),
    (lambda: inverse([[1], [2]]), "inverse needs a square matrix"),
    (lambda: _series_det([]), "empty matrix"),
])
def test_matrix_shape_refusals(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_float_entries_are_refused():
    with pytest.raises(TypeError):
        determinant([[0.5]])
    with pytest.raises(TypeError):
        inverse([[0.5]])
    with pytest.raises(TypeError):
        inverse([[ONE, ZERO], [ZERO, 1.0]])


# ---------------------------------------------------------------------------
# the fraction-free core against the former elimination over Gaussian
# rationals, kept here as the reference: first nonzero pivot in each
# column, rows below reduced by a GaussRational factor, and
# back-substitution for the inverse


def reference_eliminate(matrix):
    rows = [list(row) for row in matrix]
    ncols = len(rows[0]) if rows else 0
    pivot_cols = []
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
    return rows, pivot_cols, sign


def reference_determinant(matrix):
    n = len(matrix)
    rows, pivot_cols, sign = reference_eliminate(matrix)
    if len(pivot_cols) < n:
        return ZERO
    det = ONE if sign > 0 else -ONE
    for i in range(n):
        det = det * rows[i][i]
    return det


def reference_inverse(matrix):
    n = len(matrix)
    augmented = [
        list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(matrix)
    ]
    rows, pivot_cols, _ = reference_eliminate(augmented)
    if pivot_cols != list(range(n)):
        return None
    out = [None] * n
    for i in reversed(range(n)):
        row = rows[i]
        acc = row[n:]
        for k in range(i + 1, n):
            if not row[k].is_zero():
                acc = [a - row[k] * b for a, b in zip(acc, out[k])]
        inv = ONE / row[i]
        out[i] = [a * inv for a in acc]
    return out


# parts over unrelated denominators 1-7, so the common denominator grows
parts = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
nonzero_parts = parts.filter(bool)
mixed_entries = st.one_of(
    st.just(ZERO),
    st.just(ZERO),
    st.builds(GaussRational, parts),
    st.builds(lambda im: GaussRational(0, im), nonzero_parts),  # purely imaginary
    st.builds(GaussRational, parts, parts),
)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    matrix = [[draw(mixed_entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        # purely imaginary pivots down the diagonal, zeros below
        for i in range(n):
            matrix[i][i] = GaussRational(0, draw(nonzero_parts))
            for k in range(i + 1, n):
                if draw(st.booleans()):
                    matrix[k][i] = ZERO
    if n > 1 and draw(st.booleans()):
        # the last column a combination of the others: singular only there
        coeffs = [draw(mixed_entries) for _ in range(n - 1)]
        for row in matrix:
            total = ZERO
            for c, entry in zip(coeffs, row):
                total = total + c * entry
            row[-1] = total
    return matrix


@given(square_matrices())
@example([[I]])
@example([[ZERO, I], [G(Fraction(1, 7)), ZERO]])
@example([[G(1), G(2), G(3)], [G(Fraction(1, 2)), G(1), G(5)], [G(0), G(0), G(0, 1)]])
@example([[G(1), G(2), G(3)], [G(0, 1), G(1), G(1, 1)], [G(1, 1), G(3), G(4, 1)]])
@example([[ZERO] * 4] * 4)
def test_elimination_matches_the_fraction_reference(matrix):
    assert repr(determinant(matrix)) == repr(reference_determinant(matrix))
    expected = reference_inverse(matrix)
    if expected is None:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            inverse(matrix)
    else:
        assert repr(inverse(matrix)) == repr(expected)


def test_empty_matrix():
    assert repr(determinant([])) == repr(ONE)
    assert inverse([]) == []
