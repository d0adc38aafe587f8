from fractions import Fraction

import pytest

from crkit.linalg import _series_det
from crkit.rank import (
    CERTIFIED,
    PROBABLE,
    generic_rank,
    matrix_generic_rank,
)
from crkit.rational import GaussRational, I, ONE
from crkit.series import SeriesMap, TruncatedSeries


def V(nvars, index, order=6):
    return TruncatedSeries.variable(nvars, order, index)


def test_full_rank_symbolic_matrix():
    x, y = V(2, 0), V(2, 1)
    result = matrix_generic_rank([[x + 1, y], [y, x + 1]])
    assert result.rank == 2
    assert result.certificate.status == CERTIFIED
    # det = (1+x)^2 - y^2 has nonzero constant term, the least witness
    assert result.certificate.witness_monomial == (0, 0)
    assert result.certificate.witness_coefficient == ONE


def test_rank_deficient_matrix():
    x, y = V(2, 0), V(2, 1)
    # second row is x times the first: rank 1 for generic values
    matrix = [[x, y], [x * x, x * y]]
    result = matrix_generic_rank(matrix)
    assert result.rank == 1
    assert result.certificate.status == CERTIFIED
    assert len(result.certificate.rows) == 1


def test_zero_matrix_rank():
    z = TruncatedSeries.zero(2, 6)
    result = matrix_generic_rank([[z, z], [z, z]])
    assert result.rank == 0
    assert result.certificate.status == CERTIFIED
    assert result.certificate.rows == ()


def test_budget_exhaustion_reports_probable():
    x, y = V(2, 0), V(2, 1)
    matrix = [[x + 1, y], [y, x + 1]]
    result = matrix_generic_rank(matrix, minor_budget=0)
    assert result.certificate.status == PROBABLE
    assert result.rank == 0
    # a budget that stops the climb part-way reports a certified lower bound:
    # the last nonzero minor found, never more than the full climb's rank
    matrix = [
        [x, x * y, y],
        [x.scale(2), (x * y).scale(2), y.scale(2)],
        [y, x * x, x],
    ]
    full = matrix_generic_rank(matrix)
    assert (full.rank, full.certificate.status) == (2, CERTIFIED)
    partial_ranks = set()
    for budget in range(20):
        result = matrix_generic_rank(matrix, minor_budget=budget)
        cert = result.certificate
        if cert.status == CERTIFIED:
            assert result == full
            continue
        assert cert.status == PROBABLE
        assert result.rank <= full.rank
        assert len(cert.rows) == len(cert.cols) == result.rank
        if result.rank:
            det = _series_det([[matrix[i][j] for j in cert.cols] for i in cert.rows])
            assert det.least_term() == (cert.witness_monomial, cert.witness_coefficient)
            partial_ranks.add(result.rank)
    # budgets that stop inside size 2 report 1; inside size 3, the full 2
    assert partial_ranks == {1, 2}


def test_prefer_least_returns_least_row_set():
    x, y = V(2, 0), V(2, 1)
    # rows 0 and 1 are dependent; rows {0, 2} realize rank 2 and are the
    # least such set, ahead of {1, 2}
    matrix = [
        [x, y],
        [x.scale(2), y.scale(2)],
        [y, x],
    ]
    result = matrix_generic_rank(matrix)
    assert result.rank == 2
    assert result.certificate.rows == (0, 2)
    # det = -x^2 truncates to zero at order 1, so the rank is 1; the first
    # nonzero entry in row-major order is (0, 1), not (1, 0)
    x, zero = V(1, 0, order=1), TruncatedSeries.zero(1, 1)
    result = matrix_generic_rank([[zero, x], [x, zero]])
    assert result.rank == 1
    assert (result.certificate.rows, result.certificate.cols) == ((0,), (1,))


def test_generic_rank_of_map():
    x, y = V(2, 0), V(2, 1)
    fmap = SeriesMap([x, x * y])
    result = generic_rank(fmap)
    assert result.rank == 2
    assert result.certificate.status == CERTIFIED
    flat = SeriesMap([x, x.scale(I)])
    assert generic_rank(flat).rank == 1


def test_generic_rank_requires_positive_order():
    s = TruncatedSeries.constant(ONE, 2, 0)
    fmap = SeriesMap([s, s])
    with pytest.raises(ValueError):
        generic_rank(fmap)


def test_determinism_across_calls():
    x, y = V(2, 0), V(2, 1)
    matrix = [[x + 1, y], [y ** 2, x]]
    first = matrix_generic_rank(matrix)
    second = matrix_generic_rank(matrix)
    assert first.rank == second.rank
    assert first.certificate == second.certificate
