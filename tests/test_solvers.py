import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from crkit import corpus
from crkit.documents import serialize
from crkit import linalg, series, solvers
from crkit.rational import GaussRational, I, ONE
from crkit.series import (
    SeriesMap,
    TruncatedSeries,
    _ONE_FORM,
    _exponents,
    _inverse_equation,
    _pack,
    _sum_of_products,
    _sum_of_products_form,
    _weights,
    compose,
    multi_indices,
    unit_exponent,
)
from crkit.solvers import implicit_solve, invert_map, newton_extend

N = 8


def V(nvars, index, order=N):
    return TruncatedSeries.variable(nvars, order, index)


def sphere_defining():
    # -(i/2) (z2 - w2) - z1 w1 over (z1, z2, w1, w2)
    half_i = GaussRational(0, Fraction(1, 2))
    return TruncatedSeries(
        4,
        N,
        [
            ((0, 1, 0, 0), -half_i),
            ((0, 0, 0, 1), half_i),
            ((1, 0, 1, 0), GaussRational(-1)),
        ],
    )


# ---------------------------------------------------------------------------
# implicit_solve


def test_implicit_solve_sphere_graph():
    # solving for z2 gives w2 + 2i z1 w1, exactly
    phi = implicit_solve(sphere_defining(), 1)
    assert phi.nvars == 3  # (z1, w1, w2)
    assert dict(phi.terms) == {
        (0, 0, 1): ONE,
        (1, 1, 0): GaussRational(0, 2),
    }


def test_implicit_solve_skewed_sphere():
    # -(i/2)((z2 + z1^2) - (w2 + w1^2)) - z1 w1 solves to
    # z2 = w2 + w1^2 + 2i z1 w1 - z1^2
    half_i = GaussRational(0, Fraction(1, 2))
    rho = TruncatedSeries(
        4,
        N,
        [
            ((0, 1, 0, 0), -half_i),
            ((2, 0, 0, 0), -half_i),
            ((0, 0, 0, 1), half_i),
            ((0, 0, 2, 0), half_i),
            ((1, 0, 1, 0), GaussRational(-1)),
        ],
    )
    phi = implicit_solve(rho, 1)
    assert dict(phi.terms) == {
        (0, 0, 1): ONE,
        (0, 2, 0): ONE,
        (1, 1, 0): GaussRational(0, 2),
        (2, 0, 0): GaussRational(-1),
    }


def test_implicit_solve_back_substitution_residual():
    rho = sphere_defining()
    phi = implicit_solve(rho, 1)
    # substitute z2 := phi(z1, w1, w2) back into rho; residual must vanish
    m = 3
    sub = SeriesMap(
        [
            V(m, 0),
            phi,
            V(m, 1),
            V(m, 2),
        ]
    )
    assert compose(rho, sub).is_zero()


def test_implicit_solve_validation():
    rho = sphere_defining()
    with pytest.raises(ValueError):
        implicit_solve(rho, 0)  # linear coefficient of z1 vanishes
    shifted = rho + 1
    with pytest.raises(ValueError):
        implicit_solve(shifted, 1)  # constant term present


# ---------------------------------------------------------------------------
# invert_map


def test_invert_quadratic_shift():
    x, y = V(2, 0), V(2, 1)
    fmap = SeriesMap([x, y + x ** 2])
    inv = invert_map(fmap)
    assert inv.components[0] == x
    assert dict(inv.components[1].terms) == {
        (0, 1): ONE,
        (2, 0): GaussRational(-1),
    }


def test_invert_round_trip():
    x, y = V(2, 0), V(2, 1)
    fmap = SeriesMap([x + y ** 2 + x * y, y - x ** 2])
    inv = invert_map(fmap)
    ident = SeriesMap.identity(2, N)
    assert fmap.compose(inv) == ident
    assert inv.compose(fmap) == ident


def test_invert_rejects_singular_linear_part():
    x, y = V(2, 0), V(2, 1)
    with pytest.raises(ValueError):
        invert_map(SeriesMap([x + y, x + y]))


def test_invert_rejects_non_origin_preserving():
    x, y = V(2, 0), V(2, 1)
    with pytest.raises(ValueError):
        invert_map(SeriesMap([x + 1, y]))


# ---------------------------------------------------------------------------
# newton_extend


def sqrt_oracle(order):
    """Brute-force coefficient matching for y(x) with y^2 = 1 + x, y(0) = 1.

    Matching x^m on both sides of y^2 = 1 + x gives
    2 c0 cm = rhs_m - sum_{0<i<m} c_i c_{m-i}.
    """
    rhs = {0: Fraction(1), 1: Fraction(1)}
    c = [Fraction(1)]
    for m in range(1, order + 1):
        acc = rhs.get(m, Fraction(0))
        for i in range(1, m):
            acc -= c[i] * c[m - i]
        c.append(acc / (2 * c[0]))
    return c


def test_sqrt_oracle_known_values():
    # classical binomial-series coefficients of sqrt(1+x)
    c = sqrt_oracle(4)
    assert c[0] == 1
    assert c[1] == Fraction(1, 2)
    assert c[2] == Fraction(-1, 8)
    assert c[3] == Fraction(1, 16)
    assert c[4] == Fraction(-5, 128)


def sqrt_system(order):
    # R(x, y) = y^2 - 1 - x over (x, y)
    return SeriesMap(
        [
            TruncatedSeries(
                2,
                order,
                [
                    ((0, 2), ONE),
                    ((0, 0), GaussRational(-1)),
                    ((1, 0), GaussRational(-1)),
                ],
            )
        ]
    )


def sqrt_seed(order):
    return SeriesMap(
        [
            TruncatedSeries(
                1,
                1,
                [((0,), ONE), ((1,), GaussRational(Fraction(1, 2)))],
            )
        ]
    )


def test_newton_extend_sqrt_to_order_three():
    extended = newton_extend(sqrt_system(8), sqrt_seed(8), 3)
    got = extended.components[0]
    assert dict(got.terms) == {
        (0,): ONE,
        (1,): GaussRational(Fraction(1, 2)),
        (2,): GaussRational(Fraction(-1, 8)),
        (3,): GaussRational(Fraction(1, 16)),
    }


def test_newton_extend_matches_oracle_to_order_ten():
    oracle = sqrt_oracle(10)
    extended = newton_extend(sqrt_system(12), sqrt_seed(12), 10)
    got = extended.components[0]
    for m, expected in enumerate(oracle):
        assert got.coefficient((m,)) == GaussRational(expected), f"x^{m}"


def test_newton_extend_deterministic_bytes():
    one = newton_extend(sqrt_system(12), sqrt_seed(12), 10)
    two = newton_extend(sqrt_system(12), sqrt_seed(12), 10)
    assert serialize(one) == serialize(two)


def test_newton_extend_rejects_non_solution():
    bad_seed = SeriesMap(
        [TruncatedSeries(1, 1, [((0,), ONE), ((1,), ONE)])]
    )
    with pytest.raises(ValueError, match="does not solve"):
        newton_extend(sqrt_system(8), bad_seed, 3)


def test_newton_extend_rejects_vanishing_jacobian_determinant():
    # R(x, y) = y^2 - x^2 with seed y = x: dR/dy = 2y vanishes at the origin
    # along the solution, so the lift is not uniquely determined
    system = SeriesMap(
        [
            TruncatedSeries(
                2, 8, [((0, 2), ONE), ((2, 0), GaussRational(-1))]
            )
        ]
    )
    seed = SeriesMap([TruncatedSeries(1, 1, [((1,), ONE)])])
    with pytest.raises(ValueError, match="singular at the origin"):
        newton_extend(system, seed, 4)


def test_newton_extend_rejects_jacobian_vanishing_along_the_solution():
    # R(x, y) = (y - x)^2 with seed y = x: dR/dy = 2(y - x) is zero along
    # the solution at every degree, not only at the origin
    system = SeriesMap(
        [
            TruncatedSeries(
                2, 8, [((0, 2), ONE), ((1, 1), GaussRational(-2)), ((2, 0), ONE)]
            )
        ]
    )
    seed = SeriesMap([TruncatedSeries(1, 1, [((1,), ONE)])])
    with pytest.raises(ValueError, match="vanishes along the solution at every degree through 1"):
        newton_extend(system, seed, 4)


def test_newton_extend_to_the_solution_order_returns_the_solution():
    seed = sqrt_seed(8)
    assert newton_extend(sqrt_system(8), seed, seed.order) == seed


def test_every_solver_certifies_its_result(monkeypatch):
    # a wrong top degree in every solved unknown must fail the one
    # back-substitution all three solvers share
    unknown = solvers._OnlineSolve.unknown

    def corrupted(online, j):
        top = (online.order,) + (0,) * (online.nparams - 1)
        return unknown(online, j) + TruncatedSeries.monomial(online.nparams, online.order, top)

    monkeypatch.setattr(solvers._OnlineSolve, "unknown", corrupted)
    x, y = V(2, 0), V(2, 1)
    with pytest.raises(AssertionError, match="implicit solve failed its back-substitution"):
        implicit_solve(sphere_defining(), 1)
    with pytest.raises(AssertionError, match="map inversion failed its back-substitution"):
        invert_map(SeriesMap([x + y ** 2, y - x ** 2]))
    with pytest.raises(AssertionError, match="Newton extension failed its back-substitution"):
        newton_extend(sqrt_system(8), sqrt_seed(8), 4)


def test_newton_extend_target_below_seed_rejected():
    with pytest.raises(ValueError):
        newton_extend(sqrt_system(8), sqrt_seed(8), 0)


def test_newton_extend_two_equations():
    # y1 = x + y2^2, y2 = x^2 + y1 y2; solve by direct substitution oracle:
    # y2 = x^2 + y1 y2 -> low degrees: y1 = x + x^4 + ..., y2 = x^2 + x^3 + ...
    system = SeriesMap(
        [
            # y1 - x - y2^2 over (x, y1, y2)
            TruncatedSeries(
                3,
                8,
                [
                    ((0, 1, 0), ONE),
                    ((1, 0, 0), GaussRational(-1)),
                    ((0, 0, 2), GaussRational(-1)),
                ],
            ),
            # y2 - x^2 - y1 y2
            TruncatedSeries(
                3,
                8,
                [
                    ((0, 0, 1), ONE),
                    ((2, 0, 0), GaussRational(-1)),
                    ((0, 1, 1), GaussRational(-1)),
                ],
            ),
        ]
    )
    seed = SeriesMap(
        [
            TruncatedSeries(1, 2, [((1,), ONE)]),
            TruncatedSeries(1, 2, [((2,), ONE)]),
        ]
    )
    extended = newton_extend(system, seed, 6)
    y1, y2 = extended.components
    # independent check: plug back in, the residual must vanish through 6
    x = V(1, 0, 6)
    sub = SeriesMap([x, y1, y2])
    assert compose(system.components[0], sub).is_zero()
    assert compose(system.components[1], sub).is_zero()
    # and the low-degree coefficients agree with hand substitution
    assert y1.coefficient((1,)) == ONE
    assert y2.coefficient((2,)) == ONE
    assert y2.coefficient((3,)) == ONE  # from y1*y2 = x*x^2


# ---------------------------------------------------------------------------
# regression against reference fixed-point solvers
#
# Each reference below runs the plain fixed-point iteration: substitute the
# current approximation at full order, correct by the inverse linear part,
# repeat. Every pass is exact one degree further, so enough passes reach
# the unique solution the degree-by-degree solvers must reproduce.


def linear_combination(coeffs, series_list):
    total = TruncatedSeries.zero(series_list[0].nvars, series_list[0].order)
    for coeff, series in zip(coeffs, series_list):
        total = total + series.scale(coeff)
    return total


def reference_implicit_solve(rho, var):
    m, order = rho.nvars, rho.order
    inv_c = ONE / rho.coefficient(unit_exponent(m, var))
    solution = TruncatedSeries.zero(m - 1, order)
    for _ in range(order):
        components = [V(m - 1, i, order) for i in range(m - 1)]
        components.insert(var, solution)
        residual = compose(rho, SeriesMap(components))
        solution = solution - residual.scale(inv_c)
    return solution


def reference_invert_map(fmap):
    n, order = fmap.source_nvars, fmap.order
    inv = linalg.inverse(fmap.linear_matrix())
    variables = [V(n, j, order) for j in range(n)]
    linear = [linear_combination(row, variables) for row in fmap.linear_matrix()]
    tail = [c - part for c, part in zip(fmap.components, linear)]
    current = SeriesMap(linear_combination(row, variables) for row in inv)
    for _ in range(order):
        adjusted = [x - compose(t, current) for x, t in zip(variables, tail)]
        current = SeriesMap(linear_combination(row, adjusted) for row in inv)
    return current


def substitute_polynomial(series, q, values, order):
    """series(x, values(x)) through ``order``, the stored terms read as a
    polynomial; the values may have nonzero constant terms."""
    total = TruncatedSeries.zero(q, order)
    for exponents, coeff in series.terms.items():
        if sum(exponents[:q]) > order:
            continue
        term = TruncatedSeries.monomial(q, order, exponents[:q], coeff)
        for value, k in zip(values, exponents[q:]):
            term = term * value.truncate(order) ** k
        total = total + term
    return total


def value_at(series, point):
    """The stored polynomial part of ``series`` at an exact point."""
    total = GaussRational(0)
    for exponents, coeff in series.terms.items():
        for value, e in zip(point, exponents):
            coeff = coeff * value ** e
        total = total + coeff
    return total


def reference_newton_extend(system, solution, target):
    r = system.target_nvars
    q = system.source_nvars - r
    y0 = [c.constant_term() for c in solution.components]
    origin = [GaussRational(0)] * q + y0
    j0 = [[value_at(c.derive(q + j), origin) for j in range(r)] for c in system.components]
    inv = linalg.inverse(j0)
    current = [
        TruncatedSeries(q, target, dict(c.terms)) for c in solution.components
    ]
    for _ in range(target + 1):
        residuals = [substitute_polynomial(c, q, current, target) for c in system.components]
        current = [
            y - linear_combination(row, residuals) for y, row in zip(current, inv)
        ]
    return SeriesMap(current)


def place(template, var):
    """Move the last variable of ``template`` to index ``var``."""
    m = template.nvars
    positions = [i if i < var else i + 1 for i in range(m - 1)] + [var]
    return compose(template, SeriesMap.from_slots(m, template.order, positions))


def gapped_template(order=7):
    # over (x1, x2, y): y appears only as y and y^3, also mixed with x
    return TruncatedSeries(
        3,
        order,
        [
            ((0, 0, 1), GaussRational(2, -1)),
            ((0, 0, 3), GaussRational(Fraction(1, 3))),
            ((1, 0, 3), GaussRational(0, 1)),
            ((1, 1, 0), GaussRational(-1)),
            ((0, 2, 0), GaussRational(Fraction(1, 2), 1)),
            ((2, 1, 0), GaussRational(3)),
        ],
    )


@pytest.mark.parametrize("var", [0, 1, 2])
def test_implicit_solve_matches_reference_with_gapped_powers(var):
    rho = place(gapped_template(), var)
    got = implicit_solve(rho, var)
    assert got == reference_implicit_solve(rho, var)
    assert len(got.terms) > 2  # the y^3 terms feed back at every degree


@pytest.mark.parametrize("var", [0, 1, 2, 3])
def test_implicit_solve_matches_reference_at_every_index(var):
    # a dense-ish equation over four variables, solved at each index
    template = TruncatedSeries(
        4,
        6,
        [
            ((0, 0, 0, 1), GaussRational(-1, 2)),
            ((1, 0, 0, 0), GaussRational(1)),
            ((0, 1, 0, 1), GaussRational(0, -1)),
            ((0, 0, 0, 2), GaussRational(Fraction(2, 3))),
            ((1, 0, 1, 2), GaussRational(1, 1)),
            ((0, 2, 1, 0), GaussRational(-2)),
            ((0, 0, 0, 4), GaussRational(Fraction(1, 5))),
        ],
    )
    rho = place(template, var)
    assert implicit_solve(rho, var) == reference_implicit_solve(rho, var)


@pytest.mark.parametrize("name", ["sphere", "levi_flat", "perturbed_sphere", "degenerate_quadric"])
def test_implicit_solve_matches_reference_on_corpus(name):
    surface = corpus.HYPERSURFACES[name]()
    var = surface.n - 1
    got = implicit_solve(surface.rho, var)
    assert got == reference_implicit_solve(surface.rho, var)


def test_implicit_solve_levi_flat_graph(levi_flat):
    # Im z2 = 0 solves to z2 = w2 exactly, nothing at higher degree
    assert dict(implicit_solve(levi_flat.rho, 1).terms) == {(0, 0, 1): ONE}


def test_invert_map_n3_full_linear_part_matches_reference():
    order = 5
    x, y, z = (V(3, i, order) for i in range(3))
    fmap = SeriesMap(
        [
            x + y.scale(2) - z + (x * y).scale(GaussRational(0, 1)) + z ** 3,
            x.scale(-1) + y + z.scale(3) + (y * y).scale(GaussRational(Fraction(1, 2))),
            x.scale(2) + y.scale(GaussRational(1, 1)) + z + x * z * y - x ** 2,
        ]
    )
    assert not linalg.determinant(fmap.linear_matrix()).is_zero()
    inv = invert_map(fmap)
    assert inv == reference_invert_map(fmap)
    ident = SeriesMap.identity(3, order)
    assert fmap.compose(inv) == ident
    assert inv.compose(fmap) == ident


def G(re, im=0):
    return GaussRational(Fraction(re), Fraction(im))


def is_unit(value):
    return value in (ONE, -ONE, I, -I)


@pytest.mark.parametrize("n", [2, 3])
def test_invert_map_non_unit_complex_linear_part_matches_reference(n):
    # linear parts over mixed denominators with determinants 1/3 + i and
    # 1/2 + 2i, so the inverse has complex entries off the units
    order = 5 if n == 2 else 4
    v = [V(n, i, order) for i in range(n)]
    if n == 2:
        x, y = v
        fmap = SeriesMap(
            [
                x.scale(Fraction(1, 2)) + y.scale(-I) + (x * y).scale(G(Fraction(2, 5), 1)),
                x + y.scale(Fraction(2, 3)) + (y ** 3).scale(G(0, Fraction(-1, 7))) - x ** 2,
            ]
        )
        det = G(Fraction(1, 3), 1)
    else:
        x, y, z = v
        fmap = SeriesMap(
            [
                x + y.scale(2) + z.scale(G(0, Fraction(1, 2))) + (x * z).scale(Fraction(1, 3)),
                y.scale(Fraction(1, 3)) + z + (y * y * z).scale(G(1, -1)),
                x.scale(I) + z + (x * y).scale(G(Fraction(-5, 4), Fraction(1, 6))),
            ]
        )
        det = G(Fraction(1, 2), 2)
    assert linalg.determinant(fmap.linear_matrix()) == det
    inv = invert_map(fmap)
    assert inv == reference_invert_map(fmap)
    assert not all(is_unit(c) or c.is_zero() for row in inv.linear_matrix() for c in row)
    ident = SeriesMap.identity(n, order)
    assert fmap.compose(inv) == ident
    assert inv.compose(fmap) == ident


def complex_pair_system(y0, order=6):
    """Over (x, y1, y2): G(x, y) - G(0, y0) for
    G1 = (1 + i) y1 + y2/2 - x + y1 y2/3 + x y2^2 and
    G2 = 2/5 y1 - i y2 + x^2 - (i/7) y1^3, so y(0) = y0 solves it."""
    x, y1, y2 = (V(3, i, order) for i in range(3))
    system = [
        y1.scale(G(1, 1)) + y2.scale(Fraction(1, 2)) - x
        + (y1 * y2).scale(Fraction(1, 3)) + x * y2 ** 2,
        y1.scale(Fraction(2, 5)) + y2.scale(-I) + x ** 2
        + (y1 ** 3).scale(G(0, Fraction(-1, 7))),
    ]
    origin = [G(0)] + list(y0)
    return SeriesMap(F - value_at(F, origin) for F in system)


@pytest.mark.parametrize("y0", [(G(0), G(0)), (G(1), I)])
def test_newton_extend_non_unit_complex_jacobian_matches_reference(y0):
    # J0 is [[1 + i, 1/2], [2/5, -i]] at y0 = 0, det 4/5 - i, and
    # [[1 + 4i/3, 5/6], [2/5 - 3i/7, -i]] at y0 = (1, i), det 1 - 9i/14
    system = complex_pair_system(y0)
    origin = [G(0)] + list(y0)
    j0 = [[value_at(F.derive(1 + j), origin) for j in range(2)] for F in system.components]
    assert not is_unit(linalg.determinant(j0))
    seed = SeriesMap([TruncatedSeries.constant(c, 1, 0) for c in y0])
    extended = newton_extend(system, seed, 6)
    assert extended == reference_newton_extend(system, seed, 6)
    for component in system.components:
        assert substitute_polynomial(component, 1, extended.components, 6).is_zero()
    assert newton_extend(system, newton_extend(system, seed, 2), 6) == extended


@st.composite
def inverse_equation_cases(draw):
    n = draw(st.integers(1, 3))
    order = draw(st.integers(1, 6))
    part = st.fractions(min_value=-3, max_value=3, max_denominator=5)
    coefficient = st.builds(GaussRational, part, part).filter(bool)
    chosen = draw(st.lists(st.sampled_from(multi_indices(n, order)), max_size=8, unique=True))
    f = TruncatedSeries(n, order, {e: draw(coefficient) for e in chosen})
    return f, draw(st.integers(0, n - 1))


@given(inverse_equation_cases())
def test_inverse_equation_matches_composition(case):
    # f(y) - x_i written on the integer form equals the composition
    f, i = case
    n, order = f.nvars, f.order
    on_y = SeriesMap.from_slots(2 * n, order, range(n, 2 * n))
    x_i = SeriesMap.from_slots(2 * n, order, range(n)).components[i]
    assert _inverse_equation(f, i) == compose(f, on_y) - x_i


def shifted_pair_system(order=8):
    # over (x, y1, y2): y1^2 - 1 - x - x y2 and y2^2 + y1 - 2 - x y1^2,
    # solved by y(0) = (1, 1) with Jacobian [[2, 0], [1, 2]] there
    return SeriesMap(
        [
            TruncatedSeries(
                3,
                order,
                [
                    ((0, 2, 0), ONE),
                    ((0, 0, 0), GaussRational(-1)),
                    ((1, 0, 0), GaussRational(-1)),
                    ((1, 0, 1), GaussRational(-1)),
                ],
            ),
            TruncatedSeries(
                3,
                order,
                [
                    ((0, 0, 2), ONE),
                    ((0, 1, 0), ONE),
                    ((0, 0, 0), GaussRational(-2)),
                    ((1, 2, 0), GaussRational(0, -1)),
                ],
            ),
        ]
    )


def test_newton_extend_nonzero_constants_two_unknowns_matches_reference():
    system = shifted_pair_system()
    seed = SeriesMap([TruncatedSeries(1, 0, [((0,), ONE)])] * 2)
    extended = newton_extend(system, seed, 6)
    assert extended == reference_newton_extend(system, seed, 6)
    for component in system.components:
        assert substitute_polynomial(component, 1, extended.components, 6).is_zero()
    # scheduling the degrees differently gives the same series
    assert newton_extend(system, newton_extend(system, seed, 3), 6) == extended


def test_newton_extend_reports_defect_in_shifted_system():
    system = shifted_pair_system()
    bad = SeriesMap(
        [TruncatedSeries(1, 1, [((0,), ONE), ((1,), ONE)]), TruncatedSeries(1, 1, [((0,), ONE)])]
    )
    with pytest.raises(ValueError, match=r"first defect at \(1,\)"):
        newton_extend(system, bad, 4)


@pytest.mark.parametrize("target", [3, 9])
def test_newton_extend_power_above_target_matches_reference(target):
    # y - x - y^5: the y^5 term only starts to matter past degree 4
    system = SeriesMap(
        [
            TruncatedSeries(
                2,
                5,
                [((0, 1), ONE), ((1, 0), GaussRational(-1)), ((0, 5), GaussRational(-1))],
            )
        ]
    )
    seed = SeriesMap([TruncatedSeries(1, 1, [((1,), ONE)])])
    expected = reference_newton_extend(system, seed, target)
    assert newton_extend(system, seed, target) == expected


def reference_shift(F, q, y0, order):
    """solvers._shift as it was before the binomial factors moved onto
    Gaussian integers: each factor multiplied out in GaussRational."""
    nvars, base = F.nvars, order + 2
    den, rows, is_complex = F._form_at(base)
    if not any(y0):
        return TruncatedSeries._trusted(nvars, order, (den, rows, is_complex))
    weights = _weights(base, nvars)[q:]
    groups = {}
    for d, k, a, b in rows:
        beta = _exponents(k, base, nvars)[q:]
        drop = sum(map(operator.mul, beta, weights))
        groups.setdefault(beta, []).append((d - sum(beta), k - drop, a, b))
    pairs = []
    for beta, part in groups.items():
        ranges = [range(b + 1) if c else (b,) for b, c in zip(beta, y0)]
        binomial = []
        for gamma in itertools.product(*ranges):
            factor = ONE
            for b, g, c in zip(beta, gamma, y0):
                if b > g:
                    factor = factor * c ** (b - g) * math.comb(b, g)
            binomial.append(((0,) * q + gamma, factor))
        pairs.append(((den, part, is_complex), _pack(binomial, nvars, base)))
    return _sum_of_products(pairs, nvars, order)


# y0 entries: zero, real, purely imaginary and complex, over unrelated denominators
_SHIFT_PART = st.builds(
    Fraction, st.integers(-4, 4).filter(bool), st.sampled_from([1, 2, 3, 5, 7, 9, 11])
)
_SHIFT_ROOT = st.one_of(
    st.just(G(0)),
    st.builds(G, _SHIFT_PART),
    st.builds(lambda im: G(0, im), _SHIFT_PART),
    st.builds(G, _SHIFT_PART, _SHIFT_PART),
)


@st.composite
def shift_cases(draw):
    q, r = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    order = draw(st.integers(1, 4))
    part = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    coefficient = st.builds(GaussRational, part, part).filter(bool)
    chosen = draw(st.lists(st.sampled_from(multi_indices(q + r, order)), max_size=10, unique=True))
    F = TruncatedSeries(q + r, order, {e: draw(coefficient) for e in chosen})
    y0 = draw(st.lists(_SHIFT_ROOT, min_size=r, max_size=r))
    return F, q, y0, order + draw(st.integers(0, 2))


@given(shift_cases())
def test_shift_matches_the_gauss_rational_expansion(case):
    F, q, y0, order = case
    assert solvers._shift(F, q, y0, order)._form == reference_shift(F, q, y0, order)._form


# ---------------------------------------------------------------------------
# newton_extend solves from zero: the given degrees only enter as a check


@st.composite
def square_systems(draw, r=None):
    """(system, y0): r equations y_i + P_i(x, y) - c_i over q parameters and
    r unknowns, with c_i making y(0) = y0 a root, and J0 invertible there.
    r is drawn from 1 and 2 unless given."""
    q = draw(st.integers(1, 2))
    r = draw(st.integers(1, 2)) if r is None else r
    order = draw(st.integers(2, 3))
    part = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    coefficient = st.builds(GaussRational, part, part).filter(bool)
    monomials = [e for e in multi_indices(q + r, order) if sum(e) >= 2]
    y0 = draw(st.lists(_SHIFT_ROOT, min_size=r, max_size=r))
    origin = [G(0)] * q + y0
    system = []
    for i in range(r):
        chosen = draw(st.lists(st.sampled_from(monomials), max_size=5, unique=True))
        F = TruncatedSeries(q + r, order, {e: draw(coefficient) for e in chosen})
        F = F + TruncatedSeries.variable(q + r, order, q + i)
        system.append(F - value_at(F, origin))
    j0 = [[value_at(F.derive(q + j), origin) for j in range(r)] for F in system]
    assume(not linalg.determinant(j0).is_zero())
    return SeriesMap(system), y0


@given(square_systems(), st.integers(1, 4), st.integers(0, 3))
def test_newton_extend_does_not_depend_on_the_seed_order(case, seed_order, beyond):
    system, y0 = case
    q = system.source_nvars - system.target_nvars
    constants = SeriesMap(TruncatedSeries.constant(c, q, 0) for c in y0)
    seed = newton_extend(system, constants, seed_order)
    target = seed_order + beyond
    extended = newton_extend(system, seed, target)
    assert extended.truncate(seed_order) == seed
    for k in range(seed_order + 1):
        assert newton_extend(system, seed.truncate(k), target) == extended


def test_newton_extend_reports_a_non_solution_before_a_singular_jacobian():
    # y^2 + x with seed y = x: the seed leaves x, and dR/dy = 2y vanishes at
    # the origin; the defect is what the caller must hear about
    system = SeriesMap([TruncatedSeries(2, 2, [((0, 2), ONE), ((1, 0), ONE)])])
    seed = SeriesMap([TruncatedSeries(1, 1, [((1,), ONE)])])
    with pytest.raises(ValueError, match=r"does not solve the system .* first defect at \(1,\)"):
        newton_extend(system, seed, 3)


def test_newton_extend_diagnoses_the_jacobian_through_the_seed_order():
    # y^2 with seed y = x^3 of order 3: dR/dy = 2y is 2x^3 along the seed,
    # nonzero in degree 3, so J0 is singular only at the origin; the
    # partial must keep order 3 although the system has order 2
    system = SeriesMap([TruncatedSeries(2, 2, [((0, 2), ONE)])])
    seed = SeriesMap([TruncatedSeries(1, 3, [((3,), ONE)])])
    with pytest.raises(ValueError, match="singular at the origin"):
        newton_extend(system, seed, 3)


# ---------------------------------------------------------------------------
# -J0^-1 is folded into the equations once; the bytes are those of settling
# each degree as -J0^-1 R_d
#
# Before the fold, the online solve graded F itself and settled degree d
# as Y_d = -J0^-1 R_d(F), one kernel call per unknown and degree. That
# loop is kept here as ``ref_settle``. It runs on an online solve given
# the identity in place of -J0^-1, which therefore grades F unchanged.


def ref_settle(online, minus_inverse):
    for degree in range(1, online.order + 1):
        rhs = online.residual(degree)
        for parts, row in zip(online.parts, minus_inverse):
            pairs = [(coeff, rhs[i]) for coeff, i in row]
            parts.append(_sum_of_products_form(pairs, online.order))


def ref_solve(equations, params, order, minus_inverse):
    identity = [[(_ONE_FORM, i)] for i in range(len(equations))]
    online = solvers._OnlineSolve(equations, params, order, identity)
    ref_settle(online, minus_inverse)
    return [online.unknown(j) for j in range(len(equations))]


def same_bytes(got, expected):
    def key(s):
        return s.nvars, s.order, s._form

    return list(map(key, got)) == list(map(key, expected))


_SOLVE_PART = st.fractions(min_value=-3, max_value=3, max_denominator=7)
_SOLVE_COEFFICIENT = st.builds(GaussRational, _SOLVE_PART, _SOLVE_PART).filter(bool)


def drawn_terms(draw, nvars, low, high, size=6):
    """Up to ``size`` drawn terms of degree ``low`` through ``high``."""
    monomials = [e for e in multi_indices(nvars, high) if sum(e) >= low]
    chosen = draw(st.lists(st.sampled_from(monomials), max_size=size, unique=True))
    return {e: draw(_SOLVE_COEFFICIENT) for e in chosen}


@st.composite
def implicit_cases(draw):
    """(rho, var, rest): rho(0) = 0 over 2 to 4 variables, with a nonzero
    complex linear coefficient on ``var``."""
    m, order = draw(st.integers(2, 4)), draw(st.integers(1, 5))
    var = draw(st.integers(0, m - 1))
    terms = drawn_terms(draw, m, 1, order, size=8)
    terms[unit_exponent(m, var)] = draw(_SOLVE_COEFFICIENT)
    rest = draw(st.permutations([i for i in range(m) if i != var]))
    return TruncatedSeries(m, order, terms), var, rest


@st.composite
def dense_maps(draw):
    """An invertible map, n = 2 or 3, whose linear part has every entry
    complex with nonzero real and imaginary parts, so none is a unit."""
    n = draw(st.sampled_from([2, 3]))
    order = draw(st.integers(2, 5 if n == 2 else 4))
    entry = st.builds(GaussRational, _SOLVE_PART.filter(bool), _SOLVE_PART.filter(bool))
    components = []
    for i in range(n):
        terms = drawn_terms(draw, n, 2, order)
        terms.update({unit_exponent(n, j): draw(entry) for j in range(n)})
        components.append(TruncatedSeries(n, order, terms))
    fmap = SeriesMap(components)
    assume(not linalg.determinant(fmap.linear_matrix()).is_zero())
    return fmap


@settings(max_examples=60, deadline=None)
@given(implicit_cases())
def test_folded_implicit_solve_matches_the_per_degree_settle(case):
    rho, var, rest = case
    c = rho.coefficient(unit_exponent(rho.nvars, var))
    minus_inverse = solvers._negated(linalg.inverse([[c]]))
    expected = ref_solve([rho], rest, rho.order, minus_inverse)
    assert same_bytes([implicit_solve(rho, var, rest=rest)], expected)


@settings(max_examples=40, deadline=None)
@given(dense_maps())
def test_folded_invert_map_matches_the_per_degree_settle(fmap):
    n = fmap.source_nvars
    equations = [_inverse_equation(f, i) for i, f in enumerate(fmap.components)]
    minus_inverse = solvers._negated(linalg.inverse(fmap.linear_matrix()))
    expected = ref_solve(equations, range(n), fmap.order, minus_inverse)
    assert same_bytes(invert_map(fmap).components, expected)


def newton_reference(system, seed, target):
    """newton_extend's output through ``ref_settle``: the same shift, and
    J0 read from the shifted equations."""
    r = system.target_nvars
    q = system.source_nvars - r
    y0 = [c.constant_term() for c in seed.components]
    lift = max(target, system.order) + 1
    equations = [solvers._shift(F, q, y0, lift) for F in system.components]
    j0 = [[F.coefficient(unit_exponent(q + r, q + j)) for j in range(r)] for F in equations]
    increments = ref_solve(equations, range(q), target, solvers._negated(linalg.inverse(j0)))
    return [u + c for u, c in zip(increments, y0)]


@settings(max_examples=40, deadline=None)
@given(square_systems(r=2), st.integers(1, 5))
def test_folded_newton_extend_matches_the_per_degree_settle(case, target):
    system, y0 = case
    seed = SeriesMap(TruncatedSeries.constant(c, system.source_nvars - 2, 0) for c in y0)
    expected = newton_reference(system, seed, target)
    assert same_bytes(newton_extend(system, seed, target).components, expected)


@pytest.mark.parametrize("y0", [(G(0), G(0)), (G(1), I)])
def test_folded_newton_extend_matches_on_a_dense_complex_jacobian(y0):
    system = complex_pair_system(y0)
    seed = SeriesMap([TruncatedSeries.constant(c, 1, 0) for c in y0])
    expected = newton_reference(system, seed, 6)
    assert same_bytes(newton_extend(system, seed, 6).components, expected)


def test_invert_map_calls_the_kernel_only_to_fold_and_for_powers_and_residuals(monkeypatch):
    # every kernel call outside the certificate's compositions is one of
    # n folds, one per kept power part, or n residuals per degree
    x, y, z = (V(3, i, 5) for i in range(3))
    fmap = SeriesMap([
        x.scale(G(1, 2)) + y.scale(G(Fraction(1, 3), -1)) + z + x * y + (z ** 3).scale(I),
        x.scale(G(-1, 1)) + y.scale(G(2, Fraction(1, 2))) + z.scale(3) + y * z - x ** 2,
        x + y.scale(G(0, 4)) + z.scale(G(Fraction(-1, 2), 1)) + (x * y * z).scale(Fraction(2, 5)),
    ])
    kernel, solve_compose, init = (
        series._sum_of_products_form, solvers.compose, solvers._OnlineSolve.__init__
    )
    calls, certifying, solves = [0], [False], []

    def counted(pairs, order, depth=None):
        calls[0] += not certifying[0]
        return kernel(pairs, order, depth)

    def certificate(F, vmap):
        certifying[0] = True
        try:
            return solve_compose(F, vmap)
        finally:
            certifying[0] = False

    def kept(online, *args):
        init(online, *args)
        solves.append(online)

    monkeypatch.setattr(series, "_sum_of_products_form", counted)
    monkeypatch.setattr(solvers, "_sum_of_products_form", counted)
    monkeypatch.setattr(solvers, "compose", certificate)
    monkeypatch.setattr(solvers._OnlineSolve, "__init__", kept)
    inverse = invert_map(fmap)
    (online,) = solves
    power_parts = sum(top - sum(beta) + 1 for beta, top in online.reach.items())
    assert power_parts
    assert calls[0] == 3 + power_parts + 3 * fmap.order
    monkeypatch.undo()
    assert inverse == reference_invert_map(fmap)


# ---------------------------------------------------------------------------
# earned orders: terms above the order of F do not reach the solution
# through that order


def lifted(draw, F, low, extra):
    """F at order F.order + ``extra``, with drawn terms from degree ``low``
    up added to its own."""
    order = F.order + extra
    terms = drawn_terms(draw, F.nvars, low, order)
    terms.update(F.terms)
    return TruncatedSeries(F.nvars, order, terms)


@settings(max_examples=60, deadline=None)
@given(implicit_cases(), st.integers(1, 3), st.data())
def test_implicit_solve_earns_its_order(case, extra, data):
    rho, var, rest = case
    high = lifted(data.draw, rho, rho.order + 1, extra)
    solution = implicit_solve(rho, var, rest=rest)
    assert implicit_solve(high, var, rest=rest).truncate(rho.order) == solution


@settings(max_examples=40, deadline=None)
@given(dense_maps(), st.integers(1, 2), st.data())
def test_invert_map_earns_its_order(fmap, extra, data):
    high = SeriesMap(lifted(data.draw, f, fmap.order + 1, extra) for f in fmap.components)
    assert invert_map(high).truncate(fmap.order) == invert_map(fmap)


@settings(max_examples=40, deadline=None)
@given(square_systems(), st.integers(1, 5), st.integers(1, 2), st.data())
def test_newton_extend_earns_its_order(case, target, extra, data):
    # the stored terms of a system are exact, so its lift is written in the
    # shifted unknowns u = y - y0: terms x^alpha u^beta above the order
    # cannot reach u below it, while plain y^beta terms would shift down
    system, y0 = case
    r = len(y0)
    q = system.source_nvars - r
    order = system.order + extra
    shifted = [V(q + r, i, order) for i in range(q)]
    shifted += [V(q + r, q + j, order) - c for j, c in enumerate(y0)]
    lifted_system = []
    for F in system.components:
        high = TruncatedSeries(F.nvars, order, F.terms)
        for e, c in drawn_terms(data.draw, q + r, system.order + 1, order).items():
            term = TruncatedSeries.constant(c, q + r, order)
            for factor, k in zip(shifted, e):
                if k:
                    term = term * factor ** k
            high = high + term
        lifted_system.append(high)
    seed = SeriesMap(TruncatedSeries.constant(c, q, 0) for c in y0)
    cut = min(target, system.order)
    solution = newton_extend(system, seed, target).truncate(cut)
    assert newton_extend(SeriesMap(lifted_system), seed, target).truncate(cut) == solution
