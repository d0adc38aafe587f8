"""Seeded cases for the formal solvers, each with an independent check.

The checks do not use crkit's series kernel: results are read term by term
and substituted back with the small exact polynomial arithmetic below, so
a kernel defect cannot certify its own output.
"""

from __future__ import annotations

import random
from fractions import Fraction

from workloads import SolverOp

# (n, order, cases per pass) for each solver; n counts all variables.
INVERT = ((2, 6, 24), (3, 4, 16))
IMPLICIT = ((4, 7, 24), (6, 5, 16))
NEWTON = ((1, 1, 10, 20), (1, 2, 8, 12))  # (parameters, unknowns, target order, cases)
SQRT_ORDER = 16


# ---------------------------------------------------------------------------
# exact polynomials: {exponents: (re, im)} with Fraction parts, no zeros


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _acc(out, e, c):
    re, im = out.get(e, (0, 0))
    re, im = re + c[0], im + c[1]
    if re or im:
        out[e] = (re, im)
    else:
        out.pop(e, None)


def poly_of(series) -> dict:
    return {e: (c.re, c.im) for e, c in series.terms.items()}


def poly_mul(a: dict, b: dict, order: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) <= order:
                _acc(out, e, _cmul(c1, c2))
    return out


def substitute(poly: dict, values: list[dict], nvars: int, order: int) -> dict:
    """poly(values[0], values[1], ...) through total degree ``order``."""
    one = {(0,) * nvars: (Fraction(1), Fraction(0))}
    powers = [[one] for _ in values]
    out: dict = {}
    for exponents, coeff in poly.items():
        term = {(0,) * nvars: coeff}
        for i, k in enumerate(exponents):
            while len(powers[i]) <= k:
                powers[i].append(poly_mul(powers[i][-1], values[i], order))
            if k:
                term = poly_mul(term, powers[i][k], order)
        for e, c in term.items():
            _acc(out, e, c)
    return out


def variable(nvars: int, index: int) -> dict:
    return {tuple(int(i == index) for i in range(nvars)): (Fraction(1), Fraction(0))}


# ---------------------------------------------------------------------------
# case generators


def _gauss(rng, crkit, span=2):
    while True:
        value = crkit.GaussRational(
            Fraction(rng.randint(-span, span), rng.randint(1, 3)),
            Fraction(rng.randint(-span, span), rng.randint(1, 3)),
        )
        if not value.is_zero():
            return value


def _tail(rng, crkit, nvars, degrees, shape):
    """One term at each listed degree, with seeded coefficients.

    The monomials depend only on ``shape``, so every seed runs the same
    supports. The cost of an invert_map case then varies by about 11 %
    (coefficient of variation), against about 55 % when the monomials are
    drawn too.
    """
    out = {}
    for position, degree in enumerate(degrees):
        monomials = [e for e in crkit.multi_indices(nvars, degree) if sum(e) == degree]
        out[monomials[(shape + position) % len(monomials)]] = _gauss(rng, crkit)
    return out


def _unit(nvars, index):
    return tuple(int(k == index) for k in range(nvars))


def _invertible_map(rng, crkit, n, order, shape):
    """Upper-triangular invertible linear part plus a tail."""
    components = []
    for i in range(n):
        terms = _tail(rng, crkit, n, (2, 3), shape + 3 * i)
        terms[_unit(n, i)] = crkit.GaussRational(rng.choice((1, 2, -1, -2)))
        for j in range(i + 1, n):
            terms[_unit(n, j)] = _gauss(rng, crkit)
        components.append(crkit.TruncatedSeries(n, order, terms))
    return crkit.SeriesMap(components)


def _check_inverse(fmap, n, order):
    def check(inverse):
        values = [poly_of(c) for c in inverse.components]
        for i, component in enumerate(fmap.components):
            got = substitute(poly_of(component), values, n, order)
            if got != variable(n, i):
                return f"component {i + 1} of f(f^-1) is not z{i + 1}"
        return None

    return check


def _implicit_case(rng, crkit, m, order, shape):
    var = shape % m
    terms = _tail(rng, crkit, m, (2, 3, 4), shape)
    terms[_unit(m, var)] = _gauss(rng, crkit)
    terms[_unit(m, (var + 1) % m)] = _gauss(rng, crkit)
    return crkit.TruncatedSeries(m, order, terms), var


def _check_implicit(rho, var):
    m, order = rho.nvars, rho.order

    def check(solution):
        values = []
        for i in range(m):
            if i == var:
                values.append(poly_of(solution))
            else:
                values.append(variable(m - 1, i if i < var else i - 1))
        residual = substitute(poly_of(rho), values, m - 1, order)
        if residual:
            return f"rho(S) leaves {len(residual)} terms through order {order}"
        return None

    return check


def _newton_case(rng, crkit, q, r, shape):
    """System L (y - B x) - P(x, y) = 0 with L upper triangular and
    invertible, so y = B x solves it through order 1 and the Jacobian in y
    at the origin is L."""
    nvars = q + r
    zero = crkit.ZERO
    b = [[_gauss(rng, crkit) for _ in range(q)] for _ in range(r)]
    components = []
    for i in range(r):
        terms = {e: -c for e, c in _tail(rng, crkit, nvars, (2, 3), shape + 3 * i).items()}
        for j in range(i, r):
            weight = crkit.GaussRational(rng.choice((1, 2, -1))) if j == i else _gauss(rng, crkit)
            y = _unit(nvars, q + j)
            terms[y] = terms.get(y, zero) + weight
            for p in range(q):
                x = _unit(nvars, p)
                terms[x] = terms.get(x, zero) - weight * b[j][p]
        components.append(crkit.TruncatedSeries(nvars, 3, terms))
    seed = crkit.SeriesMap(
        crkit.TruncatedSeries(q, 1, {_unit(q, p): b[j][p] for p in range(q)}) for j in range(r)
    )
    return crkit.SeriesMap(components), seed


def _check_newton(system, q, target):
    def check(solution):
        values = [variable(q, p) for p in range(q)] + [poly_of(c) for c in solution.components]
        for i, component in enumerate(system.components):
            residual = substitute(poly_of(component), values, q, target)
            if residual:
                return f"equation {i + 1} leaves {len(residual)} terms through order {target}"
        return None

    return check


def sqrt_oracle(order: int) -> list[Fraction]:
    """Coefficients of sqrt(1 + x): the binomial numbers C(1/2, k)."""
    out, value = [], Fraction(1)
    for k in range(order + 1):
        out.append(value)
        value = value * (Fraction(1, 2) - k) / (k + 1)
    return out


def _check_sqrt(solution):
    got = solution.components[0]
    for k, expected in enumerate(sqrt_oracle(SQRT_ORDER)):
        c = got.coefficient((k,))
        if (c.re, c.im) != (expected, 0):
            return f"coefficient of x^{k} is {c}, expected {expected}"
    return None


def solver_ops(rng: random.Random, crkit) -> list[SolverOp]:
    ops = []
    for n, order, count in INVERT:
        for k in range(count):
            fmap = _invertible_map(rng, crkit, n, order, k)
            ops.append(SolverOp(f"invert_map/n{n}/{k}", "invert_map", (fmap,),
                                _check_inverse(fmap, n, order)))
    for m, order, count in IMPLICIT:
        for k in range(count):
            rho, var = _implicit_case(rng, crkit, m, order, k)
            ops.append(SolverOp(f"implicit_solve/m{m}/{k}", "implicit_solve", (rho, var),
                                _check_implicit(rho, var)))
    for q, r, target, count in NEWTON:
        for k in range(count):
            system, seed = _newton_case(rng, crkit, q, r, k)
            ops.append(SolverOp(f"newton_extend/q{q}r{r}/{k}", "newton_extend", (system, seed, target),
                                _check_newton(system, q, target)))
    ts, gr = crkit.TruncatedSeries, crkit.GaussRational
    system = crkit.SeriesMap([ts(2, SQRT_ORDER + 2, {(0, 2): crkit.ONE, (0, 0): gr(-1), (1, 0): gr(-1)})])
    seed = crkit.SeriesMap([ts(1, 1, {(0,): crkit.ONE, (1,): gr(Fraction(1, 2))})])
    ops.append(SolverOp("newton_extend/sqrt", "newton_extend", (system, seed, SQRT_ORDER), _check_sqrt))
    rng.shuffle(ops)
    return ops
