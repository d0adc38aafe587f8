"""Formal solvers on the truncated series kernel.

Three operations live here: solving one scalar equation for one variable
(implicit function), inverting an origin-preserving map with invertible
linear part, and extending a truncated solution of a square polynomial
system. All three solve the same problem: find Y(x) with Y(0) = 0 and
F(x, Y(x)) = 0, where J0, the Jacobian of F in the unknowns y at the
origin, is invertible. ``newton_extend`` first shifts y = y0 + u, where
y0 is the constant part of the given solution, to reach that form.

The solve is online, one homogeneous degree at a time. Write F as
sum over beta of F_beta(x) y^beta. The degree-d part of F(x, Y) is
J0 Y_d + R_d, where R_d uses only Y_1 .. Y_{d-1}: a power product Y^beta
with |beta| >= 2 starts in degree |beta|, so its degree-d part involves Y
only below degree d. Hence Y_d = -J0^-1 R_d. The degree-graded parts of
every power product F needs are kept and extended as each degree
settles, so each homogeneous product is formed exactly once.

The construction is not its own proof. Every solver substitutes its
result back into the equations at full order, by one composition per
equation, and raises unless the residual vanishes. That back-substitution
is the exactness certificate.
"""

from __future__ import annotations

import itertools
import math

from . import linalg
from .linalg import _series_det
from .rational import ONE, ZERO
from .series import (
    SeriesMap,
    TruncatedSeries,
    _ONE_FORM,
    _constant_form,
    _sum_of_products,
    compose,
    unit_exponent,
)


def implicit_solve(rho: TruncatedSeries, var: int) -> TruncatedSeries:
    """Solve rho = 0 for the variable at index ``var``.

    Requires rho(0) = 0 and a nonzero linear coefficient c on the solved
    variable. Returns the unique series S in the remaining variables, in
    their original order, with S(0) = 0 and rho(..., S, ...) = 0 through
    degree rho.order. Each degree d of S is settled once, as -R_d / c, and
    the result is certified by substituting it back into rho.
    """
    m = rho.nvars
    if not 0 <= var < m:
        raise ValueError(f"variable index {var} out of range")
    if m < 2:
        raise ValueError("need at least one remaining variable")
    if not rho.constant_term().is_zero():
        raise ValueError("constant term must vanish")
    c = rho.coefficient(unit_exponent(m, var))
    if c.is_zero():
        raise ValueError(
            "the solved variable must appear with a nonzero linear coefficient"
        )
    order = rho.order
    equation = _group(rho.terms.items(), lambda e: (e[:var] + e[var + 1 :], (e[var],)))
    online = _OnlineSolve([equation], m - 1, 1, order)
    inv_c = [[ONE / c]]
    for degree in range(1, order + 1):
        online.settle(degree, inv_c)
    solution = online.unknown(0)

    slots = [*range(var), solution, *range(var, m - 1)]
    if not compose(rho, SeriesMap.from_slots(m - 1, order, slots)).is_zero():
        raise AssertionError("implicit solve failed its back-substitution; this is a bug")
    return solution


def invert_map(fmap: SeriesMap) -> SeriesMap:
    """Compositional inverse of an origin-preserving map, to fmap.order.

    The linear part A must be invertible. The inverse g solves
    f(g(x)) - x = 0, settled one degree at a time as g_d = -A^-1 R_d, and
    is certified by checking f(g) = id through the full order.
    """
    n = fmap.source_nvars
    if fmap.target_nvars != n:
        raise ValueError("only square maps can be inverted")
    if not fmap.is_origin_preserving():
        raise ValueError("inversion requires an origin-preserving map")
    order = fmap.order
    if order < 1:
        raise ValueError("inversion needs order >= 1")
    try:
        inv = linalg.inverse(fmap.linear_matrix())
    except ValueError:
        raise ValueError("linear part is singular, map is not invertible") from None

    origin = (0,) * n
    equations = []
    for i, component in enumerate(fmap.components):
        equation = _group(component.terms.items(), lambda e: (origin, e))
        equation[origin] = {1: {unit_exponent(n, i): -ONE}}
        equations.append(equation)
    online = _OnlineSolve(equations, n, n, order)
    for degree in range(1, order + 1):
        online.settle(degree, inv)
    inverse = SeriesMap(online.unknown(j) for j in range(n))
    if fmap.compose(inverse) != SeriesMap.identity(n, order):
        raise AssertionError("map inversion failed its back-substitution; this is a bug")
    return inverse


def newton_extend(system: SeriesMap, solution: SeriesMap, target_order: int) -> SeriesMap:
    """Extend a truncated solution of a square system to ``target_order``.

    ``system`` has r components over q + r variables: the first q are
    parameters x, the last r are unknowns y. ``solution`` maps x to y and
    must satisfy the system through degree solution.order. The stored
    terms of ``system`` are treated as an exact polynomial description.

    The system is first shifted to y = y0 + u, with y0 the constant part
    of ``solution``, by exact binomial expansion. Then each new degree of u
    enters linearly through the Jacobian in y at the origin and is settled
    once, as u_d = -J0^-1 R_d. The extension is certified by substituting
    it back into the shifted system. Output is independent of how the
    degrees are scheduled: extending to 4 and then 6 equals extending to 6.
    """
    r = system.target_nvars
    q = system.source_nvars - r
    if q < 1:
        raise ValueError("system must have at least one parameter variable")
    if solution.target_nvars != r or solution.source_nvars != q:
        raise ValueError(
            f"solution must map {q} parameters to {r} unknowns, got "
            f"{solution.source_nvars} -> {solution.target_nvars}"
        )
    if target_order < solution.order:
        raise ValueError("target order is below the solution's current order")

    given = solution.order
    y0 = [c.constant_term() for c in solution.components]
    equations = [
        _shift(_group(c.terms.items(), lambda e: (e[:q], e[q:])), y0)
        for c in system.components
    ]
    known = [_homogeneous_parts(c, given) for c in solution.components]
    online = _OnlineSolve(equations, q, r, target_order, known)
    defect = next((res for res in online.residuals_through(given) if not res.is_zero()), None)
    if defect is not None:
        raise ValueError(
            "input does not solve the system through its stated order, first "
            f"defect at {defect.least_term()[0]}"
        )

    units = [unit_exponent(r, j) for j in range(r)]
    origin = (0,) * q
    j0 = [
        [eq.get(unit, {}).get(0, {}).get(origin, ZERO) for unit in units]
        for eq in equations
    ]
    try:
        j0_inv = linalg.inverse(j0)
    except ValueError:
        # J0 is the constant term of the Jacobian determinant along the
        # solution; name which of the two ways the extension is undetermined
        partials = [_derive_unknown(eq, j) for eq in equations for j in range(r)]
        along = _OnlineSolve(partials, q, r, given, known).residuals_through(given)
        matrix = [along[i * r : (i + 1) * r] for i in range(r)]
        if _series_det(matrix).is_zero():
            raise ValueError(
                "Jacobian determinant vanishes along the solution at every degree "
                f"through {given}; the system is degenerate there"
            ) from None
        raise ValueError(
            "Jacobian is singular at the origin along the solution; the "
            "degree-by-degree extension is not uniquely determined"
        ) from None
    for degree in range(given + 1, target_order + 1):
        online.settle(degree, j0_inv)

    if target_order > given:
        increments = [online.unknown(j) for j in range(r)]
        substitution = SeriesMap.from_slots(q, target_order, [*range(q), *increments])
        for eq in equations:
            if not compose(_as_series(eq, q, r, target_order), substitution).is_zero():
                raise AssertionError(
                    "Newton extension failed its back-substitution; this is a bug"
                )
    return SeriesMap(online.unknown(j, y0[j]) for j in range(r))


# ---------------------------------------------------------------------------
# the online core


def _group(items, split) -> dict:
    """Group terms as {beta: {x-degree: {x exponents: coefficient}}}.

    ``split`` maps a term's exponent tuple to its exponents in the
    parameters x and its exponents beta in the unknowns.
    """
    groups: dict = {}
    for exponents, coeff in items:
        alpha, beta = split(exponents)
        groups.setdefault(beta, {}).setdefault(sum(alpha), {})[alpha] = coeff
    return groups


def _shift(groups: dict, y0) -> dict:
    """Regroup F(x, y) as F(x, y0 + u), exactly, by binomial expansion."""
    if not any(y0):
        return groups
    out: dict = {}
    for beta, by_degree in groups.items():
        # unknowns with y0_j = 0 keep their exponent
        ranges = [range(b + 1) if c else (b,) for b, c in zip(beta, y0)]
        for gamma in itertools.product(*ranges):
            factor = ONE
            for b, g, c in zip(beta, gamma, y0):
                if b > g:
                    factor = factor * c ** (b - g) * math.comb(b, g)
            target = out.setdefault(gamma, {})
            for degree, coeffs in by_degree.items():
                bucket = target.setdefault(degree, {})
                for alpha, coeff in coeffs.items():
                    bucket[alpha] = bucket.get(alpha, ZERO) + factor * coeff
    return {
        gamma: kept
        for gamma, by_degree in out.items()
        if (kept := {d: nz for d, part in by_degree.items() if (nz := _nonzero(part))})
    }


def _derive_unknown(groups: dict, j: int) -> dict:
    """The grouped partial derivative in the unknown y_j."""
    out = {}
    for beta, by_degree in groups.items():
        k = beta[j]
        if k:
            lowered = beta[:j] + (k - 1,) + beta[j + 1 :]
            out[lowered] = {
                d: {alpha: c * k for alpha, c in part.items()} for d, part in by_degree.items()
            }
    return out


def _as_series(groups: dict, q: int, r: int, order: int) -> TruncatedSeries:
    """The grouped polynomial as a series over (x, y), at ``order`` or at
    its top degree if that is higher."""
    terms = {
        alpha + beta: c
        for beta, by_degree in groups.items()
        for part in by_degree.values()
        for alpha, c in part.items()
    }
    top = max((sum(e) for e in terms), default=0)
    return TruncatedSeries(q + r, max(order, top), terms)


def _homogeneous_parts(series: TruncatedSeries, order: int) -> list[dict]:
    """Parts of degrees 1..order of ``series``, one dict per degree."""
    parts = [{} for _ in range(order)]
    for e, c in series.terms.items():
        degree = sum(e)
        if 1 <= degree <= order:
            parts[degree - 1][e] = c
    return parts


def _nonzero(part: dict) -> dict:
    return {e: c for e, c in part.items() if c}


class _OnlineSolve:
    """Y(x) for F(x, Y(x)) = 0, settled one homogeneous degree at a time.

    ``equations`` holds each F_i grouped by ``_group``: a term x^alpha y^beta
    sits under its exponent beta in the r unknowns, then under |alpha|,
    with alpha over the ``nparams`` parameters x.
    ``known`` optionally fixes Y_1 .. Y_s, one list of homogeneous parts
    per unknown. The degree-d parts of each needed power product Y^beta,
    |beta| >= 2, are formed as Y^(beta - e_j) Y_j, so the set of products
    kept is closed under that step even where F skips powers. Each
    degree-d part, of a power product or of a residual, is one sum of
    products in the series product kernel.

    Every coefficient group of F, every graded part and every residual is
    a series at the solve's full order, and the kernel runs at that order
    too, so each series is packed into its integer form once.

    ``residual(d)`` must be called for every degree from 2 on, in
    increasing order, once each; ``settle(d, ...)`` calls it.
    """

    def __init__(self, equations, nparams: int, nunknowns: int, order: int, known=None):
        self.nparams = nparams
        self.order = order
        self.base = order + 2
        zero = TruncatedSeries._from_terms(nparams, order, [])
        # reach[beta]: the highest degree of Y^beta that some residual uses
        reach: dict = {}
        for groups in equations:
            for beta, by_degree in groups.items():
                top = order - min(by_degree)
                if sum(beta) >= 2 and top >= sum(beta):
                    reach[beta] = max(reach.get(beta, 0), top)
        for size in range(max(map(sum, reach), default=0), 2, -1):
            for beta in [b for b in reach if sum(b) == size]:
                parent, _ = _lower(beta)
                reach[parent] = max(reach.get(parent, 0), reach[beta] - 1)
        self.reach = reach
        self.equations = [
            {
                beta: {
                    d: TruncatedSeries._from_terms(nparams, order, coeffs.items())
                    for d, coeffs in by_degree.items()
                    if d <= order
                }
                for beta, by_degree in groups.items()
            }
            for groups in equations
        ]
        if known is None:
            known = [[] for _ in range(nunknowns)]
        self.parts = [
            [zero] + [TruncatedSeries._from_terms(nparams, order, part.items()) for part in k]
            for k in known
        ]
        self.powers = {beta: [zero] * sum(beta) for beta in reach}

    def _power(self, beta):
        """Graded parts of Y^beta: Y_j itself, a kept power product, or
        nothing for a power that starts above the order."""
        if sum(beta) == 1:
            return self.parts[beta.index(1)]
        return self.powers.get(beta, ())

    def residual(self, degree: int) -> list[TruncatedSeries]:
        """Degree-``degree`` part of each F_i(x, Y) from the parts of Y known
        so far: R_d while Y_d is open, the full residual once it is known."""
        base = self.base
        for beta, top in self.reach.items():
            if sum(beta) <= degree <= top:
                parent, j = _lower(beta)
                lower, last = self._power(parent), self.parts[j]
                pairs = [
                    (lower[d]._form_at(base), last[degree - d]._form_at(base))
                    for d in range(sum(parent), degree)
                ]
                self.powers[beta].append(_sum_of_products(pairs, self.nparams, self.order))
        out = []
        for groups in self.equations:
            pairs = []
            for beta, by_degree in groups.items():
                if not any(beta):
                    if degree in by_degree:
                        pairs.append((by_degree[degree]._form_at(base), _ONE_FORM))
                    continue
                graded = self._power(beta)
                for d, coeffs in by_degree.items():
                    # parts below degree |beta| are empty; Y_d is missing while open
                    if 0 <= degree - d < len(graded):
                        pairs.append((coeffs._form_at(base), graded[degree - d]._form_at(base)))
            out.append(_sum_of_products(pairs, self.nparams, self.order))
        return out

    def residuals_through(self, top: int) -> list[TruncatedSeries]:
        """Each F_i(x, Y) through degree ``top``, for Y known that far."""
        totals = [[] for _ in self.equations]
        for degree in range(top + 1):
            for total, part in zip(totals, self.residual(degree)):
                total.append(part._form_at(self.base))
        return [self._joined(forms) for forms in totals]

    def settle(self, degree: int, j0_inv) -> None:
        """Fix Y_d = -J0^-1 R_d."""
        rhs = [res._form_at(self.base) for res in self.residual(degree)]
        for parts, row in zip(self.parts, j0_inv):
            pairs = [(_constant_form(-coeff), res) for coeff, res in zip(row, rhs) if coeff]
            parts.append(_sum_of_products(pairs, self.nparams, self.order))

    def unknown(self, j: int, constant=ZERO) -> TruncatedSeries:
        """Every settled part of Y_j, plus ``constant``, as one series."""
        forms = [part._form_at(self.base) for part in self.parts[j]]
        if constant:
            forms.insert(0, _constant_form(constant))
        return self._joined(forms)

    def _joined(self, forms) -> TruncatedSeries:
        """One series from integer forms at the solve's base, each
        homogeneous and in increasing degree. Over the lcm of their
        denominators, primitive parts give a primitive whole."""
        den = math.lcm(*[form[0] for form in forms])
        rows = []
        for part_den, part_rows, _ in forms:
            scale = den // part_den
            rows.extend((d, k, a * scale, b * scale) for d, k, a, b in part_rows)
        is_complex = any(form[2] for form in forms)
        return TruncatedSeries._trusted(self.nparams, self.order, (den, rows, is_complex))


def _lower(beta: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """beta - e_j for the last unknown j that beta uses, and that j."""
    j = max(k for k, b in enumerate(beta) if b)
    return beta[:j] + (beta[j] - 1,) + beta[j + 1 :], j
