"""Formal solvers on the truncated series kernel.

Three operations live here: solving one scalar equation for one variable
(implicit function), inverting an origin-preserving map with invertible
linear part, and extending a truncated solution of a square polynomial
system. Each writes its problem in one shape: series F_1 .. F_r whose
variables are the q parameters x, at positions the caller names, and the
r unknowns y, at the remaining positions, and Y(x) with Y(0) = 0 and
F(x, Y(x)) = 0 to find, where J0, the Jacobian of F in y at the origin,
is invertible. The solver reads each unknown where it stands and writes
the result over x in the order the parameters are named.
``implicit_solve`` hands rho over as it is, ``invert_map`` writes
f(y) - x over (x, y), and ``newton_extend`` shifts y = y0 + u, where y0
is the constant part of the given solution, with powers of y0 + u in the
product kernel. Every solve starts from Y = 0: ``newton_extend`` checks
the given u by composition and then solves for u afresh, whose degrees
through the given order are the given ones, since the solution is
unique.

The solve is online, one homogeneous degree at a time. It first folds
-J0^-1 into the equations, once: G = -J0^-1 F solves the same problem,
and its Jacobian in y at the origin is -I. Write G as sum over beta of
G_beta(x) y^beta. The degree-d part of G(x, Y) is -Y_d + R_d, where R_d
uses only Y_1 .. Y_{d-1}: a power product Y^beta with |beta| >= 2 starts
in degree |beta|, so its degree-d part involves Y only below degree d.
Hence Y_d = R_d(G), the residual itself. The degree-graded parts of every
power product G needs are kept and extended as each degree settles, so
each homogeneous product is formed exactly once.

The construction is not its own proof. One certificate covers all three
solvers: every F the caller wrote, not G, is composed with x and Y in
their places at full order, and the solve raises unless each result
vanishes.
"""

from __future__ import annotations

import math
import operator

from . import linalg
from .linalg import _series_det
from .series import (
    SeriesMap,
    TruncatedSeries,
    _ONE_FORM,
    _exponents,
    _inverse_equation,
    _primitive,
    _sum_of_products,
    _sum_of_products_form,
    _weights,
    compose,
    unit_exponent,
)

_ZERO_FORM = (1, [], False)


def implicit_solve(rho: TruncatedSeries, var: int, *, rest=None) -> TruncatedSeries:
    """Solve rho = 0 for the variable at index ``var``.

    Requires rho(0) = 0 and a nonzero linear coefficient c on the solved
    variable. Returns the unique series S with S(0) = 0 and
    rho(..., S, ...) = 0 through degree rho.order. S is over the remaining
    variables, in the order ``rest`` lists their indices, by default their
    original order; a ``rest`` that is not an ordering of the remaining
    indices raises ValueError. The solve grades -rho / c, so each degree d
    of S is settled once, as that equation's residual R_d, and the result
    is certified by substituting it back into rho.
    """
    m = rho.nvars
    if not 0 <= var < m:
        raise ValueError(f"variable index {var} out of range")
    if m < 2:
        raise ValueError("need at least one remaining variable")
    others = [i for i in range(m) if i != var]
    rest = others if rest is None else tuple(rest)
    if not all(type(i) is int for i in rest) or sorted(rest) != others:
        raise ValueError(
            f"rest must list each variable index other than {var} once, got {list(rest)}"
        )
    if not rho.constant_term().is_zero():
        raise ValueError("constant term must vanish")
    c = rho._row(unit_exponent(m, var))
    if c is None:
        raise ValueError(
            "the solved variable must appear with a nonzero linear coefficient"
        )
    # -1/c for c = (a + b i) / den is -den (a - b i) / (a^2 + b^2)
    den, a, b = c
    minus_inverse = (a * a + b * b, [(0, 0, -den * a, den * b)], bool(b))
    online = _OnlineSolve([rho], rest, rho.order, [[(minus_inverse, 0)]])
    (solution,) = _certified(online, "implicit solve")
    return solution


def invert_map(fmap: SeriesMap) -> SeriesMap:
    """Compositional inverse of an origin-preserving map, to fmap.order.

    The linear part A must be invertible. The inverse g solves
    -A^-1 (f(g(x)) - x) = 0, settled one degree at a time as g_d = R_d,
    that equation's residual, and is certified by checking f(g) = id
    through the full order.
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

    equations = [_inverse_equation(f, i) for i, f in enumerate(fmap.components)]
    online = _OnlineSolve(equations, range(n), order, _negated(inv))
    return SeriesMap(_certified(online, "map inversion"))


def newton_extend(system: SeriesMap, solution: SeriesMap, target_order: int) -> SeriesMap:
    """Extend a truncated solution of a square system to ``target_order``.

    ``system`` has r components over q + r variables: the first q are
    parameters x, the last r are unknowns y. ``solution`` maps x to y and
    must satisfy the system through degree solution.order. The stored
    terms of ``system`` are treated as an exact polynomial description.

    The system is first shifted to y = y0 + u, with y0 the constant part
    of ``solution``, by exact binomial expansion, and the given u is
    checked by composing each shifted equation with it. Then u is solved
    from zero for -J0^-1 times the shifted system, each degree settled
    once as that system's residual u_d = R_d. The
    degree-by-degree solution is unique, so its degrees through
    solution.order are the given ones, and the output is independent of
    how the degrees are scheduled: extending to 4 and then 6 equals
    extending to 6. The extension is certified by substituting it back
    into the shifted system.
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
    # above every stored term, the polynomial stays whole; one above the
    # target, each partial in y keeps an order >= target >= given
    lift = max(target_order, system.order) + 1
    equations = [_shift(F, q, y0, lift) for F in system.components]
    along = SeriesMap.from_slots(
        q, given, [*range(q), *(c - c0 for c, c0 in zip(solution.components, y0))]
    )
    for defect in compose(SeriesMap(equations), along).components:
        if not defect.is_zero():
            raise ValueError(
                "input does not solve the system through its stated order, first "
                f"defect at {defect.least_term()[0]}"
            )

    j0 = [[F.coefficient(unit_exponent(q + r, q + j)) for j in range(r)] for F in equations]
    try:
        j0_inv = linalg.inverse(j0)
    except ValueError:
        # J0 is the constant term of the Jacobian determinant along the
        # solution; name which of the two ways the extension is undetermined
        matrix = [[compose(F.derive(q + j), along) for j in range(r)] for F in equations]
        if _series_det(matrix).is_zero():
            raise ValueError(
                "Jacobian determinant vanishes along the solution at every degree "
                f"through {given}; the system is degenerate there"
            ) from None
        raise ValueError(
            "Jacobian is singular at the origin along the solution; the "
            "degree-by-degree extension is not uniquely determined"
        ) from None
    online = _OnlineSolve(equations, range(q), target_order, _negated(j0_inv))
    increments = _certified(online, "Newton extension")
    return SeriesMap(u + c for u, c in zip(increments, y0))


def _shift(F: TruncatedSeries, q: int, y0, order: int) -> TruncatedSeries:
    """F(x, y0 + u) over (x, u) at ``order``, by exact binomial expansion.

    The stored terms of F are read as a polynomial, so ``order`` must be
    at least F.order. Grouped by their exponents beta in the unknowns, the
    terms F_beta(x) are multiplied by (y0 + u)^beta, each a product of
    powers of the roots y0_j + u_j in the product kernel, and summed in
    one pass of that kernel.
    """
    nvars, base = F.nvars, order + 2
    den, rows, is_complex = F._form_at(base)
    if not any(y0):
        return TruncatedSeries._trusted(nvars, order, (den, rows, is_complex))
    weights = _weights(base, nvars)[q:]
    roots = [TruncatedSeries.variable(nvars, order, q + j) + c for j, c in enumerate(y0)]
    groups: dict = {}
    for d, k, a, b in rows:
        beta = _exponents(k, base, nvars)[q:]
        # the unknowns hold the lowest places, so dropping beta keeps alpha's key
        drop = sum(map(operator.mul, beta, weights))
        groups.setdefault(beta, []).append((d - sum(beta), k - drop, a, b))
    pairs = []
    for beta, part in groups.items():
        binomial = None
        for root, e in zip(roots, beta):
            if e:
                factor = root ** e
                binomial = factor if binomial is None else binomial * factor
        pairs.append(((den, part, is_complex), _ONE_FORM if binomial is None else binomial._form))
    return _sum_of_products(pairs, nvars, order)


def _negated(j0_inv) -> list:
    """-J0^-1 as ``_OnlineSolve`` takes it: for each row, (constant form,
    column) of every nonzero entry, the form written from the entry's
    numerators and denominators. A form need not be primitive."""
    rows = []
    for row in j0_inv:
        operands = []
        for i, c in enumerate(row):
            if c:
                # c = (a + b i) / den over the product of its parts' denominators
                re, im = c.re, c.im
                den = re.denominator * im.denominator
                a, b = re.numerator * im.denominator, im.numerator * re.denominator
                operands.append(((den, [(0, 0, -a, -b)], bool(b)), i))
        rows.append(operands)
    return rows


def _certified(online: "_OnlineSolve", what: str) -> list[TruncatedSeries]:
    """Settle every open degree, each as Y_d = R_d(G), then certify Y by
    F(x, Y) = 0 at full order. The check reads the caller's own F, not
    G = -J0^-1 F: the system of every F is composed, in one composition,
    with x_i at its i-th parameter's place and Y_j at its j-th unknown's."""
    online.settle()
    unknowns = [online.unknown(j) for j in range(len(online.parts))]
    slots = [None] * (online.nparams + len(unknowns))
    for i, place in enumerate(online.params):
        slots[place] = i
    for Y, place in zip(unknowns, online.unknowns):
        slots[place] = Y
    substitution = SeriesMap.from_slots(online.nparams, online.order, slots)
    for residual in compose(SeriesMap(online.system), substitution).components:
        if not residual.is_zero():
            raise AssertionError(f"{what} failed its back-substitution; this is a bug")
    return unknowns


# ---------------------------------------------------------------------------
# the online core


def _graded(form, base: int, nvars: int, params, unknowns, order: int) -> dict:
    """The rows of ``form``, over (x, y) with keys at ``base``, as
    {beta: {|alpha|: form}}.

    ``params`` and ``unknowns`` are the positions of x_1, x_2, .. and of
    y_1, y_2, .. among the ``nvars`` variables. A term x^alpha y^beta sits
    under its exponents beta in the unknowns, then under |alpha|. Each
    form holds the x^alpha rows of degree |alpha| <= ``order``, keys at
    base order + 2 over x in the order of ``params``; it need not be
    primitive. The key is one weighted sum over all exponents, with
    weight 0 on the unknowns.
    """
    den, rows, is_complex = form
    weights = [0] * nvars
    for place, weight in zip(params, _weights(order + 2, len(params))):
        weights[place] = weight
    beta_of = operator.itemgetter(*unknowns)
    single = len(unknowns) == 1
    groups: dict = {}
    for d, k, a, b in rows:
        e = _exponents(k, base, nvars)
        beta = (beta_of(e),) if single else beta_of(e)
        size = d - sum(beta)
        if size <= order:
            key = sum(map(operator.mul, e, weights))
            groups.setdefault(beta, {}).setdefault(size, []).append((size, key, a, b))
    return {
        beta: {size: (den, part, is_complex) for size, part in by_size.items()}
        for beta, by_size in groups.items()
    }


class _OnlineSolve:
    """Y(x) for F(x, Y(x)) = 0, settled one homogeneous degree at a time.

    ``equations`` are the series F_i over (x, y): ``params`` gives the
    positions of x_1, x_2, .. among their variables, and Y is written
    over x in that order; y_1, y_2, .. are the remaining positions, in
    increasing order. ``minus_inverse`` holds -J0^-1 by rows, each the
    (constant integer form, column) of its nonzero entries, as
    ``_negated`` writes them; a form need not be primitive.

    The solve grades G = -J0^-1 F, not F: each G_i is one sum of products
    in the kernel, formed here, at the lowest order of the F_j. The stored
    terms of each G_i are read as polynomials, grouped once by
    ``_graded``. G's Jacobian in y at the origin is -I, so the degree-d
    part of G(x, Y) is -Y_d + R_d and Y_d is the residual R_d itself.
    Every solve starts from Y = 0 and settles degrees 1 through ``order``.

    The degree-d parts of each needed power product Y^beta, |beta| >= 2,
    are formed as Y^(beta - e_j) Y_j, so the set of products kept is
    closed under that step even where G skips powers. Each degree-d part,
    of a power product or of a residual, is one sum of products in the
    kernel's form entry, at the solve's order, and is kept as its integer
    form.

    ``residual(d)`` must be called for every degree from 1 on, in
    increasing order, once each; ``settle`` calls it.
    """

    def __init__(self, equations, params, order: int, minus_inverse):
        self.system = list(equations)
        self.params = tuple(params)
        nvars = self.system[0].nvars
        taken = set(self.params)
        self.unknowns = tuple(i for i in range(nvars) if i not in taken)
        self.nparams = len(self.params)
        self.order = order
        # G = -J0^-1 F at the lowest order of the F_j, which is >= order
        fold = min(F.order for F in self.system)
        forms = [F._form_at(fold + 2) for F in self.system]
        folded = [
            _sum_of_products_form([(coeff, forms[j]) for coeff, j in row], fold)
            for row in minus_inverse
        ]
        self.equations = [
            _graded(G, fold + 2, nvars, self.params, self.unknowns, order) for G in folded
        ]
        # reach[beta]: the highest degree of Y^beta that some residual uses
        reach: dict = {}
        for groups in self.equations:
            for beta, by_degree in groups.items():
                top = order - min(by_degree)
                if sum(beta) >= 2 and top >= sum(beta):
                    reach[beta] = max(reach.get(beta, 0), top)
        for size in range(max(map(sum, reach), default=0), 2, -1):
            for beta in [b for b in reach if sum(b) == size]:
                parent, _ = _lower(beta)
                reach[parent] = max(reach.get(parent, 0), reach[beta] - 1)
        self.reach = reach
        self.parts = [[_ZERO_FORM] for _ in self.unknowns]
        self.powers = {beta: [_ZERO_FORM] * sum(beta) for beta in reach}

    def _power(self, beta):
        """Graded parts of Y^beta: the constant 1, Y_j itself, a kept power
        product, or nothing for a power that starts above the order."""
        size = sum(beta)
        if size < 2:
            return self.parts[beta.index(1)] if size else (_ONE_FORM,)
        return self.powers.get(beta, ())

    def residual(self, degree: int) -> list:
        """R_d as integer forms, the degree-``degree`` part of each G_i(x, Y)
        from the parts of Y below that degree, Y_d being still open."""
        order = self.order
        for beta, top in self.reach.items():
            if sum(beta) <= degree <= top:
                parent, j = _lower(beta)
                lower, last = self._power(parent), self.parts[j]
                pairs = [(lower[d], last[degree - d]) for d in range(sum(parent), degree)]
                self.powers[beta].append(_sum_of_products_form(pairs, order))
        out = []
        for groups in self.equations:
            pairs = []
            for beta, by_degree in groups.items():
                graded, low = self._power(beta), sum(beta)
                for d, coeffs in by_degree.items():
                    # parts below degree |beta| are empty; Y_d is missing while open
                    if low <= degree - d < len(graded):
                        pairs.append((coeffs, graded[degree - d]))
            out.append(_sum_of_products_form(pairs, order))
        return out

    def settle(self) -> None:
        """Fix Y_d = R_d(G) for every degree from 1 through the order."""
        for degree in range(1, self.order + 1):
            for parts, part in zip(self.parts, self.residual(degree)):
                parts.append(part)

    def unknown(self, j: int) -> TruncatedSeries:
        """Every settled part of Y_j as one series: the homogeneous parts'
        forms, in increasing degree, over the lcm of their denominators
        and reduced by one content gcd."""
        forms = self.parts[j]
        den = math.lcm(*[form[0] for form in forms])
        rows = []
        for part_den, part_rows, _ in forms:
            scale = den // part_den
            rows.extend((d, k, a * scale, b * scale) for d, k, a, b in part_rows)
        return TruncatedSeries._trusted(self.nparams, self.order, _primitive(den, rows))


def _lower(beta: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """beta - e_j for the last unknown j that beta uses, and that j."""
    j = max(k for k, b in enumerate(beta) if b)
    return beta[:j] + (beta[j] - 1,) + beta[j + 1 :], j
