"""Analysis of formal maps between hypersurfaces via reflection.

Given an origin-preserving formal map f between two hypersurface germs of
the same dimension, this module checks whether f formally sends the source
into the target, builds the reflection series R(z, lambda) obtained by
substituting f into the target's conjugated graph, restricts it to the
first Segre parametrization, and extracts the coefficient family whose
growth controls convergence questions. The exact layer never touches
floats; the evidence fit at the end is an explicitly labeled diagnostic.

Variable conventions: maps live over (z_1..z_n); the reflection series
lives over (z_1..z_n, lambda_1..lambda_{n-1}); restricted families live
over (zp_1..zp_{n-1}).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import PrerequisiteError
from .hypersurface import Hypersurface, _degeneracy, _minimality, _next_segre
from .rank import CERTIFIED
from .rational import GaussRational
from .series import (
    SeriesMap,
    TruncatedSeries,
    _dense_family,
    compose,
    multi_factorial,
)
from . import linalg


def exp_of(series: TruncatedSeries) -> TruncatedSeries:
    """Exponential of a series with vanishing constant term, exact to order.

    The series is substituted into sum_{k <= order} t^k / k!: powers of
    the argument gain valuation, so that truncated sum is the exact
    truncation of the exponential, and compose forms each power once.
    """
    if not series.constant_term().is_zero():
        raise ValueError("exponential needs a vanishing constant term")
    terms = [((k,), Fraction(1, math.factorial(k))) for k in range(series.order + 1)]
    return compose(TruncatedSeries(1, series.order, terms), SeriesMap([series]))


class FormalMap:
    """An origin-preserving formal map between two hypersurface germs.

    Instances are immutable, so three derived objects are computed once,
    on first request, and kept: the mapping check,
    the reflection series, and the lifted map, f read over the 2n - 1
    variables (z, w') that both of those substitute it into.
    """

    __slots__ = ("f", "source", "target", "_verdict", "_reflection", "_lifted")

    def __init__(self, f: SeriesMap, source: Hypersurface, target: Hypersurface):
        if source.n != target.n:
            raise ValueError("source and target must share the dimension")
        if f.source_nvars != source.n or f.target_nvars != target.n:
            raise ValueError(
                f"map must send {source.n} variables to {target.n}, got "
                f"{f.source_nvars} -> {f.target_nvars}"
            )
        if not f.is_origin_preserving():
            raise ValueError("map must preserve the origin")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_verdict", None)
        object.__setattr__(self, "_reflection", None)
        object.__setattr__(self, "_lifted", None)

    def __setattr__(self, name, value):
        raise AttributeError("FormalMap is immutable")

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def jacobian_det_at_origin(self) -> GaussRational:
        return linalg.determinant(self.f.linear_matrix())

    @property
    def is_biholomorphism(self) -> bool:
        """Invertible linear part; the formal inverse then exists."""
        return not self.jacobian_det_at_origin.is_zero()

    def guaranteed_order(self) -> int:
        return min(self.f.order, self.source.order, self.target.order)

    def _lift(self, order: int) -> SeriesMap:
        """f over (z_1..z_n, w'_1..w'_{n-1}), truncated to ``order``.

        The relabel is composed once, at f's own order, and kept; a
        truncation to f's order returns the kept map itself.
        """
        if self._lifted is None:
            relabel = SeriesMap.from_slots(2 * self.n - 1, self.f.order, range(self.n))
            object.__setattr__(self, "_lifted", self.f.compose(relabel))
        return self._lifted.truncate(order)

    def __repr__(self):
        return f"FormalMap(n={self.n}, order={self.f.order})"


# ---------------------------------------------------------------------------
# the mapping check


class MapVerdict(NamedTuple):
    """Outcome of substituting the map into the target's defining series.

    The residual lives over (z_1..z_n, w_1..w_{n-1}) after the source
    graph has been substituted for w_n. ``offending`` is the graded-lex
    least nonzero term when the check fails.
    """

    passed: bool
    order_checked: int
    residual: TruncatedSeries
    offending: tuple | None


def check_maps_into(fm: FormalMap) -> MapVerdict:
    """Does f send the source into the target, through the largest order
    the inputs guarantee?

    The verdict is computed once per map and then reused. For a check at
    a lower order k, build the map from f, the source and the target each
    truncated to k: truncation commutes with origin-preserving
    composition, so that verdict is this one's through order k.
    """
    if fm._verdict is None:
        n = fm.n
        m = 2 * n - 1
        order = fm.guaranteed_order()
        common = min(fm.f.order, fm.source.order)
        # w_n := source graph, substituted into the conjugated map components
        wmap = SeriesMap.from_slots(m, fm.source.order, [*range(n, m), fm.source.phibar])
        head = fm._lift(common).components
        tail = fm.f.conjugate().compose(wmap).components
        substitution = SeriesMap(head + tail)
        residual = compose(fm.target.rho, substitution).truncate(order)
        verdict = MapVerdict(
            passed=residual.is_zero(),
            order_checked=order,
            residual=residual,
            offending=residual.least_term(),
        )
        object.__setattr__(fm, "_verdict", verdict)
    return fm._verdict


# ---------------------------------------------------------------------------
# the reflection series and its Segre restriction


def reflection_function(fm: FormalMap) -> TruncatedSeries:
    """The target's conjugated graph with f substituted for the base point.

    A series over (z_1..z_n, lambda_1..lambda_{n-1}); its coefficients in
    lambda are the composed family whose growth is studied below. Two maps
    that agree as maps give byte-identical reflection series. The series is
    computed once per map and then reused.
    """
    if fm._reflection is None:
        n = fm.n
        m = 2 * n - 1
        common = min(fm.f.order, fm.target.order)
        lifted = fm._lift(common).components
        substitution = SeriesMap.from_slots(m, common, [*lifted, *range(n, m)])
        object.__setattr__(fm, "_reflection", compose(fm.target.phibar, substitution))
    return fm._reflection


def reflection_at_lambda_zero(fm: FormalMap) -> TruncatedSeries:
    """The lambda = 0 slice of the reflection series, over z only: one
    composition with lambda := 0, which ``compose`` applies as a relabel.

    When the target is in normal coordinates this equals the last
    component of f.
    """
    n = fm.n
    r = reflection_function(fm)
    return compose(r, SeriesMap.from_slots(n, r.order, [*range(n), *[None] * (n - 1)]))


def reflection_on_segre(
    fm: FormalMap, cutoff: int | None = None
) -> list[tuple[tuple[int, ...], TruncatedSeries]]:
    """Coefficient family of the reflection series, restricted to the
    first Segre parametrization of the source.

    Returns (alpha, series over zp) pairs for |alpha| <= cutoff (default:
    the order), graded-lex ascending, zero entries included. Entry alpha
    is exact only to order - |alpha|.
    """
    n = fm.n
    if not fm.source.normal:
        raise PrerequisiteError(
            "the Segre restriction needs the source in normal coordinates"
        )
    r = reflection_function(fm)
    # restrict z := (zp, 0), keep lambda
    src = 2 * (n - 1)
    restriction = SeriesMap.from_slots(src, r.order, [*range(n - 1), None, *range(n - 1, src)])
    restricted = compose(r, restriction)
    cap = restricted.order if cutoff is None else min(cutoff, restricted.order)
    return _dense_family(restricted, range(n - 1, 2 * (n - 1)), cap)


def u_family(
    fm: FormalMap, cutoff: int | None = None
) -> list[tuple[tuple[int, ...], TruncatedSeries]]:
    """The factorial-scaled Segre coefficient family u_alpha.

    u_alpha = alpha! times the lambda^alpha coefficient of the restricted
    reflection series. Equivalently, alpha! times the alpha-th composed
    graph coefficient along the map, which is the identity the acceptance
    tests verify by computing both routes.
    """
    return [
        (alpha, series if series.is_zero() else series.scale(multi_factorial(alpha)))
        for alpha, series in reflection_on_segre(fm, cutoff)
    ]


# ---------------------------------------------------------------------------
# the identity along the third Segre parametrization


class SegreIdentityVerdict(NamedTuple):
    passed: bool
    order: int
    lhs: TruncatedSeries
    rhs: TruncatedSeries
    residual: TruncatedSeries


def _minimal_source_v2(source: Hypersurface) -> SeriesMap:
    """The source's second Segre map, once the source is known to be normal
    and minimal with a certified rank; PrerequisiteError otherwise."""
    if not source.normal:
        raise PrerequisiteError("source must be in normal coordinates")
    v2 = _next_segre(source, _next_segre(source, None))
    minimality = _minimality(source, v2)
    if not minimality.minimal or minimality.certificate.status != CERTIFIED:
        raise PrerequisiteError(
            "source must be minimal with a certified rank at this order"
        )
    return v2


def segre_reflection_identity(fm: FormalMap) -> SegreIdentityVerdict:
    """Check the reflection series against the map along the second and
    third Segre parametrizations.

    Both sides are series over (zp, xi, eta). Prerequisites: the mapping
    check must pass, and the source must be normal and minimal with a
    certified rank; these are re-verified here and raise PrerequisiteError
    when absent. v3 is one Segre step from the v2 the prerequisite built.
    """
    if not check_maps_into(fm).passed:
        raise PrerequisiteError(
            "mapping check failed; the identity is only meaningful for maps "
            "that send the source into the target"
        )
    v2 = _minimal_source_v2(fm.source)
    v3 = _next_segre(fm.source, v2)
    n = fm.n
    m = n - 1
    src = 3 * m
    r = reflection_function(fm)
    along = fm.f.conjugate().compose(v2.conjugate())  # over (xi, eta)
    lifted = along.compose(SeriesMap.from_slots(src, along.order, range(m, src))).components
    common = min(r.order, v3.order, along.order)
    lhs = compose(r, SeriesMap.from_slots(src, common, [*v3.components, *lifted[:m]]))
    rhs = lifted[n - 1].truncate(lhs.order)
    residual = lhs - rhs
    return SegreIdentityVerdict(
        passed=residual.is_zero(),
        order=lhs.order,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# growth diagnostics (floats allowed here, and only here)


class ConvergenceEvidence(NamedTuple):
    """Float diagnostic: least r0 with majorant(u_alpha) <= alpha! r0^(|alpha|+1).

    ``majorant`` bounds the sup of |u_alpha| on the polydisc of the given
    radius by the sum of coefficient moduli times radius^degree. Exact
    content never depends on anything in this class. ``polynomial`` is set
    when the family dies out strictly before the cutoff, which makes the
    growth question trivial.
    """

    radius: Fraction
    r0: float
    polynomial: bool
    rows: tuple  # (alpha, majorant, fitted base) for nonzero entries


def convergence_evidence(
    family: list[tuple[tuple[int, ...], TruncatedSeries]], radius: Fraction
) -> ConvergenceEvidence:
    if radius <= 0:
        raise ValueError("radius must be positive")
    scale = float(radius)
    cutoff = max((sum(alpha) for alpha, _ in family), default=0)
    rows = []
    r0 = 0.0
    top_alive = False
    for alpha, series in family:
        if series.is_zero():
            continue
        if sum(alpha) == cutoff:
            top_alive = True
        # each row's modulus |a + b i| / den, read from the integer form
        den, terms, _ = series._form
        majorant = sum(math.hypot(a / den, b / den) * scale ** d for d, _, a, b in terms)
        fitted = (majorant / multi_factorial(alpha)) ** (1.0 / (sum(alpha) + 1))
        rows.append((alpha, majorant, fitted))
        r0 = max(r0, fitted)
    return ConvergenceEvidence(
        radius=radius, r0=r0, polynomial=not top_alive, rows=tuple(rows)
    )


# ---------------------------------------------------------------------------
# partial convergence and containment


class PartialConvergenceResult(NamedTuple):
    """A maximal family of composed-graph coefficients, pulled back along f.

    ``g`` collects phi-family entries for the degeneracy witnesses, ordered
    by the target coordinate each one controls; ``gf`` is g composed with
    f, exact. ``bound`` is the target's degeneracy, which also bounds the
    transcendence degree of the map's graph over the generators below.
    ``generators`` live over (z_1..z_n, om_1..om_n) and vanish on the graph
    of f by construction.
    """

    degeneracy: object
    witnesses_ordered: tuple[tuple[int, ...], ...]
    g: SeriesMap
    gf: SeriesMap
    generators: tuple[TruncatedSeries, ...]
    bound: int


def partial_convergence(
    fm: FormalMap, cutoff: int | None = None
) -> PartialConvergenceResult:
    """Pull the target's degeneracy witnesses back along f.

    The witness entries and their gradient rows are those that
    ``degeneracy`` read: a witness indexes a certified row of nonzero
    gradients, so its entry is nonzero.

    The Jacobian of g has rank r = n - bound with no further climb: its r
    rows bound the rank above, and it holds degeneracy's certified minor,
    rows reordered, at the same truncation common - 1, which bounds it below.
    """
    if not fm.is_biholomorphism:
        raise PrerequisiteError("map must have an invertible linear part")
    _minimal_source_v2(fm.source)
    deg, family, gradients = _degeneracy(fm.target, cutoff)
    if deg.certificate.status != CERTIFIED:
        raise PrerequisiteError("target degeneracy rank is not certified")
    if not deg.stabilized:
        raise PrerequisiteError(
            "target degeneracy has not stabilized at cutoff "
            f"{deg.cutoff_effective}; raise the truncation order"
        )
    n = fm.n
    picked, cols = deg.certificate.rows, deg.certificate.cols
    ordering = _pivot_order([[gradients[i][j] for j in cols] for i in picked], cols)
    ordered = [family[picked[i]] for i in ordering]
    common = min(series.order for _, series in ordered)
    g = SeriesMap(series.truncate(common) for _, series in ordered)
    gf = g.compose(fm.f)
    on_om = g.compose(SeriesMap.from_slots(2 * n, common, range(n, 2 * n)))
    on_z = gf.compose(SeriesMap.from_slots(2 * n, common, range(n)))
    generators = tuple(a - b for a, b in zip(on_om.components, on_z.components))
    return PartialConvergenceResult(
        degeneracy=deg,
        witnesses_ordered=tuple(alpha for alpha, _ in ordered),
        g=g,
        gf=gf,
        generators=generators,
        bound=deg.degeneracy,
    )


def _pivot_order(rows, cols) -> list[int]:
    """Order witness rows by the column each one pivots on.

    Scans permutations in lexicographic order for the first with every
    diagonal entry a nonzero series; a nonzero minor guarantees one
    exists. Returns row indices sorted by their pivot column.
    """
    from itertools import permutations

    size = len(rows)
    for sigma in permutations(range(size)):
        if all(not rows[i][sigma[i]].is_zero() for i in range(size)):
            return sorted(range(size), key=lambda i: cols[sigma[i]])
    raise AssertionError("certified minor has no nonzero diagonal; this is a bug")


class ContainmentResult(NamedTuple):
    contained: bool
    order: int
    residuals: tuple[TruncatedSeries, ...]


def formal_containment(
    f: SeriesMap, generators: list[TruncatedSeries]
) -> ContainmentResult:
    """Is the graph of f formally contained in the zero set of the generators?

    Generators live over (source variables, target variables); each one is
    composed with (z, f(z)) and must vanish through the guaranteed order.
    """
    n = f.source_nvars
    p = f.target_nvars
    graph = SeriesMap.from_slots(n, f.order, [*range(n), *f.components])
    residuals = []
    for b in generators:
        if b.nvars != n + p:
            raise ValueError(
                f"generator must live over {n + p} variables, got {b.nvars}"
            )
        residuals.append(compose(b, graph))
    return ContainmentResult(
        contained=all(r.is_zero() for r in residuals),
        order=min((r.order for r in residuals), default=f.order),
        residuals=tuple(residuals),
    )


# ---------------------------------------------------------------------------
# the aggregate report


class ReflectionReport(NamedTuple):
    """Everything the reflect command writes: the reflection series, the
    factorial-scaled coefficient family, and the growth diagnostic. Exact
    content and float diagnostics are kept in separate fields, and the
    serialization keeps them in separate sections."""

    n: int
    order: int
    cutoff: int
    reflection: TruncatedSeries
    family: tuple  # (alpha, u_alpha series over zp)
    evidence: ConvergenceEvidence


def build_reflection_report(fm: FormalMap, cutoff: int | None = None) -> ReflectionReport:
    """The reflection series, its u family through the cutoff (default:
    the order), and the growth diagnostic on the polydisc of radius 1/2."""
    r = reflection_function(fm)
    family = u_family(fm, cutoff)
    top = max(sum(alpha) for alpha, _ in family)
    return ReflectionReport(
        n=fm.n,
        order=r.order,
        cutoff=top,
        reflection=r,
        family=tuple(family),
        evidence=convergence_evidence(family, Fraction(1, 2)),
    )
