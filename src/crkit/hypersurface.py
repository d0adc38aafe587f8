"""Real hypersurface models in graph form, with exact geometric invariants.

Variable conventions used throughout this module and its consumers:

* A defining series rho lives in 2n variables ordered (z_1..z_n, w_1..w_n).
  The second block stands for the conjugated coordinates, treated as
  independent variables. rho is "real" when conjugating every coefficient
  and swapping the two blocks reproduces rho.
* The graph series phi lives in 2n-1 variables ordered
  (w_1..w_n, zp_1..zp_{n-1}), where zp denotes the first n-1 of the z.
  On the complexified hypersurface, z_n = phi(w, z').
* Conjugation acts on coefficients only; variable slots keep their places.

Degrees of guarantee: every derived object records the truncation order it
is exact to, and identity checks are asserted exactly at that order.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import GeometryError, PrerequisiteError
from .rank import CERTIFIED, RankCertificate, matrix_generic_rank
from .rational import ONE
from .series import (
    SeriesMap,
    TruncatedSeries,
    _coefficient,
    _dense_family,
    _exponents,
    compose,
    format_monomial,
    unit_exponent,
)
from .solvers import implicit_solve, invert_map


def defining_names(n: int) -> list[str]:
    return [f"z{i + 1}" for i in range(n)] + [f"w{i + 1}" for i in range(n)]


def graph_names(n: int) -> list[str]:
    return [f"w{i + 1}" for i in range(n)] + [f"zp{i + 1}" for i in range(n - 1)]


def reality_defect(rho: TruncatedSeries, n: int):
    """First place where rho fails to be real, or None.

    Reality means: conjugate the coefficients and swap the z and w blocks,
    and you must get rho back. Returns (exponents, coefficient, mirrored)
    for the graded-lex-least offending exponent tuple.

    Works on the integer form: a key is the z block's digits times
    base**n plus the w block's, so the mirrored key swaps the two halves.
    Exponents are decoded only for the defect it reports.
    """
    den, rows, _ = rho._form
    base, split = rho.order + 2, (rho.order + 2) ** n
    stored = {k: (a, b) for _, k, a, b in rows}
    for _, k, a, b in rows:
        z_block, w_block = divmod(k, split)
        mirror_a, mirror_b = stored.get(w_block * split + z_block, (0, 0))
        if a != mirror_a or b != -mirror_b:
            exponents = _exponents(k, base, 2 * n)
            return exponents, _coefficient(den, a, b), _coefficient(den, mirror_a, -mirror_b)
    return None


class Hypersurface:
    """A germ of a real hypersurface through the origin, held exactly.

    Built by from_defining, which solves the defining series for z_n and
    verifies the facts the rest of the toolkit relies on. ``normal`` says
    whether the graph series fixes both distinguished axes, see
    from_defining for the exact identities.
    """

    __slots__ = ("n", "rho", "phi", "normal", "provenance", "_phibar")

    def __init__(self, n, rho, phi, normal, provenance):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "provenance", tuple(provenance))
        object.__setattr__(self, "_phibar", None)

    def __setattr__(self, name, value):
        raise AttributeError("Hypersurface is immutable")

    @property
    def order(self) -> int:
        return self.rho.order

    @property
    def phibar(self) -> TruncatedSeries:
        """phi with conjugated coefficients, computed on first access."""
        if self._phibar is None:
            object.__setattr__(self, "_phibar", self.phi.conjugate())
        return self._phibar

    def __eq__(self, other):
        if not isinstance(other, Hypersurface):
            return NotImplemented
        # provenance is commentary, not identity
        return self.n == other.n and self.rho == other.rho

    __hash__ = None

    def __repr__(self):
        tag = "normal" if self.normal else "not normal"
        return f"Hypersurface(n={self.n}, order={self.order}, {tag})"

    def truncate(self, order: int) -> "Hypersurface":
        """The same germ at a lower order. The graph is truncated, not
        solved again: the truncated graph solves the truncated defining
        series, so only the normal flag is decided anew, by the same scan
        of the graph's rows that ``from_defining`` makes."""
        if order == self.order:
            return self
        rho = self.rho.truncate(order)
        if order < 2:
            raise GeometryError("defining series needs order >= 2")
        phi = self.phi.truncate(order)
        return Hypersurface(
            self.n,
            rho,
            phi,
            _is_normal(phi, self.n),
            self.provenance + (f"truncated to order {order}",),
        )


def from_defining(rho: TruncatedSeries, n: int, provenance=("defining series",)) -> Hypersurface:
    """Build a hypersurface from its defining series.

    Checks, in this order: arity, vanishing at the origin, reality, a
    nonzero linear coefficient on z_n. Then solves for z_n, reading z_n in
    place and writing phi over (w, z') directly, with the solver's
    certificate that rho(z', phi(w, z'), w) = 0 through the full order:
    the one composition the build makes. Records whether the graph is in
    normal form, meaning phi(w', w_n, 0) = w_n and phi(0, w_n, z') = w_n
    hold exactly at order, by a scan of phi's rows.

    The graph identity phi(w', phibar(z, w'), z') = z_n (graph_residual)
    is not checked again, because those two facts prove it. Conjugating
    the solved identity and using reality gives rho(z, w', phibar(z, w'))
    = 0. The solution of rho(z', t, w', phibar(z, w')) = 0 for t with
    t(0) = 0 is unique, since the z_n coefficient of rho is a unit, and
    both z_n and phi(w', phibar(z, w'), z') solve it. The argument holds
    degree by degree, so at the same exact order.
    """
    if n < 2:
        raise GeometryError("need n >= 2 complex dimensions")
    if rho.nvars != 2 * n:
        raise GeometryError(
            f"defining series must have {2 * n} variables, got {rho.nvars}"
        )
    if rho.order < 2:
        raise GeometryError("defining series needs order >= 2")
    if not rho.constant_term().is_zero():
        raise GeometryError("defining series must vanish at the origin")
    defect = reality_defect(rho, n)
    if defect is not None:
        exponents, actual, expected = defect
        names = defining_names(n)
        raise GeometryError(
            "defining series is not real: coefficient of "
            f"{format_monomial(exponents, names)} is {actual}, but the "
            f"mirrored term forces {expected}"
        )
    if rho.coefficient(unit_exponent(2 * n, n - 1)).is_zero():
        raise GeometryError(
            "degenerate normal direction: no linear term on the graph variable"
        )
    # solve for z_n with the result over (w, z') directly
    phi = implicit_solve(rho, n - 1, rest=(*range(n, 2 * n), *range(n - 1)))
    return Hypersurface(n, rho, phi, _is_normal(phi, n), provenance)


def _is_normal(phi: TruncatedSeries, n: int) -> bool:
    """phi(w', w_n, 0) = w_n and phi(0, w_n, z') = w_n, exactly at order."""
    return _only_w_n(phi, n, any)


def _straight_axis(phi: TruncatedSeries, n: int) -> bool:
    """phi(0, w_n, 0) = w_n exactly at order: the curve M ∩ {z' = 0} is
    the real axis."""
    return _only_w_n(phi, n, all)


def _only_w_n(phi: TruncatedSeries, n: int, join) -> bool:
    """Is w_n, with coefficient 1, phi's only row on the axes? A row is on
    them when ``join`` (``any`` or ``all``) holds of z' = 0 and w' = 0.

    One scan of the integer form, with no series built. At base
    b = order + 2, w_n's key is b^(n-1); a row has z' = 0 exactly when its
    key is a multiple of b^(n-1), and w' = 0 exactly when its key is below
    b^n.
    """
    den, rows, _ = phi._form
    base = phi.order + 2
    axis, split = base ** (n - 1), base ** n
    on_axes = [row for row in rows if join((row[1] % axis == 0, row[1] < split))]
    return on_axes == [(1, axis, den, 0)]


def graph_residual(phi: TruncatedSeries, n: int) -> TruncatedSeries:
    """Substitute the conjugated graph back into the graph.

    Over the variables (z_1..z_n, w'_1..w'_{n-1}) this computes
    phi(w', phibar(z, w'), z') - z_n, which vanishes identically for every
    graph from_defining returns (its docstring gives the proof), so it is
    a test of the solver rather than a check run on each germ. The
    residual is exact to phi.order.
    """
    m = 2 * n - 1
    phibar = phi.conjugate()  # slots read as (z, w') here, same arity
    inner = SeriesMap.from_slots(m, phi.order, [*range(n, m), phibar, *range(n - 1)])
    lhs = compose(phi, inner)
    return lhs - TruncatedSeries.variable(m, lhs.order, n - 1)


# ---------------------------------------------------------------------------
# normal coordinates


def _axis_graph(H: Hypersurface) -> TruncatedSeries:
    """p = phi(0, z_n, z') over (z, w), once the axis curve is checked
    straight; ``normalize`` proves that one substitution reaches normal
    coordinates exactly for the germs that pass this check."""
    n = H.n
    if not _straight_axis(H.phi, n):
        raise GeometryError(
            "the graph substitution did not yield normal coordinates for "
            "this input; its normal form needs more than one step"
        )
    slots = [*[None] * (n - 1), n - 1, *range(n - 1)]
    return compose(H.phi, SeriesMap.from_slots(2 * n, H.order, slots))


def normalize(H: Hypersurface) -> Hypersurface:
    """Pass to coordinates in which the graph fixes both distinguished axes.

    Returns only the germ in the new coordinates; ``normalizing_change``
    gives the coordinate change. The old coordinates are z' and
    z_n = p(z) = phi(0, z_n, z'), so the new defining series is rho with
    p substituted for z_n and its conjugate, read on the w side, for w_n.
    Idempotent: a hypersurface already in normal form comes back
    unchanged.

    This one substitution reaches normal coordinates exactly when the
    axis curve M ∩ {z' = 0} is the real axis, phi(0, w_n, 0) = w_n, so
    ``_axis_graph`` refuses every other germ from phi's rows, before
    anything is substituted or solved. The proof: let t(z', x) solve
    p(z', t) = x, and pbar(w', V) = conj(phi)(0, V, w'). In the new
    coordinates the graph is phi2(w', V, z') = t(z', phi(w', pbar(w', V),
    z')). At w' = 0 the inner value is p(z', pbar(0, V)), so phi2(0, V,
    z') = pbar(0, V) = conj(phi)(0, V, 0), which is V exactly when the
    axis is straight. At z' = 0, pbar(w', V) is phibar((0, V), w'), and
    the graph identity phi(w', phibar(z, w'), z') = z_n (see
    ``from_defining``) at z = (0, V) makes the inner value V, so
    phi2(w', V, 0) = t(0, V), which is V when the axis is straight. Every
    substitution fixes the origin, so both identities hold degree by
    degree, at the same exact order. The result is still re-verified from
    scratch, as the certificate of this argument: a straight-axis germ
    that comes out not normal is a bug.
    """
    if H.normal:
        return H
    n, order, big = H.n, H.order, 2 * H.n
    p = _axis_graph(H)
    pbar = compose(p.conjugate(), SeriesMap.from_slots(big, order, [*range(n, big), *range(n)]))
    outer = SeriesMap.from_slots(big, order, [*range(n - 1), p, *range(n, big - 1), pbar])
    H2 = from_defining(
        compose(H.rho, outer), n, provenance=H.provenance + ("normalized by graph substitution",)
    )
    if not H2.normal:
        raise AssertionError(
            "one graph substitution left a germ with a straight axis out of "
            "normal coordinates; this is a bug"
        )
    return H2


def normalizing_change(H: Hypersurface) -> SeriesMap:
    """The coordinate change behind ``normalize(H)``, new coordinates in
    terms of old: the inverse, by ``invert_map``, of the substitution
    (z', p(z)) that ``normalize`` makes, so z' is fixed and z_n goes to
    the solution t of z_n = phi(0, t, z'). The identity for a germ
    already in normal form, where p = z_n; a germ ``normalize`` refuses
    is refused here with the same error.

    The substitution is invertible: its linear part fixes z' and is
    triangular with determinant c = dphi/dw_n(0), and the straight axis
    that ``_axis_graph`` checks makes c = 1, so the change has
    determinant 1.
    """
    n, order = H.n, H.order
    p = compose(_axis_graph(H), SeriesMap.from_slots(n, order, [*range(n), *[None] * n]))
    return invert_map(SeriesMap.from_slots(n, order, [*range(n - 1), p]))


# ---------------------------------------------------------------------------
# Segre maps and minimality


class SegreTriple(NamedTuple):
    """The first three iterated Segre parametrizations of a hypersurface.

    v1 sends z' to (z', 0), and one ``_next_segre`` step builds each next
    map from the one before; the reflection identity reads v2 and v3.
    Minimality is read from phi's rows, so no command builds these maps.
    Sources have n-1, 2(n-1) and 3(n-1) variables.
    """

    n: int
    v1: SeriesMap
    v2: SeriesMap
    v3: SeriesMap


def _next_segre(H: Hypersurface, v: SeriesMap | None) -> SeriesMap:
    """The Segre map after ``v``, or v1 = (z', 0) when ``v`` is None.

    The step is the recursive definition: over z' and one more block of
    n-1 variables than v has, the next map is (z', phi(vbar(t), z')),
    where vbar(t) is v with conjugated coefficients read over t, the
    blocks after z'. vbar's first n-1 components are then t's first block,
    so only its last is a series. Every chain of steps starts at v1, which
    checks that H is in normal coordinates.
    """
    order, m = H.order, H.n - 1
    if v is None:
        if not H.normal:
            raise PrerequisiteError("Segre maps need normal coordinates, normalize first")
        return SeriesMap.from_slots(m, order, [*range(m), None])
    src = v.source_nvars + m
    vbar = compose(v.conjugate(), SeriesMap.from_slots(src, order, range(m, src)))
    inner = SeriesMap.from_slots(src, order, [*vbar.components, *range(m)])
    return SeriesMap.from_slots(src, order, [*range(m), compose(H.phi, inner)])


def segre_maps(H: Hypersurface) -> SegreTriple:
    """v1, v2 and v3 of H, built by three ``_next_segre`` steps."""
    v1 = _next_segre(H, None)
    v2 = _next_segre(H, v1)
    return SegreTriple(H.n, v1, v2, _next_segre(H, v2))


def segre_closure_residual(triple: SegreTriple) -> SeriesMap:
    """v3(eta, xi, eta) - v1(eta), componentwise; zero for a genuine triple."""
    m = triple.n - 1
    order = triple.v3.order
    folded = triple.v3.compose(SeriesMap.from_slots(2 * m, order, [*range(2 * m), *range(m)]))
    # v1 read over (eta, xi): embed its source into the first m slots
    lifted = triple.v1.compose(SeriesMap.from_slots(2 * m, triple.v1.order, range(m)))
    return SeriesMap(
        a - b for a, b in zip(folded.components, lifted.components)
    )


class MinimalityVerdict(NamedTuple):
    """Whether the second Segre map attains full generic rank at this order."""

    minimal: bool
    rank: int
    n: int
    order: int
    certificate: object


def is_minimal(H: Hypersurface) -> MinimalityVerdict:
    """Whether H is minimal at the origin: whether its second Segre map
    v2 has generic rank n (Baouendi, Ebenfelt and Rothschild, 1999). The
    verdict is read from phi's rows, and no Segre map is built; H must be
    in normal coordinates.

    With m = n - 1, v2(z', t) = (z', p) where p = phi(t, 0, z'), so v2's
    Jacobian is [[I_m, 0], [d_z' p, d_t p]]. An n-minor takes all n rows.
    If it leaves out a z' column, the row of I_m with its 1 there is zero
    in the minor; otherwise it takes one t column t_c, and its matrix is
    block triangular with determinant d_{t_c} p. When every d_t p is zero,
    every n-minor has a zero column, and I_m gives rank m. Normality makes
    p(0, t) and p(z', 0) vanish, so minimality asks whether p depends on
    t. The certificate is the one ``generic_rank(v2)`` reports: its climb
    takes, at each size k <= m, the unit minor on the first k rows and
    columns, then at size n the first t column whose derivative is
    nonzero. It tries at most n minors, so the default budget certifies.
    """
    if not H.normal:
        raise PrerequisiteError("Segre maps need normal coordinates, normalize first")
    n, m = H.n, H.n - 1
    p = compose(H.phi, SeriesMap.from_slots(2 * m, H.order, [*range(m, 2 * m), None, *range(m)]))
    head = tuple(range(m))
    for c in range(m, 2 * m):
        slope = p.derive(c)
        if not slope.is_zero():
            certificate = RankCertificate((*head, m), (*head, c), *slope.least_term(), CERTIFIED)
            return MinimalityVerdict(True, n, n, H.order, certificate)
    certificate = RankCertificate(head, head, (0,) * 2 * m, ONE, CERTIFIED)
    return MinimalityVerdict(False, m, n, H.order, certificate)


# ---------------------------------------------------------------------------
# the phi family and degeneracy


def phi_family(H: Hypersurface, cutoff: int) -> list[tuple[tuple[int, ...], TruncatedSeries]]:
    """Coefficient series of the conjugated graph in its z'-slot variables.

    Returns every (alpha, series over the n w-slots) for |alpha| <= cutoff,
    graded-lex ascending, zero entries included. Each extracted series is
    exact to order - |alpha| only.
    """
    if not 0 <= cutoff <= H.order:
        raise ValueError(f"cutoff must lie in [0, {H.order}]")
    return _dense_family(H.phibar, range(H.n, 2 * H.n - 1), cutoff)


class DegeneracyResult(NamedTuple):
    """Generic rank of the stacked gradients of the phi family.

    ``degeneracy`` is n minus that rank; zero means holomorphically
    nondegenerate. ``witnesses`` are the graded-lex-least multi-indices
    whose gradients realize the rank. ``cutoff_effective`` can sit one
    below the request because gradients of the |alpha| = order slice carry
    no information at truncation. ``stabilized`` compares against the next
    lower cutoff; when False the verdict may still move, and strict
    consumers refuse to build on it.
    """

    n: int
    degeneracy: int
    rank: int
    cutoff_requested: int
    cutoff_effective: int
    stabilized: bool
    witnesses: tuple[tuple[int, ...], ...]
    certificate: object
    order: int

    @property
    def holomorphically_nondegenerate(self) -> bool:
        return self.degeneracy == 0


def degeneracy(H: Hypersurface, cutoff: int | None = None) -> DegeneracyResult:
    """Generic rank of the gradients, in the n w-slots, of the phi family
    through ``cutoff`` (default: the order); see ``DegeneracyResult``.

    Only the nonzero family entries are differentiated. Each zero entry
    gets one shared row of zero series, which costs nothing:
    ``matrix_generic_rank`` drops it as not live, as it would the row of
    the entry's zero derivatives. So the climb, the certificate, whose
    rows still index the full family, and ``stabilized`` are those of the
    dense gradient matrix.
    """
    return _degeneracy(H, cutoff)[0]


def _degeneracy(H: Hypersurface, cutoff: int | None):
    """``degeneracy``'s verdict, the phi family it read and its gradient rows."""
    if cutoff is None:
        cutoff = H.order
    if cutoff < 1:
        raise ValueError("degeneracy needs cutoff >= 1")
    if cutoff > H.order:
        raise ValueError(f"cutoff must lie in [1, {H.order}]")
    n = H.n
    effective = min(cutoff, H.order - 1)
    family = phi_family(H, effective)
    zero_row = [TruncatedSeries.zero(n, 0)] * n
    rows = [
        zero_row if series.is_zero() else [series.derive(j) for j in range(n)]
        for _, series in family
    ]
    result = matrix_generic_rank(rows)
    witnesses = tuple(family[i][0] for i in result.certificate.rows)
    if result.certificate.status == CERTIFIED and all(
        sum(alpha) <= effective - 1 for alpha in witnesses
    ):
        # the certified minor lies in the lower cutoff's rows, so their rank
        # is at least, and at most, the full one: a second climb is implied
        stabilized = True
    else:
        keep = [i for i, (alpha, _) in enumerate(family) if sum(alpha) <= effective - 1]
        prev = matrix_generic_rank([rows[i] for i in keep])
        stabilized = prev.rank == result.rank
    return DegeneracyResult(
        n=n,
        degeneracy=n - result.rank,
        rank=result.rank,
        cutoff_requested=cutoff,
        cutoff_effective=effective,
        stabilized=stabilized,
        witnesses=witnesses,
        certificate=result.certificate,
        order=H.order,
    ), family, rows


# ---------------------------------------------------------------------------
# tangent fields


class TangentField(NamedTuple):
    """The j-th antiholomorphic tangent combination along the hypersurface.

    Acts on series over the defining variables as
    (d rho/d w_n) d/dw_j - (d rho/d w_j) d/dw_n, so it annihilates the
    defining series exactly.
    """

    n: int
    j: int  # 1-based, ranges over 1..n-1
    coef_dwj: TruncatedSeries
    coef_dwn: TruncatedSeries

    def apply(self, series: TruncatedSeries) -> TruncatedSeries:
        if series.nvars != 2 * self.n:
            raise ValueError(f"expected a series in {2 * self.n} variables")
        wj = self.n - 1 + self.j
        wn = 2 * self.n - 1
        return self.coef_dwj * series.derive(wj) + self.coef_dwn * series.derive(wn)


def tangent_fields(H: Hypersurface) -> tuple[TangentField, ...]:
    n = H.n
    wn = 2 * n - 1
    d_wn = H.rho.derive(wn)
    fields = []
    for j in range(1, n):
        fields.append(
            TangentField(
                n=n,
                j=j,
                coef_dwj=d_wn,
                coef_dwn=-H.rho.derive(n - 1 + j),
            )
        )
    return tuple(fields)
