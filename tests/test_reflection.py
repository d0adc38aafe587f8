import math
from collections import Counter
from fractions import Fraction

import pytest

import crkit.hypersurface
import crkit.reflection
import crkit.series
from crkit import corpus
from crkit.errors import PrerequisiteError
from crkit.hypersurface import degeneracy, is_minimal, phi_family
from crkit.parser import parse_expr
from crkit.rational import GaussRational, ONE
from crkit.reflection import (
    FormalMap,
    build_reflection_report,
    check_maps_into,
    convergence_evidence,
    exp_of,
    formal_containment,
    partial_convergence,
    reflection_at_lambda_zero,
    reflection_function,
    reflection_on_segre,
    segre_reflection_identity,
    u_family,
)
from crkit.series import (
    SeriesMap,
    TruncatedSeries,
    compose,
    multi_factorial,
)

TWO_I = GaussRational(0, 2)
NEG_TWO_I = GaussRational(0, -2)
NEG_FOUR_I = GaussRational(0, -4)


@pytest.fixture(scope="module")
def dil(sphere):
    from crkit.corpus import sphere_dilation

    return FormalMap(sphere_dilation(), sphere, sphere)


@pytest.fixture(scope="module")
def rot(sphere):
    from crkit.corpus import sphere_rotation

    return FormalMap(sphere_rotation(), sphere, sphere)


@pytest.fixture(scope="module")
def bad(sphere):
    from crkit.corpus import sphere_corrupted

    return FormalMap(sphere_corrupted(), sphere, sphere)


@pytest.fixture(scope="module")
def shear_map(shear, quadric):
    return FormalMap(shear, quadric, quadric)


@pytest.fixture(scope="module")
def shear_map_double(shear_double, quadric):
    return FormalMap(shear_double, quadric, quadric)


# ---------------------------------------------------------------------------
# exponentials


def oracle_exp(series):
    """Independent exponential: sum of h^k / k! with plain series powers."""
    total = TruncatedSeries.constant(ONE, series.nvars, series.order)
    power = TruncatedSeries.constant(ONE, series.nvars, series.order)
    factorial = 1
    for k in range(1, series.order + 1):
        power = power * series
        factorial *= k
        total = total + power.scale(Fraction(1, factorial))
    return total


def test_exp_matches_oracle():
    h = parse_expr("z1 + z2^2", "z:3", 6)
    assert exp_of(h) == oracle_exp(h)


def test_exp_of_linear_term():
    # e^x through order 4: 1 + x + x^2/2 + x^3/6 + x^4/24
    x = TruncatedSeries.variable(1, 4, 0)
    result = exp_of(x)
    assert dict(result.terms) == {
        (0,): ONE,
        (1,): ONE,
        (2,): GaussRational(Fraction(1, 2)),
        (3,): GaussRational(Fraction(1, 6)),
        (4,): GaussRational(Fraction(1, 24)),
    }


def test_exp_cancellation_is_exact():
    h = parse_expr("z1 + z2^2", "z:3", 8)
    product = exp_of(h) * exp_of(h.scale(-1))
    assert product == TruncatedSeries.constant(ONE, 3, 8)


def test_exp_needs_vanishing_constant():
    one_plus = parse_expr("1 + z1", "z:1", 4)
    with pytest.raises(ValueError, match="constant"):
        exp_of(one_plus)


# ---------------------------------------------------------------------------
# formal maps


def test_formal_map_basics(dil):
    assert dil.n == 2
    assert dil.guaranteed_order() == 8
    assert dil.jacobian_det_at_origin == GaussRational(8)
    assert dil.is_biholomorphism


def test_formal_map_validation(sphere, quadric):
    with pytest.raises(ValueError, match="dimension"):
        FormalMap(SeriesMap.identity(2, 8), sphere, quadric)
    with pytest.raises(ValueError, match="variables"):
        FormalMap(SeriesMap.identity(3, 8), sphere, sphere)
    shifted = SeriesMap(
        [
            TruncatedSeries.variable(2, 8, 0)
            + TruncatedSeries.constant(ONE, 2, 8),
            TruncatedSeries.variable(2, 8, 1),
        ]
    )
    with pytest.raises(ValueError, match="origin"):
        FormalMap(shifted, sphere, sphere)


def test_formal_map_immutable(dil, sphere):
    with pytest.raises(AttributeError):
        dil.source = sphere


# ---------------------------------------------------------------------------
# the mapping check


def test_dilation_maps_into_sphere(dil):
    verdict = check_maps_into(dil)
    assert verdict.passed
    assert verdict.order_checked == 8
    assert verdict.residual.is_zero()
    assert verdict.offending is None


def test_rotation_maps_into_sphere(rot):
    assert check_maps_into(rot).passed


def test_corrupted_map_fails_with_witness(bad):
    verdict = check_maps_into(bad)
    assert not verdict.passed
    # least offending monomial is z1*w1, coefficient 1, over (z1, z2, w1)
    assert verdict.offending == ((1, 0, 1), ONE)


def test_shears_map_into_quadric(shear_map, shear_map_double):
    assert check_maps_into(shear_map).passed
    assert check_maps_into(shear_map_double).passed


# ---------------------------------------------------------------------------
# the reflection series


def test_reflection_series_dilation(dil):
    r = reflection_function(dil)
    assert r.nvars == 3  # (z1, z2, lambda1)
    assert dict(r.terms) == {(0, 1, 0): GaussRational(4), (1, 0, 1): NEG_FOUR_I}


def test_reflection_series_shear(shear_map):
    r = reflection_function(shear_map)
    assert r.nvars == 5  # (z1, z2, z3, lambda1, lambda2)
    assert dict(r.terms) == {(0, 0, 1, 0, 0): ONE, (1, 1, 0, 1, 1): NEG_TWO_I}


def test_reflection_identical_across_shears(shear_map, shear_map_double):
    # the two shears differ as maps but agree on the quadric, so their
    # reflection series must agree term for term
    assert reflection_function(shear_map) == reflection_function(shear_map_double)


def test_default_check_and_reflection_series_are_kept_on_the_map(shear, quadric):
    fm = FormalMap(shear, quadric, quadric)
    verdict = check_maps_into(fm)
    assert check_maps_into(fm) is verdict
    series = reflection_function(fm)
    assert reflection_function(fm) is series
    assert build_reflection_report(fm).reflection is series
    # a new map over the same data computes its own, equal, results
    other = FormalMap(shear, quadric, quadric)
    assert reflection_function(other) is not series
    assert reflection_function(other) == series


def test_lambda_zero_slice_recovers_last_component(dil, rot, shear_map):
    for fm in (dil, rot, shear_map):
        slice_ = reflection_at_lambda_zero(fm)
        last = fm.f.components[fm.n - 1].truncate(slice_.order)
        assert slice_ == last


def test_segre_restriction_family_shape(dil):
    family = reflection_on_segre(dil)
    alphas = [alpha for alpha, _ in family]
    assert alphas == sorted(alphas, key=lambda a: (sum(a), a))
    assert alphas[0] == (0,)
    as_dict = dict(family)
    assert as_dict[(0,)].is_zero()
    assert dict(as_dict[(1,)].terms) == {(1,): NEG_FOUR_I}
    assert as_dict[(2,)].is_zero()


def test_segre_restriction_needs_normal_source(perturbed_sphere):
    fm = FormalMap(SeriesMap.identity(2, 8), perturbed_sphere, perturbed_sphere)
    with pytest.raises(PrerequisiteError, match="normal"):
        reflection_on_segre(fm)


def test_u_family_scales_by_factorial(shear_map):
    nonzero = [(a, s) for a, s in u_family(shear_map) if not s.is_zero()]
    assert len(nonzero) == 1
    alpha, series = nonzero[0]
    assert alpha == (1, 1)
    assert dict(series.terms) == {(1, 1): NEG_TWO_I}
    # alpha! = 1 here; check a genuine factorial too
    raw = dict(reflection_on_segre(shear_map))
    assert series == raw[(1, 1)].scale(multi_factorial((1, 1)))


def test_u_family_two_routes_agree(dil, shear_map):
    # route A reads u_alpha off the reflection series; route B composes
    # the target's graph coefficient slices with f restricted to the
    # first Segre parametrization; they must agree identically
    for fm in (dil, shear_map):
        m = fm.n - 1
        order = fm.f.order
        v1_embed = SeriesMap(
            [TruncatedSeries.variable(m, order, i) for i in range(m)]
            + [TruncatedSeries.zero(m, order)]
        )
        f_on_segre = SeriesMap(compose(c, v1_embed) for c in fm.f.components)
        slices = dict(phi_family(fm.target, fm.target.order - 1))
        for alpha, u in u_family(fm, 3):
            piece = slices.get(alpha)
            if piece is None:
                route_b = TruncatedSeries.zero(m, u.order)
            else:
                route_b = compose(piece, f_on_segre).scale(
                    multi_factorial(alpha)
                )
            common = min(u.order, route_b.order)
            assert u.truncate(common) == route_b.truncate(common), alpha


# ---------------------------------------------------------------------------
# the identity along the third Segre parametrization


def test_segre_identity_dilation(dil):
    verdict = segre_reflection_identity(dil)
    assert verdict.passed
    assert verdict.residual.is_zero()
    # both sides equal -8i xi eta over (zp, xi, eta), by hand:
    # conj(f)(v2bar) has last entry 4(-2i xi eta) and the reflection
    # series reproduces it along v3
    expected = {(0, 1, 1): GaussRational(0, -8)}
    assert dict(verdict.lhs.terms) == expected
    assert dict(verdict.rhs.terms) == expected


def test_segre_identity_other_passing_maps(rot, shear_map, shear_map_double):
    for fm in (rot, shear_map, shear_map_double):
        assert segre_reflection_identity(fm).passed


def test_segre_identity_refuses_failing_map(bad):
    with pytest.raises(PrerequisiteError, match="mapping check failed"):
        segre_reflection_identity(bad)


def test_segre_identity_refuses_non_normal_source(perturbed_sphere):
    fm = FormalMap(SeriesMap.identity(2, 8), perturbed_sphere, perturbed_sphere)
    with pytest.raises(PrerequisiteError, match="normal"):
        segre_reflection_identity(fm)


def test_segre_identity_refuses_non_minimal_source(levi_flat):
    fm = FormalMap(SeriesMap.identity(2, 8), levi_flat, levi_flat)
    assert check_maps_into(fm).passed
    with pytest.raises(PrerequisiteError, match="minimal"):
        segre_reflection_identity(fm)


# ---------------------------------------------------------------------------
# growth diagnostics (the only float-tolerant corner)


def test_convergence_evidence_dilation(dil):
    ev = convergence_evidence(u_family(dil), Fraction(1, 2))
    # single nonzero entry u_(1) = -4i zp: majorant 4 * (1/2) = 2,
    # fitted base (2/1!)^(1/2)
    assert ev.r0 == math.sqrt(2.0)
    assert ev.polynomial
    assert ev.radius == Fraction(1, 2)
    assert len(ev.rows) == 1
    alpha, majorant, fitted = ev.rows[0]
    assert alpha == (1,)
    assert majorant == 2.0


def test_convergence_evidence_shear(shear_map):
    ev = convergence_evidence(u_family(shear_map), Fraction(1, 2))
    # u_(1,1) = -2i zp1 zp2: majorant 2 * (1/2)^2 = 1/2, base (1/2)^(1/3)
    assert ev.r0 == 0.5 ** (1.0 / 3.0)
    assert ev.polynomial


def test_convergence_evidence_radius_validation(dil):
    with pytest.raises(ValueError):
        convergence_evidence(u_family(dil), Fraction(0))


# ---------------------------------------------------------------------------
# partial convergence


def test_partial_convergence_dilation(dil):
    result = partial_convergence(dil)
    assert result.bound == 0
    assert result.witnesses_ordered == ((1,), (0,))
    assert [dict(c.terms) for c in result.g.components] == [
        {(1, 0): NEG_TWO_I},
        {(0, 1): ONE},
    ]
    assert [dict(c.terms) for c in result.gf.components] == [
        {(1, 0): NEG_FOUR_I},
        {(0, 1): GaussRational(4)},
    ]
    assert formal_containment(dil.f, result.generators).contained


def test_partial_convergence_shear(shear_map):
    result = partial_convergence(shear_map)
    assert result.bound == 1
    assert result.witnesses_ordered == ((1, 1), (0, 0))
    # the exponentials cancel exactly: g o f = (-2i z1 z2, z3)
    assert [dict(c.terms) for c in result.g.components] == [
        {(1, 1, 0): NEG_TWO_I},
        {(0, 0, 1): ONE},
    ]
    assert [dict(c.terms) for c in result.gf.components] == [
        {(1, 1, 0): NEG_TWO_I},
        {(0, 0, 1): ONE},
    ]
    contained = formal_containment(shear_map.f, result.generators)
    assert contained.contained
    assert contained.order == 6


def test_partial_convergence_identical_across_shears(
    shear_map, shear_map_double
):
    a = partial_convergence(shear_map)
    b = partial_convergence(shear_map_double)
    assert a.g == b.g
    assert a.gf == b.gf
    assert a.generators == b.generators


def test_generators_vanish_on_graph_by_construction(dil, shear_map):
    for fm in (dil, shear_map):
        result = partial_convergence(fm)
        for residual in formal_containment(fm.f, result.generators).residuals:
            assert residual.is_zero()


def test_hand_built_generators_for_shear(shear_map):
    om = [TruncatedSeries.variable(6, 8, 3 + i) for i in range(3)]
    z = [TruncatedSeries.variable(6, 8, i) for i in range(3)]
    product_relation = om[0] * om[1] - z[0] * z[1]
    axis_relation = om[2] - z[2]
    verdict = formal_containment(shear_map.f, [product_relation, axis_relation])
    assert verdict.contained


def test_containment_detects_failure(shear_map):
    wrong = TruncatedSeries.variable(6, 8, 5) - TruncatedSeries.variable(
        6, 8, 2
    ).scale(2)
    verdict = formal_containment(shear_map.f, [wrong])
    assert not verdict.contained
    assert dict(verdict.residuals[0].terms) == {(0, 0, 1): GaussRational(-1)}


def test_partial_convergence_prerequisites(
    sphere, perturbed_sphere, levi_flat, shear_map
):
    squash = SeriesMap(
        [
            TruncatedSeries.variable(2, 8, 0),
            TruncatedSeries.variable(2, 8, 1) ** 2,
        ]
    )
    with pytest.raises(PrerequisiteError, match="invertible"):
        partial_convergence(FormalMap(squash, sphere, sphere))
    with pytest.raises(PrerequisiteError, match="normal"):
        partial_convergence(
            FormalMap(SeriesMap.identity(2, 8), perturbed_sphere, perturbed_sphere)
        )
    with pytest.raises(PrerequisiteError, match="minimal"):
        partial_convergence(
            FormalMap(SeriesMap.identity(2, 8), levi_flat, levi_flat)
        )
    with pytest.raises(PrerequisiteError, match="stabilized"):
        partial_convergence(shear_map, cutoff=2)


# ---------------------------------------------------------------------------
# the assembled report


def test_reflection_report(shear_map):
    report = build_reflection_report(shear_map)
    assert report.n == 3
    assert report.order == 8
    assert report.cutoff == 8
    # all multi-indices in 2 slots with degree <= 8
    assert len(report.family) == 45
    assert report.reflection == reflection_function(shear_map)
    assert report.evidence.r0 == 0.5 ** (1.0 / 3.0)
    assert report.evidence.polynomial


def test_partial_convergence_builds_no_third_segre_map(monkeypatch):
    # the reflect path needs the source minimal, which reads v2 only; v3
    # is the only map over 3(n-1) variables the Segre steps compose
    quadric = corpus.degenerate_quadric()
    fm = FormalMap(corpus.exp_shear(), quadric, quadric)
    sources = []
    original = crkit.series.compose

    def counting(outer, vmap):
        sources.append(vmap.source_nvars)
        return original(outer, vmap)

    for module in (crkit.hypersurface, crkit.reflection):
        monkeypatch.setattr(module, "compose", counting)
    partial_convergence(fm)
    assert sources and 3 * (fm.n - 1) not in sources


@pytest.mark.parametrize(
    "surface, fmap", [("degenerate_quadric", "exp_shear"), ("sphere", "sphere_rotation")]
)
def test_partial_convergence_reads_the_family_degeneracy_built(monkeypatch, surface, fmap):
    # the witness entries and their gradients are the ones degeneracy
    # built: one z'-family extraction, and no derivative beyond those of
    # degeneracy and of the source's minimality check
    H = getattr(corpus, surface)()
    fm = FormalMap(getattr(corpus, fmap)(), H, H)
    calls = []
    for name in ("coefficient_family", "derive"):
        original = getattr(TruncatedSeries, name)

        def counting(series, arg, name=name, original=original):
            calls.append(name)
            return original(series, arg)

        monkeypatch.setattr(TruncatedSeries, name, counting)

    def tally(run):
        calls.clear()
        run()
        return Counter(calls)

    alone = tally(lambda: (degeneracy(H), is_minimal(H)))
    assert alone["coefficient_family"] == 1
    assert tally(lambda: partial_convergence(fm)) == alone


def test_check_and_reflect_lift_the_map_once(monkeypatch):
    # the mapping check and the reflection series both read f over (z, w');
    # the relabel is composed once, with the whole of f, at f's order
    quadric = corpus.degenerate_quadric()
    fm = FormalMap(corpus.exp_shear(), quadric, quadric)
    n, m = fm.n, 2 * fm.n - 1
    lifts = []
    original = crkit.series.compose

    def counting(outer, vmap):
        if vmap == SeriesMap.from_slots(m, vmap.order, range(n)):
            lifts.append(outer)
        return original(outer, vmap)

    for module in (crkit.series, crkit.reflection):
        monkeypatch.setattr(module, "compose", counting)
    assert check_maps_into(fm).passed
    build_reflection_report(fm)
    partial_convergence(fm)
    assert lifts == [fm.f]
