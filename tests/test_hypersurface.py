from fractions import Fraction

import pytest

import crkit.hypersurface
import crkit.series
import crkit.solvers
from crkit import corpus
from crkit.errors import GeometryError, PrerequisiteError
from crkit.hypersurface import (
    Hypersurface,
    degeneracy,
    from_defining,
    graph_residual,
    is_minimal,
    normalize,
    normalizing_change,
    phi_family,
    reality_defect,
    segre_closure_residual,
    segre_maps,
    tangent_fields,
)
from crkit.parser import parse_expr
from crkit.rank import matrix_generic_rank
from crkit.rational import GaussRational, I, ONE
from crkit.series import SeriesMap, TruncatedSeries

TWO_I = GaussRational(0, 2)
HALF_I = GaussRational(0, Fraction(1, 2))


# ---------------------------------------------------------------------------
# construction


def test_sphere_graph_series(sphere):
    # solving -(i/2)(z2 - w2) - z1 w1 = 0 for z2 by hand gives
    # z2 = w2 + 2i z1 w1; phi lives over (w1, w2, zp1)
    assert dict(sphere.phi.terms) == {(0, 1, 0): ONE, (1, 0, 1): TWO_I}
    assert sphere.n == 2
    assert sphere.normal
    assert sphere.order == 8


def test_quadric_graph_series(quadric):
    # z3 = w3 + 2i z1 z2 w1 w2, over (w1, w2, w3, zp1, zp2)
    assert dict(quadric.phi.terms) == {
        (0, 0, 1, 0, 0): ONE,
        (1, 1, 0, 1, 1): TWO_I,
    }
    assert quadric.normal


def test_perturbed_graph_series(perturbed_sphere):
    # z2 = w2 + w1^2 - zp1^2 + 2i w1 zp1, solved by hand
    assert dict(perturbed_sphere.phi.terms) == {
        (0, 1, 0): ONE,
        (2, 0, 0): ONE,
        (1, 0, 1): TWO_I,
        (0, 0, 2): GaussRational(-1),
    }
    assert not perturbed_sphere.normal


def test_phibar_conjugates_coefficients(sphere):
    assert dict(sphere.phibar.terms) == {
        (0, 1, 0): ONE,
        (1, 0, 1): GaussRational(0, -2),
    }


def test_immutability(sphere):
    with pytest.raises(AttributeError):
        sphere.n = 5


def test_equality_ignores_provenance(sphere):
    rebuilt = from_defining(sphere.rho, 2, provenance=("somewhere else",))
    assert rebuilt == sphere
    assert rebuilt.provenance != sphere.provenance


def test_truncate(sphere):
    smaller = sphere.truncate(4)
    assert smaller.order == 4
    assert smaller.rho == sphere.rho.truncate(4)
    assert sphere.truncate(8) is sphere


# normal at order 2 only: the cubic terms move phi(0, w2, 0) off the axis
FLAG_CHANGING = "-(i/2)*(z2 - w2) - z1*w1 + z2*w2^2 + z2^2*w2"

HAND_GERMS = [
    (FLAG_CHANGING, "z:2,w:2", 6, 2),
    ("-(i/2)*(z2 - w2) - z1*w1 + z2*w2 + z1^2*w1 + z1*w1^2", "z:2,w:2", 7, 2),
    ("-(i/2)*(z3 - w3) - z1*w1 - z2*w2 + z1*z2*w3 + w1*w2*z3 + z3*w3^2 + z3^2*w3",
     "z:3,w:3", 5, 3),
]


def test_truncate_matches_solving_again(sphere, levi_flat, quadric, perturbed_sphere):
    germs = [sphere, levi_flat, quadric, perturbed_sphere] + [
        from_defining(parse_expr(text, variables, order), n)
        for text, variables, order, n in HAND_GERMS
    ]
    for H in germs:
        for k in range(2, H.order + 1):
            truncated = H.truncate(k)
            solved = from_defining(H.rho.truncate(k), H.n)
            assert truncated.rho == solved.rho
            assert truncated.phi == solved.phi
            assert truncated.normal == solved.normal


def test_truncate_decides_the_normal_flag_again():
    H = from_defining(parse_expr(FLAG_CHANGING, "z:2,w:2", 6), 2)
    assert [H.truncate(k).normal for k in range(2, 7)] == [True, False, False, False, False]


@pytest.mark.parametrize("name", sorted(corpus.HYPERSURFACES))
def test_from_defining_makes_one_composition(monkeypatch, name):
    # the solve reads z_n in place and writes (w, z') directly, and the
    # normal flag is a scan of rows, so the certificate is the one compose
    rho = corpus.HYPERSURFACES[name]().rho
    calls = []
    original = crkit.series.compose

    def counting(outer, vmap):
        calls.append(vmap)
        return original(outer, vmap)

    for module in (crkit.series, crkit.solvers, crkit.hypersurface):
        monkeypatch.setattr(module, "compose", counting)
    from_defining(rho, rho.nvars // 2)
    assert len(calls) == 1


def test_truncate_errors_and_provenance(sphere):
    with pytest.raises(ValueError):
        sphere.truncate(9)
    with pytest.raises(GeometryError):
        sphere.truncate(1)
    assert sphere.truncate(4).provenance == sphere.provenance + ("truncated to order 4",)


def test_reality_failure_names_the_monomial():
    rho = parse_expr("-(i/2)*(z2 - w2) - i*z1*w1", "z:2,w:2", 6)
    with pytest.raises(GeometryError, match=r"not real.*z1\*w1"):
        from_defining(rho, 2)


def test_reality_defect_reports_mirror():
    rho = parse_expr("-(i/2)*(z2 - w2) - i*z1*w1", "z:2,w:2", 6)
    exponents, actual, expected = reality_defect(rho, 2)
    assert exponents == (1, 0, 1, 0)
    assert actual == GaussRational(0, -1)
    assert expected == I


def test_degenerate_normal_direction():
    rho = parse_expr("z1*w1", "z:2,w:2", 6)
    with pytest.raises(GeometryError, match="degenerate normal direction"):
        from_defining(rho, 2)


def test_origin_required():
    rho = parse_expr("1 - (i/2)*(z2 - w2)", "z:2,w:2", 6)
    with pytest.raises(GeometryError, match="vanish at the origin"):
        from_defining(rho, 2)


def test_dimension_floor():
    rho = parse_expr("-(i/2)*(z1 - w1)", "z:1,w:1", 6)
    with pytest.raises(GeometryError, match="n >= 2"):
        from_defining(rho, 1)


def test_order_floor():
    rho = parse_expr("-(i/2)*(z2 - w2)", "z:2,w:2", 1)
    with pytest.raises(GeometryError, match="needs order >= 2"):
        from_defining(rho, 2)


def test_defining_series_must_fit_the_dimension():
    rho = parse_expr("-(i/2)*(z2 - w2)", "z:2,w:2", 4)
    with pytest.raises(GeometryError, match="^defining series must have 6 variables, got 4$"):
        from_defining(rho, 3)


def test_graph_residual_vanishes(sphere, quadric, perturbed_sphere):
    for H in (sphere, quadric, perturbed_sphere):
        assert graph_residual(H.phi, H.n).is_zero()


# ---------------------------------------------------------------------------
# normal coordinates


def test_normalize_perturbed_recovers_sphere(sphere, perturbed_sphere):
    norm = normalize(perturbed_sphere)
    change = normalizing_change(perturbed_sphere)
    assert norm.normal
    assert norm.rho == sphere.rho
    # the change fixes z1 and sends z2 to z2 + z1^2
    assert dict(change.components[0].terms) == {(1, 0): ONE}
    assert dict(change.components[1].terms) == {(0, 1): ONE, (2, 0): ONE}


def test_normalize_is_idempotent(sphere):
    norm = normalize(sphere)
    change = normalizing_change(sphere)
    assert norm is sphere
    assert change == SeriesMap.identity(2, sphere.order)


def test_normalizing_change_is_one_inversion(monkeypatch, perturbed_sphere):
    # the change is invert_map of normalize's substitution (z', p), with no
    # implicit solve of its own
    calls = []

    def counted(name):
        original = getattr(crkit.hypersurface, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return call

    for name in ("implicit_solve", "invert_map"):
        monkeypatch.setattr(crkit.hypersurface, name, counted(name))
    normalizing_change(perturbed_sphere)
    assert calls == ["invert_map"]


def test_normalize_determinism(perturbed_sphere):
    a = normalize(perturbed_sphere), normalizing_change(perturbed_sphere)
    b = normalize(perturbed_sphere), normalizing_change(perturbed_sphere)
    assert a[0] == b[0]
    assert a[1] == b[1]


# M meets {z' = 0} in a curve that is not the real axis: phi(0, w2, 0)
# = w2 - 4i w2^2 + ..., so one graph substitution cannot normalize it
CURVED_AXIS = "-(i/2)*(z2-w2) - z1*w1 + z2^2 + w2^2"
ONE_STEP_REFUSAL = (
    "the graph substitution did not yield normal coordinates for this "
    "input; its normal form needs more than one step"
)


@pytest.fixture(scope="module")
def curved_axis():
    return from_defining(parse_expr(CURVED_AXIS, "z:2,w:2", 6), 2)


def test_normalizing_change_refuses_where_normalize_does(curved_axis):
    for function in (normalize, normalizing_change):
        with pytest.raises(GeometryError) as info:
            function(curved_axis)
        assert str(info.value) == ONE_STEP_REFUSAL


def test_a_curved_axis_is_refused_before_any_substitution(monkeypatch, curved_axis):
    # the refusal reads phi's rows: nothing is composed or solved
    calls = []

    def counted(name):
        original = getattr(crkit.hypersurface, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return call

    for name in ("compose", "from_defining"):
        monkeypatch.setattr(crkit.hypersurface, name, counted(name))
    with pytest.raises(GeometryError, match="needs more than one step"):
        normalize(curved_axis)
    assert calls == []


def test_normalize_verifies_its_result(monkeypatch, curved_axis):
    # with the axis test made to pass, the one substitution runs and the
    # re-verification of its result is what catches the curved axis
    monkeypatch.setattr(crkit.hypersurface, "_straight_axis", lambda phi, n: True)
    with pytest.raises(AssertionError, match="this is a bug"):
        normalize(curved_axis)


# ---------------------------------------------------------------------------
# Segre maps


def test_segre_maps_sphere(sphere):
    triple = segre_maps(sphere)
    v1, v2, v3 = triple.v1, triple.v2, triple.v3
    assert [dict(c.terms) for c in v1.components] == [{(1,): ONE}, {}]
    # v2(zp, xi) = (zp, 2i zp xi)
    assert [dict(c.terms) for c in v2.components] == [
        {(1, 0): ONE},
        {(1, 1): TWO_I},
    ]
    # v3(zp, xi, eta) = (zp, 2i xi (zp - eta))
    assert dict(v3.components[1].terms) == {
        (1, 1, 0): TWO_I,
        (0, 1, 1): GaussRational(0, -2),
    }


def test_segre_closure_identity(sphere, quadric, levi_flat):
    for H in (sphere, quadric, levi_flat):
        residual = segre_closure_residual(segre_maps(H))
        assert all(c.is_zero() for c in residual.components)


def test_segre_needs_normal_coordinates(perturbed_sphere):
    with pytest.raises(PrerequisiteError):
        segre_maps(perturbed_sphere)


def test_minimality_needs_normal_coordinates(perturbed_sphere):
    with pytest.raises(PrerequisiteError, match="^Segre maps need normal coordinates"):
        is_minimal(perturbed_sphere)


# ---------------------------------------------------------------------------
# minimality


def test_is_minimal_builds_no_third_segre_map(monkeypatch, quadric):
    # v3 is the only map over 3(n-1) variables the Segre steps compose
    sources = []
    original = crkit.series.compose

    def counting(outer, vmap):
        sources.append(vmap.source_nvars)
        return original(outer, vmap)

    monkeypatch.setattr(crkit.hypersurface, "compose", counting)
    assert is_minimal(quadric).minimal
    assert sources and 3 * (quadric.n - 1) not in sources


def test_minimality_table(sphere, levi_flat, quadric):
    v = is_minimal(sphere)
    assert (v.minimal, v.rank, v.n) == (True, 2, 2)
    v = is_minimal(levi_flat)
    assert (v.minimal, v.rank, v.n) == (False, 1, 2)
    v = is_minimal(quadric)
    assert (v.minimal, v.rank, v.n) == (True, 3, 3)


# ---------------------------------------------------------------------------
# degeneracy


@pytest.mark.parametrize("cutoff", [-1, 9])
def test_phi_family_cutoff_must_lie_in_range(sphere, cutoff):
    with pytest.raises(ValueError, match=r"^cutoff must lie in \[0, 8\]$"):
        phi_family(sphere, cutoff)


def test_phi_family_sphere(sphere):
    family = phi_family(sphere, 3)
    as_dicts = [(alpha, dict(series.terms)) for alpha, series in family]
    # coefficients of phibar = w2 - 2i w1 zp1 in powers of zp1,
    # with zero slices kept so the family is complete
    assert as_dicts == [
        ((0,), {(0, 1): ONE}),
        ((1,), {(1, 0): GaussRational(0, -2)}),
        ((2,), {}),
        ((3,), {}),
    ]


def test_degeneracy_table(sphere, levi_flat, quadric):
    d = degeneracy(sphere)
    assert (d.degeneracy, d.rank, d.witnesses) == (0, 2, ((0,), (1,)))
    assert d.holomorphically_nondegenerate
    assert d.stabilized
    d = degeneracy(levi_flat)
    assert (d.degeneracy, d.rank, d.witnesses) == (1, 1, ((0,),))
    assert not d.holomorphically_nondegenerate
    d = degeneracy(quadric)
    assert (d.degeneracy, d.rank, d.witnesses) == (1, 2, ((0, 0), (1, 1)))
    assert d.stabilized


def test_degeneracy_differentiates_only_nonzero_entries(monkeypatch):
    # at order 20 the quadric's family has 210 entries through cutoff 19,
    # and only (0, 0) and (1, 1) are nonzero: 2 entries times 3 w-slots
    quadric = corpus.degenerate_quadric(20)
    calls = []
    original = TruncatedSeries.derive

    def counting(series, index):
        calls.append(index)
        return original(series, index)

    monkeypatch.setattr(TruncatedSeries, "derive", counting)
    d = degeneracy(quadric)
    assert len(phi_family(quadric, d.cutoff_effective)) == 210
    assert (d.degeneracy, d.witnesses, d.stabilized) == (1, ((0, 0), (1, 1)), True)
    assert len(calls) == 6


def test_degeneracy_cutoff_clamp(sphere):
    # gradients of the top slice carry no information at truncation,
    # so a cutoff at full order quietly steps down one
    d = degeneracy(sphere)
    assert d.cutoff_requested == 8
    assert d.cutoff_effective == 7
    d = degeneracy(sphere, cutoff=5)
    assert d.cutoff_requested == 5
    assert d.cutoff_effective == 5


def test_degeneracy_cutoff_validation(sphere):
    with pytest.raises(ValueError):
        degeneracy(sphere, cutoff=0)
    with pytest.raises(ValueError):
        degeneracy(sphere, cutoff=9)


def test_degeneracy_stabilization_tracks_the_rank_jump(quadric):
    # the alpha = (1,1) row first appears at cutoff 2, so the rank jumps
    # from 1 to 2 there and the one-step comparison flags it; cutoff 1 is
    # vacuously stable because levels 0 and 1 agree
    d = degeneracy(quadric, cutoff=1)
    assert d.rank == 1
    assert d.stabilized
    d = degeneracy(quadric, cutoff=2)
    assert d.rank == 2
    assert not d.stabilized
    d = degeneracy(quadric, cutoff=3)
    assert d.rank == 2
    assert d.stabilized


def test_degeneracy_stabilized_equals_the_two_climb_answer(sphere, levi_flat, quadric):
    # degeneracy skips the second climb when the certified witnesses all
    # lie below the effective cutoff; where a witness reaches it, the
    # second climb runs. Either way stabilized must be what a second
    # certified rank on the rows with |alpha| <= effective - 1 says.
    reached = []
    for surface, cutoff in [
        (sphere, 1), (sphere, 3), (sphere, 8),
        (levi_flat, 1), (levi_flat, 4),
        (quadric, 1), (quadric, 2), (quadric, 3),
    ]:
        d = degeneracy(surface, cutoff)
        family = phi_family(surface, d.cutoff_effective)
        rows = [
            [series.derive(j) for j in range(surface.n)]
            for alpha, series in family
            if sum(alpha) <= d.cutoff_effective - 1
        ]
        assert d.stabilized == (matrix_generic_rank(rows).rank == d.rank)
        reached.append(max(map(sum, d.witnesses)) == d.cutoff_effective)
    # both paths are exercised: a witness reaches the cutoff for the
    # sphere at cutoff 1 and the quadric at cutoff 2
    assert reached == [True, False, False, False, False, False, True, False]


def test_degeneracy_determinism(quadric):
    a = degeneracy(quadric)
    b = degeneracy(quadric)
    assert a == b


# ---------------------------------------------------------------------------
# tangent fields


def test_tangent_fields_annihilate_rho(sphere, quadric, perturbed_sphere):
    for H in (sphere, quadric, perturbed_sphere):
        for field in tangent_fields(H):
            assert field.apply(H.rho).is_zero()


def test_tangent_field_count(sphere, quadric):
    assert len(tangent_fields(sphere)) == 1
    assert len(tangent_fields(quadric)) == 2


def test_sphere_tangent_field_values(sphere):
    (L1,) = tangent_fields(sphere)
    # L1 = (i/2) d/dw1 + z1 d/dw2 for the sphere
    assert dict(L1.coef_dwj.terms) == {(0, 0, 0, 0): HALF_I}
    assert dict(L1.coef_dwn.terms) == {(1, 0, 0, 0): ONE}
    w1 = TruncatedSeries.variable(4, sphere.order, 2)
    result = L1.apply(w1)
    assert dict(result.terms) == {(0, 0, 0, 0): HALF_I}


def test_tangent_field_arity_check(sphere):
    (L1,) = tangent_fields(sphere)
    with pytest.raises(ValueError):
        L1.apply(TruncatedSeries.variable(3, 8, 0))
