"""End-to-end acceptance checks, one per shipped guarantee.

Every numeric expectation below was computed independently before being
frozen: hand expansions for the worked series, a brute-force coefficient
recursion for the square root, and closed-form binomial coefficients for
its oracle. Each check prints exactly one PASS or FAIL line, visible even
under capture, and every comparison is exact; there are no tolerances
anywhere in this module.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from crkit import corpus
from crkit.documents import parse_document, serialize
from crkit.hypersurface import (
    degeneracy,
    graph_residual,
    is_minimal,
    normalize,
    phi_family,
    reality_defect,
    segre_closure_residual,
    segre_maps,
)
from crkit.rank import CERTIFIED
from crkit.rational import GaussRational, ONE
from crkit.reflection import (
    FormalMap,
    check_maps_into,
    formal_containment,
    partial_convergence,
    reflection_at_lambda_zero,
    reflection_function,
    segre_reflection_identity,
    u_family,
)
from crkit.series import (
    SeriesMap,
    TruncatedSeries,
    compose,
    multi_factorial,
    multi_indices,
)
from crkit.solvers import invert_map, newton_extend


@contextmanager
def verdict(capsys, number, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number:02d}: FAIL  {label}")
        raise
    with capsys.disabled():
        print(f"criterion {number:02d}: PASS  {label}")


def corpus_surfaces():
    return [(name, builder()) for name, builder in corpus.HYPERSURFACES.items()]


def corpus_maps():
    out = []
    for name, (builder, src, tgt) in corpus.MAPS.items():
        fm = FormalMap(
            builder(), corpus.HYPERSURFACES[src](), corpus.HYPERSURFACES[tgt]()
        )
        out.append((name, fm))
    return out


def passing_corpus_maps():
    return [
        (name, fm)
        for name, fm in corpus_maps()
        if check_maps_into(fm).passed
    ]


# ---------------------------------------------------------------------------


def test_criterion_01_reality_and_graph_identities(capsys):
    with verdict(capsys, 1, "reality and graph identities, exact, under a second each"):
        for name, surface in corpus_surfaces():
            start = time.perf_counter()
            assert surface.order == 8, name
            assert reality_defect(surface.rho, surface.n) is None, name
            assert graph_residual(surface.phi, surface.n).is_zero(), name
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, (name, elapsed)


def test_criterion_02_segre_closure(capsys):
    with verdict(capsys, 2, "third Segre map closes over the first, exactly"):
        for name, surface in corpus_surfaces():
            if not surface.normal:
                surface = normalize(surface)
            residual = segre_closure_residual(segre_maps(surface))
            assert all(c.is_zero() for c in residual.components), name


def test_criterion_03_minimality_and_degeneracy_table(capsys):
    with verdict(capsys, 3, "minimality and degeneracy invariants with certificates"):
        expectations = {
            "sphere": (True, 0),
            "levi_flat": (False, 1),
            "degenerate_quadric": (True, 1),
        }
        for name, (want_minimal, want_degeneracy) in expectations.items():
            surface = corpus.HYPERSURFACES[name]()
            minimality = is_minimal(surface)
            assert minimality.minimal == want_minimal, name
            assert minimality.certificate.status == CERTIFIED, name
            result = degeneracy(surface)
            assert result.degeneracy == want_degeneracy, name
            assert result.certificate.status == CERTIFIED, name
            assert result.stabilized, name
            if minimality.minimal:
                # a certified full-rank minor names a concrete monomial
                assert minimality.certificate.witness_monomial is not None, name


def test_criterion_04_mapping_checks(capsys):
    with verdict(capsys, 4, "mapping check passes good maps, pins the bad monomial"):
        sphere = corpus.sphere()
        quadric = corpus.degenerate_quadric()
        good = FormalMap(corpus.sphere_dilation(), sphere, sphere)
        assert check_maps_into(good).passed
        bad = FormalMap(corpus.sphere_corrupted(), sphere, sphere)
        result = check_maps_into(bad)
        assert not result.passed
        # least offending monomial is z1*w1 of degree 2, coefficient 1
        exponents, coefficient = result.offending
        assert exponents == (1, 0, 1)
        assert sum(exponents) == 2
        assert coefficient == ONE
        for scale in (1, 2):
            shear = FormalMap(corpus.exp_shear(scale=scale), quadric, quadric)
            assert check_maps_into(shear).passed, scale


def test_criterion_05_reflection_series(capsys):
    with verdict(capsys, 5, "reflection series exact, stable across equal maps"):
        quadric = corpus.degenerate_quadric()
        shear = FormalMap(corpus.exp_shear(scale=1), quadric, quadric)
        double = FormalMap(corpus.exp_shear(scale=2), quadric, quadric)
        expected = {
            (0, 0, 1, 0, 0): ONE,
            (1, 1, 0, 1, 1): GaussRational(0, -2),
        }
        r_one = reflection_function(shear)
        r_two = reflection_function(double)
        assert dict(r_one.terms) == expected
        assert serialize(r_one) == serialize(r_two)
        for name, fm in passing_corpus_maps():
            assert fm.target.normal, name
            slice_ = reflection_at_lambda_zero(fm)
            assert slice_ == fm.f.components[fm.n - 1].truncate(slice_.order), name


def test_criterion_06_segre_reflection_identity(capsys):
    with verdict(capsys, 6, "reflection identity along the third Segre map"):
        for name, fm in passing_corpus_maps():
            if not is_minimal(fm.source).minimal:
                continue
            result = segre_reflection_identity(fm)
            assert result.passed, name
            assert result.residual.is_zero(), name
        sphere = corpus.sphere()
        dilation = FormalMap(corpus.sphere_dilation(), sphere, sphere)
        result = segre_reflection_identity(dilation)
        expected = {(0, 1, 1): GaussRational(0, -8)}
        assert dict(result.lhs.terms) == expected
        assert dict(result.rhs.terms) == expected


def test_criterion_07_two_routes_to_the_family(capsys):
    with verdict(capsys, 7, "both routes to the composed family agree to degree 6"):
        for name, fm in passing_corpus_maps():
            m = fm.n - 1
            order = fm.f.order
            v1_embed = SeriesMap(
                [TruncatedSeries.variable(m, order, i) for i in range(m)]
                + [TruncatedSeries.zero(m, order)]
            )
            f_on_segre = SeriesMap(
                compose(c, v1_embed) for c in fm.f.components
            )
            slices = dict(phi_family(fm.target, fm.target.order - 1))
            for alpha, route_a in u_family(fm, 6):
                piece = slices.get(alpha)
                if piece is None:
                    route_b = TruncatedSeries.zero(m, route_a.order)
                else:
                    route_b = compose(piece, f_on_segre).scale(
                        multi_factorial(alpha)
                    )
                common = min(route_a.order, route_b.order)
                assert route_a.truncate(common) == route_b.truncate(common), (
                    name,
                    alpha,
                )


def test_criterion_08_partial_convergence(capsys):
    with verdict(capsys, 8, "partial convergence: exact generators, bound 1"):
        quadric = corpus.degenerate_quadric()
        shear = FormalMap(corpus.exp_shear(scale=1), quadric, quadric)
        result = partial_convergence(shear)
        assert result.bound == 1
        assert result.witnesses_ordered == ((1, 1), (0, 0))
        # the exponential factors cancel exactly in g o f
        assert [dict(c.terms) for c in result.gf.components] == [
            {(1, 1, 0): GaussRational(0, -2)},
            {(0, 0, 1): ONE},
        ]
        computed = formal_containment(shear.f, result.generators)
        assert computed.contained
        # the same containment holds for the hand-written relations
        # om1 om2 = z1 z2 and om3 = z3 over (z, om)
        om = [TruncatedSeries.variable(6, 8, 3 + i) for i in range(3)]
        z = [TruncatedSeries.variable(6, 8, i) for i in range(3)]
        hand = formal_containment(
            shear.f, [om[0] * om[1] - z[0] * z[1], om[2] - z[2]]
        )
        assert hand.contained


def sqrt_binomial_oracle(order):
    """Closed-form coefficients of sqrt(1 + x): the generalized binomial
    numbers C(1/2, k), computed directly with exact fractions."""
    out = []
    for k in range(order + 1):
        num = Fraction(1)
        for j in range(k):
            num *= Fraction(1, 2) - j
        for j in range(1, k + 1):
            num /= j
        out.append(num)
    return out


def test_criterion_09_newton_extension(capsys):
    with verdict(capsys, 9, "Newton step reproduces sqrt(1+x) through order 10"):
        oracle = sqrt_binomial_oracle(10)
        assert oracle[:5] == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(-1, 8),
            Fraction(1, 16),
            Fraction(-5, 128),
        ]
        assert oracle[10] == Fraction(-2431, 262144)
        system = SeriesMap(
            [
                TruncatedSeries(
                    2,
                    12,
                    {
                        (0, 2): ONE,
                        (0, 0): GaussRational(-1),
                        (1, 0): GaussRational(-1),
                    },
                )
            ]
        )
        seed = SeriesMap(
            [
                TruncatedSeries(
                    1, 1, {(0,): ONE, (1,): GaussRational(Fraction(1, 2))}
                )
            ]
        )
        extended = newton_extend(system, seed, 10)
        got = extended.components[0]
        for k, coefficient in enumerate(oracle):
            assert got.coefficient((k,)) == GaussRational(coefficient), k
        # a seed whose linearization is singular must be refused
        degenerate = SeriesMap(
            [TruncatedSeries(2, 12, {(0, 2): ONE, (2, 0): GaussRational(-1)})]
        )
        x_seed = SeriesMap([TruncatedSeries(1, 1, {(1,): ONE})])
        try:
            newton_extend(degenerate, x_seed, 6)
        except ValueError as exc:
            assert "Jacobian" in str(exc)
        else:
            raise AssertionError("singular linearization was not refused")


# ---------------------------------------------------------------------------
# randomized exact laws


ORDER = 6
INDICES = multi_indices(2, ORDER)
TAIL = [e for e in INDICES if sum(e) >= 2]
CASES = 1000


def rand_rational(rng, span=4):
    return GaussRational(
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
        Fraction(rng.randint(-span, span), rng.randint(1, 4)),
    )


def rand_series(rng, min_degree=0):
    pool = [e for e in INDICES if sum(e) >= min_degree]
    terms = {}
    for exponents in rng.sample(pool, rng.randint(0, 5)):
        coefficient = rand_rational(rng)
        if not coefficient.is_zero():
            terms[exponents] = coefficient
    return TruncatedSeries(2, ORDER, terms)


def rand_origin_map(rng):
    return SeriesMap([rand_series(rng, 1), rand_series(rng, 1)])


def rand_invertible_map(rng):
    components = []
    for i in range(2):
        linear = TruncatedSeries.variable(2, ORDER, i).scale(
            GaussRational(rng.choice([1, 2, -1, -2]))
        )
        if i == 0:
            mix = GaussRational(
                Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
            )
            if not mix.is_zero():
                linear = linear + TruncatedSeries.variable(2, ORDER, 1).scale(mix)
        terms = {}
        for exponents in rng.sample(TAIL, rng.randint(0, 2)):
            coefficient = rand_rational(rng, span=2)
            if not coefficient.is_zero():
                terms[exponents] = coefficient
        components.append(linear + TruncatedSeries(2, ORDER, terms))
    return SeriesMap(components)


def suite_ring_laws(rng):
    a, b, c = rand_series(rng), rand_series(rng), rand_series(rng)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def suite_composition_associativity(rng):
    s = rand_series(rng)
    f, g = rand_origin_map(rng), rand_origin_map(rng)
    assert compose(compose(s, f), g) == compose(s, f.compose(g))


def suite_chain_rule(rng):
    s = rand_series(rng)
    f = rand_origin_map(rng)
    composed = compose(s, f)
    for k in range(2):
        lhs = composed.derive(k)
        rhs = TruncatedSeries.zero(2, lhs.order)
        for j in range(2):
            rhs = rhs + compose(
                s.derive(j), f.truncate(ORDER - 1)
            ) * f.components[j].derive(k)
        assert lhs == rhs.truncate(lhs.order)


def suite_inverse_round_trip(rng):
    fmap = rand_invertible_map(rng)
    inverse = invert_map(fmap)
    assert fmap.compose(inverse) == SeriesMap.identity(2, inverse.order)


def suite_conjugation_and_documents(rng):
    s = rand_series(rng)
    assert s.conjugate().conjugate() == s
    assert parse_document(serialize(s)) == s


def test_criterion_10_randomized_exact_laws(capsys):
    suites = [
        suite_ring_laws,
        suite_composition_associativity,
        suite_chain_rule,
        suite_inverse_round_trip,
        suite_conjugation_and_documents,
    ]
    with verdict(capsys, 10, f"{len(suites)} suites x {CASES} random cases, exact"):
        start = time.perf_counter()
        for index, suite in enumerate(suites):
            rng = random.Random(20260816 + index)
            for _ in range(CASES):
                suite(rng)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, elapsed
