"""Randomized algebraic laws, checked exactly on every generated case."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from crkit.documents import parse_document, serialize
from crkit.rational import GaussRational, ONE, ZERO
from crkit.series import SeriesMap, TruncatedSeries, compose, multi_indices
from crkit.solvers import invert_map


small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)

rationals = st.builds(GaussRational, small_fractions, small_fractions)


@st.composite
def series(draw, nvars=2, order=4, min_degree=0):
    indices = [e for e in multi_indices(nvars, order) if sum(e) >= min_degree]
    chosen = draw(
        st.lists(st.sampled_from(indices), max_size=6, unique=True)
    )
    terms = {}
    for exponents in chosen:
        coeff = draw(rationals)
        if not coeff.is_zero():
            terms[exponents] = coeff
    return TruncatedSeries(nvars, order, terms)


nonzero_rationals = rationals.filter(lambda q: not q.is_zero())


@st.composite
def invertible_maps(draw, nvars=2, order=4):
    # triangular linear part with nonzero diagonal, so invertibility is
    # guaranteed by construction rather than by retrying
    components = []
    for i in range(nvars):
        linear = TruncatedSeries.variable(nvars, order, i).scale(
            draw(nonzero_rationals)
        )
        for j in range(i + 1, nvars):
            coeff = draw(rationals)
            if not coeff.is_zero():
                linear = linear + TruncatedSeries.variable(
                    nvars, order, j
                ).scale(coeff)
        higher = draw(series(nvars=nvars, order=order, min_degree=2))
        components.append(linear + higher)
    return SeriesMap(components)


# ---------------------------------------------------------------------------
# ring laws


@given(series(), series())
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(series(), series())
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(series(), series(), series())
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(series(), series(), series())
def test_distributive_law(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(series())
def test_additive_inverse(a):
    assert (a + a.scale(-1)).is_zero()


@given(series(), series())
def test_derivation_is_leibniz(a, b):
    lhs = (a * b).derive(0)
    rhs = a.derive(0) * b.truncate(a.order - 1) + a.truncate(
        a.order - 1
    ) * b.derive(0)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# composition


@st.composite
def origin_maps(draw, nvars=2, order=4):
    components = [
        draw(series(nvars=nvars, order=order, min_degree=1))
        for _ in range(nvars)
    ]
    return SeriesMap(components)


@given(series(), origin_maps(), origin_maps())
def test_composition_associates(s, inner, innermost):
    lhs = compose(compose(s, inner), innermost)
    rhs = compose(s, inner.compose(innermost))
    assert lhs == rhs


@given(series(), origin_maps())
def test_chain_rule(s, inner):
    composed = compose(s, inner)
    for k in range(2):
        lhs = composed.derive(k)
        rhs = TruncatedSeries.zero(2, lhs.order)
        for j in range(2):
            partial = compose(s.derive(j), inner.truncate(s.order - 1))
            rhs = rhs + partial * inner.components[j].derive(k)
        assert lhs == rhs.truncate(lhs.order)


@st.composite
def slot_maps(draw, nslots=3, order=4):
    """A map over (x1, x2, t) mixing plain-variable, zero and general slots,
    and the same map with every plain slot written as x + t and every zero
    slot as t^2, which compose must expand as general series."""
    t = TruncatedSeries.variable(3, order, 2)
    fast, general = [], []
    for _ in range(nslots):
        kind = draw(st.sampled_from(["plain", "zero", "general"]))
        if kind == "plain":
            x = TruncatedSeries.variable(3, order, draw(st.sampled_from([0, 1])))
            fast.append(x)
            general.append(x + t)
        elif kind == "zero":
            fast.append(TruncatedSeries.zero(3, order))
            general.append(t * t)
        else:
            g = draw(series(nvars=2, order=order, min_degree=1)).remap_vars(3, [0, 1])
            fast.append(g)
            general.append(g)
    return SeriesMap(fast), SeriesMap(general)


@given(series(nvars=3), slot_maps())
def test_compose_plain_and_zero_slots_match_general_expansion(s, maps):
    # setting t = 0 after substituting recovers the plain and zero slots
    fast, general = maps
    assert compose(s, fast) == compose(s, general).set_vars_to_zero([2])


@settings(max_examples=40)
@given(invertible_maps())
def test_inverse_round_trip(fmap):
    inverse = invert_map(fmap)
    both = fmap.compose(inverse)
    identity = SeriesMap.identity(2, both.order)
    assert both == identity
    other = inverse.compose(fmap)
    assert other == SeriesMap.identity(2, other.order)


# ---------------------------------------------------------------------------
# conjugation


@given(series(), series())
def test_conjugation_is_a_ring_map(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(series())
def test_conjugation_involution(a):
    assert a.conjugate().conjugate() == a


@given(rationals)
def test_rational_conjugation_preserves_modulus(q):
    assert (q * q.conjugate()).im == 0


# ---------------------------------------------------------------------------
# document round-trip


@given(series(nvars=3, order=5))
def test_document_round_trip(s):
    text = serialize(s)
    parsed = parse_document(text)
    assert parsed == s
    assert serialize(parsed) == text
