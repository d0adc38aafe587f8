import re
from fractions import Fraction

import pytest

from crkit.rational import GaussRational, I, ONE
from crkit.series import (
    SeriesMap,
    TruncatedSeries,
    compose,
    format_series,
    grlex_key,
    multi_factorial,
    multi_indices,
    unit_exponent,
)


def S(nvars, order, terms=()):
    return TruncatedSeries(nvars, order, terms)


def V(nvars, order, index):
    return TruncatedSeries.variable(nvars, order, index)


# ---------------------------------------------------------------------------
# an independent product oracle: plain nested loops over dicts, no reuse of
# the library's convolution

def oracle_mul(a_terms, b_terms, nvars, order):
    out = {}
    for ea, ca in a_terms.items():
        for eb, cb in b_terms.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            if sum(key) > order:
                continue
            out[key] = out.get(key, GaussRational(0)) + ca * cb
    return {e: c for e, c in out.items() if not c.is_zero()}


# ---------------------------------------------------------------------------
# helpers and ordering


def test_grlex_key_orders_by_degree_then_lex():
    exponents = [(2, 0), (0, 1), (1, 1), (0, 0), (1, 0), (0, 2)]
    ordered = sorted(exponents, key=grlex_key)
    assert ordered == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_multi_indices_ascending_and_complete():
    idx = multi_indices(2, 2)
    assert idx == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert multi_indices(1, 3) == [(0,), (1,), (2,), (3,)]


def test_multi_factorial():
    assert multi_factorial((0, 0)) == 1
    assert multi_factorial((3, 2)) == 12
    assert multi_factorial((1, 1, 4)) == 24


def test_exponent_helpers():
    assert unit_exponent(3, 1) == (0, 1, 0)


# ---------------------------------------------------------------------------
# construction and validation


def test_constructor_drops_zero_coefficients():
    s = S(2, 4, [((1, 0), GaussRational(0)), ((0, 1), ONE)])
    assert (1, 0) not in s.terms
    assert s.coefficient((0, 1)) == ONE


def test_constructor_rejects_bad_terms():
    with pytest.raises(ValueError):
        S(2, 4, [((1,), ONE)])  # wrong arity
    with pytest.raises(ValueError):
        S(2, 4, [((-1, 0), ONE)])  # negative exponent
    with pytest.raises(ValueError):
        S(2, 4, [((5, 0), ONE)])  # beyond the order
    with pytest.raises(ValueError):
        S(2, 4, [((1, 0), ONE), ((1, 0), ONE)])  # duplicate
    with pytest.raises(ValueError):
        S(2, -1)  # negative order


@pytest.mark.parametrize("args, message", [
    ((1, 2, {(1.5,): ONE}), r"exponent tuple \(1\.5,\) must hold integers"),
    ((1, 2, {("2",): ONE}), r"exponent tuple \('2',\) must hold integers"),
    ((2, 2.5, {(1, 0): ONE}), "truncation order must be an integer, got 2.5"),
    ((2.0, 2), "nvars must be an integer, got 2.0"),
], ids=["float exponent", "str exponent", "float order", "float nvars"])
def test_constructor_takes_only_integers(args, message):
    # int() would round 1.5 down and read '2'; a float order would build
    # float keys that serialize writes and no parser reads back
    with pytest.raises(TypeError, match=message):
        S(*args)


def test_from_slots_takes_only_integers_none_or_series():
    with pytest.raises(TypeError, match=r"slot 1\.0 is not a variable index, None or a series"):
        SeriesMap.from_slots(2, 3, [0, 1.0])
    with pytest.raises(TypeError, match="truncation order must be an integer, got 3.0"):
        SeriesMap.from_slots(2, 3.0, [0, 1])
    # an int subclass and anything with __index__ stand for their int
    assert S(1, 2, {(True,): ONE}) == V(1, 2, 0)


@pytest.mark.parametrize("call, message", [
    (lambda s: s.truncate(2.5), "truncation order must be an integer, got 2.5"),
    (lambda s: s.truncate(2.0), "truncation order must be an integer, got 2.0"),
    (lambda s: s.derive(1.0), "variable index must be an integer, got 1.0"),
    (lambda s: s.coefficient_family([1.0]), "group index must be an integer, got 1.0"),
], ids=["truncate 2.5", "truncate 2.0", "derive", "coefficient_family"])
def test_methods_take_only_integers(call, message):
    # a float order would build float keys that serialize writes and no
    # parser reads back; a float index would fail with no value named
    with pytest.raises(TypeError, match=message):
        call(S(2, 3, {(1, 0): ONE, (0, 2): ONE}))


def test_methods_read_integer_like_arguments_as_their_int():
    s = S(2, 3, {(1, 0): ONE, (0, 2): ONE})
    assert s.truncate(True) == s.truncate(1)
    assert s.derive(True) == s.derive(1)
    assert s.coefficient_family([True]) == s.coefficient_family([1])
    with pytest.raises(ValueError, match="truncation order must be nonnegative"):
        s.truncate(-1)


def test_immutability():
    s = V(2, 4, 0)
    with pytest.raises(AttributeError):
        s.order = 7
    with pytest.raises(TypeError):
        s.terms[(1, 0)] = ONE


def test_classmethods():
    z = TruncatedSeries.zero(3, 5)
    assert z.is_zero() and z.nvars == 3 and z.order == 5
    c = TruncatedSeries.constant(Fraction(2, 3), 2, 4)
    assert c.constant_term() == GaussRational(Fraction(2, 3))
    m = TruncatedSeries.monomial(2, 4, (1, 2), I)
    assert m.coefficient((1, 2)) == I
    with pytest.raises(ValueError):
        TruncatedSeries.variable(2, 0, 0)


def test_equality_and_no_hash():
    a = V(2, 4, 0)
    b = V(2, 4, 0)
    assert a == b
    assert a != V(2, 5, 0)  # different order
    assert a != V(3, 4, 0)  # different arity
    with pytest.raises(TypeError):
        hash(a)


# ---------------------------------------------------------------------------
# arithmetic


def test_addition_and_scalars():
    x, y = V(2, 4, 0), V(2, 4, 1)
    s = x + y
    assert s.coefficient((1, 0)) == ONE
    assert s.coefficient((0, 1)) == ONE
    assert (s + 1).constant_term() == ONE
    assert (1 + s).constant_term() == ONE
    assert (s - s).is_zero()
    assert (-s).coefficient((1, 0)) == GaussRational(-1)


def test_gauss_rational_on_the_left_reaches_the_series():
    # GaussRational's operators hand an unreadable operand back, so the
    # series' reflected methods run
    s = V(2, 4, 0) + V(2, 4, 1).scale(I)
    assert GaussRational(1) + s == s + 1
    assert GaussRational(1) - s == 1 - s
    assert GaussRational(2) * s == 2 * s
    with pytest.raises(TypeError):
        GaussRational.coerce(s)


def test_addition_takes_min_order():
    a = V(2, 6, 0)
    b = V(2, 3, 1)
    assert (a + b).order == 3


def test_addition_rejects_arity_mismatch():
    with pytest.raises(ValueError):
        V(2, 4, 0) + V(3, 4, 0)


def test_scale():
    x = V(2, 4, 0)
    assert x.scale(Fraction(1, 2)).coefficient((1, 0)) == GaussRational(Fraction(1, 2))
    assert x.scale(I).coefficient((1, 0)) == I
    assert x.scale(0).is_zero()


def test_multiplication_against_oracle():
    x, y = V(2, 4, 0), V(2, 4, 1)
    a = (x + y.scale(2)) * (x - y.scale(I)) + x * x
    oracle = oracle_mul(
        {(1, 0): ONE, (0, 1): GaussRational(2)},
        {(1, 0): ONE, (0, 1): GaussRational(0, -1)},
        2,
        4,
    )
    oracle = {
        key: oracle.get(key, GaussRational(0)) + extra
        for key, extra in [((2, 0), ONE)]
    } | {k: v for k, v in oracle.items() if k != (2, 0)}
    assert dict(a.terms) == {k: v for k, v in oracle.items() if not v.is_zero()}


def test_multiplication_truncates_at_min_order():
    a = S(1, 3, [((0,), ONE), ((3,), ONE)])
    b = S(1, 2, [((0,), ONE), ((2,), ONE)])
    product = a * b
    assert product.order == 2
    assert dict(product.terms) == {(0,): ONE, (2,): ONE}


def test_product_of_binomials():
    x = V(1, 5, 0)
    cube = (1 + x) * (1 + x) * (1 + x)
    assert cube.coefficient((0,)) == ONE
    assert cube.coefficient((1,)) == GaussRational(3)
    assert cube.coefficient((2,)) == GaussRational(3)
    assert cube.coefficient((3,)) == ONE


def test_pow():
    x, y = V(2, 6, 0), V(2, 6, 1)
    s = (x + y) ** 4
    assert s.coefficient((2, 2)) == GaussRational(6)
    assert s.coefficient((4, 0)) == ONE
    assert (x + y) ** 0 == TruncatedSeries.constant(ONE, 2, 6)
    assert (x + y) ** 1 == x + y
    with pytest.raises(ValueError):
        (x + y) ** -1


# ---------------------------------------------------------------------------
# truncation, derivatives, conjugation, evaluation


def test_truncate():
    x = V(1, 5, 0)
    s = (1 + x) ** 5
    t = s.truncate(2)
    assert t.order == 2
    assert dict(t.terms) == {
        (0,): ONE,
        (1,): GaussRational(5),
        (2,): GaussRational(10),
    }
    with pytest.raises(ValueError):
        t.truncate(3)  # cannot invent the dropped terms back


def test_derive():
    x, y = V(2, 4, 0), V(2, 4, 1)
    s = x ** 2 * y + y.scale(3)
    dx = s.derive(0)
    assert dx.order == 3
    assert dict(dx.terms) == {(1, 1): GaussRational(2)}
    dy = s.derive(1)
    assert dy.coefficient((2, 0)) == ONE
    assert dy.coefficient((0, 0)) == GaussRational(3)
    with pytest.raises(ValueError):
        TruncatedSeries.zero(2, 0).derive(0)
    with pytest.raises(ValueError):
        s.derive(5)


def test_conjugate():
    s = S(2, 4, [((1, 0), I), ((0, 2), GaussRational(1, 2))])
    c = s.conjugate()
    assert c.coefficient((1, 0)) == GaussRational(0, -1)
    assert c.coefficient((0, 2)) == GaussRational(1, -2)
    assert c.conjugate() == s


def test_valuation_and_least_term():
    s = S(2, 5, [((2, 1), ONE), ((1, 1), GaussRational(2)), ((3, 0), I)])
    assert s.valuation() == 2
    assert s.least_term() == ((1, 1), GaussRational(2))
    zero = TruncatedSeries.zero(2, 5)
    assert zero.valuation() is None
    assert zero.least_term() is None


def test_remap_vars():
    s = S(2, 4, [((1, 2), I)])
    wide = compose(s, SeriesMap.from_slots(4, 4, [3, 1]))
    assert wide.nvars == 4
    assert dict(wide.terms) == {(0, 2, 0, 1): I}
    assert wide.order == 4
    # coinciding slots add their exponents
    folded = compose(s, SeriesMap.from_slots(4, 4, [0, 0]))
    assert dict(folded.terms) == {(3, 0, 0, 0): I}
    with pytest.raises(ValueError):
        SeriesMap.from_slots(1, 4, [0, 1])  # out of range


def test_set_vars_to_zero():
    x, y = V(2, 4, 0), V(2, 4, 1)
    s = x + y * x + y ** 2
    restricted = compose(s, SeriesMap.from_slots(2, 4, [0, None]))
    assert dict(restricted.terms) == {(1, 0): ONE}


def test_coefficient_family():
    # group out the second variable: s = y*(x) + y^2*(1) + (x^2)
    x, y = V(2, 6, 0), V(2, 6, 1)
    s = y * x + y ** 2 + x ** 2
    family = s.coefficient_family([1])
    assert set(family) == {(0,), (1,), (2,)}
    assert dict(family[(1,)].terms) == {(1,): ONE}
    assert family[(1,)].order == 5
    assert dict(family[(2,)].terms) == {(0,): ONE}
    assert dict(family[(0,)].terms) == {(2,): ONE}
    # every group index must name a variable, on the zero series too
    for group in ([-1], [5], [0, 2]):
        with pytest.raises(ValueError, match="out of range"):
            S(2, 3, {(1, 1): ONE}).coefficient_family(group)
        with pytest.raises(ValueError, match="out of range"):
            S(2, 3).coefficient_family(group)


def test_format_series():
    x, y = V(2, 4, 0), V(2, 4, 1)
    s = x.scale(GaussRational(0, Fraction(1, 2))) - y ** 2
    assert format_series(s, ["z1", "z2"]) == "1/2*i*z1 - z2^2"
    assert format_series(TruncatedSeries.zero(1, 2)) == "0"


# ---------------------------------------------------------------------------
# maps


def test_map_basics():
    ident = SeriesMap.identity(2, 4)
    assert ident.source_nvars == 2 and ident.target_nvars == 2
    assert ident.is_origin_preserving()
    assert ident.order == 4


def test_from_slots():
    s = V(2, 5, 0) + V(2, 5, 1) ** 4
    vmap = SeriesMap.from_slots(2, 3, [1, None, s])
    assert vmap.components == (V(2, 3, 1), TruncatedSeries.zero(2, 3), s.truncate(3))
    assert SeriesMap.from_slots(2, 0, [0]).components == (TruncatedSeries.zero(2, 0),)
    for index in (2, -1):
        with pytest.raises(ValueError):
            SeriesMap.from_slots(2, 3, [index])


def test_from_slots_rejects_series_over_other_variables():
    s = V(2, 5, 0)
    with pytest.raises(ValueError, match="2 variables, expected 3"):
        SeriesMap.from_slots(3, 4, [s, s])
    with pytest.raises(ValueError, match="2 variables, expected 3"):
        SeriesMap.from_slots(3, 4, [0, s])


def test_from_slots_checks_indices_at_order_zero():
    with pytest.raises(ValueError, match="out of range"):
        SeriesMap.from_slots(3, 0, [5])
    with pytest.raises(ValueError, match="out of range"):
        SeriesMap.from_slots(3, 0, [0, -1])


def test_map_component_validation():
    with pytest.raises(ValueError):
        SeriesMap([])
    with pytest.raises(ValueError):
        SeriesMap([V(2, 4, 0), V(3, 4, 0)])
    with pytest.raises(ValueError):
        SeriesMap([V(2, 4, 0), V(2, 3, 1)])


def test_map_jacobian_and_linear_matrix():
    x, y = V(2, 4, 0), V(2, 4, 1)
    fmap = SeriesMap([x.scale(2) + y * y, y.scale(I)])
    jac = fmap.jacobian()
    assert jac[0][0].constant_term() == GaussRational(2)
    assert jac[0][1].coefficient((0, 1)) == GaussRational(2)
    matrix = fmap.linear_matrix()
    assert matrix == [
        [GaussRational(2), GaussRational(0)],
        [GaussRational(0), I],
    ]


def test_compose_worked_example():
    # f(u) = u + u^2 composed with g(y) = y + y^3
    f = V(1, 4, 0) + V(1, 4, 0) ** 2
    g = SeriesMap([V(1, 4, 0) + V(1, 4, 0) ** 3])
    result = compose(f, g)
    assert dict(result.terms) == {
        (1,): ONE,
        (2,): ONE,
        (3,): ONE,
        (4,): GaussRational(2),
    }


@pytest.mark.parametrize("call, message", [
    (lambda: unit_exponent(2, 2), "variable index 2 out of range for 2 variables"),
    (lambda: S(-1, 2), "nvars must be nonnegative"),
    (lambda: V(2, 3, 0).coefficient_family([1, 1]), "group indices must be distinct"),
    (lambda: SeriesMap.identity(2, 0).linear_matrix(), "order 0 does not determine the linear part"),
    (lambda: compose(V(2, 3, 0), SeriesMap.identity(3, 3)), "map produces 3 values, series expects 2"),
], ids=["unit_exponent", "negative nvars", "repeated group index", "linear part at order 0",
        "compose arity"])
def test_refusals_name_the_input_at_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_compose_requires_origin_preserving():
    f = V(1, 4, 0)
    bad = SeriesMap([V(1, 4, 0) + 1])
    with pytest.raises(ValueError):
        compose(f, bad)


def test_compose_takes_min_order():
    f = V(1, 9, 0)
    g = SeriesMap([V(1, 3, 0)])
    assert compose(f, g).order == 3


def test_map_compose_and_conjugate():
    x, y = V(2, 4, 0), V(2, 4, 1)
    inner = SeriesMap([x + y ** 2, y])
    outer = SeriesMap([x.scale(I), y.scale(2)])
    both = outer.compose(inner)
    assert both.components[0] == (x + y ** 2).scale(I)
    assert both.components[1] == y.scale(2)
    conj = outer.conjugate()
    assert conj.components[0] == x.scale(GaussRational(0, -1))


def test_map_equality_and_truncate():
    a = SeriesMap.identity(2, 4)
    assert a == SeriesMap([V(2, 4, 0), V(2, 4, 1)])
    assert a != SeriesMap([V(2, 4, 1), V(2, 4, 0)])
    assert a.truncate(2).order == 2
