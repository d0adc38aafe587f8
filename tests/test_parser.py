import re
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crkit.errors import ParseError
from crkit.parser import TruncationWarning, normalize_declaration, parse_expr
from crkit.rational import GaussRational, I, ONE
from crkit.series import TruncatedSeries


# frozen expected coefficients of the sphere defining series, verified by
# hand expansion of -(i/2)(z2 - w2) - z1 w1 over (z1, z2, w1, w2)
SPHERE_TERMS = {
    (0, 1, 0, 0): GaussRational(0, Fraction(-1, 2)),
    (0, 0, 0, 1): GaussRational(0, Fraction(1, 2)),
    (1, 0, 1, 0): GaussRational(-1),
}


def test_sphere_expression():
    series = parse_expr("-(i/2)*(z2 - w2) - z1*w1", "z:2,w:2", 8)
    assert series.nvars == 4
    assert series.order == 8
    assert dict(series.terms) == SPHERE_TERMS


def test_declaration_forms_agree():
    text = "-(i/2)*(z2 - w2) - z1*w1"
    a = parse_expr(text, "z:2,w:2", 8)
    b = parse_expr(text, (("z", 2), ("w", 2)), 8)
    assert a == b


def test_truncation_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        series = parse_expr("z1^2", "z:2,w:2", 1)
    assert series.is_zero()
    assert len(caught) == 1
    assert issubclass(caught[0].category, TruncationWarning)


def test_no_warning_when_everything_fits():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parse_expr("z1^2", "z:2,w:2", 2)
    assert not caught


def test_truncation_warning_counts_terms_of_the_exact_expansion():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        series = parse_expr("(z1 + z2)^3", "z:2", 2)
    assert series.is_zero()
    assert [str(w.message) for w in caught] == ["4 term(s) above order 2 were dropped"]
    # the cubes cancel before truncation, so nothing above order 2 is lost
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        series = parse_expr("(z1 + 1)^3 - z1^3", "z:1", 2)
    assert not caught
    assert series == parse_expr("3*z1^2 + 3*z1 + 1", "z:1", 2)


def test_undeclared_identifier():
    with pytest.raises(ParseError, match="undeclared identifier 'q'"):
        parse_expr("z1 + q", "z:2,w:2", 4)
    with pytest.raises(ParseError, match="undeclared identifier 'z3'"):
        parse_expr("z3", "z:2,w:2", 4)
    with pytest.raises(ParseError, match="undeclared identifier"):
        parse_expr("z0", "z:2,w:2", 4)  # indices are 1-based


def test_error_positions():
    with pytest.raises(ParseError) as info:
        parse_expr("z1 +\n  q*z2", "z:2,w:2", 4)
    assert info.value.line == 2
    assert info.value.column == 3


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_expr("2z1", "z:2,w:2", 4)


def test_division_restrictions():
    assert parse_expr("z1/2", "z:2,w:2", 4).coefficient((1, 0, 0, 0)) == \
        GaussRational(Fraction(1, 2))
    with pytest.raises(ParseError, match="nonzero constant"):
        parse_expr("1/z1", "z:2,w:2", 4)
    with pytest.raises(ParseError, match="nonzero constant"):
        parse_expr("i/0", "z:2,w:2", 4)
    with pytest.raises(ParseError, match="nonzero constant"):
        parse_expr("z1/(1 - 1)", "z:2,w:2", 4)


def test_exponent_restrictions():
    with pytest.raises(ParseError, match="nonnegative integer"):
        parse_expr("z1^-2", "z:2,w:2", 4)
    with pytest.raises(ParseError, match="nonnegative integer"):
        parse_expr("z1^z2", "z:2,w:2", 4)
    assert parse_expr("z1^0", "z:2,w:2", 4).constant_term() == ONE


def test_unary_minus_binds_before_power():
    # documented grammar consequence: -z1^2 means (-z1)^2
    assert parse_expr("-z1^2", "z:1", 4) == parse_expr("z1^2", "z:1", 4)
    assert parse_expr("-(z1^2)", "z:1", 4) == parse_expr("z1^2", "z:1", 4).scale(-1)


def test_imaginary_unit():
    assert parse_expr("i*i", "z:1", 2).constant_term() == GaussRational(-1)
    assert parse_expr("i^4", "z:1", 2).constant_term() == ONE
    assert parse_expr("2*i", "z:1", 2).constant_term() == GaussRational(0, 2)


def test_syntax_errors():
    for text in ["", "z1 +", "(z1", "z1)", "*z1", "z1 ** z2", "z1 @ z2"]:
        with pytest.raises(ParseError):
            parse_expr(text, "z:2,w:2", 4)


def test_non_ascii_rejected():
    with pytest.raises(ParseError, match="non-ASCII"):
        parse_expr("z1 + α", "z:2,w:2", 4)


def test_multi_letter_groups_and_indices():
    series = parse_expr("zp1*lambda2", "zp:2,lambda:2", 4)
    assert series.coefficient((1, 0, 0, 1)) == ONE


def test_declaration_validation():
    assert normalize_declaration("z:2, w:3") == (("z", 2), ("w", 3))
    with pytest.raises(ParseError):
        normalize_declaration("i:2")  # reserved
    with pytest.raises(ParseError):
        normalize_declaration("z:0")
    with pytest.raises(ParseError):
        normalize_declaration("z:2,z:3")
    with pytest.raises(ParseError):
        normalize_declaration("z2:1")  # digits belong to the index
    with pytest.raises(ParseError):
        normalize_declaration("")


def test_exact_fractions_no_floats():
    series = parse_expr("1/3*z1 + 1/3*z1 + 1/3*z1", "z:1", 2)
    assert series.coefficient((1,)) == ONE


def test_big_expansion_is_exact():
    series = parse_expr("(z1 + w1)^6", "z:1,w:1", 6)
    assert series.coefficient((3, 3)) == GaussRational(20)
    assert series.coefficient((6, 0)) == ONE


# ---------------------------------------------------------------------------
# expression trees, rendered to text and built with the series API
#
# A tree is a tuple: ("num", n), ("i",), ("var", name, slot), ("neg", t),
# ("+" | "-" | "*", a, b), ("/", a, divisor) with a nonzero constant divisor,
# or ("^", t, k). Every operand is rendered in parentheses, so the text
# means exactly the tree.

DECLARATION = (("z", 2), ("w", 1))
VARIABLES = [("z1", 0), ("z2", 1), ("w1", 2)]

numbers = st.builds(lambda n: ("num", n), st.integers(0, 12))
divisors = st.one_of(
    st.builds(lambda n: ("num", n), st.integers(1, 7)),
    st.just(("i",)),
    st.builds(lambda n: ("+", ("num", n), ("i",)), st.integers(0, 3)),
)
leaves = st.one_of(
    numbers,
    st.just(("i",)),
    st.sampled_from(VARIABLES).map(lambda v: ("var", *v)),
)


def extend(children):
    return st.one_of(
        st.builds(lambda t: ("neg", t), children),
        st.builds(lambda op, a, b: (op, a, b), st.sampled_from("+-*"), children, children),
        st.builds(lambda a, d: ("/", a, d), children, divisors),
        st.builds(lambda t, k: ("^", t, k), children, st.integers(0, 3)),
    )


trees = st.recursive(leaves, extend, max_leaves=6)


def render(tree) -> str:
    kind = tree[0]
    if kind == "num":
        return str(tree[1])
    if kind == "i":
        return "i"
    if kind == "var":
        return tree[1]
    if kind == "neg":
        return f"-({render(tree[1])})"
    if kind == "^":
        return f"({render(tree[1])})^{tree[2]}"
    return f"({render(tree[1])}) {kind} ({render(tree[2])})"


def degree_bound(tree) -> int:
    kind = tree[0]
    if kind == "var":
        return 1
    if kind in ("num", "i"):
        return 0
    if kind == "neg":
        return degree_bound(tree[1])
    if kind == "^":
        return degree_bound(tree[1]) * max(tree[2], 1)
    if kind == "*":
        return degree_bound(tree[1]) + degree_bound(tree[2])
    return max(degree_bound(tree[1]), degree_bound(tree[2]))


def build(tree, order: int) -> TruncatedSeries:
    """The tree's series over three variables, through ``order``."""
    kind = tree[0]
    if kind == "num":
        return TruncatedSeries.constant(tree[1], 3, order)
    if kind == "i":
        return TruncatedSeries.constant(I, 3, order)
    if kind == "var":
        return TruncatedSeries.variable(3, order, tree[2])
    if kind == "neg":
        return -build(tree[1], order)
    if kind == "^":
        return build(tree[1], order) ** tree[2]
    left, right = build(tree[1], order), build(tree[2], order)
    if kind == "+":
        return left + right
    if kind == "-":
        return left - right
    if kind == "*":
        return left * right
    return left.scale(ONE / right.constant_term())


@settings(max_examples=150, deadline=None)
@given(trees, st.integers(0, 4))
def test_parse_expr_matches_the_series_api(tree, order):
    exact = build(tree, max(order, degree_bound(tree)))
    expected = exact.truncate(order)
    above = sum(1 for exponents in exact.terms if sum(exponents) > order)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        parsed = parse_expr(render(tree), DECLARATION, order)
    assert parsed == expected
    dropped = [
        int(re.match(r"(\d+) term\(s\) above order", str(w.message))[1])
        for w in caught
        if issubclass(w.category, TruncationWarning)
    ]
    assert dropped == ([above] if above else [])


def test_first_bad_division_in_reading_order_is_reported():
    cases = {
        "1/z1 - 1/z2": 2,
        "1/z1 + 1/z2": 2,
        "(1/z1)*(1/z2)": 3,
        "z2/(1 - 1) / z1": 3,
        "-(z1/z2) - (1/(z1 - z1))": 5,
    }
    for text, column in cases.items():
        with pytest.raises(ParseError) as info:
            parse_expr(text, "z:2", 3)
        assert "nonzero constant" in str(info.value)
        assert (info.value.line, info.value.column) == (1, column), text


def test_syntax_errors_come_before_division_errors():
    with pytest.raises(ParseError, match="expected '\\)'") as info:
        parse_expr("1/z1 + (z2", "z:2", 3)
    assert info.value.column == 11
