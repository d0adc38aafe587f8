from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crkit.corpus import sphere, sphere_dilation, write_corpus
from crkit.documents import (
    DocumentError,
    FORMAT_VERSION,
    parse_document,
    read_document,
    serialize,
    serialize_report,
    write_document,
)
from crkit.hypersurface import Hypersurface
from crkit.rational import GaussRational, I, ONE
from crkit.reflection import FormalMap, build_reflection_report
from crkit.series import SeriesMap, TruncatedSeries, multi_indices

GOLDEN = Path(__file__).parent / "golden" / "crkit-series-1"
CORPUS = Path(__file__).parent.parent / "corpus"


def golden_text(name):
    return (GOLDEN / name).read_text(encoding="ascii")


def test_series_document_matches_golden(sphere):
    text = serialize(sphere.rho, variables=(("z", 2), ("w", 2)))
    assert text == golden_text("sphere_series.crkit")


def test_hypersurface_document_matches_golden(sphere):
    assert serialize(sphere) == golden_text("sphere_hypersurface.crkit")


def test_map_document_matches_golden(dilation):
    assert serialize(dilation) == golden_text("dilation_map.crkit")


def test_series_round_trip(sphere):
    text = serialize(sphere.rho, variables=(("z", 2), ("w", 2)))
    parsed = parse_document(text)
    assert isinstance(parsed, TruncatedSeries)
    assert parsed == sphere.rho
    assert serialize(parsed, variables=(("z", 2), ("w", 2))) == text


def test_hypersurface_round_trip(sphere):
    parsed = parse_document(serialize(sphere))
    assert isinstance(parsed, Hypersurface)
    assert parsed.rho == sphere.rho
    assert parsed.phi == sphere.phi
    assert parsed.normal == sphere.normal
    assert serialize(parsed) == serialize(sphere)


def test_map_round_trip(dilation):
    text = serialize(dilation)
    parsed = parse_document(text)
    assert isinstance(parsed, SeriesMap)
    assert parsed == dilation
    assert serialize(parsed) == text


def test_file_round_trip(tmp_path, sphere):
    path = tmp_path / "s.crkit"
    write_document(path, sphere)
    loaded = read_document(path)
    assert loaded.rho == sphere.rho
    # bytes on disk end with a single LF and contain no CR
    raw = path.read_bytes()
    assert raw.endswith(b"end\n")
    assert b"\r" not in raw


def test_a_file_that_is_not_utf8_is_a_document_error(tmp_path):
    # a 0xff byte in the second line, which starts at offset 15
    path = tmp_path / "latin.crkit"
    path.write_bytes(FORMAT_VERSION.encode() + b"\nkind s\xffries\n")
    with pytest.raises(DocumentError) as info:
        read_document(path)
    assert info.value.problems == ["not UTF-8: byte 0xff at offset 21 does not decode"]


def test_term_ordering_is_graded_lex():
    series = TruncatedSeries(
        2, 4,
        {(2, 0): ONE, (0, 1): I, (1, 1): GaussRational(3), (1, 0): ONE},
    )
    lines = serialize(series).splitlines()
    body = [line for line in lines if line.startswith("term ")]
    assert body == [
        "term 0 1 0/1 1/1",
        "term 1 0 1/1 0/1",
        "term 1 1 3/1 0/1",
        "term 2 0 1/1 0/1",
    ]


def test_fraction_tokens_are_reduced():
    series = TruncatedSeries(1, 2, {(1,): GaussRational(Fraction(6, 4))})
    assert "term 1 3/2 0/1" in serialize(series)


def collect_problems(text):
    with pytest.raises(DocumentError) as info:
        parse_document(text)
    return str(info.value)


def test_version_rejected():
    message = collect_problems("crkit-series/2\nkind series\n")
    assert "crkit-series/1" in message


def test_unknown_kind_rejected():
    message = collect_problems(FORMAT_VERSION + "\nkind polynomial\nend\n")
    assert "kind" in message


def test_reflection_report_serializes_but_never_parses(shear, quadric):
    fm = FormalMap(shear, quadric, quadric)
    report = build_reflection_report(fm)
    text = serialize_report(report)
    lines = text.splitlines()
    assert lines[0] == FORMAT_VERSION
    assert lines[1] == "kind reflection-report"
    assert lines[-1] == "end"
    assert any(line.startswith("r0 ") and "e-" in line for line in lines)
    assert "polynomial true" in lines
    with pytest.raises(DocumentError, match="reflection-report"):
        parse_document(text)


def test_all_problems_reported_together():
    text = (
        FORMAT_VERSION + "\n"
        "kind series\n"
        "vars z:1\n"
        "order 2\n"
        "terms 3\n"
        "term 1 2/4 0/1\n"      # fraction not in lowest terms
        "term 2 0/1 0/1\n"      # zero coefficient stored
        "term 3 1/1 0/1\n"      # degree above order
        "end\n"
        "junk\n"
    )
    message = collect_problems(text)
    for needle in ("2/4", "zero", "degree", "line 10"):
        assert needle in message, needle


def test_unsorted_terms_rejected():
    text = (
        FORMAT_VERSION + "\n"
        "kind series\n"
        "vars z:1\n"
        "order 3\n"
        "terms 2\n"
        "term 2 1/1 0/1\n"
        "term 1 1/1 0/1\n"
        "end\n"
    )
    assert "ascending" in collect_problems(text)


def test_duplicate_exponent_rejected():
    text = (
        FORMAT_VERSION + "\n"
        "kind series\n"
        "vars z:1\n"
        "order 3\n"
        "terms 2\n"
        "term 1 1/1 0/1\n"
        "term 1 2/1 0/1\n"
        "end\n"
    )
    assert "ascending" in collect_problems(text)


def test_non_canonical_integers_rejected():
    text = (
        FORMAT_VERSION + "\n"
        "kind series\n"
        "vars z:1\n"
        "order 03\n"
        "terms 1\n"
        "term 1 1/1 0/1\n"
        "end\n"
    )
    assert "canonical" in collect_problems(text)


@pytest.mark.parametrize("arity", ["01", "0"])
def test_non_canonical_arity_rejected(arity):
    # z:01 would read as z:1 and serialize back as z:1, so two byte strings
    # would name one value
    text = (
        FORMAT_VERSION + "\n"
        "kind series\n"
        f"vars z:{arity}\n"
        "order 2\n"
        "terms 1\n"
        "term 1 1/1 0/1\n"
        "end\n"
    )
    assert f"z:{arity}" in collect_problems(text)


def test_sign_on_denominator_rejected():
    text = (
        FORMAT_VERSION + "\n"
        "kind series\n"
        "vars z:1\n"
        "order 2\n"
        "terms 1\n"
        "term 1 1/-1 0/1\n"
        "end\n"
    )
    assert collect_problems(text)


def test_missing_end_rejected():
    text = (
        FORMAT_VERSION + "\n"
        "kind series\n"
        "vars z:1\n"
        "order 2\n"
        "terms 0\n"
    )
    assert "end" in collect_problems(text)


def test_missing_trailing_newline_rejected():
    good = serialize(TruncatedSeries(1, 2, {(1,): ONE}))
    assert collect_problems(good.rstrip("\n"))


def test_crlf_rejected():
    good = serialize(TruncatedSeries(1, 2, {(1,): ONE}))
    assert "LF" in collect_problems(good.replace("\n", "\r\n"))


def test_term_arity_mismatch_rejected():
    text = (
        FORMAT_VERSION + "\n"
        "kind series\n"
        "vars z:2\n"
        "order 2\n"
        "terms 1\n"
        "term 1 1/1 0/1\n"
        "end\n"
    )
    assert collect_problems(text)


def test_term_count_mismatch_rejected():
    text = (
        FORMAT_VERSION + "\n"
        "kind series\n"
        "vars z:1\n"
        "order 2\n"
        "terms 2\n"
        "term 1 1/1 0/1\n"
        "end\n"
    )
    assert collect_problems(text)


def test_normal_flag_contradiction_rejected(perturbed_sphere):
    text = serialize(perturbed_sphere)
    assert "normal false" in text
    lied = text.replace("normal false", "normal true")
    assert "contradicts" in collect_problems(lied)


@pytest.mark.parametrize("order", [0, 1])
def test_hypersurface_below_order_two_rejected_at_the_order_line(order):
    # the sphere's document cut to its terms of degree at most the order
    terms = ["term 0 0 0 1 0/1 1/2", "term 0 1 0 0 0/1 -1/2"][: 2 * order]
    text = "\n".join([
        FORMAT_VERSION, "kind hypersurface", "n 2", "vars z:2 w:2", f"order {order}",
        f"terms {len(terms)}", *terms, "normal true", "end", "",
    ])
    message = collect_problems(text)
    assert message == f"line 5: defining series needs order >= 2, got {order}"


def test_hypersurface_reality_enforced_on_parse():
    # a parsed hypersurface must satisfy the reality identity; build a doc
    # whose series is not real and watch construction fail
    # sphere-like document whose z1*w1 coefficient i breaks the symmetry
    # rho(z, w) = conj-swap rho(w, z)
    text = (
        FORMAT_VERSION + "\n"
        "kind hypersurface\n"
        "n 2\n"
        "vars z:2 w:2\n"
        "order 4\n"
        "terms 3\n"
        "term 0 0 0 1 0/1 1/2\n"
        "term 0 1 0 0 0/1 -1/2\n"
        "term 1 0 1 0 0/1 1/1\n"
        "normal false\n"
        "end\n"
    )
    from crkit.errors import GeometryError
    with pytest.raises(GeometryError):
        parse_document(text)


def test_report_kind_rejected_on_parse():
    text = FORMAT_VERSION + "\nkind reflection-report\nend\n"
    message = collect_problems(text)
    assert "reflection-report" in message


def test_empty_document_rejected():
    assert collect_problems("")


def test_write_corpus_reproduces_shipped_corpus(tmp_path):
    written = sorted(Path(p).name for p in write_corpus(tmp_path))
    assert written == sorted(p.name for p in CORPUS.glob("*.crkit"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (CORPUS / name).read_bytes(), name


def term_block_document(terms):
    return (
        FORMAT_VERSION + "\n"
        "kind series\n"
        "vars z:2\n"
        "order 3\n"
        f"terms {len(terms)}\n"
        + "".join(f"term {term}\n" for term in terms)
        + "end\n"
    )


# a term line and the problems it alone gives, on line 6 of its document
TERM_CASES = [
    ("1 0 +1/2 0/1", ["line 6: real part '+1/2' is not in canonical lowest terms"]),
    ("1 0 1/-2 0/1", ["line 6: real part '1/-2' is not in canonical lowest terms"]),
    ("1 0 2/4 0/1", ["line 6: real part '2/4' is not in canonical lowest terms"]),
    ("1 0 1/0 0/1", ["line 6: real part '1/0' is not a valid fraction"]),
    ("1 0 a/2 0/1", ["line 6: real part 'a/2' is not a valid fraction"]),
    ("1 0 01/2 0/1", ["line 6: real part '01/2' is not in canonical lowest terms"]),
    ("1 0 -0/1 0/1", ["line 6: real part '-0/1' is not in canonical lowest terms"]),
    ("1 0 1/01 0/1", ["line 6: real part '1/01' is not in canonical lowest terms"]),
    ("1 0 1_0/3 0/1", ["line 6: real part '1_0/3' is not in canonical lowest terms"]),
    ("1 0 1/2 0/2", ["line 6: imaginary part '0/2' is not in canonical lowest terms"]),
    # past int's default limit on digits in a string
    ("1 0 1/2 " + "7" * 5000 + "/3", ["line 6: imaginary part numerator has 5000 digits, too many to read"]),
    ("1 0 -" + "7" * 5000 + "/3 0/1", ["line 6: real part numerator has 5000 digits, too many to read"]),
    ("1 0 1/" + "3" * 5000 + " 0/1", ["line 6: real part denominator has 5000 digits, too many to read"]),
    # beside a part that is not plain digits too
    ("1 0 a/" + "3" * 5000 + " 0/1", ["line 6: real part denominator has 5000 digits, too many to read"]),
    ("7" * 5000 + " 0 1/2 0/1", ["line 6: exponent has 5000 digits, too many to read"]),
    ("1 0 1/2 1", ["line 6: imaginary part '1' must be written p/q"]),
    ("01 0 1/2 0/1", ["line 6: exponent '01' is not a canonical integer"]),
    ("-1 0 1/2 0/1", ["line 6: exponent must be nonnegative, got -1"]),
    ("0 +1 1/2 0/1", ["line 6: exponent '+1' is not a canonical integer"]),
    # every bad token of a line is reported, exponents first
    ("01 -1 2/4 1/0", [
        "line 6: exponent '01' is not a canonical integer",
        "line 6: exponent must be nonnegative, got -1",
        "line 6: real part '2/4' is not in canonical lowest terms",
        "line 6: imaginary part '1/0' is not a valid fraction",
    ]),
    ("2 2 1/2 0/1", ["line 6: term degree 4 exceeds the declared order 3"]),
    ("1 0 0/1 0/1", ["line 6: zero coefficients must be omitted"]),
]


@pytest.mark.parametrize("term, problems", TERM_CASES)
def test_term_token_diagnostics_are_exact(term, problems):
    with pytest.raises(DocumentError) as info:
        parse_document(term_block_document([term]))
    assert info.value.problems == problems


# the bad line at each position of a three-line block; the valid lines
# ascend around (1, 0), the one bad line that reads as a term. A degree
# past the order is left out: no valid line can follow it in order.
BLOCKS = (
    [None, "2 1 1/1 0/1", "3 0 1/1 0/1"],
    ["0 0 1/1 0/1", None, "3 0 1/1 0/1"],
    ["0 0 1/1 0/1", "0 1 1/1 0/1", None],
)


@pytest.mark.parametrize("position", range(len(BLOCKS)))
@pytest.mark.parametrize("term, problems", [case for case in TERM_CASES if "exceeds" not in case[1][0]])
def test_one_bad_line_in_a_block_gives_what_it_gives_alone(term, problems, position):
    terms = [term if line is None else line for line in BLOCKS[position]]
    with pytest.raises(DocumentError) as info:
        parse_document(term_block_document(terms))
    assert info.value.problems == [p.replace("line 6:", f"line {6 + position}:") for p in problems]


KEY_VALUE_CASES = {
    "order": (
        "kind series\nvars z:2\norder 01\nterms 1\nterm 1 0 1/2 0/1\n",
        ["line 4: order '01' is not a canonical integer",
         "line 6: expected 'end', found 'term 1 0 1/2 0/1'"],
    ),
    "terms": (
        "kind series\nvars z:2\norder 3\nterms -1\n",
        ["line 5: terms must be nonnegative, got -1"],
    ),
    "components": (
        "kind map\nvars z:1\norder 2\ncomponents 0\n",
        ["line 5: a map needs at least one component"],
    ),
    "component": (
        "kind map\nvars z:1\norder 2\ncomponents 1\ncomponent 2\nterms 1\nterm 1 1/1 0/1\n",
        ["line 6: component label '2', expected 1"],
    ),
    "n": (
        "kind hypersurface\nn 1\nvars z:1 w:1\norder 2\nterms 0\nnormal true\n",
        ["line 3: n must be at least 2, got 1"],
    ),
    "normal": (
        "kind hypersurface\nn 2\nvars z:2 w:2\norder 2\nterms 0\nnormal yes\n",
        ["line 7: normal flag must be true or false, got 'yes'"],
    ),
}


@pytest.mark.parametrize("key", sorted(KEY_VALUE_CASES))
def test_key_value_problems_name_their_own_line(key):
    body, problems = KEY_VALUE_CASES[key]
    with pytest.raises(DocumentError) as info:
        parse_document(FORMAT_VERSION + "\n" + body + "end\n")
    assert info.value.problems == problems


@pytest.mark.parametrize("old, new, problems", [
    ("vars z:2 w:2", "vars z:2 u:2",
     ["line 4: hypersurface documents must declare variables z:n w:n"]),
    ("normal true", "normal false",
     ["line 10: declared normal flag contradicts the series"]),
])
def test_problems_found_after_end_name_their_own_line(old, new, problems):
    # both are found once the whole document is read, past its last line 11
    text = (CORPUS / "sphere.crkit").read_text(encoding="ascii")
    assert text.count(old) == 1
    with pytest.raises(DocumentError) as info:
        parse_document(text.replace(old, new))
    assert info.value.problems == problems


# structural refusals: a missing or misspelt key line, an unusable vars
# line, and a map whose blocks stop early. Each is a DocumentError, which
# the CLI reports with exit 2.
STRUCTURE_CASES = {
    "no kind line": ("vars x:1\norder 2\nterms 0\nend\n", [
        "line 2: expected 'kind' line, found 'vars x:1'",
    ]),
    "misspelt key": ("kind series\nvars x:1\nordr 3\nterms 0\nend\n", [
        "line 4: expected 'order' line, found 'ordr 3'",
    ]),
    "repeated group": ("kind series\nvars x:1 x:2\norder 2\nterms 0\nend\n", [
        "line 3: bad variable group 'x:2'",
    ]),
    "group i": ("kind series\nvars i:1\norder 2\nterms 0\nend\n", [
        "line 3: bad variable group 'i:1'", "line 3: no usable variable groups",
    ]),
    "ends after vars": ("kind series\nvars x:1\n", [
        "line 4: unexpected end of document, expected 'order'",
    ]),
    "map ends after a component": (
        "kind map\nvars x:1\norder 2\ncomponents 2\ncomponent 1\nterms 0\n",
        ["line 8: unexpected end of document, expected 'component'"],
    ),
    "component without terms": (
        "kind map\nvars x:1\norder 2\ncomponents 1\ncomponent 1\nend\n",
        ["line 7: expected 'terms' line, found 'end'"],
    ),
    "terms block cut short": (
        "kind map\nvars x:1\norder 2\ncomponents 2\ncomponent 1\nterms 2\n"
        "term 1 1/1 0/1\ncomponent 2\nterms 1\nterm 1 1/1 0/1\nend\n",
        ["line 9: expected a 'term' line"],
    ),
}


@pytest.mark.parametrize("case", sorted(STRUCTURE_CASES))
def test_structural_problems_are_exact(case):
    body, problems = STRUCTURE_CASES[case]
    with pytest.raises(DocumentError) as info:
        parse_document(FORMAT_VERSION + "\n" + body)
    assert info.value.problems == problems


def test_order_token_past_the_digit_limit_is_reported():
    # a DocumentError, not a bare ValueError from int()
    text = term_block_document(["1 0 1/2 0/1"]).replace("order 3", "order " + "7" * 5000)
    with pytest.raises(DocumentError) as info:
        parse_document(text)
    assert "order has 5000 digits, too many to read" in info.value.problems[0]


def test_graded_lex_check_covers_terms_beyond_the_order():
    # (0, 5) has degree 5 > 3, so its entries reach past the packing base;
    # the ascending check must still compare exponent tuples
    text = (
        FORMAT_VERSION + "\n"
        "kind series\n"
        "vars z:2\n"
        "order 3\n"
        "terms 3\n"
        "term 0 5 1/1 0/1\n"
        "term 5 0 1/1 0/1\n"
        "term 1 4 1/1 0/1\n"
        "end\n"
    )
    with pytest.raises(DocumentError) as info:
        parse_document(text)
    assert info.value.problems == [
        "line 6: term degree 5 exceeds the declared order 3",
        "line 7: term degree 5 exceeds the declared order 3",
        "line 8: term degree 5 exceeds the declared order 3",
        "line 8: terms must be strictly ascending in graded-lex order",
    ]


def test_map_with_unrelated_denominators_round_trips_byte_for_byte():
    text = (
        FORMAT_VERSION + "\n"
        "kind map\n"
        "vars x:2\n"
        "order 3\n"
        "components 2\n"
        "component 1\n"
        "terms 4\n"
        "term 0 1 0/1 -5/9\n"
        "term 1 0 3/7 0/1\n"
        "term 2 0 -1/11 4/13\n"
        "term 1 2 25/6 -1/1\n"
        "component 2\n"
        "terms 3\n"
        "term 0 1 1/1 0/1\n"
        "term 1 1 -7/12 1/35\n"
        "term 0 3 2/1 -3/2\n"
        "end\n"
    )
    parsed = parse_document(text)
    assert isinstance(parsed, SeriesMap)
    assert parsed.components[0].coefficient((2, 0)) == GaussRational(Fraction(-1, 11), Fraction(4, 13))
    assert parsed.components[1].coefficient((1, 1)) == GaussRational(Fraction(-7, 12), Fraction(1, 35))
    assert parsed == SeriesMap(
        TruncatedSeries(2, 3, dict(component.terms)) for component in parsed.components
    )
    assert serialize(parsed) == text


def test_components_after_a_bad_block_are_still_read():
    text = (
        FORMAT_VERSION + "\n"
        "kind map\n"
        "vars x:1\n"
        "order 2\n"
        "components 2\n"
        "component 1\n"
        "terms 2\n"
        "term 1 1/1 0/1\n"
        "term 2 2/4 0/1\n"
        "component 2\n"
        "terms 1\n"
        "term 2 1/1 0/0\n"
        "end\n"
    )
    with pytest.raises(DocumentError) as info:
        parse_document(text)
    assert info.value.problems == [
        "line 9: real part '2/4' is not in canonical lowest terms",
        "line 12: imaginary part '0/0' is not a valid fraction",
    ]


# ---------------------------------------------------------------------------
# serialize writes only documents that parse back


@pytest.mark.parametrize("obj, variables, group", [
    (TruncatedSeries.constant(3, 0, 2), None, "x:0"),
    (SeriesMap([TruncatedSeries.constant(1, 0, 2)]), None, "x:0"),
    (TruncatedSeries.variable(2, 2, 0), (("z", 2), ("w", 0)), "w:0"),
    (TruncatedSeries.variable(2, 2, 0), (("i", 2),), "i:2"),
    (TruncatedSeries.variable(2, 2, 0), (("z", 1), ("z", 1)), "z:1"),
    (TruncatedSeries.variable(2, 2, 0), (("z1", 2),), "z1:2"),
    (SeriesMap.identity(2, 2), (("w", 1), ("i", 1)), "i:1"),
    (SeriesMap.identity(2, 2), (("lambda3", 2),), "lambda3:2"),
])
def test_serialize_refuses_groups_parse_rejects(obj, variables, group):
    with pytest.raises(ValueError, match=f"variable group '{group}'"):
        serialize(obj, variables)


@pytest.mark.parametrize("empty", [(), []])
@pytest.mark.parametrize("obj, holder", [
    (TruncatedSeries.variable(2, 2, 0), "series has"),
    (SeriesMap.identity(2, 2), "map reads"),
])
def test_serialize_takes_an_empty_declaration_as_given(obj, holder, empty):
    # an empty declaration is a declaration of 0 slots, not the default x:n
    with pytest.raises(ValueError, match=f"variable groups declare 0 slots, {holder} 2"):
        serialize(obj, empty)


def test_serialize_refuses_an_empty_declaration_over_no_variables():
    with pytest.raises(ValueError, match="variable groups declare none"):
        serialize(TruncatedSeries.constant(3, 0, 2), ())


GROUP_NAMES = ["z", "w", "zp", "lambda", "_q", "Z", "i", "z1", "x y", ""]
# small parts, and parts with multi-digit numerators and denominators
parts = st.fractions(min_value=-3, max_value=3, max_denominator=5) | st.fractions(
    min_value=-10**4, max_value=10**4, max_denominator=997
)
coefficients = st.builds(GaussRational, parts) | st.builds(GaussRational, parts, parts)


@st.composite
def small_series(draw, nvars, order):
    chosen = draw(st.lists(st.sampled_from(multi_indices(nvars, order)), max_size=8, unique=True))
    return TruncatedSeries(nvars, order, {e: draw(coefficients) for e in chosen})


def readable(groups, nvars):
    if groups is None:
        return nvars > 0
    if not groups:
        return False
    names = [name for name, _ in groups]
    return len(set(names)) == len(names) and all(
        name.replace("_", "a").isalpha() and name.isascii() and name != "i" and arity > 0
        for name, arity in groups
    )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_document_serialize_writes_parses_back(data):
    groups = data.draw(st.none() | st.lists(
        st.tuples(st.sampled_from(GROUP_NAMES), st.integers(0, 2)), max_size=3
    ).map(tuple))
    nvars = data.draw(st.integers(0, 5)) if groups is None else sum(a for _, a in groups)
    order = data.draw(st.integers(0, 6))
    components = data.draw(st.lists(small_series(nvars, order), min_size=1, max_size=2))
    obj = components[0] if data.draw(st.booleans()) else SeriesMap(components)
    if not readable(groups, nvars):
        with pytest.raises(ValueError, match="variable group"):
            serialize(obj, groups)
        return
    text = serialize(obj, groups)
    parsed = parse_document(text)
    assert parsed == obj
    # the whole integer form reads back, the is_complex flag included
    read = parsed.components if isinstance(parsed, SeriesMap) else (parsed,)
    assert [c._form for c in read] == [c._form for c in components[:len(read)]]
    assert serialize(parsed, groups) == text
