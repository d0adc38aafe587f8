"""Randomized algebraic laws, checked exactly on every generated case."""

import copy
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings, strategies as st

import crkit.series
from crkit import corpus
from crkit.documents import FORMAT_VERSION, parse_document, serialize
from crkit.errors import GeometryError, PrerequisiteError
from crkit.hypersurface import (
    DegeneracyResult, MinimalityVerdict, _axis_graph, _is_normal, _straight_axis, degeneracy,
    from_defining, graph_residual, is_minimal, normalize, normalizing_change, phi_family,
    reality_defect, segre_maps,
)
from crkit.linalg import determinant
from crkit.parser import parse_expr
from crkit.rank import CERTIFIED, generic_rank, matrix_generic_rank
from crkit.rational import GaussRational, I, ONE, ZERO
from crkit.reflection import (
    FormalMap, MapVerdict, _minimal_source, check_maps_into, convergence_evidence, exp_of,
    partial_convergence, reflection_at_lambda_zero, reflection_function,
    segre_reflection_identity, u_family,
)
from crkit.series import (
    SeriesMap, TruncatedSeries, _ONE_FORM, _exponents, _sum_of_products, _sum_of_products_form,
    _weights, compose, format_monomial, format_series, grlex_key, multi_factorial, multi_indices,
    unit_exponent,
)
from crkit.solvers import _negated, implicit_solve, invert_map


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


# drawn nonzero, not filtered: a filter throws away each zero it draws.
# The values are those of small_fractions without 0, and a zero real part
# is followed by a nonzero imaginary one.
nonzero_fractions = st.builds(
    operator.mul, st.sampled_from((1, -1)),
    st.fractions(min_value=Fraction(1, 6), max_value=4, max_denominator=6),
)
nonzero_rationals = small_fractions.flatmap(
    lambda re: st.builds(GaussRational, st.just(re), small_fractions if re else nonzero_fractions)
)


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


@given(series(nvars=2, order=6), st.integers(0, 9))
def test_power_matches_repeated_multiplication(a, k):
    reference = TruncatedSeries.constant(ONE, a.nvars, a.order)
    for _ in range(k):
        reference = reference * a
    assert a ** k == reference


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
            j = draw(st.sampled_from([0, 1]))
            fast.append(j)
            general.append(TruncatedSeries.variable(3, order, j) + t)
        elif kind == "zero":
            fast.append(None)
            general.append(t * t)
        else:
            g = draw(series(nvars=2, order=order, min_degree=1))
            g = compose(g, SeriesMap.from_slots(3, order, [0, 1]))
            fast.append(g)
            general.append(g)
    return SeriesMap.from_slots(3, order, fast), SeriesMap(general)


@given(series(nvars=3), slot_maps())
def test_compose_plain_and_zero_slots_match_general_expansion(s, maps):
    # setting t = 0 after substituting recovers the plain and zero slots
    fast, general = maps
    expanded = compose(s, general)
    result = compose(s, fast)
    assert result.order == expanded.order
    assert dict(result.terms) == {e: c for e, c in expanded.terms.items() if e[2] == 0}


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


# ---------------------------------------------------------------------------
# the product kernel against a plain Fraction convolution
#
# Series are compared with reference terms {exponents: (re, im)} computed
# with Fraction arithmetic alone, so a wrong common denominator, a lost
# imaginary part or a stored zero shows up as a coefficient mismatch.

FRACTION_ZERO = (Fraction(0), Fraction(0))


def ref_terms(s):
    return {e: (c.re, c.im) for e, c in s.terms.items()}


def ref_mul(a, b, order):
    """Product of two reference term dicts through total degree ``order``."""
    out = {}
    for e1, (r1, i1) in a.items():
        for e2, (r2, i2) in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) > order:
                continue
            r, i = out.get(e, FRACTION_ZERO)
            out[e] = (r + r1 * r2 - i1 * i2, i + r1 * i2 + i1 * r2)
    return {e: v for e, v in out.items() if v != FRACTION_ZERO}


def ref_add(a, b, scale=(Fraction(1), Fraction(0))):
    """a + scale * b, as reference term dicts."""
    sr, si = scale
    out = dict(a)
    for e, (r, i) in b.items():
        ar, ai = out.get(e, FRACTION_ZERO)
        out[e] = (ar + sr * r - si * i, ai + sr * i + si * r)
    return {e: v for e, v in out.items() if v != FRACTION_ZERO}


def ref_expand(outer, components, src, order):
    """Substitute reference component dicts for the variables of ``outer``."""
    out = {}
    for e, coeff in outer.items():
        if sum(e) > order:
            continue
        term = {(0,) * src: (Fraction(1), Fraction(0))}
        for component, k in zip(components, e):
            for _ in range(k):
                term = ref_mul(term, component, order)
        out = ref_add(out, term, coeff)
    return out


def assert_matches(s, reference):
    assert set(s.terms) == set(reference)
    for e, c in s.terms.items():
        assert type(c.re) is Fraction and type(c.im) is Fraction
        assert (c.re, c.im) == reference[e]
        assert (repr(c.re), repr(c.im)) == tuple(map(repr, reference[e]))


# unrelated denominators, so operands rarely share one
kernel_denominators = st.sampled_from([1, 2, 3, 4, 5, 7, 9, 11, 12, 13, 25, 49])
kernel_parts = st.builds(Fraction, st.integers(-6, 6), kernel_denominators)
kernel_coefficients = st.one_of(
    st.builds(GaussRational, kernel_parts),
    st.builds(lambda im: GaussRational(0, im), kernel_parts),
    st.builds(GaussRational, kernel_parts, kernel_parts),
)
# the values of kernel_coefficients without 0, drawn directly: a zero real
# part is followed by a nonzero imaginary one
nonzero_kernel_parts = st.builds(
    Fraction, st.sampled_from([*range(-6, 0), *range(1, 7)]), kernel_denominators
)
nonzero_kernel_coefficients = st.one_of(
    st.builds(GaussRational, nonzero_kernel_parts),
    st.builds(lambda im: GaussRational(0, im), nonzero_kernel_parts),
    kernel_parts.flatmap(
        lambda re: st.builds(GaussRational, st.just(re), kernel_parts if re else nonzero_kernel_parts)
    ),
)


@st.composite
def kernel_series(draw, nvars, order, min_degree=0):
    indices = [e for e in multi_indices(nvars, order) if sum(e) >= min_degree]
    chosen = draw(st.lists(st.sampled_from(indices), max_size=8, unique=True)) if indices else []
    return TruncatedSeries(nvars, order, {e: draw(kernel_coefficients) for e in chosen})


@st.composite
def kernel_operands(draw, low=0):
    """Two series over 0-3 variables at orders 0-5, or over at least one
    variable at orders of at least one when ``low`` is 1."""
    nvars = draw(st.integers(low, 3))
    return (
        draw(kernel_series(nvars, draw(st.integers(low, 5)))),
        draw(kernel_series(nvars, draw(st.integers(low, 5)))),
    )


@given(kernel_operands())
def test_kernel_mul_matches_fraction_convolution(operands):
    a, b = operands
    product = a * b
    assert product.order == min(a.order, b.order)
    assert_matches(product, ref_mul(ref_terms(a), ref_terms(b), product.order))


@given(kernel_operands())
def test_kernel_mul_drops_cancelled_sums(operands):
    # (u + v)(u - v): every cross term u_i v_j cancels against u_j v_i
    u, v = operands
    product = (u + v) * (u - v)
    assert all(not c.is_zero() for c in product.terms.values())
    expected = ref_add(
        ref_mul(ref_terms(u), ref_terms(u), product.order),
        ref_mul(ref_terms(v), ref_terms(v), product.order),
        (Fraction(-1), Fraction(0)),
    )
    assert_matches(product, expected)


@st.composite
def kernel_compositions(draw):
    targets = draw(st.integers(1, 3))
    src = draw(st.integers(0, 2))
    outer = draw(kernel_series(targets, draw(st.integers(0, 5))))
    order = draw(st.integers(0, 5))
    kinds = draw(st.lists(st.sampled_from(["plain", "zero", "general"]), min_size=targets,
                          max_size=targets))
    components = []
    for kind in kinds:
        if kind == "plain" and src and order:
            components.append(TruncatedSeries.variable(src, order, draw(st.integers(0, src - 1))))
        elif kind == "general":
            components.append(draw(kernel_series(src, order, min_degree=1)))
        else:
            components.append(TruncatedSeries.zero(src, order))
    return outer, SeriesMap(components)


@given(kernel_compositions())
def test_kernel_compose_matches_fraction_expansion(case):
    outer, vmap = case
    result = compose(outer, vmap)
    assert result.order == min(outer.order, vmap.order)
    expected = ref_expand(
        ref_terms(outer), [ref_terms(c) for c in vmap.components], vmap.source_nvars, result.order
    )
    assert_matches(result, expected)


def refuse_kernel(*args, **kwargs):
    raise AssertionError("a relabel called the product kernel")


def compose_without_kernel(outer, vmap):
    """compose(outer, vmap) with the product kernel refusing every call: a
    relabel moves rows and multiplies nothing."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crkit.series, "_sum_of_products_form", refuse_kernel)
        return compose(outer, vmap)


def ref_relabel(outer, slots, src, order):
    """Send variable i of reference terms to source variable slots[i], or
    drop the terms that use it when the slot is None, summing terms that
    land on the same exponents."""
    out = {}
    for e, (re, im) in outer.items():
        if sum(e) > order or any(k and slot is None for k, slot in zip(e, slots)):
            continue
        shifted = [0] * src
        for k, slot in zip(e, slots):
            if k:
                shifted[slot] += k
        r, i = out.get(tuple(shifted), FRACTION_ZERO)
        out[tuple(shifted)] = (r + re, i + im)
    return {e: v for e, v in out.items() if v != FRACTION_ZERO}


@st.composite
def relabel_cases(draw):
    targets = draw(st.integers(1, 3))
    src = draw(st.integers(0, 2))
    slot = st.one_of(st.none(), st.integers(0, src - 1)) if src else st.none()
    slots = draw(st.lists(slot, min_size=targets, max_size=targets))
    # orders count down from 4, so examples lean to the deeper orders and still reach 0
    outer_order = 4 - draw(st.integers(0, 4))
    chosen = draw(st.lists(st.sampled_from(multi_indices(targets, outer_order)), max_size=6))
    terms = {e: draw(kernel_coefficients) for e in chosen}
    if src and targets >= 2 and draw(st.sampled_from(["coincide", "as drawn"])) == "coincide":
        # slots 0 and 1 name the same variable, and each term gets a partner
        # with its exponents on them exchanged and the opposite coefficient:
        # the two coincide and cancel
        slots[0] = slots[1] = draw(st.integers(0, src - 1))
        for e, c in list(terms.items()):
            if e[0] != e[1]:
                terms[(e[1], e[0]) + e[2:]] = -c
    outer = TruncatedSeries(targets, outer_order, terms)
    return outer, slots, src, 4 - draw(st.integers(0, 4))


@given(relabel_cases())
@example((TruncatedSeries(2, 2, {(1, 0): ONE, (0, 1): ONE}), [0, 0], 1, 2))
@example((TruncatedSeries(2, 2, {(1, 0): ONE, (0, 1): -ONE}), [0, 0], 1, 2))
@example((TruncatedSeries(2, 3, {(2, 1): ONE, (1, 2): -ONE, (1, 0): ONE}), [1, 1], 2, 3))
@example((TruncatedSeries(2, 3, {(0, 0): ONE, (1, 1): ONE}), [0, 1], 2, 0))
@example((TruncatedSeries(2, 3, {(0, 0): ONE, (1, 0): ONE}), [None, None], 0, 3))
# two halves meet in 1 and the content gcd falls from 2 to 1
@example((TruncatedSeries(2, 2, {(1, 0): GaussRational(Fraction(1, 2)), (0, 1): GaussRational(Fraction(1, 2))}), [0, 0], 1, 2))
def test_relabel_compose_matches_reference(case):
    outer, slots, src, order = case
    result = compose_without_kernel(outer, SeriesMap.from_slots(src, order, slots))
    assert_primitive(result)
    assert result.nvars == src
    assert result.order == min(outer.order, order)
    assert_matches(result, ref_relabel(ref_terms(outer), slots, src, result.order))


@st.composite
def slot_runs(draw):
    """4-6 outer slots laid out in runs: consecutive source variables (or a
    block swap of two halves), zero runs, general slots and two slots naming
    one variable; the outer order is drawn apart from the map's, so the
    outer and result keys often have different bases."""
    targets = draw(st.integers(4, 6))
    src = draw(st.integers(2, 6))
    order = 4 - draw(st.integers(0, 4))
    outer_order = draw(st.integers(0, 6))
    if draw(st.booleans()) and src >= 2 * (targets // 2):
        half = targets // 2
        slots = [*range(half, 2 * half), *range(half)] + [None] * (targets % 2)
    else:
        slots = []
        while len(slots) < targets:
            kind = draw(st.sampled_from(["plain", "zero", "general", "twice"]))
            length = draw(st.integers(1, 3))
            if kind == "plain":
                length = min(length, src)
                start = draw(st.integers(0, src - length))
                slots.extend(range(start, start + length))
            elif kind == "zero":
                slots.extend([None] * length)
            elif kind == "general":
                slots.append(draw(kernel_series(src, order, min_degree=1)))
            else:
                slots.extend([draw(st.integers(0, src - 1))] * 2)
        slots = slots[:targets]
    if draw(st.booleans()):
        # a general slot between two zero runs
        at = draw(st.integers(1, targets - 2))
        slots[at - 1], slots[at + 1] = None, None
        slots[at] = draw(kernel_series(src, order, min_degree=1))
    chosen = draw(st.lists(st.sampled_from(multi_indices(targets, outer_order)), max_size=6))
    outer = TruncatedSeries(targets, outer_order, {e: draw(kernel_coefficients) for e in chosen})
    return outer, slots, src, order


def swap_case(half, outer_order, order):
    """Every monomial of degree <= outer_order on a block swap of two halves."""
    indices = multi_indices(2 * half, outer_order)
    outer = TruncatedSeries(2 * half, outer_order, {e: GaussRational(k + 1, k % 3) for k, e in enumerate(indices)})
    return outer, [*range(half, 2 * half), *range(half)], 2 * half, order


@settings(max_examples=60, deadline=None)
@given(slot_runs())
@example(swap_case(2, 4, 4))
@example(swap_case(2, 5, 3))
@example(swap_case(3, 3, 2))
def test_compose_slot_runs_match_references(case):
    outer, slots, src, order = case
    vmap = SeriesMap.from_slots(src, order, slots)
    relabel = all(slot is None or isinstance(slot, int) for slot in slots)
    result = (compose_without_kernel if relabel else compose)(outer, vmap)
    assert_primitive(result)
    assert result.nvars == src
    assert result.order == min(outer.order, order)
    if relabel:
        assert_matches(result, ref_relabel(ref_terms(outer), slots, src, result.order))
    expected = ref_expand(
        ref_terms(outer), [ref_terms(c) for c in vmap.components], src, result.order
    )
    assert_matches(result, expected)


# ---------------------------------------------------------------------------
# one digit walk re-keys every row
#
# series._walk reads each exponent as one digit of a packed key. The
# reference decodes every key into its exponent tuple, moves, groups and
# drops entries of the tuple, and packs it again, as the re-basing of a
# form and the solvers' grouping of F(x, y) once did.


def ref_walk(rows, nvars, base, moves, group, src, order):
    weights = _weights(order + 2, src)
    kept = {i for i, _ in moves} | set(group)
    out = {} if group else {(): []}
    for d, k, a, b in rows:
        e = _exponents(k, base, nvars)
        if d > order or any(e[i] for i in range(nvars) if i not in kept):
            continue
        moved = [0] * src
        for i, j in moves:
            moved[j] += e[i]
        pattern = tuple(e[i] for i in group)
        out.setdefault(pattern, []).append((sum(moved), sum(map(operator.mul, moved, weights)), a, b))
    return out


@st.composite
def walk_cases(draw):
    """A form over 1-5 variables at order 0-8 and a plan of one of the
    shapes the code builds: every variable moved to itself at another
    base, as ``_form_at`` and ``truncate`` re-base a form; zero, plain and
    general slots, as ``compose`` derives them; or the parameters moved,
    in the order they are named, and the unknowns grouped, as the solvers
    grade F(x, y). The plan's order is drawn apart from the form's, so
    rows above it are common."""
    nvars = draw(st.integers(1, 5))
    form_order = draw(st.integers(0, 8))
    rows = draw(kernel_series(nvars, form_order))._form[1]
    shape = draw(st.sampled_from(["re-base", "compose", "graded"]))
    order = draw(st.integers(0, 8))
    if shape == "re-base":
        src, moves, group = nvars, [(i, i) for i in range(nvars)], []
    elif shape == "compose":
        src, moves, group = draw(st.integers(1, 3)), [], []
        for i in range(nvars):
            kind = draw(st.sampled_from(["zero", "plain", "general"]))
            if kind == "plain":
                moves.append((i, draw(st.integers(0, src - 1))))
            elif kind == "general":
                group.append(i)
    else:
        params = draw(st.permutations(range(nvars)))[: draw(st.integers(1, nvars))]
        src, moves = len(params), [(p, i) for i, p in enumerate(params)]
        group = [i for i in range(nvars) if i not in params]
    return rows, nvars, form_order + 2, moves, group, src, order


@given(walk_cases())
# x1, x1 x2, x1^2 x2 at order 4 re-based to order 1, where only x1 is left
@example(([(1, 6, 1, 0), (2, 7, 2, 0), (3, 13, 3, 1)], 2, 6, [(0, 0), (1, 1)], [], 2, 1))
# x3, x1 x3, x1 x2, x1^2 x3 with x1 general, x2 zero and x3 plain
@example(([(1, 1, 1, 0), (2, 26, 2, 0), (2, 30, 1, 0), (3, 51, 1, 1)], 3, 5, [(2, 0)], [0], 1, 3))
def test_walk_matches_decoding_and_repacking(case):
    rows, nvars, base, moves, group, src, order = case
    plan = crkit.series._plan(nvars, base, moves, group, src, order)
    assert crkit.series._walk(rows, plan) == ref_walk(rows, nvars, base, moves, group, src, order)


# ---------------------------------------------------------------------------
# one power cache per composition
#
# compose substitutes every component of an outer map in one pass, forms
# each power of a general slot and each pattern product once, and forms
# each only through the degree some outer term reads it. The reference is
# its earlier body, which took one series at a time and formed every power
# at the full order; the two must give the same bytes.


def ref_compose(outer, vmap):
    if vmap.target_nvars != outer.nvars:
        raise ValueError(
            f"map produces {vmap.target_nvars} values, series expects {outer.nvars}"
        )
    if not vmap.is_origin_preserving():
        raise ValueError("composition requires an origin-preserving map")
    order = min(outer.order, vmap.order)
    base = order + 2
    src = vmap.source_nvars
    outer_base = outer.order + 2
    outer_weights = _weights(outer_base, outer.nvars)
    weights = _weights(base, src)
    slots = []
    for component in vmap.components:
        den, rows, _ = component._form
        if not rows:
            slots.append(("zero", None))
        elif den == 1 and len(rows) == 1 and rows[0][0] == 1 and rows[0][2:] == (1, 0):
            slots.append(("plain", _weights(component.order + 2, src).index(rows[0][1])))
        else:
            slots.append(("general", None))

    kills, moves, general_slots = [], [], []
    i = 0
    while i < len(slots):
        kind, j = slots[i]
        end = i + 1
        if kind == "zero":
            while end < len(slots) and slots[end][0] == "zero":
                end += 1
            kills.append((outer_weights[end - 1], outer_base ** (end - i)))
        elif kind == "plain":
            moves.append((outer_weights[i], weights[j]))
        else:
            general_slots.append(i)
        i = end
    general = [outer_weights[i] for i in general_slots]

    top = order + 1
    den, rows, is_complex = outer._form
    shifted = []
    for d, k, a, b in rows:
        if d > order:
            break
        for w, span in kills:
            if k // w % span:
                break
        else:
            key = sum([k // w % outer_base * t for w, t in moves])
            pattern = tuple([k // w % outer_base for w in general])
            shifted.append((pattern, (key % top, key, a, b)))

    if not general_slots:
        left = (den, [row for _, row in shifted], is_complex)
        return _sum_of_products([(left, _ONE_FORM)], src, order)

    one = TruncatedSeries._trusted(src, order, _ONE_FORM)
    powers = {i: [one, vmap.components[i].truncate(order)] for i in general_slots}

    def power(i, k):
        cache = powers[i]
        while len(cache) <= k:
            cache.append(cache[-1] * cache[1])
        return cache[k]

    groups = {}
    for pattern, row in shifted:
        groups.setdefault(pattern, []).append(row)
    pairs = []
    for pattern, group in groups.items():
        product = one
        for i, k in zip(general_slots, pattern):
            if k:
                factor = power(i, k)
                product = factor if product is one else product * factor
        group.sort()
        pairs.append(((den, group, is_complex), product._form_at(base)))
    return _sum_of_products(pairs, src, order)


def stored_bytes(s):
    return s.nvars, s.order, s._form


@st.composite
def shared_compositions(draw):
    """1-4 outer series over one map that mixes zero, plain and general
    slots. General slots have valuation 1 to 3, and a vanishing one has
    terms only above the composition's order, so it truncates to zero
    there. The outer order is drawn below, at or above the map's. The
    outer terms are drawn freely, or as groups: a power of the non-plain
    slots on plain parts of several degrees, or of high degree only, which
    read it least deep."""
    src = draw(st.integers(1, 3))
    targets = draw(st.integers(1, 4))
    map_order = draw(st.integers(1, 6))
    outer_order = draw(st.integers(max(0, map_order - 2), map_order + 2))
    order = min(map_order, outer_order)
    slots = []
    for _ in range(targets):
        kind = draw(st.sampled_from(["zero", "plain", "general", "deep", "vanishing"]))
        if kind == "plain":
            slots.append(draw(st.integers(0, src - 1)))
        elif kind == "general":
            slots.append(draw(kernel_series(src, map_order, min_degree=1)))
        elif kind == "deep" and map_order >= 2:
            low = draw(st.integers(2, min(3, map_order)))
            slots.append(draw(kernel_series(src, map_order, min_degree=low)))
        elif kind == "vanishing" and map_order > order:
            slots.append(draw(kernel_series(src, map_order, min_degree=order + 1)))
        else:
            slots.append(None)
    plain = [i for i, slot in enumerate(slots) if isinstance(slot, int)]
    others = [i for i in range(targets) if i not in plain]
    grouped = plain and others and draw(st.booleans())
    outers = []
    for _ in range(draw(st.integers(1, 4))):
        if not grouped:
            chosen = draw(st.lists(st.sampled_from(multi_indices(targets, outer_order)), max_size=8, unique=True))
            outers.append(TruncatedSeries(targets, outer_order, {e: draw(kernel_coefficients) for e in chosen}))
            continue
        # a few powers of the other slots, each on plain parts of several
        # degrees, or only of the highest degrees the order leaves
        terms = {}
        high = draw(st.booleans())
        for _ in range(draw(st.integers(1, 3))):
            power = draw(st.sampled_from(multi_indices(len(others), min(3, outer_order))))
            room = outer_order - sum(power)
            parts = [e for e in multi_indices(len(plain), room) if not high or sum(e) >= room - 1]
            for part in draw(st.lists(st.sampled_from(parts), min_size=1, max_size=3, unique=True)):
                e = [0] * targets
                for i, k in [*zip(others, power), *zip(plain, part)]:
                    e[i] = k
                terms[tuple(e)] = draw(kernel_coefficients)
        outers.append(TruncatedSeries(targets, outer_order, terms))
    return outers, SeriesMap.from_slots(src, map_order, slots)


X0, X1 = (TruncatedSeries.variable(2, 6, i) for i in range(2))
T0, T1, T2 = (TruncatedSeries.variable(3, 6, i) for i in range(3))


@settings(max_examples=100, deadline=None)
@given(shared_compositions())
# the second slot is x0^3, zero at the composition's order 2
@example(([T0 * T1 + T2 * T2, T0 + T1 * T2], SeriesMap.from_slots(
    2, 5, [1, TruncatedSeries(2, 5, {(3, 0): ONE}), X0 + X1 ** 2]
)))
# powers of slots of valuation 2 and 1, read only on plain parts of degree >= 3
@example(([T0 ** 4 * T1 + T0 ** 3 * T2 ** 2, T1 ** 3 + T0 ** 3 * T1 * T2, T2 ** 5], SeriesMap.from_slots(
    2, 6, [0, X0 * X0 + X1 ** 3, X1 + X0 * X1]
)))
def test_compose_matches_the_per_component_reference(case):
    outers, vmap = case
    expected = [stored_bytes(ref_compose(s, vmap)) for s in outers]
    together = compose(SeriesMap(outers), vmap)
    assert isinstance(together, SeriesMap)
    assert [stored_bytes(s) for s in together.components] == expected
    assert [stored_bytes(compose(s, vmap)) for s in outers] == expected
    assert SeriesMap(outers).compose(vmap) == together


DEEP_GERM = (
    "-(i/2)*(z3-w3) - z1*w1 - z2*w2 - (z3+w3)*(z1*w2 + z2*w1) + z3*w3*z1*w1"
    " - (z3+w3)^2*z2*w2 + (i/3)*(z3^2-w3^2)*z1*w1"
)


def test_deep_certificate_forms_y_squared_through_order_22_only(monkeypatch):
    # every z3^2 term of rho carries degree 2 in the other variables, so
    # the certificate of the order-24 solve reads Y^2 through order 22
    rho = parse_expr(DEEP_GERM, "z:3,w:3", 24)
    kernel = crkit.series._sum_of_products_form
    squares = []

    def counted(pairs, order, depth=None):
        form = kernel(pairs, order, depth)
        if depth is not None and len(pairs) == 1 and pairs[0][0] is pairs[0][1]:
            squares.append((order, form))
        return form

    monkeypatch.setattr(crkit.series, "_sum_of_products_form", counted)
    phi = from_defining(rho, 3).phi
    monkeypatch.undo()
    ((order, (_, rows, _)),) = squares
    assert order == 24
    assert max(row[0] for row in rows) == 22
    assert phi == from_defining(rho, 3).phi


def test_map_compose_forms_each_power_once(monkeypatch):
    y, z = X1 + X0 * X1, X1 * X1 + X0 ** 3
    inner = SeriesMap([X0, y, z])
    # Y^2 .. Y^4 are read by all three components, Z only as itself
    outer = SeriesMap([
        T0 * T1 ** 2 + T2,
        T1 ** 3 + T1 * T2,
        T0 ** 2 * T1 ** 4 + T1 ** 2 * T2,
    ])
    kernel = crkit.series._sum_of_products_form
    rights = []

    def counted(pairs, order, depth=None):
        if depth is not None:
            rights.extend(right for _, right in pairs)
        return kernel(pairs, order, depth)

    monkeypatch.setattr(crkit.series, "_sum_of_products_form", counted)
    composed = outer.compose(inner)
    monkeypatch.undo()
    # Y is the right factor of each power step only: Y^2, Y^3 and Y^4
    assert sum(right is y._form for right in rights) == 3
    # and the pattern products Y Z and Y^2 Z, each once
    assert sum(right is z._form for right in rights) == 2
    assert len(rights) == 5
    assert [stored_bytes(c) for c in composed.components] == [
        stored_bytes(ref_compose(c, inner)) for c in outer.components
    ]


@st.composite
def implicit_equations(draw):
    m = draw(st.integers(2, 3))
    order = draw(st.integers(1, 5))
    var = draw(st.integers(0, m - 1))
    linear = TruncatedSeries.variable(m, order, var).scale(
        draw(nonzero_kernel_coefficients)
    )
    without_var = SeriesMap.from_slots(m, order, [None if i == var else i for i in range(m)])
    return linear + compose(draw(kernel_series(m, order, min_degree=1)), without_var) + draw(
        kernel_series(m, order, min_degree=2)
    ), var


@settings(max_examples=60)
@given(implicit_equations())
def test_kernel_implicit_solve_matches_fixed_point(case):
    rho, var = case
    m, order = rho.nvars, rho.order
    c = rho.coefficient(tuple(1 if i == var else 0 for i in range(m)))
    norm = c.re * c.re + c.im * c.im
    inverse = (c.re / norm, -c.im / norm)
    # S <- S - rho(x, S) / c gains one exact degree per step
    variables = [
        {tuple(1 if j == i else 0 for j in range(m - 1)): (Fraction(1), Fraction(0))}
        for i in range(m - 1)
    ]
    reference = {}
    for _ in range(order):
        components = variables[:var] + [reference] + variables[var:]
        residual = ref_expand(ref_terms(rho), components, m - 1, order)
        reference = ref_add(reference, residual, (-inverse[0], -inverse[1]))
    assert_matches(implicit_solve(rho, var), reference)


# ---------------------------------------------------------------------------
# the graph identity, proved rather than checked by from_defining
#
# Reality and the solver's certificate prove phi(w', phibar(z, w'), z') =
# z_n (see the from_defining docstring), so the suite tests the identity
# and from_defining does not spend a substitution on it per call.


@st.composite
def real_germs(draw, straight_axis=False, n=None):
    """Real defining series, n = 2 and 3 or the ``n`` given, orders 2-10.

    With ``straight_axis`` (orders 2-8) the germ restricted to z' = w' = 0
    is i r (z_n - w_n), so M meets {z' = 0} in the real axis: these are the
    germs one normalize step takes to normal coordinates.
    """
    if n is None:
        n = draw(st.sampled_from((2, 3)))
    order = draw(st.integers(2, 8 if straight_axis else 10))
    m = 2 * n
    terms = {}

    def add_pair(exponents, coeff):
        # coeff z^a w^b plus its mirror conj(coeff) z^b w^a keeps rho real
        mirror = exponents[n:] + exponents[:n]
        terms[exponents] = terms.get(exponents, ZERO) + coeff
        terms[mirror] = terms.get(mirror, ZERO) + coeff.conjugate()

    if straight_axis:
        lead = GaussRational(0, draw(nonzero_fractions))
    else:
        lead = draw(nonzero_rationals)
    add_pair(tuple(1 if i == n - 1 else 0 for i in range(m)), lead)
    for i in range(n - 1):  # linear terms in z' leave the graph variable alone
        add_pair(tuple(1 if j == i else 0 for j in range(m)), draw(rationals))
    higher = [
        e for e in multi_indices(m, order)
        if sum(e) >= 2 and not (straight_axis and sum(e) == e[n - 1] + e[m - 1])
    ]
    for exponents in draw(st.lists(st.sampled_from(higher), max_size=5)):
        add_pair(exponents, draw(rationals))
    return TruncatedSeries(m, order, terms), n


@settings(max_examples=60, deadline=None)
@given(real_germs())
def test_accepted_germs_satisfy_the_graph_identity(case):
    rho, n = case
    surface = from_defining(rho, n)
    assert graph_residual(surface.phi, n).is_zero()
    # reality makes w_n's coefficient in rho the conjugate of z_n's, c, so
    # phi's slope dphi/dw_n(0) is -cbar/c, never zero
    c = rho.coefficient(unit_exponent(2 * n, n - 1))
    assert surface.phi.coefficient(unit_exponent(2 * n - 1, n - 1)) == -c.conjugate() / c


# implicit_solve writes its result over the remaining variables in the
# order ``rest`` names, which is the default result relabelled


@st.composite
def implicit_solves_with_rest(draw):
    rho, var = draw(implicit_equations() | real_germs().map(lambda case: (case[0], case[1] - 1)))
    rest = draw(st.permutations([i for i in range(rho.nvars) if i != var]))
    return rho, var, rest


@settings(max_examples=60, deadline=None)
@given(implicit_solves_with_rest())
def test_implicit_solve_writes_the_order_rest_names(case):
    rho, var, rest = case
    others = [i for i in range(rho.nvars) if i != var]
    # the default result's i-th variable is others[i], which rest moves
    relabel = SeriesMap.from_slots(len(rest), rho.order, [rest.index(i) for i in others])
    assert implicit_solve(rho, var, rest=rest) == compose(implicit_solve(rho, var), relabel)


# over (z1, z2, w1, w2), solving for z2, rest must order (0, 2, 3)
@pytest.mark.parametrize("rest", [
    (0, 0, 3),  # a duplicate
    (0, 1, 3),  # the solved variable itself
    (0, 2),  # too short
    (0, 2, 3, 3),  # too long
    (0, 2, 4),  # out of range
    (0, 2.0, 3),  # equal to an index but not one
])
def test_implicit_solve_refuses_a_bad_rest(rest):
    with pytest.raises(ValueError, match="rest must list each variable index other than 1 once"):
        implicit_solve(corpus.sphere().rho, 1, rest=rest)


# _is_normal and _straight_axis scan phi's rows; the references restrict
# phi by composition, to z' = 0 and to w' = 0 or to both at once, and
# compare each restriction with w_n


def ref_is_normal(phi, n):
    m, order = 2 * n - 1, phi.order
    axis = TruncatedSeries.monomial(m, order, unit_exponent(m, n - 1))
    zp_zero = SeriesMap.from_slots(m, order, [*range(n), *[None] * (n - 1)])
    wp_zero = SeriesMap.from_slots(m, order, [*[None] * (n - 1), *range(n - 1, m)])
    return compose(phi, zp_zero) == axis and compose(phi, wp_zero) == axis


def ref_straight_axis(phi, n):
    m, order = 2 * n - 1, phi.order
    axis = TruncatedSeries.monomial(m, order, unit_exponent(m, n - 1))
    both_zero = SeriesMap.from_slots(m, order, [*[None] * (n - 1), n - 1, *[None] * (n - 1)])
    return compose(phi, both_zero) == axis


@st.composite
def graphs_near_normal(draw):
    """Graphs of drawn germs, normalized when one step can, as they are or
    with a near miss: w_n's coefficient 2 or i, or one extra term in the
    rows free of z' or of w'."""
    straight = draw(st.booleans())
    rho, n = draw(real_germs(straight_axis=straight))
    H = from_defining(rho, n)
    phi = normalize(H).phi if straight else H.phi
    m, order = 2 * n - 1, phi.order
    axis = unit_exponent(m, n - 1)
    miss = draw(st.sampled_from(["none", "w_n coefficient", "z'-free row", "w'-free row"]))
    if miss == "w_n coefficient":
        c = draw(st.sampled_from([GaussRational(2), GaussRational(0, 1)]))
        phi = phi + TruncatedSeries.monomial(m, order, axis, c - phi.coefficient(axis))
    elif miss != "none":
        free = slice(n, m) if miss == "z'-free row" else slice(0, n - 1)
        rows = [e for e in multi_indices(m, order) if not any(e[free])]
        exponents = draw(st.sampled_from(rows))
        phi = phi + TruncatedSeries.monomial(m, order, exponents, draw(nonzero_rationals))
    return phi, n


@settings(max_examples=120, deadline=None)
@given(graphs_near_normal())
@example((corpus.sphere().phi, 2))
@example((corpus.perturbed_sphere().phi, 2))
@example((corpus.degenerate_quadric().phi, 3))
def test_is_normal_scan_matches_the_restrictions(case):
    phi, n = case
    assert _is_normal(phi, n) == ref_is_normal(phi, n)
    assert _straight_axis(phi, n) == ref_straight_axis(phi, n)


@settings(max_examples=40, deadline=None)
@given(real_germs() | real_germs(straight_axis=True).map(
    lambda case: (normalize(from_defining(*case)).rho, case[1])
))
def test_truncation_matches_solving_again(case):
    rho, n = case
    H = from_defining(rho, n)
    for k in range(2, H.order + 1):
        truncated, solved = H.truncate(k), from_defining(rho.truncate(k), n)
        assert truncated == solved
        assert truncated.phi == solved.phi
        assert truncated.normal == solved.normal


# normalize does not take the determinant of its change: t solves
# phi(0, t, z') = z_n with c = dphi/dw_n(0), so the linear part is
# triangular with determinant 1/c, which is 1 for every germ with a straight
# axis (see the normalizing_change docstring)


@settings(max_examples=60, deadline=None)
@given(real_germs(straight_axis=True))
@example((corpus.perturbed_sphere().rho, 2))
def test_normalizing_change_has_determinant_one_over_c(case):
    rho, n = case
    surface = from_defining(rho, n)
    normalized = normalize(surface)
    change = normalizing_change(surface)
    assert normalized.normal
    c = surface.phi.coefficient(unit_exponent(2 * n - 1, n - 1))
    det = determinant(change.linear_matrix())
    assert not det.is_zero()
    assert det == ONE / c


# normalize returns only the germ and normalizing_change only the change.
# Their agreement: the inverse of the change is the substitution normalize
# makes, z on the z side and its conjugate on the w side.


@settings(max_examples=40, deadline=None)
@given(real_germs(straight_axis=True))
@example((corpus.perturbed_sphere().rho, 2))
def test_normalize_agrees_with_its_change(case):
    rho, n = case
    surface = from_defining(rho, n)
    inverse = invert_map(normalizing_change(surface))
    big, order = 2 * n, surface.order
    z_side = inverse.compose(SeriesMap.from_slots(big, order, range(n)))
    w_side = inverse.conjugate().compose(SeriesMap.from_slots(big, order, range(n, big)))
    substituted = compose(rho, SeriesMap([*z_side.components, *w_side.components]))
    assert substituted == normalize(surface).rho


# normalizing_change inverts normalize's substitution (z', p) by
# invert_map. The reference solves z_n = phi(0, t, z') for t by
# implicit_solve, with the identity written out for a normal germ.


def ref_normalizing_change(H):
    n, order = H.n, H.order
    if H.normal:
        return SeriesMap.identity(n, order)
    # psi over (z'_1..z'_{n-1}, z_n, y): phi(0, y, z') - z_n
    m = n + 1
    relabel = SeriesMap.from_slots(m, order, [*range(n - 1), n, *[None] * n])
    psi = compose(_axis_graph(H), relabel) - TruncatedSeries.variable(m, order, n - 1)
    t = implicit_solve(psi, n)  # over (z'_1..z'_{n-1}, z_n), preserves origin
    return SeriesMap.from_slots(n, order, [*range(n - 1), t])


@settings(max_examples=60, deadline=None)
@given(real_germs(straight_axis=True).flatmap(lambda case: st.sampled_from(
    [from_defining(*case), normalize(from_defining(*case))]
)))
@example(corpus.perturbed_sphere())
@example(corpus.sphere())
def test_normalizing_change_matches_the_implicit_solve(H):
    event(f"n = {H.n}, normal: {H.normal}")
    change, reference = normalizing_change(H), ref_normalizing_change(H)
    assert [(c.nvars, c.order, c._form) for c in change.components] == [
        (c.nvars, c.order, c._form) for c in reference.components
    ]


# exp_of substitutes its argument into sum_k t^k / k!. The reference sums
# the powers by repeated products.


def ref_exp_of(series):
    if not series.constant_term().is_zero():
        raise ValueError("exponential needs a vanishing constant term")
    total = TruncatedSeries.constant(ONE, series.nvars, series.order)
    term = total
    for k in range(1, series.order + 1):
        term = (term * series).scale(Fraction(1, k))
        total = total + term
    return total


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(0, 8)).flatmap(
    lambda shape: kernel_series(*shape, min_degree=1)
))
def test_exp_of_matches_the_power_sum(h):
    result, reference = exp_of(h), ref_exp_of(h)
    assert (result.nvars, result.order, result._form) == (
        reference.nvars, reference.order, reference._form
    )


# normalize refuses a curved axis from phi's rows. The reference makes the
# one graph substitution on every germ, then solves and reads the flag:
# rho with p = phi(0, z_n, z') for z_n and its conjugate for w_n.


def ref_one_step(H):
    n, order, big = H.n, H.order, 2 * H.n
    p = compose(H.phi, SeriesMap.from_slots(big, order, [*[None] * (n - 1), n - 1, *range(n - 1)]))
    pbar = compose(p.conjugate(), SeriesMap.from_slots(big, order, [*range(n, big), *range(n)]))
    outer = SeriesMap.from_slots(big, order, [*range(n - 1), p, *range(n, big - 1), pbar])
    return from_defining(compose(H.rho, outer), n)


@settings(max_examples=80, deadline=None)
@given(real_germs() | real_germs(straight_axis=True))
@example((parse_expr("-(i/2)*(z2-w2) - z1*w1 + z2^2 + w2^2", "z:2,w:2", 6), 2))
@example((corpus.perturbed_sphere().rho, 2))
def test_normalize_refuses_exactly_where_one_step_is_not_normal(case):
    rho, n = case
    H = from_defining(rho, n)
    reference = ref_one_step(H)
    event(f"one step normal: {reference.normal}")
    if not reference.normal:
        with pytest.raises(GeometryError, match="its normal form needs more than one step"):
            normalize(H)
        return
    normal = normalize(H)
    assert normal.rho._form == reference.rho._form
    assert normal.phi._form == reference.phi._form


# segre_maps builds v2 and v3 by one Segre step each. The reference writes
# them by hand: v2 = (z', phi(xi, 0, z')) and v3 = (z', phi(xi, inner, z'))
# with inner = phibar(eta, 0, xi).


def ref_segre_maps(H):
    n, order = H.n, H.order
    m = n - 1
    phi, phibar = H.phi, H.phibar
    src2 = 2 * m
    v2_last = compose(phi, SeriesMap.from_slots(src2, order, [*range(m, src2), None, *range(m)]))
    v2 = SeriesMap.from_slots(src2, order, [*range(m), v2_last])
    src3 = 3 * m
    xi = range(m, 2 * m)
    inner = compose(phibar, SeriesMap.from_slots(src3, order, [*range(2 * m, src3), None, *xi]))
    v3_last = compose(phi, SeriesMap.from_slots(src3, order, [*xi, inner, *range(m)]))
    v3 = SeriesMap.from_slots(src3, order, [*range(m), v3_last])
    return v2, v3


@settings(max_examples=60, deadline=None)
@given(real_germs(straight_axis=True))
@example((corpus.perturbed_sphere().rho, 2))
@example((corpus.degenerate_quadric().rho, 3))
def test_segre_steps_match_the_hand_written_maps(case):
    rho, n = case
    H = normalize(from_defining(rho, n))
    triple = segre_maps(H)
    assert triple.v1 == SeriesMap.from_slots(n - 1, H.order, [*range(n - 1), None])
    for ours, theirs in zip((triple.v2, triple.v3), ref_segre_maps(H)):
        assert ours.components == theirs.components


# is_minimal reads its verdict from phi's rows. The reference is the
# general route: the minor climb over the Jacobian of the second Segre map.


def ref_minimality(H):
    result = generic_rank(segre_maps(H).v2)
    return MinimalityVerdict(
        minimal=result.rank == H.n,
        rank=result.rank,
        n=H.n,
        order=H.order,
        certificate=result.certificate,
    )


def assert_same_minimality(H):
    ours, theirs = is_minimal(H), ref_minimality(H)
    for field in MinimalityVerdict._fields:
        assert getattr(ours, field) == getattr(theirs, field), field
    return ours


@settings(max_examples=80, deadline=None)
@given(real_germs(straight_axis=True))
@example((corpus.levi_flat().rho, 2))
@example((corpus.degenerate_quadric().rho, 3))
@example((corpus.perturbed_sphere().rho, 2))
def test_minimality_from_phi_rows_matches_the_climb(case):
    rho, n = case
    verdict = assert_same_minimality(normalize(from_defining(rho, n)))
    event("minimal" if verdict.minimal else "not minimal")


# ROADMAP's nondegenerate (ND) and degenerate (DG) n = 3 germs
DEEP_GERMS = {
    "ND": "-(i/2)*(z3-w3) - z1*w1 - z2*w2 - (z3+w3)*(z1*w2 + z2*w1) + z3*w3*z1*w1"
          " - (z3+w3)^2*z2*w2 + (i/3)*(z3^2-w3^2)*z1*w1",
    "DG": "-(i/2)*(z3-w3) - (z1+z2)*(w1+w2) - (z3+w3)*(z1+z2)*(w1+w2)"
          " - (z1+z2)^2*(w1+w2)^2 + z3*w3*(z1+z2)*(w1+w2)",
}


@pytest.mark.parametrize("order", [12, 16])
@pytest.mark.parametrize("name", sorted(DEEP_GERMS))
def test_minimality_from_phi_rows_matches_the_climb_at_depth(name, order):
    H = from_defining(parse_expr(DEEP_GERMS[name], "z:3,w:3", order), 3)
    assert assert_same_minimality(H).minimal


# reality_defect reads the integer form: each row against the row at its
# mirrored key. The reference is the term-by-term loop on the view.


def ref_reality_defect(rho, n):
    terms = dict(rho.terms)
    for exponents, actual in terms.items():
        mirror = exponents[n:] + exponents[:n]
        expected = terms.get(mirror, ZERO).conjugate()
        if actual != expected:
            return exponents, actual, expected
    return None


@st.composite
def perturbed_real_germs(draw):
    """A real germ with one coefficient moved, which may break reality."""
    rho, n = draw(real_germs())
    exponents = draw(st.sampled_from(multi_indices(2 * n, rho.order)))
    delta = TruncatedSeries.monomial(2 * n, rho.order, exponents, draw(nonzero_rationals))
    return rho + delta, n


SPHERE_RHO = corpus.sphere().rho


@settings(max_examples=150, deadline=None)
@given(perturbed_real_germs())
@example((SPHERE_RHO, 2))
# z1^2 has no mirror term w1^2
@example((SPHERE_RHO + TruncatedSeries.monomial(4, 8, (2, 0, 0, 0)), 2))
# z1 w1 is its own mirror, so an imaginary part breaks reality
@example((SPHERE_RHO + TruncatedSeries.monomial(4, 8, (1, 0, 1, 0), GaussRational(0, 1)), 2))
# the same, but a real part keeps it
@example((SPHERE_RHO + TruncatedSeries.monomial(4, 8, (1, 0, 1, 0), GaussRational(3)), 2))
def test_reality_defect_matches_the_term_loop(case):
    rho, n = case
    defect = reality_defect(rho, n)
    reference = ref_reality_defect(rho, n)
    assert defect == reference
    if defect is not None:
        assert type(defect[0]) is tuple
        assert [repr(c) for c in defect[1:]] == [repr(c) for c in reference[1:]]


# partial_convergence does not climb the rank of g again: g has the r
# certified witness rows, and its Jacobian holds their certified minor at
# the same truncation (see the partial_convergence docstring)

PARTIAL_CASES = [(name, corpus.DEFAULT_ORDER) for name in corpus.MAPS] + [
    (name, 12) for name in corpus.MAPS if name.startswith("exp_shear")
]


@pytest.mark.parametrize("name, order", PARTIAL_CASES)
def test_partial_convergence_family_has_full_certified_rank(name, order):
    make_map, source, target = corpus.MAPS[name]
    fm = FormalMap(
        make_map(order), corpus.HYPERSURFACES[source](order), corpus.HYPERSURFACES[target](order)
    )
    result = partial_convergence(fm)
    check = generic_rank(result.g)
    assert check.certificate.status == CERTIFIED
    assert check.rank == fm.n - result.bound


# degeneracy differentiates only the nonzero phi-family entries; the
# reference is its earlier body, which differentiates every entry of the
# dense family, zeros included


def ref_degeneracy(H, cutoff=None):
    if cutoff is None:
        cutoff = H.order
    n = H.n
    effective = min(cutoff, H.order - 1)
    family = phi_family(H, effective)
    rows = [[series.derive(j) for j in range(n)] for _, series in family]
    result = matrix_generic_rank(rows)
    witnesses = tuple(family[i][0] for i in result.certificate.rows)
    if effective < 1:
        stabilized = False
    elif result.certificate.status == CERTIFIED and all(
        sum(alpha) <= effective - 1 for alpha in witnesses
    ):
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
    )


@st.composite
def germs_with_cutoffs(draw):
    rho, n = draw(real_germs())
    H = from_defining(rho, n)
    return H, draw(st.none() | st.integers(1, H.order))


@settings(max_examples=60, deadline=None)
@given(germs_with_cutoffs())
@example((corpus.degenerate_quadric(20), None))
@example((corpus.levi_flat(), 3))
@example((corpus.sphere(), 1))
def test_degeneracy_matches_the_dense_gradient_matrix(case):
    H, cutoff = case
    result, reference = degeneracy(H, cutoff), ref_degeneracy(H, cutoff)
    for field in DegeneracyResult._fields:
        assert getattr(result, field) == getattr(reference, field), field


# check_maps_into checks at the guaranteed order only; a check at a lower
# order k is the same call on f, the source and the target truncated to k.
# The reference is its earlier body, which took the order as a parameter
# and truncated the residual of the full-order substitution to it.


def ref_check_maps_into(fm, order):
    cap = fm.guaranteed_order()
    if order > cap:
        raise ValueError(f"inputs only guarantee order {cap}, not {order}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    n = fm.n
    m = 2 * n - 1
    common = min(fm.f.order, fm.source.order)
    wmap = SeriesMap.from_slots(m, fm.source.order, [*range(n, m), fm.source.phibar])
    relabel = SeriesMap.from_slots(m, fm.f.order, range(n))
    head = fm.f.compose(relabel).truncate(common).components
    tail = fm.f.conjugate().compose(wmap).components
    residual = compose(fm.target.rho, SeriesMap(head + tail)).truncate(order)
    return MapVerdict(
        passed=residual.is_zero(),
        order_checked=order,
        residual=residual,
        offending=residual.least_term(),
    )


def assert_lower_orders_match_the_reference(f, source, target):
    # the check on the map itself, whose orders may differ, is the reference
    # at the guaranteed order, which its residual reaches untruncated
    fm = FormalMap(f, source, target)
    cases = [(fm.guaranteed_order(), fm)] + [
        (k, FormalMap(f.truncate(k), source.truncate(k), target.truncate(k)))
        for k in range(2, fm.guaranteed_order() + 1)
    ]
    for k, truncated in cases:
        verdict, reference = check_maps_into(truncated), ref_check_maps_into(fm, k)
        for field in MapVerdict._fields:
            assert getattr(verdict, field) == getattr(reference, field), (k, field)


@pytest.mark.parametrize("name", corpus.MAPS)
def test_check_at_a_lower_order_is_the_check_of_the_truncations(name):
    make_map, source, target = corpus.MAPS[name]
    assert_lower_orders_match_the_reference(
        make_map(), corpus.HYPERSURFACES[source](), corpus.HYPERSURFACES[target]()
    )


@st.composite
def drawn_formal_maps(draw):
    """A corpus map with a drawn term added at some degree, so that its
    check can fail from that degree on, between its surfaces each at a
    drawn order; or a drawn invertible map between two drawn germs."""
    if draw(st.booleans()):
        make_map, source, target = corpus.MAPS[draw(st.sampled_from(sorted(corpus.MAPS)))]
        # truncated from the default order: a corpus builder asked for a
        # low order warns that it drops terms
        orders = [draw(st.integers(2, 6)) for _ in range(3)]
        f = make_map().truncate(orders[0])
        n = f.source_nvars
        j = draw(st.integers(0, n - 1))
        extra = draw(series(nvars=n, order=orders[0], min_degree=2))
        f = SeriesMap(c + extra if i == j else c for i, c in enumerate(f.components))
        return (f, corpus.HYPERSURFACES[source]().truncate(orders[1]),
                corpus.HYPERSURFACES[target]().truncate(orders[2]))
    rho, n = draw(real_germs())
    sigma, _ = draw(real_germs(n=n))
    f = draw(invertible_maps(nvars=n, order=min(rho.order, 6)))
    return f, from_defining(rho, n), from_defining(sigma, n)


@settings(max_examples=40, deadline=None)
@given(drawn_formal_maps())
def test_check_at_a_lower_order_matches_the_reference_on_drawn_maps(case):
    assert_lower_orders_match_the_reference(*case)


def ref_lambda_zero(fm):
    """reflection_at_lambda_zero as it was before it became one composition:
    the alpha = 0 entry of the reflection series' whole lambda family."""
    n = fm.n
    r = reflection_function(fm)
    family = r.coefficient_family(range(n, 2 * n - 1))
    zero = (0,) * (n - 1)
    return family.get(zero, TruncatedSeries.zero(n, r.order))


def assert_lambda_zero_matches_the_reference(fm):
    slice_, reference = reflection_at_lambda_zero(fm), ref_lambda_zero(fm)
    assert (slice_.nvars, slice_.order, slice_._form) == (
        reference.nvars, reference.order, reference._form
    )


@pytest.mark.parametrize("order", [2, 3, 6, 8, 12])
@pytest.mark.parametrize("name", corpus.MAPS)
def test_lambda_zero_slice_is_the_family_entry_on_the_corpus(name, order):
    # built at the default order or above and truncated: a corpus builder
    # asked for a low order warns that it drops terms
    make_map, source, target = corpus.MAPS[name]
    build = max(order, corpus.DEFAULT_ORDER)
    f, surfaces = make_map(build).truncate(order), corpus.HYPERSURFACES
    assert_lambda_zero_matches_the_reference(
        FormalMap(f, surfaces[source](build).truncate(order), surfaces[target](build).truncate(order))
    )


@settings(max_examples=40, deadline=None)
@given(drawn_formal_maps())
def test_lambda_zero_slice_is_the_family_entry_on_drawn_maps(case):
    assert_lambda_zero_matches_the_reference(FormalMap(*case))


# ---------------------------------------------------------------------------
# the integer form every series is
#
# A series stores only (den, rows, is_complex), rows (degree, key, a, b) in
# graded-lex order, and decodes its GaussRational view only when read.
# Products, sums, scalings, conjugates, truncations, derivatives and
# coefficient families all map forms to forms, and chained operations
# feed results back into the kernel, sometimes at a lower order than they
# were packed for.


def assert_primitive(s):
    den, rows, is_complex = s._form
    assert math.gcd(den, *[a for *_, a, _ in rows], *[b for *_, b in rows]) == 1
    places = [row[:2] for row in rows]
    assert places == sorted(set(places))  # strictly ascending (degree, key)
    assert all(a or b for *_, a, b in rows)
    assert is_complex == any(b for *_, b in rows)


@st.composite
def kernel_chains(draw):
    nvars = draw(st.integers(1, 3))
    orders = [draw(st.integers(0, 5)) for _ in range(4)]
    return [draw(kernel_series(nvars, order)) for order in orders]


@given(kernel_chains())
@example([
    TruncatedSeries(2, 5, {(1, 1): ONE, (0, 2): GaussRational(Fraction(1, 3))}),
    TruncatedSeries(2, 5, {(0, 1): GaussRational(0, 2), (2, 0): ONE}),
    TruncatedSeries(2, 3, {(1, 0): GaussRational(Fraction(3, 2))}),
    TruncatedSeries(2, 2, {(0, 0): ONE, (0, 1): ONE}),
])
def test_chained_products_read_the_stored_form(chain):
    a, b, c, d = chain
    ab = a * b
    assert ab._view is None  # nothing read the view yet
    abc = ab * c
    # ab again, now at d's order when that is lower: keys at another base
    abd = ab * d
    for product in (ab, abc, abd):
        assert_primitive(product)
    ref_ab = ref_mul(ref_terms(a), ref_terms(b), ab.order)
    assert_matches(abc, ref_mul(ref_ab, ref_terms(c), abc.order))
    assert_matches(abd, ref_mul(ref_ab, ref_terms(d), abd.order))
    assert_matches(ab.truncate(min(ab.order, d.order)), {
        e: v for e, v in ref_ab.items() if sum(e) <= min(ab.order, d.order)
    })
    assert_matches(ab, ref_ab)


@given(kernel_chains())
@example([
    TruncatedSeries(2, 4, {(1, 0): ONE, (0, 1): GaussRational(Fraction(1, 2))}),
    TruncatedSeries(2, 4, {(0, 1): ONE, (1, 1): GaussRational(0, Fraction(2, 3))}),
    TruncatedSeries(2, 4, {(1, 0): ONE, (2, 0): ONE}),
    TruncatedSeries(2, 2, {(1, 1): ONE}),
])
def test_chained_compositions_read_the_stored_form(chain):
    a, b, c, d = chain
    nvars = a.nvars
    xs = [TruncatedSeries.variable(nvars, 5, i) for i in range(nvars)]
    # origin-preserving components built by the kernel; the outer series
    # is a kernel result too, often at a higher order than the map
    vmap = SeriesMap((x * b) * c for x in xs)
    outer = a * d
    once = compose(outer, vmap)
    twice = compose(once, vmap)
    for result in (once, twice):
        assert_primitive(result)
    refs = [ref_terms(s) for s in vmap.components]
    ref_once = ref_expand(ref_terms(outer), refs, nvars, once.order)
    assert_matches(twice, ref_expand(ref_once, refs, nvars, twice.order))
    assert_matches(once, ref_once)


@given(kernel_operands())
def test_kernel_results_equal_the_same_terms_built_directly(operands):
    a, b = operands
    product = a * b
    rebuilt = TruncatedSeries(product.nvars, product.order, dict(product.terms))
    assert product == rebuilt and rebuilt == product
    # == compares the two stored forms
    assert a * b == TruncatedSeries(product.nvars, product.order, dict(product.terms))
    assert TruncatedSeries(product.nvars, product.order, dict(product.terms)) == a * b
    if not product.is_zero():
        assert product != product.scale(2)
        assert product.scale(2) != product


@given(kernel_operands(low=1))
def test_cancelling_product_is_zero_without_building_the_view(operands):
    u, v = operands
    x = TruncatedSeries.variable(u.nvars, u.order, 0)
    # u v x - v x u: one sum of products in the kernel whose every term cancels
    p, q = (u * v) * x, (v * x) * u
    minus = TruncatedSeries(2, p.order, {(1, 0): ONE, (0, 1): -ONE})
    difference = compose(minus, SeriesMap([p, q]))
    assert difference.is_zero()
    assert difference._view is None and p._view is None and q._view is None
    assert not difference.terms


# Multi-pair sums in the kernel, through its form entry and through
# _sum_of_products, against GaussRational arithmetic on the decoded terms.
# The left operands include constants shaped like the solver's -J0^-1
# entries and forms scaled by a common factor, neither primitive, and a
# drawn pair may be followed by its negation, so whole sums cancel.


def gauss_terms(form, nvars, base):
    den, rows, _ = form
    return {
        _exponents(k, base, nvars): GaussRational(Fraction(a, den), Fraction(b, den))
        for _, k, a, b in rows
    }


def ref_sum_of_products(pairs, nvars, order):
    out = {}
    for left, right in pairs:
        for e1, c1 in gauss_terms(left, nvars, order + 2).items():
            for e2, c2 in gauss_terms(right, nvars, order + 2).items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if sum(e) <= order:
                    out[e] = out.get(e, ZERO) + c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


def negated_form(form):
    den, rows, is_complex = form
    return den, [(d, k, -a, -b) for d, k, a, b in rows], is_complex


@st.composite
def kernel_sums(draw):
    nvars, order = draw(st.integers(0, 3)), draw(st.integers(0, 5))
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["series", "minus inverse", "scaled"]))
        if kind == "minus inverse":
            ((left, _),) = _negated([[draw(nonzero_kernel_coefficients)]])[0]
        else:
            left = draw(kernel_series(nvars, order))._form
            if kind == "scaled":
                k = draw(st.integers(2, 6))
                den, rows, is_complex = left
                left = (den * k, [(d, key, a * k, b * k) for d, key, a, b in rows], is_complex)
        right = draw(kernel_series(nvars, order))._form
        pairs.append((left, right))
        if draw(st.booleans()):
            pairs.append((negated_form(left), right))
    return nvars, order, pairs


HALF_PLUS_HALF_I = _negated([[GaussRational(Fraction(1, 2), Fraction(1, 2))]])[0][0][0]


@given(kernel_sums())
@example((2, 3, [(HALF_PLUS_HALF_I, TruncatedSeries.variable(2, 3, 0)._form)]))  # content 2
@example((1, 2, [  # every product cancels
    (HALF_PLUS_HALF_I, TruncatedSeries(1, 2, {(1,): ONE, (2,): I})._form),
    (negated_form(HALF_PLUS_HALF_I), TruncatedSeries(1, 2, {(1,): ONE, (2,): I})._form),
]))
@example((2, 2, [  # real and complex pairs over different denominators
    (TruncatedSeries(2, 2, {(1, 0): GaussRational(Fraction(1, 3))})._form,
     TruncatedSeries(2, 2, {(0, 1): GaussRational(0, Fraction(2, 5))})._form),
    ((4, [(0, 0, 6, 0)], False), TruncatedSeries(2, 2, {(1, 1): GaussRational(Fraction(1, 7))})._form),
]))
def test_kernel_sums_match_the_gauss_rational_reference(case):
    nvars, order, pairs = case
    form = _sum_of_products_form(pairs, order)
    wrapped = _sum_of_products(pairs, nvars, order)
    assert wrapped._form == form and wrapped.order == order
    assert_primitive(wrapped)
    expected = ref_sum_of_products(pairs, nvars, order)
    assert form == TruncatedSeries(nvars, order, expected)._form
    if not expected:
        assert form == (1, [], False)
    assert wrapped.terms == expected


def ref_truncate(a, order):
    return {e: v for e, v in a.items() if sum(e) <= order}


def ref_derive(a, index):
    out = {}
    for e, (r, i) in a.items():
        k = e[index]
        if k:
            out[e[:index] + (k - 1,) + e[index + 1 :]] = (r * k, i * k)
    return out


def ref_family(a, group, nvars):
    rest = [i for i in range(nvars) if i not in group]
    out = {}
    for e, v in a.items():
        out.setdefault(tuple(e[i] for i in group), {})[tuple(e[i] for i in rest)] = v
    return out


@given(kernel_operands(), kernel_coefficients, st.data())
def test_linear_operations_match_fraction_references(operands, c, data):
    a, b = operands
    nvars, order = a.nvars, min(a.order, b.order)
    cut = data.draw(st.integers(0, a.order))
    index = data.draw(st.integers(0, nvars - 1)) if nvars and a.order else None
    group = data.draw(st.permutations(range(nvars)))[: data.draw(st.integers(0, nvars))]
    results = {
        "add": a + b,
        "sub": a - b,
        "neg": -a,
        "scale": a.scale(c),
        "add scalar": a + c,
        "scalar sub": c.re - a,
        "conjugate": a.conjugate(),
        "truncate": a.truncate(cut),
    }
    if index is not None:
        results["derive"] = a.derive(index)
    family = a.coefficient_family(group)
    results.update({("family", alpha): s for alpha, s in family.items()})
    # no operation decoded a view, of its operands or of its result
    assert a._view is None and b._view is None
    for s in results.values():
        assert s._view is None
        assert_primitive(s)

    ra, rb = ref_terms(a), ref_terms(b)
    low_a, low_b = ref_truncate(ra, order), ref_truncate(rb, order)
    minus = (Fraction(-1), Fraction(0))
    scalar = {(0,) * nvars: (c.re, c.im)}
    expected = {
        "add": (order, ref_add(low_a, low_b)),
        "sub": (order, ref_add(low_a, low_b, minus)),
        "neg": (a.order, ref_add({}, ra, minus)),
        "scale": (a.order, ref_add({}, ra, (c.re, c.im))),
        "add scalar": (a.order, ref_add(ra, scalar)),
        "scalar sub": (a.order, ref_add({(0,) * nvars: (c.re, Fraction(0))}, ra, minus)),
        "conjugate": (a.order, {e: (r, -i) for e, (r, i) in ra.items()}),
        "truncate": (cut, ref_truncate(ra, cut)),
    }
    if index is not None:
        expected["derive"] = (a.order - 1, ref_derive(ra, index))
    ref_groups = ref_family(ra, group, nvars)
    assert set(family) == set(ref_groups)
    for alpha, terms in ref_groups.items():
        expected["family", alpha] = (a.order - sum(alpha), terms)
    assert set(results) == set(expected)
    for name, s in results.items():
        assert s.nvars == nvars - (len(group) if isinstance(name, tuple) else 0)
        assert s.order == expected[name][0]
        assert_matches(s, expected[name][1])


@given(kernel_operands(), st.randoms(use_true_random=False))
@example(
    (
        TruncatedSeries(2, 2, {(1, 0): ONE, (0, 1): ONE, (2, 0): ONE}),
        TruncatedSeries(2, 2, {(0, 0): ONE, (0, 1): ONE}),
    ),
    random.Random(0),
)
def test_terms_iterate_in_graded_lex_order_however_built(operands, rnd):
    u, v = operands
    product = u * v
    items = list(product.terms.items())
    rnd.shuffle(items)
    built = [product, TruncatedSeries(product.nvars, product.order, items)]
    if product.nvars:  # a document needs at least one variable
        built.append(parse_document(serialize(product)))
    expected = sorted(product.terms, key=grlex_key)
    least = (expected[0], product.coefficient(expected[0])) if expected else None
    for s in built:
        assert s == product
        assert list(s.terms) == expected
        assert [e for e, _ in s.sorted_terms()] == expected
        assert s.least_term() == least


# coefficient, constant_term and least_term are point reads: they bisect the
# rows and decode the one row they need, and leave the view unbuilt


@st.composite
def any_series(draw):
    nvars = draw(st.integers(0, 3))
    return draw(kernel_series(nvars, draw(st.integers(0, 5))))


@given(any_series())
@example(TruncatedSeries(0, 0))
@example(TruncatedSeries(2, 3))
@example(TruncatedSeries(2, 0, {(0, 0): GaussRational(0, Fraction(1, 3))}))
def test_point_reads_match_the_view_and_leave_it_unbuilt(s):
    nvars, order = s.nvars, s.order
    probes = multi_indices(nvars, order)  # every stored and absent exponent
    probes += [(0,) * (nvars + 1), (1,) * (nvars + 1)]  # wrong arity
    if nvars:
        probes += [e for e in multi_indices(nvars, order + 1) if sum(e) > order]
        probes += [(0,) * (nvars - 1), (-1,) + (1,) * (nvars - 1)]
    coefficients = [s.coefficient(e) for e in probes]
    constant, least = s.constant_term(), s.least_term()
    assert s._view is None
    view = s.terms
    for e, c in zip(probes, coefficients):
        expected = view.get(e, ZERO)
        assert (c, repr(c)) == (expected, repr(expected)), e
        assert type(c.re) is Fraction and type(c.im) is Fraction
    assert constant == view.get((0,) * nvars, ZERO)
    first = next(iter(view.items()), None)
    assert least == first and repr(least) == repr(first)


# ---------------------------------------------------------------------------
# writers read the integer form; references decode every term first


def ref_document(s):
    lines = [FORMAT_VERSION, "kind series", f"vars x:{s.nvars}", f"order {s.order}"]
    terms = s.sorted_terms()
    lines.append(f"terms {len(terms)}")
    for e, c in terms:
        parts = ["term", *map(str, e)]
        parts += [f"{c.re.numerator}/{c.re.denominator}", f"{c.im.numerator}/{c.im.denominator}"]
        lines.append(" ".join(parts))
    return "\n".join([*lines, "end"]) + "\n"


def ref_format(s, names):
    if s.is_zero():
        return "0"
    chunks = []
    for e, c in s.sorted_terms():
        mono = format_monomial(e, names)
        if mono == "1":
            chunks.append(str(c))
        elif c == ONE:
            chunks.append(mono)
        elif c == -ONE:
            chunks.append(f"-{mono}")
        else:
            chunks.append(f"{c}*{mono}")
    return " + ".join(chunks).replace("+ -", "- ")


def ref_evidence_rows(family, radius):
    scale = float(radius)
    rows = []
    for alpha, s in family:
        if s.is_zero():
            continue
        majorant = sum(
            math.hypot(float(c.re), float(c.im)) * scale ** sum(e) for e, c in s.sorted_terms()
        )
        rows.append((alpha, majorant, (majorant / multi_factorial(alpha)) ** (1.0 / (sum(alpha) + 1))))
    return tuple(rows)


@st.composite
def written_series(draw):
    nvars = draw(st.integers(1, 4))
    return draw(kernel_series(nvars, draw(st.integers(0, 4))))


@settings(deadline=None)
@given(st.lists(written_series(), min_size=1, max_size=4),
       st.sampled_from([Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(7, 5)]))
def test_writers_match_the_decoded_terms(family_series, radius):
    for s in family_series:
        assert serialize(s) == ref_document(s)
        names = [f"v{i}" for i in range(s.nvars)]
        assert format_series(s, names) == ref_format(s, names)
        assert str(s) == ref_format(s, [f"x{i + 1}" for i in range(s.nvars)])
    family = list(zip(multi_indices(2, 3), family_series))
    forms = copy.deepcopy([s._form for s in family_series])
    evidence = convergence_evidence(family, radius)
    assert evidence.rows == ref_evidence_rows(family, radius)
    assert evidence.r0 == max((row[2] for row in evidence.rows), default=0.0)
    assert [s._form for s in family_series] == forms


# ---------------------------------------------------------------------------
# earned orders: terms above the inputs' orders do not reach an output
# through its stated order
#
# A germ is lifted by real term pairs above its order on monomials with
# some z' and some w', so normal coordinates survive, and a map by terms
# above its order. Truncated back, each derived object must equal the one
# from the unlifted inputs. Rank verdicts read the truncation, and a lift
# may raise a degeneracy rank, so partial convergence is compared only
# where the certified witnesses agree.


def mixed(n):
    """Monomials over (z, w) with some z' and some w'."""
    return lambda e: any(e[: n - 1]) and any(e[n : 2 * n - 1])


def structural(e):
    """Monomials of (z1 z2, z3, w1 w2, w3) with some z' and some w': the
    field z1 d/dz1 - z2 d/dz2 stays tangent to the degenerate quadric."""
    return e[0] == e[1] and e[3] == e[4] and e[0] and e[3]


def lifted_germ(draw, rho, n, extra, keep):
    """The germ of ``rho`` at order rho.order + ``extra``, with 1-3 drawn
    real term pairs above rho.order on monomials that ``keep`` accepts."""
    order = rho.order + extra
    candidates = [e for e in multi_indices(2 * n, order) if sum(e) > rho.order and keep(e)]
    terms = dict(rho.terms)
    for e in draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=3, unique=True)):
        c, mirror = draw(nonzero_rationals), e[n:] + e[:n]
        terms[e] = terms.get(e, ZERO) + c
        terms[mirror] = terms.get(mirror, ZERO) + c.conjugate()
    return from_defining(TruncatedSeries(2 * n, order, terms), n)


def lifted_map(draw, f, extra):
    """f at order f.order + ``extra``, with drawn terms above f.order."""
    order = f.order + extra
    candidates = [e for e in multi_indices(f.source_nvars, order) if sum(e) > f.order]
    components = []
    for c in f.components:
        terms = {e: draw(nonzero_rationals) for e in draw(st.lists(st.sampled_from(candidates), max_size=3, unique=True))}
        components.append(TruncatedSeries(c.nvars, order, {**terms, **c.terms}))
    return SeriesMap(components)


def assert_earned(high, low):
    """``high`` truncated to the order of ``low`` is ``low``."""
    assert high.truncate(low.order) == low


@settings(max_examples=60, deadline=None)
@given(real_germs(straight_axis=True), st.integers(1, 2), st.data())
def test_germ_objects_earn_their_order(case, extra, data):
    rho, n = case
    H = from_defining(rho, n)
    high = lifted_germ(data.draw, rho, n, extra, mixed(n))
    assert_earned(high.phi, H.phi)
    normal = normalize(H)
    assert_earned(normalize(high).rho, normal.rho)
    assert_earned(normalizing_change(high), normalizing_change(H))
    for ours, theirs in zip(segre_maps(normalize(high))[1:], segre_maps(normal)[1:]):
        assert_earned(ours, theirs)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["sphere_dilation", "sphere_rotation", "exp_shear", "exp_shear_double"]),
    st.integers(4, 6),
    st.integers(1, 2),
    st.data(),
)
def test_reflection_objects_earn_their_order(name, order, extra, data):
    make_map, source_name, target_name = corpus.MAPS[name]
    # truncated from the default order: a corpus builder asked for a low
    # order warns that it drops terms
    f = make_map().truncate(order)
    source = corpus.HYPERSURFACES[source_name]().truncate(order)
    target = corpus.HYPERSURFACES[target_name]().truncate(order)
    n = f.source_nvars
    keep = structural if target_name == "degenerate_quadric" else mixed(n)
    high_source = lifted_germ(data.draw, source.rho, n, extra, keep)
    high_target = lifted_germ(data.draw, target.rho, n, extra, keep)
    fm = FormalMap(f, source, target)
    high = FormalMap(lifted_map(data.draw, f, extra), high_source, high_target)

    assert_earned(reflection_function(high), reflection_function(fm))
    for (alpha, ours), (beta, theirs) in zip(u_family(high, order), u_family(fm, order), strict=True):
        assert alpha == beta
        assert_earned(ours, theirs)
    # the lifted map fails the mapping check, so the identity reads the
    # lifted germs with the unlifted map
    identity = segre_reflection_identity(fm)
    high_identity = segre_reflection_identity(FormalMap(f, high_source, high_target))
    assert_earned(high_identity.lhs, identity.lhs)
    assert_earned(high_identity.rhs, identity.rhs)

    try:
        low_pc, high_pc = partial_convergence(fm), partial_convergence(high)
    except PrerequisiteError:
        event("partial convergence: prerequisite refused")
        return
    if high_pc.witnesses_ordered != low_pc.witnesses_ordered:
        event("partial convergence: witnesses differ")
        return
    event("partial convergence: compared")
    assert_earned(high_pc.g, low_pc.g)
    assert_earned(high_pc.gf, low_pc.gf)
    for ours, theirs in zip(high_pc.generators, low_pc.generators, strict=True):
        assert_earned(ours, theirs)


# ---------------------------------------------------------------------------
# the Segre identity is a theorem of a passing mapping check: check-map
# reports it from the mapping check and the source's prerequisites alone


def germ_at(rho, n, order):
    """The germ of the polynomial ``rho``, read at ``order``."""
    terms = {e: c for e, c in rho.terms.items() if sum(e) <= order}
    return from_defining(TruncatedSeries(rho.nvars, order, terms), n)


@st.composite
def passing_formal_maps(draw):
    """A map whose mapping check passes, between germs at order 4-8: a
    corpus map between its corpus germs, or the identity or the zero map
    of a corpus germ or a drawn one. The zero map goes into a drawn germ
    of the dimension, normal or not. Each germ may be lifted as in the
    earned-order tests, which leaves the check's order at the map's."""
    kind = draw(st.sampled_from(["corpus map", "identity", "zero map"]))
    order = draw(st.integers(4, 8))
    if kind == "corpus map":
        name = draw(st.sampled_from(sorted(set(corpus.MAPS) - {"sphere_corrupted"})))
        make_map, source_name, target_name = corpus.MAPS[name]
        f = make_map().truncate(order)
        source = corpus.HYPERSURFACES[source_name]().truncate(order)
        target = corpus.HYPERSURFACES[target_name]().truncate(order)
    else:
        if draw(st.booleans()):
            source = corpus.HYPERSURFACES[draw(st.sampled_from(sorted(corpus.HYPERSURFACES)))]()
            source = source.truncate(order)
        else:
            source = normalize(germ_at(*draw(real_germs(straight_axis=True)), order))
        n = source.n
        if kind == "identity":
            f, target = SeriesMap.identity(n, order), source
        else:
            f, target = SeriesMap.from_slots(n, order, [None] * n), germ_at(*draw(real_germs(n=n)), order)
    event(kind)
    extra = draw(st.integers(0, 2))
    if extra:
        source = lifted_germ(draw, source.rho, source.n, extra, mixed(source.n))
        target = lifted_germ(draw, target.rho, target.n, extra, mixed(target.n))
    return FormalMap(f, source, target)


@settings(max_examples=60, deadline=None)
@given(passing_formal_maps())
def test_a_passing_mapping_check_makes_the_segre_identity_pass(fm):
    verdict = check_maps_into(fm)
    assert verdict.passed
    try:
        _minimal_source(fm.source)
    except PrerequisiteError as exc:
        event("source refused")
        with pytest.raises(PrerequisiteError, match=str(exc)):
            segre_reflection_identity(fm)
        return
    event("identity computed")
    identity = segre_reflection_identity(fm)
    assert identity.passed
    assert identity.order == verdict.order_checked
