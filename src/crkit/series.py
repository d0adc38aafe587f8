"""Sparse truncated multivariate power series with exact coefficients.

A TruncatedSeries stores finitely many coefficients of a formal power
series and remembers through which total degree those coefficients are
guaranteed exact (the ``order``). Every operation combines orders by
minimum, and differentiation costs one order, so no coefficient is ever
reported beyond what the inputs actually determine.

Exponent vectors are plain integer tuples. The canonical term order is
graded lexicographic: sort by total degree first, then lexicographically
on the exponent tuple. All iteration that can affect output follows this
order, which makes serialization and reporting bit-reproducible.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Sequence

from .rational import GaussRational, ONE, ZERO


# ---------------------------------------------------------------------------
# multi-index helpers


def grlex_key(exponents: tuple[int, ...]):
    """Sort key realizing the graded-lexicographic order."""
    return (sum(exponents), exponents)


def unit_exponent(nvars: int, index: int) -> tuple[int, ...]:
    if not 0 <= index < nvars:
        raise ValueError(f"variable index {index} out of range for {nvars} variables")
    return tuple(1 if i == index else 0 for i in range(nvars))


def multi_factorial(alpha: tuple[int, ...]) -> int:
    """Product of the factorials of the entries."""
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return out


def multi_indices(nvars: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree <= max_degree, graded-lex ascending."""
    if nvars == 0:
        return [()] if max_degree >= 0 else []
    out = []
    for degree in range(max_degree + 1):
        out.extend(_fixed_degree(nvars, degree))
    return out


def _fixed_degree(nvars, degree):
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree + 1):
        for rest in _fixed_degree(nvars - 1, degree - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# the integer form and the product kernel
#
# A series' integer form is (den, rows, is_complex), and it is the only
# storage a series has. Each row (degree, key, a, b) stands for the term
# (a + b i) / den x^e, where ``key`` packs the exponent tuple e with place
# values base**(nvars - 1 - i), the first variable the most significant.
# The base is order + 2: no entry reaches it, so adding two keys adds their
# tuples and comparing two keys compares their tuples lexicographically;
# since base = 1 mod (order + 1), key % (order + 1) is the degree of any
# term the series can hold. Rows are sorted by (degree, key), which is
# graded-lex order, and the form is primitive, gcd(den, every a, every b)
# == 1, so equal series have equal forms. ``is_complex`` says whether some
# b is nonzero.


_FRACTION_ZERO = Fraction(0)
_ONE_FORM = (1, [(0, 0, 1, 0)], False)
_MINUS_ONE_FORM = (1, [(0, 0, -1, 0)], False)
_SCALARS = (int, Fraction, GaussRational)


@functools.cache
def _weights(base: int, nvars: int) -> tuple[int, ...]:
    """Place values of the exponent entries at ``base``, the first highest."""
    return tuple(base ** (nvars - 1 - i) for i in range(nvars))


def _pack(items, nvars: int, base: int):
    """The integer form of (exponents, GaussRational) items, keys at ``base``.

    ``den`` is that of ``_integers``, the lcm of every denominator, which
    makes the form primitive.
    """
    items = list(items)
    den, values = _integers([c for _, c in items])
    weights = _weights(base, nvars)
    rows = [
        (sum(e), sum(map(operator.mul, e, weights)), a, b)
        for (e, _), (a, b) in zip(items, values)
    ]
    rows.sort()
    return den, rows, any(b for _, b in values)


def _constant_form(value):
    """The integer form of the constant ``value`` as a kernel operand: its
    one row, stored even for zero, has key 0 at every base."""
    return _pack([((), GaussRational.coerce(value))], 0, 2)


def _exponents(key: int, base: int, nvars: int) -> tuple[int, ...]:
    e = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        key, e[i] = divmod(key, base)
    return tuple(e)


def _integers(values):
    """(den, [(a, b), ...]): each GaussRational of ``values`` as the
    Gaussian integer a + b i over ``den``, the lcm of every part's
    denominator; ``_coefficient`` reads one back."""
    den = math.lcm(*[c.re.denominator for c in values], *[c.im.denominator for c in values])
    return den, [
        (c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator))
        for c in values
    ]


def _coefficient(den: int, a: int, b: int) -> GaussRational:
    """The GaussRational (a + b i) / den, such as one row's coefficient;
    ``den`` may be negative."""
    return GaussRational._trusted(
        Fraction(a, den) if a else _FRACTION_ZERO,
        Fraction(b, den) if b else _FRACTION_ZERO,
    )


def _integer(value, what: str) -> int:
    """``value`` as an int, for anything that stands for one exactly."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


def _plan(nvars: int, base: int, moves, group, src: int, order: int):
    """How ``_walk`` re-keys rows over ``nvars`` variables, keys at
    ``base``, into rows over ``src`` variables, keys at base order + 2.

    ``moves`` holds pairs (i, j): the exponent of variable i is added to
    that of result variable j. ``group`` lists the variables whose
    exponents make up a row's pattern. Every other variable is dropped,
    and so is every row that uses it: a run of consecutive dropped
    variables is one slice ``key // w % span`` of the key, nonzero exactly
    when the row uses one of them.
    """
    weights, targets = _weights(base, nvars), _weights(order + 2, src)
    kills = []
    if len(moves) + len(group) < nvars:  # some variable is dropped
        kept, start = {i for i, _ in moves}.union(group), 0
        for i in range(nvars + 1):
            if i == nvars or i in kept:
                if start < i:
                    kills.append((weights[i - 1], base ** (i - start)))
                start = i + 1
    moved = [(weights[i], targets[j]) for i, j in moves]
    return base, order, kills, moved, [weights[i] for i in group]


def _walk(rows, plan) -> dict:
    """The ``rows`` through the plan's order that use no dropped variable,
    re-keyed by ``plan``, as {pattern: rows}, each list in input order.

    Keys are never decoded into exponent tuples: each exponent is read as
    one digit ``key // w % base``. A row's new key is the sum of its moved
    digits at their result place values, and its pattern the tuple of its
    group digits. With no group, every row keeps its degree and goes under
    the pattern (); otherwise its degree is that of its new key.
    """
    base, order, kills, moves, group = plan
    top = order + 1
    out = []
    groups = {} if group else {(): out}
    for d, k, a, b in rows:
        if d > order:
            break
        for w, span in kills:
            if k // w % span:
                break
        else:
            key = sum([k // w % base * t for w, t in moves])
            if group:
                out = groups.setdefault(tuple([k // w % base for w in group]), [])
                d = key % top
            out.append((d, key, a, b))
    return groups


def _primitive(den: int, rows: list):
    """The form of ``rows`` over ``den`` divided by its content."""
    g = math.gcd(den, *[row[2] for row in rows], *[row[3] for row in rows])
    if g != 1:
        den //= g
        rows = [(d, k, a // g, b // g) for d, k, a, b in rows]
    return den, rows, any(row[3] for row in rows)


def _sum_of_products_form(pairs, order: int, depth: int | None = None):
    """The integer form of the sum of left * right over ``pairs``, through
    degree ``order``, or only through ``depth`` <= ``order`` when given.

    Each operand is an integer form with keys at base order + 2, as
    ``TruncatedSeries._form_at`` gives it; a left operand need only be
    sorted by degree, and neither need be primitive. ``depth`` bounds the
    rows formed and nothing else: keys stay at base order + 2, and a row's
    degree is read as key % (order + 1). All products are
    accumulated as plain ints over one common denominator; the content gcd
    is taken from the accumulators, and the rows are built already divided
    by it, so the result is primitive and an empty sum is (1, [], False).
    """
    reach = order if depth is None else depth
    den = math.lcm(*[dl * dr for (dl, _, _), (dr, _, _) in pairs])
    re_acc: dict[int, int] = {}  # holds every key reached, in first-reached order
    im_acc: dict[int, int] = {}
    re_get, im_get = re_acc.get, im_acc.get
    for (dl, left, _), (dr, right, right_complex) in pairs:
        scale = den // (dl * dr)
        for d1, k1, a1, b1 in left:
            room = reach - d1
            if room < 0:
                break
            if scale != 1:
                a1 *= scale
                b1 *= scale
            if b1 or right_complex:
                for d2, k2, a2, b2 in right:
                    if d2 > room:
                        break
                    k = k1 + k2
                    re_acc[k] = re_get(k, 0) + a1 * a2 - b1 * b2
                    im_acc[k] = im_get(k, 0) + a1 * b2 + b1 * a2
            else:  # both factors real
                for d2, k2, a2, _ in right:
                    if d2 > room:
                        break
                    k = k1 + k2
                    re_acc[k] = re_get(k, 0) + a1 * a2
    g = math.gcd(den, *re_acc.values(), *im_acc.values())
    top = order + 1
    # every key in im_acc is in re_acc too
    rows = [
        (k % top, k, a // g, im_get(k, 0) // g) for k, a in re_acc.items() if a or im_get(k, 0)
    ]
    rows.sort()
    return den // g, rows, any(im_acc.values())


def _sum_of_products(pairs, nvars: int, order: int) -> "TruncatedSeries":
    """``_sum_of_products_form`` as a series over ``nvars`` variables."""
    return TruncatedSeries._trusted(nvars, order, _sum_of_products_form(pairs, order))


# ---------------------------------------------------------------------------


class TruncatedSeries:
    """A formal power series known exactly through total degree ``order``.

    A series stores its terms only as the integer form above, at base
    ``order + 2``. ``terms`` maps exponent tuples to nonzero GaussRational
    coefficients in graded-lex order: a read-only decoding of the form,
    built on first read. Instances are immutable.
    """

    __slots__ = ("nvars", "order", "_form", "_view")

    def __init__(self, nvars: int, order: int, terms=()):
        nvars, order = _integer(nvars, "nvars"), _integer(order, "truncation order")
        if nvars < 0:
            raise ValueError("nvars must be nonnegative")
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        data = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for exponents, coeff in items:
            try:
                exponents = tuple(map(operator.index, exponents))
            except TypeError:
                raise TypeError(f"exponent tuple {exponents!r} must hold integers") from None
            if len(exponents) != nvars:
                raise ValueError(
                    f"exponent tuple {exponents} has arity {len(exponents)}, expected {nvars}"
                )
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents}")
            if sum(exponents) > order:
                raise ValueError(
                    f"term of degree {sum(exponents)} exceeds truncation order {order}"
                )
            coeff = GaussRational.coerce(coeff)
            if coeff.is_zero():
                continue
            if exponents in data:
                raise ValueError(f"duplicate exponent tuple {exponents}")
            data[exponents] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_form", _pack(data.items(), nvars, order + 2))
        object.__setattr__(self, "_view", None)

    @classmethod
    def _trusted(cls, nvars: int, order: int, form) -> "TruncatedSeries":
        """Wrap an integer form crkit built itself, without re-validating it.

        The caller guarantees a primitive form at base ``order + 2`` with
        sorted rows, nonzero coefficients and degrees <= ``order``.
        """
        series = object.__new__(cls)
        object.__setattr__(series, "nvars", nvars)
        object.__setattr__(series, "order", order)
        object.__setattr__(series, "_form", form)
        object.__setattr__(series, "_view", None)
        return series

    @property
    def _terms(self) -> dict:
        """The GaussRational view, decoded from the form on first read."""
        view = self._view
        if view is None:
            den, rows, _ = self._form
            base, nvars = self.order + 2, self.nvars
            view = {_exponents(k, base, nvars): _coefficient(den, a, b) for _, k, a, b in rows}
            object.__setattr__(self, "_view", view)
        return view

    def _form_at(self, base: int):
        """The integer form with keys at ``base``, through degree base - 2.

        Only the form at the series' own base, order + 2, is kept; another
        base gets a copy with its keys re-packed, which need not be
        primitive.
        """
        own, nvars = self.order + 2, self.nvars
        if base == own:
            return self._form
        den, rows, is_complex = self._form
        plan = _plan(nvars, own, [(i, i) for i in range(nvars)], (), nvars, base - 2)
        return den, _walk(rows, plan)[()], is_complex

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors

    @classmethod
    def zero(cls, nvars: int, order: int) -> "TruncatedSeries":
        return cls(nvars, order)

    @classmethod
    def constant(cls, value, nvars: int, order: int) -> "TruncatedSeries":
        return cls(nvars, order, [((0,) * nvars, GaussRational.coerce(value))])

    @classmethod
    def monomial(cls, nvars, order, exponents, coeff=ONE) -> "TruncatedSeries":
        return cls(nvars, order, [(tuple(exponents), coeff)])

    @classmethod
    def variable(cls, nvars, order, index) -> "TruncatedSeries":
        if order < 1:
            raise ValueError("a variable monomial needs order >= 1")
        return cls(nvars, order, [(unit_exponent(nvars, index), ONE)])

    # -- inspection

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], GaussRational]]:
        return list(self._terms.items())

    def coefficient(self, exponents) -> GaussRational:
        """The coefficient of x^exponents, ZERO when none is stored.

        A point read: it bisects the rows for the packed key and decodes
        that one row, never the whole view.
        """
        row = self._row(exponents)
        return ZERO if row is None else _coefficient(*row)

    def _row(self, exponents):
        """The coefficient of x^exponents as (den, a, b), standing for
        (a + b i) / den, or None when none is stored."""
        exponents = tuple(exponents)
        degree = sum(exponents)
        if len(exponents) != self.nvars or degree > self.order or min(exponents, default=0) < 0:
            return None
        key = sum(map(operator.mul, exponents, _weights(self.order + 2, self.nvars)))
        den, rows, _ = self._form
        i = bisect.bisect_left(rows, (degree, key))
        if i < len(rows) and rows[i][:2] == (degree, key):
            return (den, *rows[i][2:])
        return None

    def constant_term(self) -> GaussRational:
        # a degree-0 row can only be the first
        den, rows, _ = self._form
        return _coefficient(den, *rows[0][2:]) if rows and not rows[0][0] else ZERO

    def is_zero(self) -> bool:
        return not self._form[1]

    def valuation(self):
        """Smallest total degree of a stored term, or None for the zero series."""
        rows = self._form[1]
        return rows[0][0] if rows else None

    def least_term(self):
        """Graded-lex-least stored term as (exponents, coefficient), or None."""
        den, rows, _ = self._form
        if not rows:
            return None
        _, k, a, b = rows[0]
        return _exponents(k, self.order + 2, self.nvars), _coefficient(den, a, b)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        # primitive forms at the same base are equal exactly when the series are
        same_ring = self.nvars == other.nvars and self.order == other.order
        return same_ring and self._form[:2] == other._form[:2]

    __hash__ = None

    def __repr__(self):
        size = len(self._form[1])
        return f"TruncatedSeries(nvars={self.nvars}, order={self.order}, {size} terms)"

    def __str__(self):
        return format_series(self)

    # -- arithmetic

    def _compatible(self, other: "TruncatedSeries"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def _plus(self, other, sign):
        """self + sign * other, for a series or a scalar ``other``."""
        if isinstance(other, _SCALARS):
            order, right = self.order, _constant_form(other)
        elif isinstance(other, TruncatedSeries):
            self._compatible(other)
            order = min(self.order, other.order)
            right = other._form_at(order + 2)
        else:
            return NotImplemented
        pairs = [(self._form_at(order + 2), _ONE_FORM), (right, sign)]
        return _sum_of_products(pairs, self.nvars, order)

    def __add__(self, other):
        return self._plus(other, _ONE_FORM)

    __radd__ = __add__

    def __neg__(self):
        return _sum_of_products([(self._form, _MINUS_ONE_FORM)], self.nvars, self.order)

    def __sub__(self, other):
        return self._plus(other, _MINUS_ONE_FORM)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value) -> "TruncatedSeries":
        return _sum_of_products([(self._form, _constant_form(value))], self.nvars, self.order)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._compatible(other)
        order = min(self.order, other.order)
        return _sum_of_products(
            [(self._form_at(order + 2), other._form_at(order + 2))], self.nvars, order
        )

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are defined")
        if not exponent:
            return TruncatedSeries.constant(ONE, self.nvars, self.order)
        # binary powering from the first factor, so no product by 1
        result, square = None, self
        while True:
            if exponent & 1:
                result = square if result is None else result * square
            exponent >>= 1
            if not exponent:
                return result
            square = square * square

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients above ``order``. Cannot raise the order."""
        order = _integer(order, "truncation order")
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if order > self.order:
            raise ValueError(
                f"cannot extend guaranteed order {self.order} to {order}"
            )
        if order == self.order:
            return self
        den, rows, _ = self._form_at(order + 2)
        return TruncatedSeries._trusted(self.nvars, order, _primitive(den, rows))

    def derive(self, index: int) -> "TruncatedSeries":
        """Exact partial derivative. Costs one order of truncation."""
        index = _integer(index, "variable index")
        if self.order < 1:
            raise ValueError("cannot differentiate a series of order 0")
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        base, nvars = self.order + 2, self.nvars
        weights = _weights(base - 1, nvars)
        den, rows, _ = self._form
        # lowering one entry keeps the graded-lex order of the rows that have it
        lowered = []
        for d, k, a, b in rows:
            e = _exponents(k, base, nvars)
            m = e[index]
            if m:
                key = sum(map(operator.mul, e, weights)) - weights[index]
                lowered.append((d - 1, key, a * m, b * m))
        return TruncatedSeries._trusted(nvars, self.order - 1, _primitive(den, lowered))

    def conjugate(self) -> "TruncatedSeries":
        """Conjugate every coefficient. Exponents are untouched."""
        den, rows, is_complex = self._form
        if not is_complex:
            return self
        conjugated = [(d, k, a, -b) for d, k, a, b in rows]
        return TruncatedSeries._trusted(self.nvars, self.order, (den, conjugated, True))

    def compose(self, vmap: "SeriesMap") -> "TruncatedSeries":
        return compose(self, vmap)

    # -- variable bookkeeping

    def coefficient_family(self, group: Sequence[int]) -> dict:
        """Collect coefficients with respect to the variable group ``group``.

        Returns {alpha: series in the remaining variables}, where alpha runs
        over the group exponents that actually occur. Each extracted series
        is guaranteed only to order - |alpha|.
        """
        group = [_integer(i, "group index") for i in group]
        if len(set(group)) != len(group):
            raise ValueError("group indices must be distinct")
        if not all(0 <= i < self.nvars for i in group):
            raise ValueError(f"group indices {group} out of range for {self.nvars} variables")
        rest = [i for i in range(self.nvars) if i not in group]
        den, rows, _ = self._form
        # fixing the group entries keeps the graded-lex order of the rest
        buckets: dict[tuple[int, ...], list] = {}
        for d, k, a, b in rows:
            e = _exponents(k, self.order + 2, self.nvars)
            alpha = tuple([e[i] for i in group])
            size = sum(alpha)
            weights = _weights(self.order - size + 2, len(rest))
            key = sum([e[i] * w for i, w in zip(rest, weights)])
            buckets.setdefault(alpha, []).append((d - size, key, a, b))
        return {
            alpha: TruncatedSeries._trusted(len(rest), self.order - sum(alpha), _primitive(den, part))
            for alpha, part in buckets.items()
        }


def _dense_family(series: TruncatedSeries, group: Sequence[int], cutoff: int) -> list:
    """Every (alpha, coefficient series) of ``series.coefficient_family(group)``
    for |alpha| <= ``cutoff``, graded-lex ascending, absent alpha as zero.

    The absent entries of one |alpha| share one zero series.
    """
    family = series.coefficient_family(group)
    rest = series.nvars - len(group)
    zero = None
    out = []
    for alpha in multi_indices(len(group), cutoff):
        entry = family.get(alpha)
        if entry is None:
            order = series.order - sum(alpha)
            if zero is None or zero.order != order:
                zero = TruncatedSeries._trusted(rest, order, (1, [], False))
            entry = zero
        out.append((alpha, entry))
    return out


class SeriesMap:
    """A tuple of TruncatedSeries sharing one source variable list and order."""

    __slots__ = ("components",)

    def __init__(self, components: Iterable[TruncatedSeries]):
        components = tuple(components)
        if not components:
            raise ValueError("a map needs at least one component")
        nvars = components[0].nvars
        order = components[0].order
        for c in components:
            if c.nvars != nvars:
                raise ValueError("components must share the source variables")
            if c.order != order:
                raise ValueError("components must share the truncation order")
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("SeriesMap is immutable")

    @classmethod
    def identity(cls, nvars: int, order: int) -> "SeriesMap":
        return cls.from_slots(nvars, order, range(nvars))

    @classmethod
    def from_slots(cls, nvars: int, order: int, slots) -> "SeriesMap":
        """A map over ``nvars`` source variables at ``order``, one slot per
        component: a source-variable index (that variable; zero at order 0),
        None for zero, or a series over ``nvars`` variables, which is
        truncated to ``order``."""
        nvars, order = _integer(nvars, "nvars"), _integer(order, "truncation order")
        weights = _weights(order + 2, nvars)
        components = []
        for slot in slots:
            if slot is None or isinstance(slot, int):
                if slot is not None and not 0 <= slot < nvars:
                    raise ValueError(f"variable index {slot} out of range for {nvars} variables")
                rows = [(1, weights[slot], 1, 0)] if slot is not None and order else []
                components.append(TruncatedSeries._trusted(nvars, order, (1, rows, False)))
            elif not isinstance(slot, TruncatedSeries):
                raise TypeError(f"slot {slot!r} is not a variable index, None or a series")
            elif slot.nvars != nvars:
                raise ValueError(f"slot series has {slot.nvars} variables, expected {nvars}")
            else:
                components.append(slot.truncate(order))
        return cls(components)

    @property
    def source_nvars(self) -> int:
        return self.components[0].nvars

    @property
    def target_nvars(self) -> int:
        return len(self.components)

    @property
    def order(self) -> int:
        return self.components[0].order

    def is_origin_preserving(self) -> bool:
        return all(c.valuation() != 0 for c in self.components)

    def conjugate(self) -> "SeriesMap":
        return SeriesMap(c.conjugate() for c in self.components)

    def truncate(self, order: int) -> "SeriesMap":
        if order == self.order:
            return self
        return SeriesMap(c.truncate(order) for c in self.components)

    def compose(self, inner: "SeriesMap") -> "SeriesMap":
        """Componentwise substitution, self after inner, in one pass."""
        return compose(self, inner)

    def jacobian(self) -> list[list[TruncatedSeries]]:
        """Matrix of partials, rows by component, columns by source variable.

        Entries carry order - 1, one order spent on differentiation.
        """
        return [
            [c.derive(j) for j in range(self.source_nvars)] for c in self.components
        ]

    def linear_matrix(self) -> list[list[GaussRational]]:
        """Coefficients of the linear part, readable at any order >= 1."""
        if self.order < 1:
            raise ValueError("order 0 does not determine the linear part")
        return [
            [c.coefficient(unit_exponent(self.source_nvars, j)) for j in range(self.source_nvars)]
            for c in self.components
        ]

    def __eq__(self, other):
        if not isinstance(other, SeriesMap):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def __repr__(self):
        return (
            f"SeriesMap({self.source_nvars} -> {self.target_nvars}, order={self.order})"
        )


def compose(outer: "TruncatedSeries | SeriesMap", vmap: SeriesMap):
    """Substitute the components of ``vmap`` for the variables of ``outer``.

    ``outer`` is a series, or a map whose every component is substituted
    in the same pass; the result is of the same kind. The map must preserve
    the origin; otherwise low-degree output coefficients would depend on
    input coefficients beyond the truncation, and the result could not be
    guaranteed exact. The result order is the minimum of both orders.

    This is the one substitution routine: relabels and restrictions are
    compositions with maps written by ``SeriesMap.from_slots``. A slot
    holding a plain variable only shifts exponents, and a slot holding
    zero, or a series with no term through the result order, only drops
    the outer terms that use it. A map with no other slot, a relabel, is
    applied by that shift alone and never calls the product kernel: rows
    move as they are, sorted only when the shift can reorder them, and
    summed only where two slots naming one variable make keys meet. The
    outer terms sharing an exponent pattern on the other, general slots
    are summed against that pattern's product in one pass of the product
    kernel, one pass per outer series.

    Each power Y_i^k of a general slot and each pattern product is formed
    once per call, shared by every outer series, and only as deep as some
    term reads it. The kernel pairs a group row of degree d only with
    product rows of degree <= order - d, so a pattern's product is read
    through order - d_min, its depth, where d_min is the lowest degree of
    its groups. A factor Y_i^k of the pattern is then read through that
    depth less the valuations of the other factors, and Y_i^k = Y_i^(k-1)
    Y_i reads Y_i^(k-1) through that less v_i, the valuation of Y_i. Each
    product is formed by the kernel through its degree bound, at the keys
    of base order + 2, and every row a final sum reads is formed exactly;
    as every form is primitive, the result has the bytes it would have
    had from products at full order.

    One walk, ``_walk``, moves every key, here as elsewhere: it reads each
    slot's exponent as one digit ``key // w % base`` of the packed outer
    key and never decodes the key into a tuple to pack it again. A zero
    slot drops the outer terms that use it, a plain slot moves its digit
    to the place value of its source variable, and the general slots'
    digits make up a term's pattern, the powers of their series. The plan
    is built once per call and shared by every outer series.
    """
    outers = outer.components if isinstance(outer, SeriesMap) else (outer,)
    first = outers[0]
    if vmap.target_nvars != first.nvars:
        raise ValueError(
            f"map produces {vmap.target_nvars} values, series expects {first.nvars}"
        )
    if not vmap.is_origin_preserving():
        raise ValueError("composition requires an origin-preserving map")
    order = min(first.order, vmap.order)
    src = vmap.source_nvars
    # a slot with no term through ``order`` is zero, and is in neither list
    moves, factors, general = [], [], []
    for i, component in enumerate(vmap.components):
        den, rows, _ = component._form
        if not rows or rows[0][0] > order:
            continue
        if den == 1 and len(rows) == 1 and rows[0][0] == 1 and rows[0][2:] == (1, 0):
            moves.append((i, _weights(component.order + 2, src).index(rows[0][1])))
        else:
            general.append(i)
            factors.append((component, rows[0][0]))
    plan = _plan(first.nvars, first.order + 2, moves, general, src, order)

    if not general:
        results = [
            TruncatedSeries._trusted(src, order, _relabel_form(series._form, plan))
            for series in outers
        ]
        return SeriesMap(results) if isinstance(outer, SeriesMap) else results[0]

    # each outer's terms through ``order`` that no zero slot kills, grouped
    # by their exponents on the general slots; a group is one sum of
    # monomials in the plain slots' variables
    grouped = [
        (den, _walk(rows, plan), is_complex)
        for den, rows, is_complex in [series._form for series in outers]
    ]

    # the kernel reads a pattern's product through order - d_min
    depth: dict[tuple[int, ...], int] = {}
    for _, groups, _ in grouped:
        for pattern, group in groups.items():
            group.sort()
            depth[pattern] = max(depth.get(pattern, 0), order - group[0][0])
    products = _pattern_products(depth, factors, order)
    results = [
        _sum_of_products(
            [((den, group, is_complex), products[p]) for p, group in groups.items() if p in products],
            src,
            order,
        )
        for den, groups, is_complex in grouped
    ]
    return SeriesMap(results) if isinstance(outer, SeriesMap) else results[0]


def _relabel_form(form, plan):
    """``form`` after a relabel, a map with no general slot, walked by
    ``compose``'s ``plan``.

    A relabel makes no product. Each row through the order that uses no
    zero slot keeps its degree and coefficient, its key moved digit by
    digit. When the moves' result place values fall along the outer slots,
    the order of the result keys is the order of the outer keys, so the
    rows stay sorted; otherwise they are sorted once, and when two slots
    name one variable, the equal keys that meet are summed as neighbours.
    Only a form that lost rows can have gained a content gcd.
    """
    den, rows, is_complex = form
    moved = _walk(rows, plan)[()]
    targets = [t for _, t in plan[3]]  # the moves' result place values
    if not all(map(operator.gt, targets, targets[1:])):
        moved.sort()
        if len(set(targets)) < len(targets):
            merged = []
            for row in moved:
                if merged and merged[-1][1] == row[1]:
                    d, k, a, b = merged[-1]
                    merged[-1] = (d, k, a + row[2], b + row[3])
                else:
                    merged.append(row)
            moved = [row for row in merged if row[2] or row[3]]
    if len(moved) < len(rows):
        return _primitive(den, moved)
    return den, moved, is_complex


def _pattern_products(depth: dict, factors: list, order: int) -> dict:
    """The power cache of ``compose`` and of the solvers' shift: each
    pattern of ``depth`` mapped to its product of powers of the factors,
    formed through the degrees ``compose`` derives from the pattern's
    depth, each power once. ``factors`` holds each factor's (series,
    valuation), in the order of a pattern's entries; a valuation may be a
    lower bound, such as the shift's 0. A pattern whose product starts
    above its depth gets none."""
    used = {}
    need: dict[int, dict[int, int]] = {}  # slot -> {power k >= 2: degree read}
    for pattern, reach in depth.items():
        powers, low = [], 0  # the pattern's nonzero (slot, power), the product's valuation
        for j, k in enumerate(pattern):
            if k:
                powers.append((j, k))
                low += k * factors[j][1]
        if reach >= low:
            used[pattern] = powers, low
            for j, k in powers:
                if k > 1:
                    reads = need.setdefault(j, {})
                    reads[k] = max(reads.get(k, 0), reach - low + k * factors[j][1])
    cache = [[_ONE_FORM, series._form_at(order + 2)] for series, _ in factors]
    for j, reads in need.items():
        valuation, chain = factors[j][1], cache[j]
        highest = max(reads)
        for k in range(highest, 2, -1):
            reads[k - 1] = max(reads.get(k - 1, 0), reads[k] - valuation)
        for k in range(2, highest + 1):
            chain.append(_sum_of_products_form([(chain[-1], chain[1])], order, reads[k]))

    products = {}
    for pattern, (powers, low) in used.items():
        product, later = _ONE_FORM, low
        for j, k in powers:
            later -= k * factors[j][1]
            factor = cache[j][k]
            if product is _ONE_FORM:
                product = factor
            else:
                product = _sum_of_products_form([(product, factor)], order, depth[pattern] - later)
        products[pattern] = product
    return products


def _inverse_equation(f: TruncatedSeries, i: int) -> TruncatedSeries:
    """f(y) - x_i over (x, y), where x and y have f.nvars entries each, x
    first: the i-th equation that an inverse y = g(x) of a map with i-th
    component f solves.

    At one base, y holds the lowest f.nvars places of a key over (x, y),
    so the rows of f stand as they are, and -x_i adds one row after the
    linear ones. The added coefficient is -den, so the form stays
    primitive. Needs f.order >= 1.
    """
    den, rows, is_complex = f._form
    split = bisect.bisect_left(rows, (2,))
    minus_x = (1, _weights(f.order + 2, 2 * f.nvars)[i], -den, 0)
    form = (den, [*rows[:split], minus_x, *rows[split:]], is_complex)
    return TruncatedSeries._trusted(2 * f.nvars, f.order, form)


# ---------------------------------------------------------------------------
# display helpers


def default_names(nvars: int) -> list[str]:
    return [f"x{i + 1}" for i in range(nvars)]


def format_monomial(exponents: tuple[int, ...], names: Sequence[str]) -> str:
    parts = []
    for name, e in zip(names, exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"

def format_series(series: TruncatedSeries, names: Sequence[str] | None = None) -> str:
    if names is None:
        names = default_names(series.nvars)
    den, rows, _ = series._form
    if not rows:
        return "0"
    base, nvars = series.order + 2, series.nvars
    chunks = []
    for _, key, a, b in rows:
        mono = format_monomial(_exponents(key, base, nvars), names)
        if mono == "1":
            chunks.append(str(_coefficient(den, a, b)))
        elif b or abs(a) != den:
            chunks.append(f"{_coefficient(den, a, b)}*{mono}")
        else:  # the coefficient is 1 or -1
            chunks.append(mono if a > 0 else f"-{mono}")
    text = " + ".join(chunks)
    return text.replace("+ -", "- ")
