"""Canonical text documents for series, maps, and hypersurfaces.

The interchange format is deliberately rigid so that equal values have
equal bytes: LF line endings, single-space separation, graded-lex term
order, fractions in lowest terms with the sign on the numerator and an
explicit denominator. Parsing validates everything it reads and collects
all problems into one DocumentError instead of stopping at the first.

A series document:

    crkit-series/1
    kind series
    vars z:2 w:2
    order 8
    terms 3
    term 0 0 0 1 0/1 1/2
    term 0 1 0 0 0/1 -1/2
    term 1 0 1 0 -1/1 0/1
    end

Each term line is the exponent vector followed by the real and imaginary
parts. Map documents insert "components k" and per-component term blocks;
hypersurface documents carry "n" and a "normal" flag and always declare
variables as z:n w:n and an order of at least 2. Reflection reports are
written, never parsed.

A block of term lines is read in one pass: one regular expression,
compiled once per variable count, matches the whole block, every line
with exactly that many exponents and every token canonical; one ``int``
call per token converts it, and the rules (gcd(p, q) == 1 for both parts,
a nonzero coefficient, degree at most the order, strictly ascending
graded-lex order) are checked column by column. The rows then go straight
into the series' integer form; no Fraction is built. A block that breaks
any rule is read again line by line, only to word each problem with its
line number. Writing reads that form too: each row (degree, key, a, b)
over den becomes one term line, with no GaussRational built.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import re
import sys
from fractions import Fraction

from .errors import DocumentError
from .hypersurface import from_defining
from .series import SeriesMap, TruncatedSeries, _exponents, _weights

FORMAT_VERSION = "crkit-series/1"
# the order the shipped corpus documents are written at, and the order a
# command reads when none is asked for
DEFAULT_ORDER = 8

_KINDS = ("series", "map", "hypersurface")
_GROUP_RE = re.compile(r"([A-Za-z_]+):([1-9][0-9]*)\Z")


# ---------------------------------------------------------------------------
# serialization


def _fraction_token(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _frame(kind: str, lines) -> str:
    """The document of ``kind`` holding ``lines``: the version line, the
    kind line, ``lines`` and 'end', each ended by LF."""
    return "\n".join([FORMAT_VERSION, f"kind {kind}", *lines, "end"]) + "\n"


def _vars_line(groups, nvars: int, holder: str) -> str:
    """The 'vars' line of ``groups``, which must declare ``nvars`` slots in
    groups that ``_parse_vars`` reads back. ``holder`` words the count error."""
    seen = set()
    for name, arity in groups:
        piece = f"{name}:{arity}"
        if not _GROUP_RE.fullmatch(piece) or name == "i" or name in seen:
            raise ValueError(f"variable group {piece!r} would not parse back")
        seen.add(name)
    total = sum(arity for _, arity in groups)
    if total != nvars:
        raise ValueError(f"variable groups declare {total} slots, {holder} {nvars}")
    if not groups:
        raise ValueError("variable groups declare none; an empty 'vars' line would not parse back")
    return "vars " + " ".join(f"{name}:{arity}" for name, arity in groups)


def _terms_block(series: TruncatedSeries) -> list[str]:
    """The 'terms' count line and one term line per row of the integer form.

    A row (degree, key, a, b) over den is the coefficient a/den + b/den i;
    each part is written in lowest terms, dividing by its gcd with den. The
    series has at least one variable, as ``_vars_line`` requires.
    """
    den, rows, _ = series._form
    base, nvars = series.order + 2, series.nvars
    lines = [f"terms {len(rows)}"]
    for _, key, a, b in rows:
        exponents = " ".join(map(str, _exponents(key, base, nvars)))
        ga, gb = math.gcd(a, den), math.gcd(b, den)
        lines.append(f"term {exponents} {a // ga}/{den // ga} {b // gb}/{den // gb}")
    return lines


def _series_block(series: TruncatedSeries, groups) -> list[str]:
    return [
        _vars_line(groups, series.nvars, "series has"),
        f"order {series.order}",
        *_terms_block(series),
    ]


def _default_groups(nvars: int):
    return (("x", nvars),)


def serialize(obj, variables=None) -> str:
    """Canonical document text for a series, map, or hypersurface.

    ``variables`` optionally names the variable groups for series and
    maps, as ((name, arity), ...) summing to the variable count; the
    default is a single group x:nvars. Hypersurfaces always use z:n w:n.
    Equal values produce identical bytes. A group that ``parse_document``
    would reject raises ValueError, so every document written parses back.
    """
    if isinstance(obj, TruncatedSeries):
        groups = _default_groups(obj.nvars) if variables is None else variables
        return _frame("series", _series_block(obj, groups))
    if isinstance(obj, SeriesMap):
        nvars = obj.source_nvars
        groups = _default_groups(nvars) if variables is None else variables
        lines = [
            _vars_line(groups, nvars, "map reads"),
            f"order {obj.order}",
            f"components {obj.target_nvars}",
        ]
        for index, component in enumerate(obj.components, start=1):
            lines.append(f"component {index}")
            lines.extend(_terms_block(component))
        return _frame("map", lines)
    # duck-typed hypersurface: n, rho, normal
    try:
        n, rho, normal = obj.n, obj.rho, obj.normal
    except AttributeError:
        raise TypeError(f"cannot serialize {type(obj).__name__}") from None
    if variables is not None:
        raise ValueError("hypersurface documents fix their variable names")
    return _frame("hypersurface", [
        f"n {n}",
        *_series_block(rho, (("z", n), ("w", n))),
        f"normal {'true' if normal else 'false'}",
    ])


def serialize_report(report) -> str:
    """Canonical text for a ReflectionReport.

    Exact content (the reflection series and the u_alpha family) comes
    first; the float diagnostic is a clearly separated trailer. Floats are
    formatted with %.12e and appear nowhere else in the format.
    """
    n = report.n
    # every entry is a series over zp, so its group is validated once
    zp_vars = _vars_line((("zp", n - 1),), n - 1, "series has")
    lines = [
        f"n {n}",
        f"order {report.order}",
        f"cutoff {report.cutoff}",
        f"radius {_fraction_token(report.evidence.radius)}",
        "reflection",
        *_series_block(report.reflection, (("z", n), ("lambda", n - 1))),
        f"family {len(report.family)}",
    ]
    for alpha, series in report.family:
        if series.nvars != n - 1:
            raise ValueError(f"variable groups declare {n - 1} slots, series has {series.nvars}")
        lines.append("entry " + " ".join(str(a) for a in alpha))
        lines.extend([zp_vars, f"order {series.order}", *_terms_block(series)])
    lines.append(f"r0 {report.evidence.r0:.12e}")
    lines.append(f"polynomial {'true' if report.evidence.polynomial else 'false'}")
    return _frame("reflection-report", lines)


# ---------------------------------------------------------------------------
# parsing


class _Reader:
    """Line cursor plus problem collector; parsing never raises until the
    end, so one pass reports every defect it can reach."""

    def __init__(self, text: str):
        self.problems: list[str] = []
        self.dead = False
        if "\r" in text:
            self.problems.append("document must use LF line endings")
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        self.lines = text.split("\n")
        if self.lines and self.lines[-1] == "":
            self.lines.pop()
        else:
            self.problems.append("document must end with a newline")
        self.pos = 0
        self.taken = False  # the line at pos was consumed by take_kv

    def report(self, message: str, pos: int | None = None):
        self.problems.append(f"line {(self.pos if pos is None else pos) + 1}: {message}")

    def abort(self, message: str):
        """Structural failure; nothing past this point can be trusted."""
        self.report(message)
        self.dead = True

    def next_line(self) -> str | None:
        if self.taken:
            self.advance()
        if self.dead or self.pos >= len(self.lines):
            return None
        return self.lines[self.pos]

    def advance(self):
        self.pos += 1
        self.taken = False

    def take_kv(self, key: str) -> str | None:
        """Consume a line of the form '<key> <value>'.

        The cursor stays on that line until the next read, so a problem the
        caller finds in the value names the line it is on.
        """
        line = self.next_line()
        if line is None:
            if not self.dead:
                self.abort(f"unexpected end of document, expected {key!r}")
            return None
        prefix = key + " "
        if not line.startswith(prefix) or line == prefix:
            self.abort(f"expected {key!r} line, found {line!r}")
            return None
        self.taken = True
        return line[len(prefix):]


_INT_RE = re.compile(r"(0|-?[1-9][0-9]*)\Z")
_DIGITS_RE = re.compile(r"-?[0-9]+\Z")


def _canonical_int(token: str, reader: _Reader, what: str) -> int | None:
    if not _INT_RE.fullmatch(token):
        reader.report(f"{what} {token!r} is not a canonical integer")
        return None
    try:
        return int(token)
    except ValueError:  # past int's limit on digits in a string
        reader.report(f"{what} has {len(token.lstrip('-'))} digits, too many to read")
        return None


def _canonical_nat(token: str, reader: _Reader, what: str) -> int | None:
    value = _canonical_int(token, reader, what)
    if value is not None and value < 0:
        reader.report(f"{what} must be nonnegative, got {value}")
        return None
    return value


def _canonical_fraction(token: str, reader: _Reader, what: str) -> Fraction | None:
    head, sep, tail = token.partition("/")
    if not sep:
        reader.report(f"{what} {token!r} must be written p/q")
        return None
    for side, part in (("numerator", head), ("denominator", tail)):
        # plain digits past int's limit on digits in a string are not read,
        # and a part that long is not echoed, whatever stands beside it
        count = len(part.lstrip("-"))
        if count > sys.get_int_max_str_digits() > 0 and _DIGITS_RE.fullmatch(part):
            reader.report(f"{what} {side} has {count} digits, too many to read")
            return None
    try:
        value = Fraction(int(head), int(tail))
    except (ValueError, ZeroDivisionError):
        reader.report(f"{what} {token!r} is not a valid fraction")
        return None
    if _fraction_token(value) != token:
        reader.report(f"{what} {token!r} is not in canonical lowest terms")
        return None
    return value


def _parse_vars(reader: _Reader):
    value = reader.take_kv("vars")
    if value is None:
        return None
    groups = []
    seen = set()
    for piece in value.split(" "):
        match = _GROUP_RE.fullmatch(piece)
        if match is None:
            reader.report(
                f"variable group {piece!r} is not name:arity with a canonical positive arity"
            )
            continue
        name, arity = match.group(1), int(match.group(2))
        if name in seen or name == "i":
            reader.report(f"bad variable group {piece!r}")
            continue
        seen.add(name)
        groups.append((name, arity))
    if not groups:
        reader.abort("no usable variable groups")
        return None
    return tuple(groups)


def _parse_count(reader: _Reader, key: str) -> int | None:
    value = reader.take_kv(key)
    if value is None:
        return None
    return _canonical_nat(value, reader, key)


def _term_fields(line: str, reader: _Reader, nvars: int):
    """(exponents, real part, imaginary part) of a term line, or None after
    reporting every bad field.

    A line only comes here from a block that ``_block_form`` refused, to
    word its problems, so each token is checked on its own, and the checks
    return the fields.
    """
    tokens = line.split(" ")[1:]
    if len(tokens) != nvars + 2:
        reader.report(
            f"term line has {len(tokens)} fields, expected {nvars} exponents "
            "plus two coefficients"
        )
        return None
    exponents = [_canonical_nat(token, reader, "exponent") for token in tokens[:nvars]]
    re_part = _canonical_fraction(tokens[nvars], reader, "real part")
    im_part = _canonical_fraction(tokens[nvars + 1], reader, "imaginary part")
    if None in exponents or re_part is None or im_part is None:
        return None
    return exponents, re_part, im_part


@functools.cache
def _block_re(nvars: int):
    """A block of term lines, each ended by LF, with exactly ``nvars``
    exponents and every token canonical, bar the gcd of each p/q."""
    return re.compile(
        r"(?:term(?: (?:0|[1-9][0-9]*)){%d} (?:0|-?[1-9][0-9]*)/[1-9][0-9]* "
        r"(?:0|-?[1-9][0-9]*)/[1-9][0-9]*\n)*" % nvars
    )


def _block_form(lines: list[str], nvars: int, order: int):
    """The integer form, at base ``order + 2``, of term lines that break no
    canonical-form rule, or None.

    One match reads the whole block and one ``int`` call per token converts
    it; then each rule is checked column by column. With every degree at
    most ``order``, no exponent reaches the base, so graded-lex order is
    the order of (degree, key). Every p/q and r/s is in lowest terms, so
    the form over the lcm of the denominators is primitive.
    """
    if not lines:
        return 1, [], False
    # a first line of another width is worded line by line; the check also
    # keeps the pattern's repeat count within the size of the text
    if lines[0].count(" ") != nvars + 2:
        return None
    block = "\n".join(lines) + "\n"
    if _block_re(nvars).fullmatch(block) is None:
        return None
    try:
        numbers = list(map(int, block.replace("term ", "").replace("/", " ").split()))
    except ValueError:  # a token past int's digit limit
        return None
    width = nvars + 4
    *exponents, p, q, r, s = [numbers[j::width] for j in range(width)]
    if max(map(math.gcd, p, q)) != 1 or max(map(math.gcd, r, s)) != 1:
        return None
    if not all(map(operator.or_, p, r)):  # a zero coefficient
        return None
    degrees = exponents[0]
    for column in exponents[1:]:
        degrees = list(map(operator.add, degrees, column))
    if max(degrees) > order:
        return None
    keys = [0] * len(lines)
    for column, weight in zip(exponents, _weights(order + 2, nvars)):
        keys = list(map(operator.add, keys, map(operator.mul, column, itertools.repeat(weight))))
    ranks = list(zip(degrees, keys))
    if not all(map(operator.lt, ranks, ranks[1:])):
        return None
    den = math.lcm(*q, *s)
    a = map(operator.mul, p, map(operator.floordiv, itertools.repeat(den), q))
    b = map(operator.mul, r, map(operator.floordiv, itertools.repeat(den), s))
    return den, list(zip(degrees, keys, a, b)), any(r)


def _parse_terms(reader: _Reader, nvars: int, order: int, count: int):
    """Parse `count` term lines, enforcing every canonical-form rule.

    Returns the series' integer form when the block is valid. Otherwise
    the lines are read again one at a time, only to word every problem
    with its line number, and None is returned.
    """
    reader.next_line()  # the cursor onto the first term line
    lines = reader.lines[reader.pos:reader.pos + count]
    form = _block_form(lines, nvars, order) if len(lines) == count else None
    if form is not None:
        reader.pos += count
        return form
    previous = None
    for _ in range(count):
        line = reader.next_line()
        if line is None or not line.startswith("term "):
            reader.abort("expected a 'term' line")
            return None
        fields = _term_fields(line, reader, nvars)
        if fields is not None:
            exponents, re_part, im_part = fields
            degree = sum(exponents)
            if degree > order:
                reader.report(f"term degree {degree} exceeds the declared order {order}")
            if not re_part and not im_part:
                reader.report("zero coefficients must be omitted")
            if previous is not None and (degree, exponents) <= previous:
                reader.report(
                    "terms must be strictly ascending in graded-lex order"
                )
            previous = (degree, exponents)
        reader.advance()
    return None


def _parse_series_block(reader: _Reader):
    groups = _parse_vars(reader)
    order = _parse_count(reader, "order")
    count = _parse_count(reader, "terms")
    if groups is None or order is None or count is None or reader.dead:
        return None
    nvars = sum(arity for _, arity in groups)
    form = _parse_terms(reader, nvars, order, count)
    if form is None or reader.problems:
        return None
    return groups, TruncatedSeries._trusted(nvars, order, form)


def _expect_end(reader: _Reader):
    line = reader.next_line()
    if line is None:
        if not reader.dead:
            reader.abort("missing 'end' line")
        return
    if line != "end":
        reader.abort(f"expected 'end', found {line!r}")
        return
    reader.advance()
    trailing = len(reader.lines) - reader.pos
    if trailing:
        reader.report(f"{trailing} unexpected line(s) after 'end'")


def parse_document(text: str):
    """Parse a canonical document into its exact value.

    Returns a TruncatedSeries, SeriesMap, or Hypersurface according to the
    document's kind line. Raises DocumentError carrying every problem
    found, not just the first.
    """
    reader = _Reader(text)
    if not reader.lines or reader.lines[0] != FORMAT_VERSION:
        found = reader.lines[0] if reader.lines else ""
        raise DocumentError(
            [f"unsupported format version {found!r}, expected {FORMAT_VERSION!r}"]
        )
    reader.advance()
    kind = reader.take_kv("kind")
    if kind is None:
        raise DocumentError(reader.problems)
    if kind not in _KINDS:
        raise DocumentError([f"unsupported kind {kind!r}"])

    result = None
    if kind == "series":
        block = _parse_series_block(reader)
        _expect_end(reader)
        if block is not None and not reader.problems:
            result = block[1]
    elif kind == "map":
        groups = _parse_vars(reader)
        order = _parse_count(reader, "order")
        ncomp = _parse_count(reader, "components")
        components = []
        if groups is not None and order is not None and ncomp is not None:
            nvars = sum(arity for _, arity in groups)
            if ncomp < 1:
                reader.abort("a map needs at least one component")
            for index in range(1, ncomp + 1):
                label = reader.take_kv("component")
                if label is None:
                    break
                if label != str(index):
                    reader.report(f"component label {label!r}, expected {index}")
                count = _parse_count(reader, "terms")
                if count is None:
                    break
                form = _parse_terms(reader, nvars, order, count)
                if reader.dead:
                    break
                components.append(form)
        _expect_end(reader)
        if not reader.problems:
            # every reader that returned None reported a problem, so nvars is set
            result = SeriesMap(
                TruncatedSeries._trusted(nvars, order, form) for form in components
            )
    else:  # hypersurface
        n_token = reader.take_kv("n")
        n = None
        if n_token is not None:
            n = _canonical_nat(n_token, reader, "n")
            if n is not None and n < 2:
                reader.report(f"n must be at least 2, got {n}")
                n = None
        vars_pos = reader.pos + 1  # the vars line, then order; used only if n was read
        block = _parse_series_block(reader)
        normal_token = reader.take_kv("normal")
        normal_pos = reader.pos
        if normal_token is not None and normal_token not in ("true", "false"):
            reader.report(f"normal flag must be true or false, got {normal_token!r}")
            normal_token = None
        _expect_end(reader)
        if block is not None and n is not None and not reader.problems:
            groups, rho = block
            if groups != (("z", n), ("w", n)):
                reader.report(
                    "hypersurface documents must declare variables z:n w:n", vars_pos
                )
            elif rho.order < 2:
                reader.report(f"defining series needs order >= 2, got {rho.order}", vars_pos + 1)
            else:
                surface = from_defining(rho, n, provenance=("document",))
                if normal_token is not None:
                    declared = normal_token == "true"
                    if declared != surface.normal:
                        reader.report(
                            "declared normal flag contradicts the series", normal_pos
                        )
                    else:
                        result = surface

    if reader.problems:
        raise DocumentError(reader.problems)
    assert result is not None
    return result


def _stage(path, data: str):
    """Write ``data`` as UTF-8 with LF line ends to a new temporary file
    beside the file ``path`` names, removed on any failure; return
    (temporary, target). A symlink is written through, as a plain ``open``
    would, not replaced by a regular file.
    """
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    for attempt in itertools.count():
        temp = os.path.join(directory, f".{name}.{os.getpid()}-{attempt}.tmp")
        try:
            # O_EXCL never reuses another writer's file; mode 0o666 lets the
            # umask decide permissions, as a plain open would
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(data)
    except BaseException as exc:
        os.unlink(temp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise
    return temp, target


def write_atomic(files) -> None:
    """Write each (path, data) of ``files`` as one set.

    Every text is staged in a temporary file beside its path, and only
    then does each replace its path in one ``os.replace``, so a reader sees
    the old file or the new one, never part of either. A failure while
    staging removes every temporary file and leaves every path as it was;
    one between the renames leaves the earlier paths new, the later ones
    old, and no temporary file. An error opening, writing or renaming
    names the path as given, not the temporary file, whose name changes
    from run to run; its errno keeps the same OSError subclass.
    """
    staged = []
    try:
        for path, data in files:
            staged.append((path, *_stage(path, data)))
        while staged:
            path, temp, target = staged[0]
            try:
                os.replace(temp, target)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
            staged.pop(0)
    finally:
        for _, temp, _ in staged:
            os.unlink(temp)


def write_document(path, obj, variables=None):
    """Serialize to a file with exact canonical bytes (UTF-8, LF), atomically."""
    write_atomic([(path, serialize(obj, variables))])


def read_document(path):
    """Parse the document in the file ``path`` names; bytes that are not
    UTF-8 raise DocumentError naming the offset of the first."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        problem = f"not UTF-8: byte 0x{data[exc.start]:02x} at offset {exc.start} does not decode"
        raise DocumentError([problem]) from None
    return parse_document(text)
