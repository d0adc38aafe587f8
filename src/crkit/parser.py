"""Expression parser for polynomial input.

Turns human-readable polynomial text like ``-(i/2)*(z2 - w2) - z1*w1``
into an exact TruncatedSeries. The grammar:

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := base ('^' nat)?
    base     := nat | 'i' | ident | '(' expr ')' | '-' base

Division is only defined when the divisor is a nonzero constant, so
``i/2`` and ``z1/3`` parse while ``1/z1`` is rejected. There is no
implicit multiplication: ``2z1`` is a syntax error. Identifiers are an
ASCII group name followed by a 1-based index written without a leading
zero (``z1``, ``w2``, ``lambda3``; ``z0`` and ``z01`` name nothing) and
must resolve against the declared variable list; ``i``
is reserved for the imaginary unit. Unary minus binds tighter than the
power operator, so ``-z1^2`` means ``(-z1)^2``.

Expansion is exact over Gaussian rationals. Terms above the requested
truncation order are dropped with a TruncationWarning rather than
silently discarded.

No syntax tree is built. The recursive descent reads the tokens twice,
computing as it goes: the first pass bounds the degree of every
subexpression, and the second expands the series at that bound, so each
step is exact. Every syntax error is found by the first pass, before any
expansion. Operands are expanded left to right, so when an expression
divides by a non-constant more than once, the first such ``/`` in
reading order is the one reported.
"""

from __future__ import annotations

import operator
import re
import warnings
from typing import NamedTuple, Sequence, Union

from .errors import ParseError
from .rational import I, ONE
from .series import TruncatedSeries


class TruncationWarning(UserWarning):
    """A parsed polynomial had terms above the requested order."""


# ---------------------------------------------------------------------------
# variable declarations

Declaration = Union[str, Sequence[tuple[str, int]]]

_NAME_RE = re.compile(r"[A-Za-z_]+\Z")
_IDENT_RE = re.compile(r"([A-Za-z_]+)([1-9][0-9]*)\Z")


def normalize_declaration(decl: Declaration) -> tuple[tuple[str, int], ...]:
    """Validate a variable declaration and return ((name, arity), ...).

    Accepts either the compact string form "z:2,w:2" or a sequence of
    (name, arity) pairs. Group names are ASCII letters and underscores,
    pairwise distinct, and never the reserved 'i'; arities are positive.
    """
    if isinstance(decl, str):
        pairs = []
        for piece in decl.split(","):
            piece = piece.strip()
            name, sep, count = piece.partition(":")
            if not sep:
                raise ParseError(f"variable group {piece!r} is not name:arity")
            try:
                arity = int(count)
            except ValueError:
                raise ParseError(f"arity {count!r} is not an integer") from None
            pairs.append((name.strip(), arity))
    else:
        pairs = [(name, int(count)) for name, count in decl]
    seen = set()
    for name, arity in pairs:
        if not _NAME_RE.fullmatch(name):
            raise ParseError(
                f"group name {name!r} must be ASCII letters or underscores"
            )
        if name == "i":
            raise ParseError("group name 'i' is reserved for the imaginary unit")
        if name in seen:
            raise ParseError(f"duplicate group name {name!r}")
        if arity < 1:
            raise ParseError(f"group {name!r} needs a positive arity")
        seen.add(name)
    if not pairs:
        raise ParseError("at least one variable group is required")
    return tuple(pairs)


# ---------------------------------------------------------------------------
# tokenizer

# one alternative for each token kind, unnamed for the blanks it skips, and
# ``bad`` for any other character, so that one scan covers the text
_TOKEN = re.compile(
    r"(?P<newline>\n)|[ \t\r]+|(?P<number>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])|(?P<bad>.)"
)


class _Token(NamedTuple):
    kind: str  # number | name | op | end
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line = 1
    start = 0  # index where the current line begins
    for match in _TOKEN.finditer(text):
        kind, piece = match.lastgroup, match.group()
        column = match.start() - start + 1
        if kind == "newline":
            line += 1
            start = match.end()
        elif kind == "bad":
            what = "unexpected" if piece.isascii() else "non-ASCII"
            raise ParseError(f"{what} character {piece!r}", line, column)
        elif kind is not None:
            tokens.append(_Token(kind, piece, line, column))
    tokens.append(_Token("end", "", line, len(text) - start + 1))
    return tokens


# ---------------------------------------------------------------------------
# recursive descent, computing with a "values" object as it reads


class _DegreeBound:
    """An upper bound on the degree of every subexpression."""

    add = sub = staticmethod(max)
    mul = staticmethod(operator.add)

    def constant(self, value) -> int:
        return 0

    def variable(self, slot: int) -> int:
        return 1

    def negate(self, x: int) -> int:
        return x

    def div(self, x: int, y: int, token: _Token) -> int:
        return max(x, y)

    def power(self, x: int, k: int) -> int:
        return max(x, x * k)


class _Expansion:
    """Series over ``nvars`` variables at an ``order`` no subexpression
    exceeds, so every operation is exact."""

    negate = staticmethod(operator.neg)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    power = staticmethod(operator.pow)

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order

    def constant(self, value) -> TruncatedSeries:
        return TruncatedSeries.constant(value, self.nvars, self.order)

    def variable(self, slot: int) -> TruncatedSeries:
        return TruncatedSeries.variable(self.nvars, self.order, slot)

    def div(self, x, y, token: _Token):
        # a nonzero constant is exactly one row, of degree 0
        rows = y._form[1]
        if len(rows) != 1 or rows[0][0]:
            raise ParseError(
                "division is only defined by a nonzero constant", token.line, token.column
            )
        return x.scale(ONE / y.constant_term())


class _Parser:
    """One pass over the tokens; each construct is handed to ``values``,
    left operand first."""

    def __init__(self, tokens: list[_Token], slots: dict, values):
        self.tokens = tokens
        self.pos = 0
        self.slots = slots
        self.values = values

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str, token: _Token | None = None):
        token = token or self.peek()
        raise ParseError(message, token.line, token.column)

    def parse(self):
        value = self.expr()
        if self.peek().kind != "end":
            self.fail(f"unexpected {self.peek().text!r} after the expression")
        return value

    def expr(self):
        value = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            right = self.term()
            value = self.values.add(value, right) if op == "+" else self.values.sub(value, right)
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            token = self.advance()
            right = self.factor()
            if token.text == "*":
                value = self.values.mul(value, right)
            else:
                value = self.values.div(value, right, token)
        return value

    def factor(self):
        value = self.base()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            token = self.peek()
            if token.kind != "number":
                self.fail("exponent must be a nonnegative integer literal", token)
            self.advance()
            value = self.values.power(value, int(token.text))
        return value

    def base(self):
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return self.values.constant(int(token.text))
        if token.kind == "name":
            self.advance()
            if token.text == "i":
                return self.values.constant(I)
            return self.values.variable(self.resolve(token))
        if token.kind == "op" and token.text == "-":
            self.advance()
            return self.values.negate(self.base())
        if token.kind == "op" and token.text == "(":
            self.advance()
            value = self.expr()
            closing = self.peek()
            if not (closing.kind == "op" and closing.text == ")"):
                self.fail("expected ')'", closing)
            self.advance()
            return value
        if token.kind == "end":
            self.fail("unexpected end of expression", token)
        self.fail(f"unexpected {token.text!r}", token)

    def resolve(self, token: _Token) -> int:
        """The slot of the variable ``token`` names."""
        match = _IDENT_RE.fullmatch(token.text)
        if match is not None and match.group(1) in self.slots:
            first, arity = self.slots[match.group(1)]
            index = int(match.group(2))
            if index <= arity:
                return first + index - 1
        self.fail(f"undeclared identifier {token.text!r}", token)


# ---------------------------------------------------------------------------
# entry point

def parse_expr(text: str, variables: Declaration, order: int) -> TruncatedSeries:
    """Parse polynomial text over the declared variables, exactly.

    ``variables`` is "z:2,w:2" or ((name, arity), ...); slots are laid out
    group by group in declaration order. The expansion is exact; terms of
    total degree above ``order`` raise a TruncationWarning and are dropped.
    The warning counts the dropped terms exactly, so the whole expression
    is expanded first: the work follows the expression's full degree, not
    ``order``.

    Syntax errors are reported before division errors. Of several bad
    divisions, the error names the first ``/`` in reading order: in
    ``1/z1 - 1/z2``, column 2.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    # each group name -> (its first slot, its arity)
    slots, nvars = {}, 0
    for name, arity in normalize_declaration(variables):
        slots[name] = nvars, arity
        nvars += arity
    tokens = _tokenize(text)
    if tokens[0].kind == "end":
        raise ParseError("empty expression", tokens[0].line, tokens[0].column)
    bound = _Parser(tokens, slots, _DegreeBound()).parse()
    expanded = _Parser(tokens, slots, _Expansion(nvars, max(order, bound))).parse()
    result = expanded.truncate(order)
    dropped = len(expanded._form[1]) - len(result._form[1])
    if dropped:
        warnings.warn(
            f"{dropped} term(s) above order {order} were dropped",
            TruncationWarning,
            stacklevel=2,
        )
    return result
