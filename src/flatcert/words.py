"""Word expressions in named generators.

Grammar:  expr := term ('*' term)* ; term := atom ('^' signed-integer)? ;
atom := name | '(' expr ')'.  Products are left-associative, exponents bind
tighter than '*', exponent 0 is the identity.  Evaluation is exact, with
inverses by elimination and powers by repeated squaring.  A power whose
result would pass POWER_BITS_LIMIT bits is refused before it is computed.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .errors import BudgetExceeded, DimensionMismatch, ParseError, UnknownGenerator
from .linalg import SqMatrix

__all__ = ["WordExpr", "Name", "Power", "Product", "parse_word", "render_word", "word_eval"]

NAME_RE = re.compile(r"[a-z][a-z0-9_]*")
INT_RE = re.compile(r"-?[0-9]+")

# Bits that one power may store, by the bound of _power_bits.  At the limit,
# h^524288 with h = [[2, 1], [1, 1]] takes about 1.3 s to classify; the
# largest benchmark power, an 8x8 matrix to the 1834th, needs under 2^19.
POWER_BITS_LIMIT = 2**22


class WordExpr:
    """Base class for word ASTs."""

    __slots__ = ()


@dataclass(frozen=True)
class Name(WordExpr):
    name: str


@dataclass(frozen=True)
class Power(WordExpr):
    base: WordExpr
    exponent: int


@dataclass(frozen=True)
class Product(WordExpr):
    factors: tuple[WordExpr, ...]


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str | None:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def _fail(self, expected: str):
        found = self.text[self.pos] if self.pos < len(self.text) else "end of input"
        raise ParseError(self.pos, expected, found)

    def parse(self) -> WordExpr:
        expr = self.expr()
        if self._peek() is not None:
            self._fail("'*' or end of input")
        return expr

    def expr(self) -> WordExpr:
        factors = [self.term()]
        while self._peek() == "*":
            self.pos += 1
            factors.append(self.term())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def term(self) -> WordExpr:
        base = self.atom()
        if self._peek() == "^":
            self.pos += 1
            self._skip_ws()
            m = INT_RE.match(self.text, self.pos)
            if not m:
                self._fail("a signed integer exponent")
            try:
                exponent = int(m.group())
            except ValueError:  # past the interpreter's int string limit
                limit = sys.get_int_max_str_digits()
                raise ParseError(self.pos, f"an exponent of at most {limit} digits",
                                 f"{len(m.group())} characters") from None
            self.pos = m.end()
            return Power(base, exponent)
        return base

    def atom(self) -> WordExpr:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            if self._peek() != ")":
                self._fail("')'")
            self.pos += 1
            return inner
        m = NAME_RE.match(self.text, self.pos) if ch is not None else None
        if not m:
            self._fail("a generator name or '('")
        self.pos = m.end()
        return Name(m.group())


def parse_word(text: str) -> WordExpr:
    """Parse a word expression; raises ParseError with the 0-based position,
    also for parentheses nested past the interpreter's recursion limit."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError(parser.pos, "fewer nested parentheses", "too deep a nesting") from None


def render_word(expr: WordExpr) -> str:
    """Canonical text form; reparses to an equal AST."""
    if isinstance(expr, Name):
        return expr.name
    if isinstance(expr, Power):
        base = render_word(expr.base)
        if not isinstance(expr.base, Name):
            base = f"({base})"
        return f"{base}^{expr.exponent}"
    if isinstance(expr, Product):
        parts = []
        for f in expr.factors:
            s = render_word(f)
            if isinstance(f, Product):
                s = f"({s})"
            parts.append(s)
        return "*".join(parts)
    raise TypeError(f"not a word expression: {expr!r}")


def word_eval(expr: WordExpr | str, gens: dict[str, SqMatrix]) -> SqMatrix:
    """Exact evaluation of a word over named generator matrices."""
    if isinstance(expr, str):
        expr = parse_word(expr)
    dims = {g.n for g in gens.values()}
    if len(dims) > 1:
        raise DimensionMismatch("generators have mixed dimensions")

    def ev(node: WordExpr) -> SqMatrix:
        if isinstance(node, Name):
            try:
                return gens[node.name]
            except KeyError:
                raise UnknownGenerator(node.name) from None
        if isinstance(node, Power):
            return eval_power(ev(node.base), node.base, node.exponent)
        if isinstance(node, Product):
            result = ev(node.factors[0])
            for f in node.factors[1:]:
                result = result * ev(f)
            return result
        raise TypeError(f"not a word expression: {node!r}")

    return ev(expr)


def eval_power(m: SqMatrix, base: WordExpr, k: int) -> SqMatrix:
    """m^k for m the value of base, refused with BudgetExceeded, before any
    product, when it would store more than POWER_BITS_LIMIT bits."""
    e = k
    if e < 0:
        m, e = m.inverse(), -e
    # e = 1 adds no size, and nested inverses undo each other
    if e > 1 and (bits := _power_bits(m, e)) > POWER_BITS_LIMIT:
        raise BudgetExceeded(f"the power {render_word(Power(base, k))}", bits, POWER_BITS_LIMIT)
    return m**e


def _power_bits(m: SqMatrix, k: int) -> int:
    """The bits that m^k, k >= 0, stores, bounded from above to within one
    bit per entry: num^k has entries at most ||num||_inf^k, and the
    denominator of m^k divides den^k."""
    norm = max(1, max(sum(map(abs, row)) for row in m.num))
    return k * (m.n * m.n * (norm - 1).bit_length() + (m.den - 1).bit_length())


def power_word(names_exponents: list[tuple[str, int]]) -> str:
    """Render h1^a1 * ... * hr^ar, skipping zero exponents; identity word
    for the all-zero vector is rendered as the first name to the power 0."""
    parts = []
    for name, e in names_exponents:
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    if not parts:
        name = names_exponents[0][0] if names_exponents else "e"
        return f"{name}^0"
    return "*".join(parts)
