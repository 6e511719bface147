"""Expression front-end: a small exact-literal grammar and pretty-printer.

Grammar (whitespace-insensitive)::

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | atom ('^' INT)?
    atom    := NUMBER | 'i' | VAR | '(' expr ')'
    NUMBER  := INT ('/' INT)?
    VAR     := ('z' | 'zb') INT   -- polynomial context
             | ('a' | 'c') INT    -- Weyl context (c = creation)

Division appears only inside rational literals; there are no decimals.
Weyl products are evaluated in written order and then normal-ordered, so
printing a parsed expression yields its canonical form.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .poly import CPolynomial
from .scalars import GR_I, GR_ONE, GaussRational, format_gauss
from .weyl import WeylElement


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MixedContextError(ValueError):
    """A polynomial variable appeared in a Weyl expression or vice versa."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[a-zA-Z]+\d*)|(?P<op>[-+*^/()]))"
)

_VAR_RE = re.compile(r"^(zb|z|a|c)(\d+)$")


class Token(NamedTuple):
    kind: str  # "int" | "name" | "op" | "end"
    text: str
    position: int


def tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup is None:
            break
        tokens.append(Token(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


# -- AST ---------------------------------------------------------------------


class Num(NamedTuple):
    value: GaussRational


class Var(NamedTuple):
    kind: str  # "z" | "zb" | "a" | "c"
    index: int


class Add(NamedTuple):
    items: tuple


class Mul(NamedTuple):
    items: tuple


class Pow(NamedTuple):
    base: object
    exponent: int


class Neg(NamedTuple):
    item: object


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.position)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.position)
        return node

    def expr(self):
        items = [self.term()]
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                nxt = self.term()
                items.append(Neg(nxt) if tok.text == "-" else nxt)
            else:
                break
        return items[0] if len(items) == 1 else Add(tuple(items))

    def term(self):
        items = [self.factor()]
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                self.advance()
                items.append(self.factor())
            else:
                break
        return items[0] if len(items) == 1 else Mul(tuple(items))

    def factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.factor())
        node = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            etok = self.peek()
            if etok.kind != "int":
                raise ParseError("exponent must be a nonnegative integer",
                                 etok.position)
            self.advance()
            return Pow(node, int(etok.text))
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            numerator = int(tok.text)
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "/":
                self.advance()
                dtok = self.peek()
                if dtok.kind != "int":
                    raise ParseError("expected integer denominator", dtok.position)
                self.advance()
                if int(dtok.text) == 0:
                    raise ParseError("zero denominator", dtok.position)
                return Num(GaussRational(Fraction(numerator, int(dtok.text))))
            return Num(GaussRational(numerator))
        if tok.kind == "name":
            self.advance()
            if tok.text == "i":
                return Num(GR_I)
            m = _VAR_RE.match(tok.text)
            if m is None:
                raise ParseError(f"unknown symbol {tok.text!r}", tok.position)
            index = int(m.group(2))
            if index < 1:
                raise ParseError("variable indices start at 1", tok.position)
            return Var(m.group(1), index)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.position)


def parse_ast(text: str):
    return _Parser(text).parse()


def _max_index(node) -> int:
    if isinstance(node, Var):
        return node.index
    if isinstance(node, (Add, Mul)):
        return max((_max_index(x) for x in node.items), default=0)
    if isinstance(node, Pow):
        return _max_index(node.base)
    if isinstance(node, Neg):
        return _max_index(node.item)
    return 0


def _eval(node, d: int, mode: str):
    """mode is 'poly' or 'weyl'; products respect written order."""
    if isinstance(node, Num):
        base = CPolynomial.one(d) if mode == "poly" else WeylElement.unit(d)
        return base.scale(node.value)
    if isinstance(node, Var):
        if mode == "poly":
            if node.kind == "z":
                return CPolynomial.z(d, node.index)
            if node.kind == "zb":
                return CPolynomial.zbar(d, node.index)
            raise MixedContextError(
                f"generator {node.kind}{node.index} is not a polynomial variable"
            )
        if node.kind == "a":
            return WeylElement.annihilator(d, node.index)
        if node.kind == "c":
            return WeylElement.creator(d, node.index)
        raise MixedContextError(
            f"variable {node.kind}{node.index} is not a Weyl generator"
        )
    if isinstance(node, Add):
        acc = _eval(node.items[0], d, mode)
        for item in node.items[1:]:
            acc = acc + _eval(item, d, mode)
        return acc
    if isinstance(node, Mul):
        acc = _eval(node.items[0], d, mode)
        for item in node.items[1:]:
            acc = acc * _eval(item, d, mode)
        return acc
    if isinstance(node, Pow):
        return _eval(node.base, d, mode) ** node.exponent
    if isinstance(node, Neg):
        return -_eval(node.item, d, mode)
    raise TypeError(f"not an AST node: {node!r}")


def parse_poly(text: str, d: int | None = None) -> CPolynomial:
    ast = parse_ast(text)
    d = d if d is not None else max(1, _max_index(ast))
    return _eval(ast, d, "poly")


def parse_weyl(text: str, d: int | None = None) -> WeylElement:
    ast = parse_ast(text)
    d = d if d is not None else max(1, _max_index(ast))
    return _eval(ast, d, "weyl")


# -- printing ------------------------------------------------------------------


def _format_coeff(c: GaussRational, has_monomial: bool) -> str:
    if not has_monomial:
        return format_gauss(c)
    if c == GR_ONE:
        return ""
    if c == -GR_ONE:
        return "-"
    text = format_gauss(c)
    if c.re and c.im:
        text = f"({text})"
    return text + "*"


def _format_terms(term_items) -> str:
    parts = []
    for coeff, monomial_text in term_items:
        body = _format_coeff(coeff, bool(monomial_text)) + monomial_text
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(" - " + body[1:])
        else:
            parts.append(" + " + body)
    return "".join(parts) if parts else "0"


def _power_text(symbol: str, exponent: int) -> str:
    return symbol if exponent == 1 else f"{symbol}^{exponent}"


def _format(x, symbols: tuple) -> str:
    """Human rendering, highest degree first (JSON keeps ascending order);
    ``symbols`` names the variables of each monomial field in turn."""
    items = []
    for mono, coeff in reversed(list(x.sorted_terms())):
        factors = [
            _power_text(f"{symbol}{j + 1}", e)
            for symbol, exponents in zip(symbols, mono)
            for j, e in enumerate(exponents)
            if e
        ]
        items.append((coeff, "*".join(factors)))
    return _format_terms(items)


def format_weyl(w: WeylElement) -> str:
    """Creators c1..cd before annihilators a1..ad in each term."""
    return _format(w, ("c", "a"))


def format_cpoly(p: CPolynomial) -> str:
    """z1..zd before zb1..zbd in each term."""
    return _format(p, ("z", "zb"))
