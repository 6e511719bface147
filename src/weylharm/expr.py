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
One recursive-descent parser reads the tokens once and evaluates as it
reads: each atom becomes an element (the unit scaled by a literal, or a
generator), and the operators combine elements in written order.  Weyl
products are therefore normal-ordered as they are formed, and printing a
parsed expression yields its canonical form.  Errors are reported in
reading order: the first bad token or foreign generator is the one named.
Input whose integers could not be printed is refused before any arithmetic:
a run of digits longer than `sys.get_int_max_str_digits` allows, and a
power one of whose coefficients would be that long.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import log2
from string import ascii_letters
from typing import NamedTuple

from .poly import CPolynomial
from .scalars import GR_I, GR_ONE, GaussRational, format_gauss
from .weyl import WeylElement, check_modes


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
    limit = sys.get_int_max_str_digits()
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
        tok = Token(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup))
        digits = len(tok.text.lstrip(ascii_letters))  # of an integer or a variable index
        if limit and digits > limit:
            raise ParseError(f"integer of {digits} digits is longer than {limit} digits",
                             tok.position)
        tokens.append(tok)
        pos = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent over the tokens of one expression, returning its
    value in the `TermMap` subclass ``cls``.

    ``generators`` maps a variable kind to its constructor ``(d, j)``, and
    ``foreign`` words the error for any other kind.  Without an explicit d,
    d is the largest variable index among the tokens, and at least 1; an
    explicit d outside 1..`weyl.MODES_MAX` is refused before any token is read,
    and an inferred one before any term is built.
    """

    def __init__(self, text: str, d: int | None, cls, generators: dict, foreign: str):
        if d is not None:
            check_modes(d)
        self.tokens = tokenize(text)
        self.pos = 0
        if d is None:
            d = max([1] + [int(m.group(2)) for tok in self.tokens
                           if (m := _VAR_RE.match(tok.text))])
            check_modes(d)
        self.d, self.cls, self.generators, self.foreign = d, cls, generators, foreign

    def accept(self, ops: str) -> str:
        """Consume the next token and return its text if it is one of the
        operators ``ops``; otherwise return ''."""
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.text in ops:
            self.pos += 1
            return tok.text
        return ""

    def expect_int(self, message: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "int":
            raise ParseError(message, tok.position)
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.position)
        return value

    def expr(self):
        summands = [self.term()]
        while op := self.accept("+-"):
            summands.append(self.term() if op == "+" else -self.term())
        return self.cls._sum(self.d, summands)

    def term(self):
        value = self.factor()
        while self.accept("*"):
            value = value * self.factor()
        return value

    def factor(self):
        if self.accept("-"):
            return -self.factor()
        value = self.atom()
        if self.accept("^"):
            etok = self.expect_int("exponent must be a nonnegative integer")
            n = int(etok.text)
            _check_power_digits(value, n, etok.position)
            return value ** n
        return value

    def atom(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok.kind == "int":
            den = 1
            if self.accept("/"):
                dtok = self.expect_int("expected integer denominator")
                den = int(dtok.text)
                if den == 0:
                    raise ParseError("zero denominator", dtok.position)
            return self.cls.one(self.d).scale(Fraction(int(tok.text), den))
        if tok.kind == "name":
            if tok.text == "i":
                return self.cls.one(self.d).scale(GR_I)
            m = _VAR_RE.match(tok.text)
            if m is None:
                raise ParseError(f"unknown symbol {tok.text!r}", tok.position)
            kind, index = m.group(1), int(m.group(2))
            if index < 1:
                raise ParseError("variable indices start at 1", tok.position)
            if kind not in self.generators:
                raise MixedContextError(self.foreign.format(f"{kind}{index}"))
            return self.generators[kind](self.d, index)
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            if not self.accept(")"):
                raise ParseError("expected ')'", self.tokens[self.pos].position)
            return value
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.position)


def _check_power_digits(x, n: int, position: int) -> None:
    """Refuse x^n if some coefficient of it would have more decimal digits
    than `sys.get_int_max_str_digits` allows (no limit when it is 0).

    Products add packed keys and contractions only lower them, so the
    largest key of x^n is n times that of x, with coefficient c^n for c
    the coefficient there.  A nonzero part of c^n has a numerator of at
    least |c|^n / sqrt 2 (|c| > 1) or a denominator of at least |c|^-n
    (|c| < 1): at least n |log2 |c|| - 1/2 bits.  So a refused power could
    not have been printed.
    """
    limit = sys.get_int_max_str_digits()
    if not (limit and n > 1 and x._terms):
        return
    real, imag = x._terms[max(x._terms)]
    bits = n * abs(log2(real * real + imag * imag) / 2 - log2(x._den)) - 0.5
    if bits > limit * log2(10):
        raise ParseError(f"power {n} would have a coefficient of more than {limit} digits",
                         position)


def parse_poly(text: str, d: int | None = None) -> CPolynomial:
    return _Parser(text, d, CPolynomial, {"z": CPolynomial.z, "zb": CPolynomial.zbar},
                   "generator {} is not a polynomial variable").parse()


def parse_weyl(text: str, d: int | None = None) -> WeylElement:
    return _Parser(text, d, WeylElement,
                   {"a": WeylElement.annihilator, "c": WeylElement.creator},
                   "variable {} is not a Weyl generator").parse()


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
