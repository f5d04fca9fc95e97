"""Expression grammar for equations and Lax field components.

Tokens: integers, rationals p/q, variables uIJ (uJI is normalized to uIJ),
the keyword HESS (determinant of the Hessian), and in the extended mode the
spectral parameter lam plus direction markers d1..d6.  Operators: + - * ^
with nonnegative integer powers and parentheses.  Division only appears
inside rational literals.
"""

from __future__ import annotations

from fractions import Fraction
from math import log10
from typing import List, NamedTuple, Optional

from .errors import ParseError
from .grassmann import MAEquation, hessian_matrix, ucoord
from .poly import Polynomial, determinant

# Checked before computing: the terms of a * b or a ^ e, at most len(a) * len(b) or
# len(a) ** e (equations have a few hundred), and the digits of a coefficient of a + b,
# a * b or a ^ e, estimated as digits(a) + digits(b) or e * digits(a), and the degree
# degree(a) * e of a ^ e.  MAX_DIGITS also bounds a literal; it stays below Python's
# 4300-digit int-to-str limit, so reports print, and MAX_DEGREE keeps exponents short.
MAX_EXPANSION_TERMS = 100_000
MAX_DIGITS = 1000
MAX_DEGREE = 1000


class Token(NamedTuple):
    kind: str  # NUMBER, IDENT, OP, LPAREN, RPAREN, END
    text: str
    position: int
    value: Optional[Fraction] = None


def tokenize(text: str) -> List[Token]:
    out: List[Token] = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < size and text[i].isdigit():
                i += 1
            if i - start > MAX_DIGITS:
                raise ParseError(f"a literal has more than {MAX_DIGITS} digits", start)
            numerator = int(text[start:i])
            j = i
            while j < size and text[j].isspace():
                j += 1
            if j < size and text[j] == "/":
                j += 1
                while j < size and text[j].isspace():
                    j += 1
                if j >= size or not text[j].isdigit():
                    raise ParseError("expected digits after '/' in a rational literal", j)
                dstart = j
                while j < size and text[j].isdigit():
                    j += 1
                if j - dstart > MAX_DIGITS:
                    raise ParseError(f"a literal has more than {MAX_DIGITS} digits", dstart)
                denominator = int(text[dstart:j])
                if denominator == 0:
                    raise ParseError("zero denominator", dstart)
                out.append(Token("NUMBER", text[start:j], start,
                                 Fraction(numerator, denominator)))
                i = j
            else:
                out.append(Token("NUMBER", text[start:i], start, Fraction(numerator)))
            continue
        if ch.isalpha():
            start = i
            while i < size and (text[i].isalnum() or text[i] == "_"):
                i += 1
            out.append(Token("IDENT", text[start:i], start))
            continue
        if ch in "+-*^":
            out.append(Token("OP", ch, i))
            i += 1
            continue
        if ch == "(":
            out.append(Token("LPAREN", ch, i))
            i += 1
            continue
        if ch == ")":
            out.append(Token("RPAREN", ch, i))
            i += 1
            continue
        if ch == "/":
            raise ParseError("division is only allowed inside rational literals", i)
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(Token("END", "", size))
    return out


class _Parser:
    """Pratt parser over the token stream producing a Polynomial."""

    def __init__(self, tokens: List[Token], n: int, extended: bool):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.extended = extended

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        value = self.expression(0)
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected {tok.text!r}", tok.position)
        return value

    def expression(self, min_power: int) -> Polynomial:
        left = self.prefix()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text in ("+", "-") and min_power < 10:
                self.advance()
                right = self.expression(10)
                _bound(0, _digits(left) + _digits(right), tok)
                left = left + right if tok.text == "+" else left - right
            elif tok.kind == "OP" and tok.text == "*" and min_power < 20:
                self.advance()
                right = self.expression(20)
                _bound(len(left.terms) * len(right.terms), _digits(left) + _digits(right), tok)
                left = left * right
            elif tok.kind == "OP" and tok.text == "^" and min_power <= 30:
                self.advance()
                e = self.exponent()
                # capped: len >= 2 is over at e = 64, and digits > 0 (>= log10 2) at e = 4000
                _bound(len(left.terms) ** min(e, 64), _digits(left) * min(e, 4 * MAX_DIGITS), tok)
                if left.degree() * e > MAX_DEGREE:
                    raise ParseError(f"'^' would give a degree above {MAX_DEGREE}", tok.position)
                left = left ** e
            else:
                return left

    def prefix(self) -> Polynomial:
        tok = self.advance()
        if tok.kind == "NUMBER":
            return Polynomial.constant(tok.value)
        if tok.kind == "OP" and tok.text == "-":
            return -self.expression(25)
        if tok.kind == "OP" and tok.text == "+":
            return self.expression(25)
        if tok.kind == "LPAREN":
            inner = self.expression(0)
            closing = self.advance()
            if closing.kind != "RPAREN":
                raise ParseError("expected ')'", closing.position)
            return inner
        if tok.kind == "IDENT":
            return self.identifier(tok)
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.position)

    def exponent(self) -> int:
        tok = self.advance()
        if tok.kind != "NUMBER" or tok.value.denominator != 1 or tok.value < 0:
            raise ParseError("exponent must be a nonnegative integer", tok.position)
        return int(tok.value)

    def identifier(self, tok: Token) -> Polynomial:
        name = tok.text
        if name == "HESS":
            return determinant(hessian_matrix(self.n))
        if name[0] == "u" and name[1:].isdigit() and len(name) == 3:
            i, j = int(name[1]), int(name[2])
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ParseError(
                    f"variable {name} is out of range for dimension {self.n}",
                    tok.position)
            return Polynomial.variable(ucoord(i, j))
        if self.extended:
            if name == "lam":
                return Polynomial.variable("lam")
            if name[0] == "d" and name[1:].isdigit() and len(name) == 2:
                k = int(name[1])
                if 1 <= k <= self.n:
                    return Polynomial.variable(name)
                raise ParseError(f"direction {name} is out of range", tok.position)
        raise ParseError(f"unknown identifier {name!r}", tok.position)


def _digits(p: Polynomial) -> float:
    """log10 of the largest |numerator| * denominator among p's coefficients."""
    return max((log10(abs(c.numerator) * c.denominator) for c in p.terms.values()), default=0)


def _bound(terms: int, digits: float, tok: Token) -> None:
    if terms > MAX_EXPANSION_TERMS:
        raise ParseError(f"'{tok.text}' would expand to more than {MAX_EXPANSION_TERMS} terms",
                         tok.position)
    if digits > MAX_DIGITS:
        raise ParseError(f"'{tok.text}' would give a coefficient of more than {MAX_DIGITS} "
                         "digits", tok.position)


def parse_polynomial(text: str, n: int, extended: bool = False) -> Polynomial:
    if not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(tokenize(text), n, extended).parse()


def parse_equation(text: str, n: int) -> MAEquation:
    """Parse and validate through the minor-span decomposition; an
    expression that is identically zero is no equation."""
    poly = parse_polynomial(text, n)
    if poly.is_zero():
        raise ParseError("the equation is identically zero", 0)
    return MAEquation.from_poly(n, poly)


def parse_lax_field(text: str, n: int):
    """Parse a field expression linear in d1..dn into its component list."""
    from .laxpair import LaxField

    poly = parse_polynomial(text, n, extended=True)
    components = [Polynomial.zero()] * n
    for mono, coeff in poly.terms.items():
        dvars = [(v, e) for v, e in mono if v[0] == "d" and v[1:].isdigit()]
        total = sum(e for _, e in dvars)
        if total != 1:
            raise ParseError(
                "field expressions must be linear in the direction markers d1..dn", 0)
        rest = tuple((v, e) for v, e in mono if not (v[0] == "d" and v[1:].isdigit()))
        k = int(dvars[0][0][1])
        components[k - 1] = components[k - 1] + Polynomial({rest: coeff})
    return LaxField(tuple(components))
