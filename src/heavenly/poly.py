"""Sparse multivariate polynomials with exact rational coefficients.

A monomial is a tuple of (variable, exponent) pairs sorted by the frozen
variable order; a polynomial maps monomials to nonzero Fractions.  All
arithmetic is exact; nothing here ever rounds.

Frozen variable order (everything canonical depends on it):

    u11 < u12 < ... < u44 < u111 < ... < u444 < lam < d1 < d2 < ... < rest

Monomial order: graded lexicographic.  Higher total degree wins; ties are
broken lexicographically with earlier variables dominant, so for example
u11^2 > u11*u12 > u12^2.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Dict, Mapping, Tuple, Union

Scalar = Union[int, Fraction]
Monomial = Tuple[Tuple[str, int], ...]

_VAR_KEY_CACHE: Dict[str, tuple] = {}


def var_key(name: str) -> tuple:
    """Sort key realizing the frozen variable order."""
    key = _VAR_KEY_CACHE.get(name)
    if key is None:
        if name[0] == "u" and name[1:].isdigit():
            digits = name[1:]
            if len(digits) == 2:
                key = (0, (int(digits[0]), int(digits[1])))
            elif len(digits) == 3:
                key = (1, (int(digits[0]), int(digits[1]), int(digits[2])))
            else:
                key = (4, (name,))
        elif name == "lam":
            key = (2, (0,))
        elif name[0] == "d" and name[1:].isdigit():
            key = (3, (int(name[1:]),))
        else:
            key = (4, (name,))
        _VAR_KEY_CACHE[name] = key
    return key


def mono_degree(mono: Monomial) -> int:
    return sum(e for _, e in mono)


def mono_order_key(mono: Monomial) -> tuple:
    """Key whose minimum is the leading monomial (graded lex, u11-dominant)."""
    return (-mono_degree(mono), tuple((var_key(v), -e) for v, e in mono))


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for v, e in b:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items(), key=lambda p: var_key(p[0])))


class Polynomial:
    """Immutable sparse polynomial over the rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] = ()):
        clean: Dict[Monomial, Fraction] = {}
        for mono, coeff in dict(terms).items():
            c = Fraction(coeff)
            if c:
                clean[mono] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def constant(cls, c: Scalar) -> "Polynomial":
        return cls({(): Fraction(c)})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        return cls({((name, 1),): Fraction(1)})

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls.constant(1)

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self, d=None) -> bool:
        degs = {mono_degree(m) for m in self.terms}
        if not degs:
            return True
        if d is None:
            return len(degs) == 1
        return degs == {d}

    def variables(self) -> set:
        out = set()
        for mono in self.terms:
            for v, _ in mono:
                out.add(v)
        return out

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def sorted_terms(self):
        """Terms in descending monomial order (leading term first)."""
        return sorted(self.terms.items(), key=lambda kv: mono_order_key(kv[0]))

    def lead_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return min(self.terms, key=mono_order_key)

    def lead_coeff(self) -> Fraction:
        return self.terms[self.lead_monomial()]

    def monic(self) -> "Polynomial":
        """Rescaled so the leading coefficient is 1."""
        if not self.terms:
            return self
        lc = self.lead_coeff()
        return self if lc == 1 else self / lc

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _promote(other) - self

    def __mul__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        # products and sums run on integer numerators over one denominator
        # per factor, and each output coefficient becomes one Fraction
        (n1, d1), (n2, d2) = _numerators(self), _numerators(other)
        out: Dict[Monomial, int] = {}
        for m1, c1 in n1:
            for m2, c2 in n2:
                mono = _mono_mul(m1, m2)
                out[mono] = out.get(mono, 0) + c1 * c2
        return _raw({m: Fraction(s, d1 * d2) for m, s in out.items() if s})

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar):
        c = Fraction(scalar)
        return _raw({m: v / c for m, v in self.terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus & substitution -----------------------------------------

    def partial(self, name: str) -> "Polynomial":
        out: Dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            ed = dict(mono)
            e = ed.get(name, 0)
            if not e:
                continue
            ed[name] = e - 1
            new = tuple(sorted(((v, k) for v, k in ed.items() if k), key=lambda p: var_key(p[0])))
            s = out.get(new, 0) + c * e
            if s:
                out[new] = s
            else:
                out.pop(new, None)
        return _raw(out)

    def subs(self, mapping: Mapping[str, Union["Polynomial", Scalar]]) -> "Polynomial":
        """Substitute polynomials (or scalars) for variables."""
        images = {v: _promote(p) for v, p in mapping.items()}
        powers: Dict[str, list] = {v: [Polynomial.one(), img] for v, img in images.items()}
        total = Polynomial.zero()
        for mono, c in self.terms.items():
            term = Polynomial.constant(c)
            for v, e in mono:
                if v in images:
                    cache = powers[v]
                    while len(cache) <= e:
                        cache.append(cache[-1] * cache[1])
                    term = term * cache[e]
                else:
                    term = term * Polynomial({((v, e),): Fraction(1)})
            total = total + term
        return total

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Evaluate with every variable assigned a rational value."""
        total = Fraction(0)
        for mono, c in self.terms.items():
            val = c
            for v, e in mono:
                val *= Fraction(assignment[v]) ** e
            total += val
        return total

    # -- formatting --------------------------------------------------------

    def __str__(self):
        pieces = []
        for mono, c in self.sorted_terms():
            factors = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = factors
            else:
                body = f"{abs(c)}*{factors}"
            pieces.append((c, body))
        return signed_sum(pieces)

    def __repr__(self):
        return f"Polynomial({self})"


def signed_sum(pieces) -> str:
    """Join (coefficient, body) pairs as 'a - b + c'; "0" when there are none.

    Only the sign of each coefficient is used: the bodies carry the magnitudes.
    """
    out = ""
    for c, body in pieces:
        if out:
            out += f" {'-' if c < 0 else '+'} {body}"
        else:
            out = ("-" if c < 0 else "") + body
    return out or "0"


def _raw(terms: Dict[Monomial, Fraction]) -> Polynomial:
    p = Polynomial.__new__(Polynomial)
    object.__setattr__(p, "terms", terms)
    return p


def _numerators(p: Polynomial):
    """p's terms as (monomial, integer numerator) over their least common denominator."""
    d = lcm(*[c.denominator for c in p.terms.values()])
    return [(m, c.numerator * (d // c.denominator)) for m, c in p.terms.items()], d


def _promote(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return NotImplemented


def determinant(rows):
    """Determinant by cofactor expansion; entries may be Polynomials or Fractions."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        entry = rows[0][j]
        if isinstance(entry, Polynomial) and entry.is_zero():
            continue
        if not isinstance(entry, Polynomial) and entry == 0:
            continue
        minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
        piece = entry * determinant(minor)
        if j % 2:
            piece = -piece
        total = piece if total is None else total + piece
    if total is None:
        return rows[0][0] * 0
    return total
