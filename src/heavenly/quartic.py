"""Binary quartics: root-multiplicity patterns and SL(2) invariants.

A quartic p(t) = a4*t^4 + ... + a0 is classified by the multiset of its
root multiplicities over the complex numbers, with the root at infinity
carrying multiplicity 4 - deg(p).  Multiplicities are read off an exact
gcd tower, never from root extraction, so the computation stays in Q.

Invariants use the binomial normalization p = a*t^4 + 4b*t^3 + 6c*t^2 +
4d*t + e, giving I = ae - 4bd + 3c^2, J = ace + 2bcd - ad^2 - b^2*e - c^3
and discriminant I^3 - 27J^2.  J = 0 with nonzero discriminant detects the
harmonic (cross-ratio -1) configuration of four distinct roots.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .errors import InvariantViolation, ZeroPolynomial
from .poly import signed_sum


class BinaryQuartic(NamedTuple):
    a0: Fraction
    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction

    @classmethod
    def from_coeffs(cls, coeffs) -> "BinaryQuartic":
        """Build from [a0, a1, a2, a3, a4] (low degree first, short lists padded)."""
        cs = [Fraction(c) for c in coeffs] + [Fraction(0)] * (5 - len(coeffs))
        if len(cs) > 5:
            raise ValueError("degree > 4")
        return cls(*cs)

    def coeffs(self) -> List[Fraction]:
        return [self.a0, self.a1, self.a2, self.a3, self.a4]

    def is_zero(self) -> bool:
        return not any(self.coeffs())

    def degree(self) -> int:
        return max((d for d, c in enumerate(self.coeffs()) if c), default=-1)

    def __str__(self):
        pieces = []
        for d in range(4, -1, -1):
            c = self.coeffs()[d]
            if not c:
                continue
            if d == 0:
                body = str(abs(c))
            else:
                t = "t" if d == 1 else f"t^{d}"
                body = t if abs(c) == 1 else f"{abs(c)}*{t}"
            pieces.append((c, body))
        return signed_sum(pieces)


def _trim(cs: List[Fraction]) -> List[Fraction]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _deriv(cs: List[Fraction]) -> List[Fraction]:
    return [cs[k] * k for k in range(1, len(cs))]


def _gcd_univariate(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _rem(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _rem(a: List[Fraction], b: List[Fraction]) -> List[Fraction]:
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while True:
        r = _trim(r)
        if not r or len(r) - 1 < db:
            return r
        dr = len(r) - 1
        f = r[-1] / lb
        for k in range(db + 1):
            r[dr - db + k] -= f * b[k]


def multiplicity_pattern(q: BinaryQuartic) -> Tuple[int, ...]:
    """Root multiplicities, infinity included, sorted descending; sums to 4."""
    if q.is_zero():
        raise ZeroPolynomial("the zero quartic has no root pattern")
    cs = _trim(q.coeffs())
    tower_degs = [len(cs) - 1]
    current = cs
    while len(current) > 1:
        current = _gcd_univariate(current, _deriv(current))
        tower_degs.append(len(current) - 1 if current else 0)
        if not current or len(current) == 1:
            break
    # roots with multiplicity >= k+1 number tower_degs[k] - tower_degs[k+1]
    tower_degs.append(0)
    at_least = [tower_degs[k] - tower_degs[k + 1] for k in range(len(tower_degs) - 1)]
    at_least += [0]
    pattern = []
    for k in range(len(at_least) - 1):
        exactly = at_least[k] - at_least[k + 1]
        pattern.extend([k + 1] * exactly)
    inf_mult = 4 - q.degree()
    if inf_mult:
        pattern.append(inf_mult)
    pattern.sort(reverse=True)
    if sum(pattern) != 4:
        raise InvariantViolation(f"root multiplicities {pattern} do not sum to 4")
    return tuple(pattern)


def quartic_invariants(q: BinaryQuartic) -> Tuple[Fraction, Fraction, Fraction]:
    """(I, J, discriminant) in the binomial normalization."""
    a = q.a4
    b = q.a3 / 4
    c = q.a2 / 6
    d = q.a1 / 4
    e = q.a0
    i_inv = a * e - 4 * b * d + 3 * c * c
    j_inv = a * c * e + 2 * b * c * d - a * d * d - b * b * e - c ** 3
    return i_inv, j_inv, i_inv ** 3 - 27 * j_inv ** 2


def is_harmonic(q: BinaryQuartic) -> bool:
    """Four distinct roots with cross-ratio -1 (J = 0, discriminant nonzero)."""
    i_inv, j_inv, disc = quartic_invariants(q)
    return j_inv == 0 and disc != 0
