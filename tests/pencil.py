"""Test-side tools for the doubly tangent quadratic pencil and its quartic
pairs: the SL(2) action on binary quartics, under which multiplicity
patterns and invariants are unchanged, and the base points of the pencil.
"""

from fractions import Fraction
from math import comb

from heavenly.quartic import BinaryQuartic


def sl2_transform(q, a, b, c, d):
    """Weight-4 substitution p(t) -> (ct+d)^4 p((at+b)/(ct+d))."""
    a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
    out = [Fraction(0)] * 5
    for i in range(5):
        ci = q.coeffs()[i]
        if not ci:
            continue
        # (a t + b)^i (c t + d)^(4-i)
        for r in range(i + 1):
            for s in range(4 - i + 1):
                coeff = ci * comb(i, r) * comb(4 - i, s) \
                    * a ** r * b ** (i - r) * c ** s * d ** (4 - i - s)
                out[r + s] += coeff
    return BinaryQuartic.from_coeffs(out)


def tangency_points():
    """The two finite base points all doubly tangent quadratics go through."""
    origin = [[Fraction(0)] * 4 for _ in range(4)]
    third = [[Fraction(0)] * 4 for _ in range(4)]
    third[0][3] = third[3][0] = Fraction(1)
    third[1][2] = third[2][1] = Fraction(-1)
    return origin, third
