"""Root-pattern and invariant tests for binary quartics."""

from fractions import Fraction
from random import Random

import pytest

from heavenly.errors import ZeroPolynomial
from heavenly.quartic import (
    BinaryQuartic,
    is_harmonic,
    multiplicity_pattern,
    quartic_invariants,
)
from pencil import sl2_transform


def q(*coeffs):
    return BinaryQuartic.from_coeffs(coeffs)


def test_patterns_of_canonical_representatives():
    assert multiplicity_pattern(q(1)) == (4,)                    # quadruple root at infinity
    assert multiplicity_pattern(q(0, 1)) == (3, 1)               # t
    assert multiplicity_pattern(q(0, 0, 1)) == (2, 2)            # t^2
    assert multiplicity_pattern(q(-1, 0, 1)) == (2, 1, 1)        # t^2 - 1
    assert multiplicity_pattern(q(0, -1, 0, 1)) == (1, 1, 1, 1)  # t^3 - t
    assert multiplicity_pattern(q(-1, 0, 0, 0, 1)) == (1, 1, 1, 1)  # t^4 - 1
    assert multiplicity_pattern(q(0, 0, 0, 0, 1)) == (4,)        # t^4
    assert multiplicity_pattern(q(0, 0, 1, -2, 1)) == (2, 2)     # t^2(t-1)^2


def test_zero_quartic_rejected():
    with pytest.raises(ZeroPolynomial):
        multiplicity_pattern(q(0))


def test_invariants_examples():
    i1, j1, d1 = quartic_invariants(q(-1, 0, 0, 0, 1))  # t^4 - 1
    assert j1 == 0 and d1 != 0 and i1 == -1
    i2, j2, d2 = quartic_invariants(q(0, -1, 0, 1))     # t^3 - t
    assert j2 == 0 and d2 != 0 and i2 == Fraction(1, 4)
    i3, j3, d3 = quartic_invariants(q(0, 0, 0, 0, 1))   # t^4
    assert i3 == 0 and j3 == 0 and d3 == 0


def test_harmonic_flag():
    assert is_harmonic(q(-1, 0, 0, 0, 1))
    assert is_harmonic(q(0, -1, 0, 1))
    assert not is_harmonic(q(0, 0, 0, 0, 1))
    # four distinct roots 0, 1, -1, 2: cross-ratio not -1
    assert multiplicity_pattern(q(0, 2, -1, -2, 1)) == (1, 1, 1, 1)
    assert not is_harmonic(q(0, 2, -1, -2, 1))


def random_sl2(rng):
    """Random integer matrix with determinant 1 (product of shears)."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(4):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            a, b, c, d = a + k * c, b + k * d, c, d
        else:
            a, b, c, d = a, b, c + k * a, d + k * b
    return a, b, c, d


def test_pattern_invariant_under_sl2():
    rng = Random(17)
    samples = [q(1), q(0, 1), q(0, 0, 1), q(-1, 0, 1), q(0, -1, 0, 1), q(2, 0, 1, 0, 3)]
    for p in samples:
        pat = multiplicity_pattern(p)
        for _ in range(8):
            a, b, c, d = random_sl2(rng)
            assert multiplicity_pattern(sl2_transform(p, a, b, c, d)) == pat


def test_invariants_invariant_under_sl2():
    rng = Random(29)
    for _ in range(12):
        p = q(*[Fraction(rng.randint(-5, 5)) for _ in range(5)])
        if p.is_zero():
            continue
        i0, j0, d0 = quartic_invariants(p)
        a, b, c, d = random_sl2(rng)
        i1, j1, d1 = quartic_invariants(sl2_transform(p, a, b, c, d))
        assert (i0, j0, d0) == (i1, j1, d1)


def test_t3_minus_t_equivalent_to_t4_minus_1():
    # both harmonic: same J = 0, nonzero discriminant signature
    assert is_harmonic(q(0, -1, 0, 1)) and is_harmonic(q(-1, 0, 0, 0, 1))
