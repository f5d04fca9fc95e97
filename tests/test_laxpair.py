"""Commutators, variety sampling, and verification of the catalogued pairs."""

from fractions import Fraction
from random import Random

import pytest

from heavenly import catalog
from heavenly.errors import NoSamplePoint
from heavenly.grassmann import MAEquation, ucoord
from heavenly.laxpair import (
    PAIR_NAMES,
    LaxField,
    catalog_pair,
    commutator,
    reduce_6d_lax,
    sample_on_variety,
    six_dim_pair,
    total_derivative,
    verify_lax,
)
from heavenly.poly import Polynomial


def u(i, j):
    return Polynomial.variable(ucoord(i, j))


def lam():
    return Polynomial.variable("lam")


def test_total_derivative():
    assert total_derivative(u(1, 3) * u(2, 4), 2) == \
        Polynomial.variable("u123") * u(2, 4) + u(1, 3) * Polynomial.variable("u224")
    assert total_derivative(lam(), 1).is_zero()
    assert total_derivative(Polynomial.constant(7), 3).is_zero()


def test_commutator_antisymmetry_and_self():
    x1, x2, _ = catalog_pair("first-heavenly")
    self_bracket = commutator(x1, x1)
    assert all(c.is_zero() for c in self_bracket.components)
    ab = commutator(x1, x2)
    ba = commutator(x2, x1)
    for c1, c2 in zip(ab.components, ba.components):
        assert c1 == -1 * c2


def test_constant_fields_commute_and_jacobi():
    rng = Random(3)

    def const_field():
        return LaxField.from_components(
            [Fraction(rng.randint(-5, 5)) for _ in range(4)])

    for _ in range(5):
        x, y, z = const_field(), const_field(), const_field()
        assert all(c.is_zero() for c in commutator(x, y).components)
        j1 = commutator(x, commutator(y, z))
        j2 = commutator(y, commutator(z, x))
        j3 = commutator(z, commutator(x, y))
        for a, b, c in zip(j1.components, j2.components, j3.components):
            assert (a + b + c).is_zero()


def test_first_heavenly_bracket_is_total_derivative_of_equation():
    x1, x2, _ = catalog_pair("first-heavenly")
    bracket = commutator(x1, x2)
    eq = catalog.first_heavenly()
    d4 = total_derivative(eq.poly, 4)
    assert bracket.components[2] == d4
    d3 = total_derivative(eq.poly, 3)
    assert bracket.components[3] == -1 * d3
    assert bracket.components[0].is_zero() and bracket.components[1].is_zero()


def test_bracket_components_linear_in_third_derivatives():
    for name in ("second-heavenly", "modified-heavenly", "first-heavenly", "husain"):
        x1, x2, _ = catalog_pair(name)
        bracket = commutator(x1, x2)
        for comp in bracket.components:
            for mono, _c in comp.terms.items():
                third = sum(e for v, e in mono if len(v) == 4)
                assert third == 1


def test_sample_on_variety():
    rng = Random(9)
    for name in ("first-heavenly", "husain", "second-heavenly"):
        eq = catalog.builtin_equation(name)
        values = sample_on_variety(eq, rng)
        assert eq.poly.evaluate(values) == 0
        for k in range(1, 5):
            residue = total_derivative(eq.poly, k).evaluate(values)
            assert residue == 0


def test_sample_on_variety_budget():
    eq = MAEquation.from_coords(4, [1] + [0] * 41)
    with pytest.raises(NoSamplePoint):
        sample_on_variety(eq, Random(0), budget=10)


@pytest.mark.parametrize("name", ["second-heavenly", "modified-heavenly",
                                  "first-heavenly", "husain"])
def test_strict_pairs_verify(name):
    x1, x2, mode = catalog_pair(name)
    assert mode == "strict"
    result = verify_lax(x1, x2, catalog.builtin_equation(name), mode, trials=8, seed=5)
    assert result.passed, result.witness


def test_pair_names_are_the_catalogued_pairs():
    catalogued = []
    for name in catalog.builtin_names():
        try:
            catalog_pair(name)
        except KeyError as err:
            assert all(pair in err.args[0] for pair in PAIR_NAMES)
        else:
            catalogued.append(name)
    assert catalogued == sorted(PAIR_NAMES)


def test_general_heavenly_needs_mod_span():
    x1, x2, mode = catalog_pair("general-heavenly")
    assert mode == "mod-span"
    eq = catalog.general_heavenly()
    strict = verify_lax(x1, x2, eq, "strict", trials=8, seed=5)
    assert not strict.passed and strict.witness is not None
    relaxed = verify_lax(x1, x2, eq, "mod-span", trials=8, seed=5)
    assert relaxed.passed, relaxed.witness


def test_sign_flip_fails_with_witness():
    x1, x2, _ = catalog_pair("first-heavenly")
    flipped = LaxField.from_components(
        [x2.components[0], x2.components[1], -1 * x2.components[2], x2.components[3]])
    result = verify_lax(x1, flipped, catalog.first_heavenly(), "strict",
                        trials=8, seed=5)
    assert not result.passed
    assert result.witness is not None and "residue" in result.witness


def test_verdicts_stable_across_seeds():
    x1, x2, _ = catalog_pair("husain")
    eq = catalog.husain()
    for seed in range(20):
        assert verify_lax(x1, x2, eq, "strict", trials=2, seed=seed).passed


def test_reduce_identity_returns_six_dim_pair():
    rows = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    x1, x2 = reduce_6d_lax(rows)
    y1, y2 = six_dim_pair()
    assert x1.components == y1.components
    assert x2.components == y2.components


def e_row(i, m=4):
    return [Fraction(int(j == i)) for j in range(m)]


def test_reduce_to_husain_pair():
    rows = [e_row(0), e_row(1), e_row(2), e_row(3), e_row(0), e_row(1)]
    x1, x2 = reduce_6d_lax(rows)
    h1, h2, _ = catalog_pair("husain")
    assert x1.components == h1.components
    assert x2.components == h2.components


def test_reduce_to_second_heavenly_pair():
    rows = [e_row(0), e_row(1), e_row(0), e_row(1), e_row(2), e_row(3)]
    x1, x2 = reduce_6d_lax(rows)
    s1, s2, _ = catalog_pair("second-heavenly")
    assert x1.components == s1.components
    assert x2.components == s2.components


def test_reduce_to_first_heavenly_pair():
    zero = [Fraction(0)] * 4
    rows = [e_row(0), e_row(1), e_row(2), e_row(3), zero, zero]
    x1, x2 = reduce_6d_lax(rows)
    f1, f2, _ = catalog_pair("first-heavenly")
    assert x1.components == f1.components
    assert x2.components == f2.components
