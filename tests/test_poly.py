"""Polynomial arithmetic and monomial-order tests."""

from fractions import Fraction
from random import Random

from heavenly.poly import Polynomial, determinant


def u(i, j):
    return Polynomial.variable(f"u{min(i, j)}{max(i, j)}")


def random_poly(rng, nvars=3, nterms=4, maxdeg=2):
    p = Polynomial.zero()
    names = [f"u1{k}" for k in range(1, nvars + 1)]
    for _ in range(nterms):
        term = Polynomial.constant(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        for name in names:
            term = term * Polynomial.variable(name) ** rng.randint(0, maxdeg)
        p = p + term
    return p


def test_constant_and_variable():
    assert Polynomial.constant(0).is_zero()
    assert (Polynomial.variable("u11") - Polynomial.variable("u11")).is_zero()
    assert Polynomial.constant(Fraction(3, 6)) == Polynomial.constant(Fraction(1, 2))


def test_ring_axioms_random():
    rng = Random(7)
    for _ in range(25):
        p, q, r = (random_poly(rng) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p + q == q + p


def test_no_zero_coefficients_stored():
    p = u(1, 1) * u(2, 2) - u(1, 1) * u(2, 2) + u(1, 2)
    assert list(p.terms.values()) == [Fraction(1)]


def test_pow():
    p = u(1, 1) + 1
    assert p ** 0 == Polynomial.one()
    assert p ** 3 == p * p * p


def test_partial():
    p = u(1, 1) ** 2 * u(1, 2) + 3 * u(2, 2)
    assert p.partial("u11") == 2 * u(1, 1) * u(1, 2)
    assert p.partial("u12") == u(1, 1) ** 2
    assert p.partial("u22") == Polynomial.constant(3)
    assert p.partial("u33").is_zero()


def test_subs_and_evaluate():
    p = u(1, 1) * u(2, 2) - u(1, 2) ** 2
    q = p.subs({"u11": u(1, 1) + 1})
    assert q == p + u(2, 2)
    val = p.evaluate({"u11": 2, "u22": 3, "u12": Fraction(1, 2)})
    assert val == Fraction(23, 4)


def test_monomial_order_graded_then_u11_dominant():
    p = u(1, 1) + u(1, 2) ** 2
    assert p.lead_monomial() == (("u12", 2),)
    q = u(1, 1) * u(1, 2) + u(1, 2) ** 2
    assert q.lead_monomial() == (("u11", 1), ("u12", 1))
    r = 5 * u(1, 1) ** 2 + u(1, 1) * u(1, 2)
    assert r.lead_coeff() == 5
    assert r.monic().lead_coeff() == 1


def test_determinant_matches_expansion():
    rows = [[u(i, j) for j in range(1, 4)] for i in range(1, 4)]
    det = determinant(rows)
    expected = (
        u(1, 1) * u(2, 2) * u(3, 3)
        + 2 * u(1, 2) * u(1, 3) * u(2, 3)
        - u(1, 1) * u(2, 3) ** 2
        - u(2, 2) * u(1, 3) ** 2
        - u(3, 3) * u(1, 2) ** 2
    )
    assert det == expected


def test_str_round_shape():
    p = -u(1, 1) + Fraction(1, 2) * u(1, 2) ** 2 - 3
    s = str(p)
    assert "u12^2" in s and "u11" in s
    assert str(Polynomial.zero()) == "0"
