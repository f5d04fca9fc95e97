"""Exterior algebra, pullback/lift correspondence, lambda invariant."""

from fractions import Fraction
from random import Random

import pytest

from tables import EXPECTED_LAMBDA_ZERO
from wedged import wedge_b_matrix, wedge_lift

from heavenly import catalog
from heavenly.errors import ZeroPullback
from heavenly.forms import (
    b_omega_lambda,
    b_omega_matrix,
    effective_lift,
    monomial_form,
    pullback_polynomial,
    pullback_to_equation,
    symplectic_form,
    volume_normalizer,
)
from heavenly.grassmann import MAEquation, minor_basis, uvar


def test_wedge_anticommutes():
    n = 4
    rng = Random(5)
    for _ in range(10):
        a = monomial_form(n, rng.sample(range(8), 2), rng.randint(1, 5))
        b = monomial_form(n, rng.sample(range(8), 3), rng.randint(-5, -1))
        ab = a.wedge(b)
        ba = b.wedge(a)
        sign = (-1) ** (a.degree * b.degree)
        assert ab == sign * ba


def test_mismatched_operands_raise():
    two_form = monomial_form(4, (0, 1))
    with pytest.raises(ValueError):
        two_form + monomial_form(4, (0, 1, 2))
    with pytest.raises(ValueError):
        two_form + monomial_form(3, (0, 1))
    with pytest.raises(ValueError):
        two_form.wedge(monomial_form(3, (0,)))


def test_wedge_associative():
    n = 3
    a = monomial_form(n, (0,)) + 2 * monomial_form(n, (4,))
    b = monomial_form(n, (1,)) + monomial_form(n, (3,))
    c = monomial_form(n, (2, 5))
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_interior_product_signs():
    n = 2
    w = monomial_form(n, (0, 1, 2))
    assert w.interior(0) == monomial_form(n, (1, 2))
    assert w.interior(1) == -1 * monomial_form(n, (0, 2))
    assert w.interior(2) == monomial_form(n, (0, 1))
    assert w.interior(3).is_zero()


def test_pullback_simple_n2():
    # dx1 ^ du1 pulls back to u12 (coefficient of dx1^dx2 in du1 = u11 dx1 + u12 dx2)
    w = monomial_form(2, (0, 2))
    eq = pullback_to_equation(w, minor_basis(2))
    assert eq.poly == uvar(1, 2)


def test_pullback_two_du_n4():
    # du1 ^ du2 ^ dx3 ^ dx4 pulls back to u11 u22 - u12^2
    w = monomial_form(4, (4, 5, 2, 3))
    eq = pullback_to_equation(w, minor_basis(4))
    assert eq.poly == uvar(1, 1) * uvar(2, 2) - uvar(1, 2) ** 2


def test_pullback_degree_check():
    with pytest.raises(ValueError):
        pullback_polynomial(symplectic_form(2).wedge(symplectic_form(2)))


def test_pullback_zero():
    # Omega itself is a 2-form; for n=2 its pullback vanishes (u12 - u21)
    with pytest.raises(ZeroPullback):
        pullback_to_equation(symplectic_form(2), minor_basis(2))


def test_pullback_linear():
    n = 3
    b = minor_basis(n)
    w1 = monomial_form(n, (0, 1, 5))
    w2 = monomial_form(n, (3, 4, 2))
    combo = 3 * w1 + -2 * w2
    p = pullback_polynomial(combo)
    assert p == 3 * pullback_polynomial(w1) - 2 * pullback_polynomial(w2)


def test_effective_lift_round_trip():
    for name in catalog.NORMAL_FORMS:
        eq = catalog.builtin_equation(name)
        w = effective_lift(eq)
        assert pullback_to_equation(w, eq.basis).coords == eq.coords
        assert w.wedge(symplectic_form(4)).is_zero()


def test_effective_lift_round_trip_n3():
    eq = catalog.hess_equation(3)
    w = effective_lift(eq)
    assert w.wedge(symplectic_form(3)).is_zero()
    assert pullback_to_equation(w, eq.basis).coords == eq.coords


@pytest.mark.parametrize("name", list(EXPECTED_LAMBDA_ZERO))
def test_lambda_values(name):
    eq = catalog.builtin_equation(name)
    lambda_zero, _ = b_omega_lambda(eq)
    assert lambda_zero == EXPECTED_LAMBDA_ZERO[name]


def test_b_matrix_skew_and_scaling():
    eq = catalog.first_heavenly()
    _, b = b_omega_lambda(eq)
    for i in range(8):
        for j in range(8):
            assert b[i][j] == -b[j][i]
    scaled = eq.scaled(3)
    _, b3 = b_omega_lambda(scaled)
    for i in range(8):
        for j in range(8):
            assert b3[i][j] == 9 * b[i][j]
    assert b_omega_lambda(scaled)[0] == b_omega_lambda(eq)[0]


def test_b_matrix_symmetric_for_odd_n():
    eq = catalog.hess_equation(3)
    b = b_omega_matrix(eq)
    for i in range(6):
        for j in range(6):
            assert b[i][j] == b[j][i]


def test_symplectic_matrix_is_omega_on_basis_vectors():
    from heavenly.forms import symplectic_matrix

    for n in (2, 3, 4):
        omega = symplectic_form(n)
        assert symplectic_matrix(n) == [[omega.interior(a).interior(b).scalar()
                                         for b in range(2 * n)] for a in range(2 * n)]


def test_volume_normalizer():
    key, coeff = volume_normalizer(4)
    assert key == tuple(range(8)) and coeff != 0


def determinant_pullback(w):
    """Reference: the pullback as it was computed before it read the Plucker
    section, expanding the determinant of the pulled-back generator rows."""
    from heavenly.poly import Polynomial, determinant

    n = w.n
    total = Polynomial.zero()
    for key, c in w.terms.items():
        rows = []
        for g in key:
            if g < n:
                rows.append([Polynomial.constant(int(j == g)) for j in range(n)])
            else:
                rows.append([uvar(g - n + 1, j + 1) for j in range(n)])
        total = total + c * determinant(rows)
    return total


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pullback_matches_determinant_reference(n):
    from itertools import combinations

    from heavenly.forms import ExteriorForm

    rng = Random(60 + n)
    keys = list(combinations(range(2 * n), n))
    forms = [monomial_form(n, key, rng.choice([-3, -1, 1, 2])) for key in keys]
    for _ in range(20):
        picked = rng.sample(keys, rng.randint(1, len(keys)))
        forms.append(ExteriorForm(n, n, {key: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                         for key in picked}))
    forms.append(ExteriorForm(n, n, {}))
    for w in forms:
        assert pullback_polynomial(w) == determinant_pullback(w)


def lambda_test_equations():
    """The 13 builtins and seeded equations with rational coordinates at n = 2, 3, 4."""
    rng = Random(71)
    eqs = [catalog.builtin_equation(name) for name in catalog.builtin_names()]
    for n in (2, 3, 4):
        size = minor_basis(n).dimension
        for density in (0.2, 0.5, 1.0):
            for _ in range(4):
                coords = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) * (rng.random() < density)
                          for _ in range(size)]
                coords[rng.randrange(size)] = Fraction(rng.randint(1, 7), rng.randint(1, 3))
                eqs.append(MAEquation.from_coords(n, coords))
    return eqs


def test_lift_and_pairing_match_wedge_reference():
    for eq in lambda_test_equations():
        lift = effective_lift(eq)
        assert lift == wedge_lift(eq), str(eq)
        assert pullback_to_equation(lift, eq.basis).coords == eq.coords
        b = b_omega_matrix(eq)
        assert b == wedge_b_matrix(eq), str(eq)
        assert all(type(x) is Fraction for row in b for x in row)


def test_lift_table_checks_its_inverse(monkeypatch):
    from heavenly import forms
    from heavenly.errors import InvariantViolation

    eliminate = forms.rref

    def off_by_one(rows):
        pivots, reduced = eliminate(rows)
        reduced[0][-1] += 1
        return pivots, reduced

    monkeypatch.setattr(forms, "rref", off_by_one)
    forms._lift_table.cache_clear()
    try:
        with pytest.raises(InvariantViolation):
            forms._lift_table(3)
    finally:
        forms._lift_table.cache_clear()


def test_warm_lambda_makes_no_wedge_and_no_solve(monkeypatch):
    from heavenly import forms, linalg
    from heavenly.forms import ExteriorForm

    b_omega_lambda(catalog.husain())  # builds the n = 4 tables
    calls = []

    def counting(name, original):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(ExteriorForm, "wedge", counting("wedge", ExteriorForm.wedge))
    for module in (forms, linalg):  # wherever a solve may be bound
        for name in ("solve_linear", "rref"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for name in catalog.NORMAL_FORMS:
        b_omega_lambda(catalog.builtin_equation(name))
    assert calls == []
