"""Exterior algebra, pullback/lift correspondence, and the lambda invariant:
the invariant quadric of `heavenly.liesp` against the wedge pairing."""

from fractions import Fraction
from random import Random

import pytest

from exterior import (
    ExteriorForm,
    monomial_form,
    pullback_polynomial,
    pullback_to_equation,
    symplectic_form,
    volume_normalizer,
)
from tables import EXPECTED_LAMBDA_ZERO
from wedged import polarized_quadric, wedge_b_matrix, wedge_lift

from heavenly import catalog
from heavenly.errors import InvariantViolation
from heavenly.grassmann import MAEquation, minor_basis, uvar
from heavenly.liesp import _invariant_quadric, b_omega_lambda, symplectic_matrix


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
    with pytest.raises(ValueError, match="nonzero"):
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
        w = wedge_lift(eq)
        assert pullback_to_equation(w, eq.basis).coords == eq.coords
        assert w.wedge(symplectic_form(4)).is_zero()


def test_effective_lift_round_trip_n3():
    eq = catalog.hess_equation(3)
    w = wedge_lift(eq)
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
    assert b == wedge_b_matrix(eq)
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
    b = wedge_b_matrix(eq)
    for i in range(6):
        for j in range(6):
            assert b[i][j] == b[j][i]


def test_symplectic_matrix_is_omega_on_basis_vectors():
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
    # the wedge lift is effective and pulls back to the equation; at even n
    # the pairing is lambda * Omega with lambda = c^T G c, entry by entry
    for eq in lambda_test_equations():
        lift = wedge_lift(eq)
        assert lift.wedge(symplectic_form(eq.n)).is_zero()
        assert pullback_to_equation(lift, eq.basis).coords == eq.coords
        if eq.n % 2:
            with pytest.raises(ValueError, match="even n"):
                b_omega_lambda(eq)
            continue
        lambda_zero, b = b_omega_lambda(eq)
        assert b == wedge_b_matrix(eq), str(eq)
        assert lambda_zero == (b[0][eq.n] == 0)
        assert all(type(x) is Fraction for row in b for x in row)


def quadric_matrix(n):
    """G of `_invariant_quadric` as a dense matrix of Fractions."""
    table, d = _invariant_quadric(n)
    out = [[Fraction(0)] * len(table) for _ in table]
    for i, column in enumerate(table):
        for j, x, _ in column:
            out[j][i] = Fraction(x, d)
    return out


@pytest.mark.parametrize("n", [2, 4])
def test_invariant_quadric_is_the_polarized_wedge_pairing(n):
    g = quadric_matrix(n)
    assert g == polarized_quadric(n)
    entries = {(i, j): x for i, row in enumerate(g) for j, x in enumerate(row) if x and i <= j}
    assert len(entries) == {2: 3, 4: 23}[n]
    if n == 4:
        # the block on U[13;24] and U[12;34] = U[13;24] - U[14;23] is
        # -(x^2 + xy + y^2)/144; every other basis element pairs with its
        # complementary minor alone
        assert [entries[k] for k in ((20, 20), (20, 22), (22, 22))] == [
            Fraction(-1, 144), Fraction(-1, 288), Fraction(-1, 144)]
        assert entries[0, 41] == Fraction(-1, 48)


@pytest.mark.parametrize("n", [2, 4])
def test_quadric_lambda_matches_the_wedge_oracle(n):
    rng = Random(90 + n)
    size = minor_basis(n).dimension
    g = quadric_matrix(n)
    for _ in range(15):
        coords = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) * (rng.random() < 0.4)
                  for _ in range(size)]
        coords[rng.randrange(size)] = Fraction(rng.randint(1, 6))
        eq = MAEquation.from_coords(n, coords)
        lam = sum(x * g[i][j] * y for i, x in enumerate(coords) for j, y in enumerate(coords))
        assert wedge_b_matrix(eq)[0][n] == lam
        assert b_omega_lambda(eq) == (lam == 0, [[lam * x for x in row]
                                                   for row in symplectic_matrix(n)])


@pytest.mark.parametrize("entry", [(0, 0), (20, 22), (41, 0), (5, 36)],
                         ids=lambda entry: "G[%d][%d]" % entry)
def test_invariant_quadric_checks_its_invariance(monkeypatch, entry):
    # one corrupted entry of G fails the build's exact invariance check
    from heavenly import liesp

    build = liesp._complementary_pairing

    def corrupted(n):
        table, d = build(n)
        i, j = entry
        column = dict((m, x) for m, x, _ in table[j])
        column[i] = column.get(i, 0) + 1
        return (table[:j] + (tuple((m, x, 0) for m, x in sorted(column.items())),)
                + table[j + 1:], d)

    monkeypatch.setattr(liesp, "_complementary_pairing", corrupted)
    liesp._invariant_quadric.cache_clear()
    try:
        with pytest.raises(InvariantViolation, match="not invariant"):
            liesp._invariant_quadric(4)
    finally:
        liesp._invariant_quadric.cache_clear()


def test_warm_lambda_makes_no_wedge_and_no_solve(monkeypatch):
    from heavenly import linalg, liesp

    b_omega_lambda(catalog.husain())  # builds the n = 4 tables
    calls = []

    def counting(name, original):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(ExteriorForm, "wedge", counting("wedge", ExteriorForm.wedge))
    for module in (liesp, linalg):  # wherever a solve may be bound
        for name in ("solve_linear", "rref", "rank_kernel"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for name in catalog.NORMAL_FORMS:
        b_omega_lambda(catalog.builtin_equation(name))
    assert calls == []
