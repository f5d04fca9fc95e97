"""Expression grammar tests."""

from fractions import Fraction

import pytest

from heavenly.errors import NotInSpan, ParseError
from heavenly.grassmann import MAEquation, equation_from_json, equation_to_json, minor_basis, uvar
from heavenly.parse import parse_equation, parse_lax_field, parse_polynomial
from heavenly.poly import Polynomial


def test_first_heavenly_expression():
    eq = parse_equation("u13*u24 - u14*u23 - 1", 4)
    assert eq.poly == uvar(1, 3) * uvar(2, 4) - uvar(1, 4) * uvar(2, 3) - 1


def test_span_elements_round_trip_through_text_and_json():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    rational = st.one_of(st.just(Fraction(0)),
                         st.builds(Fraction, st.integers(-99, 99), st.integers(1, 12)))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.sampled_from([2, 3, 4]))
        dim = minor_basis(n).dimension
        coords = data.draw(st.lists(rational, min_size=dim, max_size=dim).filter(any))
        eq = MAEquation.from_coords(n, coords)
        assert parse_equation(str(eq.poly), n) == eq
        assert equation_from_json(equation_to_json(eq)) == eq

    check()


def test_hess_keyword():
    from heavenly.catalog import hess_poly

    eq = parse_equation("HESS - 1", 3)
    assert eq.poly == hess_poly(3) - 1


def test_rational_literals_and_powers():
    p = parse_polynomial("1/2*u11^2 - 3/4", 2)
    assert p == Fraction(1, 2) * uvar(1, 1) ** 2 - Fraction(3, 4)


def test_index_normalization():
    assert parse_polynomial("u21", 2) == uvar(1, 2)
    assert parse_polynomial("u43*u12", 4) == uvar(3, 4) * uvar(1, 2)


def test_parentheses_and_unary():
    p = parse_polynomial("-(u11 - u22)*2", 2)
    assert p == -2 * uvar(1, 1) + 2 * uvar(2, 2)


def test_not_in_span_with_monomials():
    with pytest.raises(NotInSpan) as err:
        parse_equation("u11 + u11^2", 4)
    assert any("u11" in m for m in err.value.monomials)


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_polynomial("u11 + ", 2)
    assert err.value.position == len("u11 + ")
    with pytest.raises(ParseError):
        parse_polynomial("u11 ? u22", 2)
    with pytest.raises(ParseError):
        parse_polynomial("u11/u22", 2)
    with pytest.raises(ParseError):
        parse_polynomial("u15", 4)
    with pytest.raises(ParseError):
        parse_polynomial("", 3)
    with pytest.raises(ParseError):
        parse_polynomial("u11^(2)", 2)
    with pytest.raises(ParseError):
        parse_polynomial("u11 u22", 2)


def test_round_trip_print_parse():
    from random import Random

    from heavenly.grassmann import minor_basis

    rng = Random(77)
    for n in (2, 3, 4):
        basis = minor_basis(n)
        for _ in range(5):
            coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(basis.dimension)]
            if not any(coords):
                continue
            eq = MAEquation.from_coords(n, coords)
            again = parse_equation(str(eq.poly), n)
            assert again.coords == eq.coords


def test_lax_field_parsing():
    field = parse_lax_field("u13*d4 - u14*d3 + lam*d1", 4)
    assert field.components[0] == Polynomial.variable("lam")
    assert field.components[1].is_zero()
    assert field.components[2] == -uvar(1, 4)
    assert field.components[3] == uvar(1, 3)


def test_lax_field_rejects_nonlinear_directions():
    with pytest.raises(ParseError):
        parse_lax_field("d1*d2", 4)
    with pytest.raises(ParseError):
        parse_lax_field("u11 + d1", 4)
    with pytest.raises(ParseError):
        parse_lax_field("u11", 4)


def test_expansion_bound_is_checked_before_expanding():
    from heavenly.parse import MAX_EXPANSION_TERMS

    assert 2 ** 16 <= MAX_EXPANSION_TERMS < 2 ** 17
    assert len(parse_polynomial("(u11+u12)^16", 2).terms) == 17
    with pytest.raises(ParseError, match="expand"):
        parse_polynomial("(u11+u12)^17", 2)
    ten = "(u11+u12+u13+u14+u22+u23+u24+u33+u34+u44)"
    assert len(parse_polynomial(f"{ten}^4", 4).terms) == 715
    with pytest.raises(ParseError, match="'\\*' would expand"):
        parse_polynomial(f"{ten}^4*{ten}^4", 4)  # 715 * 715 terms
    assert parse_polynomial("(u11+u12)^8*(u11+u22)^8", 2) == (
        (uvar(1, 1) + uvar(1, 2)) ** 8 * (uvar(1, 1) + uvar(2, 2)) ** 8)
    assert parse_polynomial("2^1000 - u11^1000", 2).degree() == 1000


def test_degree_bound_is_checked_before_expanding():
    from heavenly.parse import MAX_DEGREE

    assert parse_polynomial(f"u11^{MAX_DEGREE}", 2).degree() == MAX_DEGREE
    assert parse_polynomial(f"(u11*u12)^{MAX_DEGREE // 2}", 2).degree() == MAX_DEGREE
    huge = "7" * 1000
    for text in (f"u11^{MAX_DEGREE + 1}", f"(u11*u12)^{MAX_DEGREE // 2 + 1}",
                 f"u11^{huge}^{huge}^{huge}^{huge}^{huge}", f"(u11^2)^{huge}"):
        with pytest.raises(ParseError, match="'\\^' would give a degree"):
            parse_polynomial(text, 2)
    assert parse_polynomial(f"1^{huge}*u11", 2) == uvar(1, 1)  # constants have degree 0


def test_long_literal_is_rejected_before_conversion():
    from heavenly.parse import MAX_DIGITS

    assert MAX_DIGITS < 4300  # Python's limit on int-to-str conversion
    long = "7" * 5000
    for text in (f"{long}*u11 - u22", f"u11 - 1/{long}", "1" + "0" * MAX_DIGITS):
        with pytest.raises(ParseError, match="literal has more than"):
            parse_polynomial(text, 2)
    assert parse_polynomial("9" * MAX_DIGITS, 2) == Polynomial.constant(10 ** MAX_DIGITS - 1)


def test_coefficient_bound_is_checked_before_expanding():
    from heavenly.parse import MAX_DIGITS

    with pytest.raises(ParseError, match="'\\^' would give a coefficient"):
        parse_polynomial("2^20000", 3)
    with pytest.raises(ParseError, match="'\\^' would give a coefficient"):
        parse_polynomial("(1/2*u11)^4000", 2)
    third = "3" * (MAX_DIGITS // 3)
    assert parse_polynomial(f"{third}*{third}*{third}*u11", 2).terms
    with pytest.raises(ParseError, match="'\\*' would give a coefficient"):
        parse_polynomial(f"{third}*{third}*{third}*{third}*u11", 2)
    assert parse_polynomial("(-1)^100000000000000000000*u11", 2) == uvar(1, 1)
    primes = [p for p in range(2, 3000) if all(p % q for q in range(2, p))]
    with pytest.raises(ParseError, match="'\\+' would give a coefficient"):
        parse_polynomial("u11 + " + " + ".join(f"1/{p}" for p in primes), 2)


def test_builtins_and_hess_parse_under_the_expansion_bound():
    from heavenly import catalog

    for name in catalog.builtin_names():
        eq = catalog.builtin_equation(name)
        assert parse_equation(str(eq.poly), eq.n) == eq
    assert parse_equation("(HESS - 1)*2 - HESS + 1", 4) == catalog.hess_equation(4)
