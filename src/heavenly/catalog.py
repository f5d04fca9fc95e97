"""Built-in equations and Lax pairs.

The 4D catalog covers the six integrable normal forms plus the standard
non-integrable and linear companions used for cross-checks; the 3D catalog
has the Laplace equation, the three canonical nonlinear forms and the
Kahler-potential example.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .grassmann import MAEquation, hessian_matrix, uvar
from .poly import Polynomial, determinant

GENERAL_HEAVENLY_COEFFS = (Fraction(1), Fraction(1), Fraction(-2))  # alpha + beta + gamma = 0
KAHLER_EPSILON = Fraction(1)


def hess_poly(n: int) -> Polynomial:
    return determinant(hessian_matrix(n))


def linear_wave() -> MAEquation:
    return MAEquation.from_poly(4, uvar(1, 1) - uvar(2, 2) - uvar(3, 3) - uvar(4, 4))


def second_heavenly() -> MAEquation:
    return MAEquation.from_poly(
        4, uvar(1, 3) + uvar(2, 4) + uvar(1, 1) * uvar(2, 2) - uvar(1, 2) ** 2)


def modified_heavenly() -> MAEquation:
    return MAEquation.from_poly(
        4, uvar(1, 3) - uvar(1, 2) * uvar(4, 4) + uvar(1, 4) * uvar(2, 4))


def first_heavenly() -> MAEquation:
    return MAEquation.from_poly(
        4, uvar(1, 3) * uvar(2, 4) - uvar(1, 4) * uvar(2, 3) - 1)


def husain() -> MAEquation:
    return MAEquation.from_poly(
        4, uvar(1, 1) + uvar(2, 2) + uvar(1, 3) * uvar(2, 4) - uvar(1, 4) * uvar(2, 3))


def general_heavenly(coeffs: Tuple[Fraction, Fraction, Fraction] = GENERAL_HEAVENLY_COEFFS
                     ) -> MAEquation:
    alpha, beta, gamma = (Fraction(c) for c in coeffs)
    if alpha + beta + gamma != 0:
        raise ValueError("coefficients must sum to zero")
    if not (alpha and beta and gamma):
        raise ValueError("all three coefficients must be nonzero")
    return MAEquation.from_poly(
        4,
        alpha * uvar(1, 2) * uvar(3, 4) + beta * uvar(1, 3) * uvar(2, 4)
        + gamma * uvar(1, 4) * uvar(2, 3))


def hess_equation(n: int) -> MAEquation:
    return MAEquation.from_poly(n, hess_poly(n) - 1)


def laplace(n: int) -> MAEquation:
    return MAEquation.from_poly(n, sum((uvar(i, i) for i in range(1, n + 1)), Polynomial.zero()))


def hess_elliptic_3d() -> MAEquation:
    return MAEquation.from_poly(3, hess_poly(3) - uvar(1, 1) - uvar(2, 2) - uvar(3, 3))


def hess_hyperbolic_3d() -> MAEquation:
    return MAEquation.from_poly(3, hess_poly(3) - uvar(1, 1) - uvar(2, 2) + uvar(3, 3))


def kahler_potential(epsilon: Fraction = KAHLER_EPSILON) -> MAEquation:
    # variables (x, y, t) = (1, 2, 3)
    return MAEquation.from_poly(
        3,
        uvar(3, 3) * (1 + uvar(1, 1) + uvar(2, 2))
        - uvar(1, 3) ** 2 - uvar(2, 3) ** 2 - Fraction(epsilon))


NORMAL_FORMS = ("linear-wave", "second-heavenly", "modified-heavenly",
                "first-heavenly", "husain", "general-heavenly")

_BUILTINS = {
    "linear-wave": linear_wave,
    "second-heavenly": second_heavenly,
    "modified-heavenly": modified_heavenly,
    "first-heavenly": first_heavenly,
    "husain": husain,
    "general-heavenly": general_heavenly,
    "hess": lambda: hess_equation(4),
    "hess-3d": lambda: hess_equation(3),
    "hess-3d-elliptic": hess_elliptic_3d,
    "hess-3d-hyperbolic": hess_hyperbolic_3d,
    "laplace": lambda: laplace(3),
    "laplace-4d": lambda: laplace(4),
    "kahler": kahler_potential,
}


def builtin_names() -> Tuple[str, ...]:
    return tuple(sorted(_BUILTINS))


def builtin_equation(name: str) -> MAEquation:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        known = ", ".join(builtin_names())
        raise KeyError(f"unknown builtin {name!r}; available: {known}") from None
    return factory()
