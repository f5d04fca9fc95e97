"""Constant-coefficient exterior forms on the symplectic 2n-space.

Generators are ordered dx1..dxn, du1..dun (indices 0..2n-1) and the
symplectic form is Omega = sum dx^i ^ du_i.  An n-form omega is effective
when omega ^ Omega = 0; effective n-forms correspond bijectively to
minor-span elements through pullback along u_i -> sum_j u_ij x^j, and the
skew pairing built from interior products recovers the lambda invariant.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from .errors import InvariantViolation, ProportionalityViolation, ZeroPullback
from .grassmann import (MAEquation, MinorBasis, _minor_polys, decompose, minor_basis,
                        permutation_sign, plucker_minor)
from .linalg import rank_kernel, solve_linear
from .poly import Polynomial, signed_sum

Key = Tuple[int, ...]


class ExteriorForm:
    """Homogeneous constant-coefficient form; terms map index tuples to Fractions."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n: int, degree: int, terms: Dict[Key, Fraction] = ()):  # type: ignore[assignment]
        self.n = n
        self.degree = degree
        clean = {}
        for key, c in dict(terms).items():
            c = Fraction(c)
            if not c:
                continue
            if len(key) != degree or len(set(key)) != degree or list(key) != sorted(key):
                raise ValueError(f"bad index tuple {key} for degree {degree}")
            if key and key[-1] >= 2 * n:
                raise ValueError(f"index out of range in {key}")
            clean[key] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        if (self.n, self.degree) != (other.n, other.degree):
            raise ValueError("cannot add forms of different dimension or degree")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c  # the constructor drops zeros
        return ExteriorForm(self.n, self.degree, out)

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "ExteriorForm":
        c = Fraction(scalar)
        return ExteriorForm(self.n, self.degree, {k: c * v for k, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, ExteriorForm)
                and (self.n, self.degree, self.terms) == (other.n, other.degree, other.terms))

    def wedge(self, other: "ExteriorForm") -> "ExteriorForm":
        if self.n != other.n:
            raise ValueError("cannot wedge forms of different dimension")
        out: Dict[Key, Fraction] = {}
        for k1, c1 in self.terms.items():
            s1 = set(k1)
            for k2, c2 in other.terms.items():
                if s1 & set(k2):
                    continue
                key = tuple(sorted(k1 + k2))
                out[key] = out.get(key, 0) + c1 * c2 * permutation_sign(k1 + k2)
        return ExteriorForm(self.n, self.degree + other.degree, out)

    def interior(self, index: int) -> "ExteriorForm":
        """Contraction with the basis vector dual to the given generator."""
        out: Dict[Key, Fraction] = {}
        for key, c in self.terms.items():
            if index not in key:
                continue
            pos = key.index(index)
            rest = key[:pos] + key[pos + 1:]
            out[rest] = out.get(rest, 0) + (c if pos % 2 == 0 else -c)
        return ExteriorForm(self.n, self.degree - 1, out)

    def scalar(self) -> Fraction:
        if self.degree != 0:
            raise ValueError("not a 0-form")
        return self.terms.get((), Fraction(0))

    def __str__(self):
        names = generator_names(self.n)
        pieces = []
        for key in sorted(self.terms):
            c = self.terms[key]
            body = "^".join(names[i] for i in key) or str(abs(c))
            if key and abs(c) != 1:
                body = f"{abs(c)} {body}"
            pieces.append((c, body))
        return signed_sum(pieces)

    def __repr__(self):
        return f"ExteriorForm({self})"


def generator_names(n: int) -> List[str]:
    return [f"dx{i+1}" for i in range(n)] + [f"du{i+1}" for i in range(n)]


def monomial_form(n: int, indices: Sequence[int], coeff=1) -> ExteriorForm:
    return ExteriorForm(n, len(indices), {tuple(sorted(indices)): Fraction(coeff)})


def symplectic_form(n: int) -> ExteriorForm:
    return ExteriorForm(n, 2, {(i, n + i): 1 for i in range(n)})


@lru_cache(maxsize=None)
def volume_normalizer(n: int) -> Tuple[Key, Fraction]:
    """Full index tuple and the coefficient of Omega^n on it."""
    omega = symplectic_form(n)
    power = omega
    for _ in range(n - 1):
        power = power.wedge(omega)
    key = tuple(range(2 * n))
    coeff = power.terms.get(key, Fraction(0))
    if not coeff:
        raise InvariantViolation("symplectic volume vanished")
    return key, coeff


def pullback_to_equation(w: ExteriorForm, basis: MinorBasis) -> MAEquation:
    """Restrict the n-form to Lagrangian graphs u_i = sum_j u_ij x^j."""
    poly = pullback_polynomial(w)
    if poly.is_zero():
        raise ZeroPullback("form pulls back to zero on Lagrangian graphs")
    return MAEquation.from_poly(basis.n, poly)


def pullback_polynomial(w: ExteriorForm) -> Polynomial:
    """Pullback along u_i = sum_j u_ij x^j: the monomial form on generators S
    goes to the Plucker coordinate p_S of [I; U], a signed raw minor."""
    n = w.n
    if w.degree != n:
        raise ValueError(f"pullback needs an n-form, got degree {w.degree}")
    total = Polynomial.zero()
    for key, c in w.terms.items():
        m, sign = plucker_minor(n, key)
        total = total + sign * c * _minor_polys(n)[m]
    return total


@lru_cache(maxsize=None)
def _effective_frame(n: int):
    """Basis of effective n-forms plus the pullback isomorphism onto the span.

    Verifies at construction that effective n-forms have dimension N and
    that pullback restricted to them is a linear isomorphism.
    """
    basis = minor_basis(n)
    monos = list(combinations(range(2 * n), n))
    omega = symplectic_form(n)
    wedge_images = [monomial_form(n, key).wedge(omega) for key in monos]
    target_keys = sorted({k for img in wedge_images for k in img.terms})
    rows = [[img.terms.get(k, Fraction(0)) for img in wedge_images] for k in target_keys]
    _, kernel = rank_kernel(rows)
    if len(kernel) != basis.dimension:
        raise InvariantViolation("effective forms have unexpected dimension")
    effective = [ExteriorForm(n, n, {monos[i]: c for i, c in enumerate(vec) if c})
                 for vec in kernel]
    columns = [decompose(pullback_polynomial(f), basis) for f in effective]
    iso = [list(row) for row in zip(*columns)]
    rank, _ = rank_kernel(iso)
    if rank != basis.dimension:
        raise InvariantViolation("pullback is not an isomorphism on effective forms")
    return tuple(effective), iso


def effective_lift(eq: MAEquation) -> ExteriorForm:
    """The unique effective n-form whose pullback is the equation."""
    effective, iso = _effective_frame(eq.n)
    sol = solve_linear(iso, list(eq.coords))
    if sol is None:
        raise InvariantViolation("equation has no effective lift")
    weights, _ = sol
    out = ExteriorForm(eq.n, eq.n, {})
    for w, form in zip(weights, effective):
        if w:
            out = out + w * form
    return out


def b_omega_matrix(eq: MAEquation) -> List[List[Fraction]]:
    """Pairing (X, Y) -> (i_X w ^ i_Y w ^ Omega) / Omega^n on basis vectors."""
    n = eq.n
    w = effective_lift(eq)
    omega = symplectic_form(n)
    key, vol = volume_normalizer(n)
    contractions = [w.interior(a) for a in range(2 * n)]
    return [[x.wedge(y).wedge(omega).terms.get(key, Fraction(0)) / vol
             for y in contractions] for x in contractions]


def symplectic_matrix(n: int) -> List[List[Fraction]]:
    omega = symplectic_form(n)
    return [[omega.interior(a).interior(b).scalar() for b in range(2 * n)]
            for a in range(2 * n)]


def b_omega_lambda(eq: MAEquation) -> Tuple[bool, List[List[Fraction]]]:
    """(lambda == 0, B matrix); B must be skew and proportional to Omega."""
    if eq.n % 2:
        raise ValueError("the proportionality invariant needs even n")
    b = b_omega_matrix(eq)
    size = 2 * eq.n
    for a in range(size):
        for c in range(a, size):
            if b[a][c] != -b[c][a]:
                raise ProportionalityViolation("pairing is not skew-symmetric")
    j = symplectic_matrix(eq.n)
    scale = None
    for a in range(size):
        for c in range(size):
            if j[a][c]:
                cand = b[a][c] / j[a][c]
                if scale is None:
                    scale = cand
                elif cand != scale:
                    raise ProportionalityViolation("pairing is not a multiple of Omega")
            elif b[a][c]:
                raise ProportionalityViolation("pairing is not a multiple of Omega")
    return (scale == 0 or scale is None), b
