"""Constant-coefficient exterior forms on the symplectic 2n-space: the
oracle side of the invariant quadric in `heavenly.liesp`.

Generators are ordered dx1..dxn, du1..dun (indices 0..2n-1) and the
symplectic form is Omega = sum dx^i ^ du_i.  An n-form omega is effective
when omega ^ Omega = 0; effective n-forms correspond bijectively to
minor-span elements through pullback along u_i -> sum_j u_ij x^j, and the
skew pairing built from interior products recovers the lambda invariant
(`wedged.py`).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from heavenly.errors import InvariantViolation
from heavenly.grassmann import (MAEquation, _minor_polys, decompose, minor_basis,
                                permutation_sign, plucker_minor)
from heavenly.linalg import rank_kernel
from heavenly.poly import Polynomial, signed_sum


class ExteriorForm:
    """Homogeneous constant-coefficient form; terms map index tuples to Fractions."""

    __slots__ = ("n", "degree", "terms")

    def __init__(self, n, degree, terms=()):
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

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if (self.n, self.degree) != (other.n, other.degree):
            raise ValueError("cannot add forms of different dimension or degree")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c  # the constructor drops zeros
        return ExteriorForm(self.n, self.degree, out)

    def __rmul__(self, scalar):
        c = Fraction(scalar)
        return ExteriorForm(self.n, self.degree, {k: c * v for k, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, ExteriorForm)
                and (self.n, self.degree, self.terms) == (other.n, other.degree, other.terms))

    def wedge(self, other):
        if self.n != other.n:
            raise ValueError("cannot wedge forms of different dimension")
        out = {}
        for k1, c1 in self.terms.items():
            s1 = set(k1)
            for k2, c2 in other.terms.items():
                if s1 & set(k2):
                    continue
                key = tuple(sorted(k1 + k2))
                out[key] = out.get(key, 0) + c1 * c2 * permutation_sign(k1 + k2)
        return ExteriorForm(self.n, self.degree + other.degree, out)

    def interior(self, index):
        """Contraction with the basis vector dual to the given generator."""
        out = {}
        for key, c in self.terms.items():
            if index not in key:
                continue
            pos = key.index(index)
            rest = key[:pos] + key[pos + 1:]
            out[rest] = out.get(rest, 0) + (c if pos % 2 == 0 else -c)
        return ExteriorForm(self.n, self.degree - 1, out)

    def scalar(self):
        if self.degree != 0:
            raise ValueError("not a 0-form")
        return self.terms.get((), Fraction(0))

    def __str__(self):
        names = [f"dx{i + 1}" for i in range(self.n)] + [f"du{i + 1}" for i in range(self.n)]
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


def monomial_form(n, indices, coeff=1):
    return ExteriorForm(n, len(indices), {tuple(sorted(indices)): Fraction(coeff)})


def symplectic_form(n):
    return ExteriorForm(n, 2, {(i, n + i): 1 for i in range(n)})


@lru_cache(maxsize=None)
def volume_normalizer(n):
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


def pullback_polynomial(w):
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


def pullback_to_equation(w, basis):
    """Restrict the n-form to Lagrangian graphs u_i = sum_j u_ij x^j; a form
    that pulls back to zero raises ValueError."""
    return MAEquation.from_poly(basis.n, pullback_polynomial(w))


@lru_cache(maxsize=None)
def effective_frame(n):
    """Basis of effective n-forms plus the pullback isomorphism onto the span
    (row i holds canonical coordinate i of each form's pullback)."""
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
    return tuple(effective), [list(row) for row in zip(*columns)]
