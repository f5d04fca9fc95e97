"""Constant-coefficient exterior forms on the symplectic 2n-space.

Generators are ordered dx1..dxn, du1..dun (indices 0..2n-1) and the
symplectic form is Omega = sum dx^i ^ du_i.  An n-form omega is effective
when omega ^ Omega = 0; effective n-forms correspond bijectively to
minor-span elements through pullback along u_i -> sum_j u_ij x^j, and the
skew pairing built from interior products recovers the lambda invariant.

Per equation both run on integer tables cached per n.  The lift is one
integer column table over one denominator: the pullback isomorphism is
inverted once, and the inverse is checked exactly.  The pairing contracts
the lift and sums products of contraction coefficients through a sign
table of the (n - 1)-keys that complete each other with one pair
(i, n + i), so no wedge is built per equation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Sequence, Tuple

from .errors import InvariantViolation, ProportionalityViolation, ZeroPullback
from .grassmann import (MAEquation, MinorBasis, _minor_polys, decompose, minor_basis,
                        permutation_sign, plucker_minor)
from .linalg import apply_table, over_common_denominator, rank_kernel, rref
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

    Verifies at construction that effective n-forms have dimension N; that
    pullback restricted to them is an isomorphism is checked where it is
    inverted (`_lift_table`).
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
    return tuple(effective), [list(row) for row in zip(*columns)]


@lru_cache(maxsize=None)
def _lift_table(n: int) -> Tuple[Tuple[Key, ...], list, int]:
    """The effective lift as one integer column table: the lift of canonical
    coordinates c has coefficient (table c)[m] / d on keys[m].

    The pullback isomorphism is inverted once, by one elimination of
    [iso | I], and iso inv = I is checked exactly, so every equation has a
    lift and no equation needs a solve of its own.
    """
    effective, iso = _effective_frame(n)
    size = len(iso)
    _, reduced = rref([list(row) + [int(i == j) for j in range(size)]
                       for i, row in enumerate(iso)])
    inv = [[(j, x) for j, x in enumerate(row[size:]) if x] for row in reduced]
    for i, row in enumerate(iso):
        product = [0] * size  # row i of iso inv
        for a, inv_row in zip(row, inv):
            if a:
                for j, x in inv_row:
                    product[j] += a * x
        if product != [int(i == j) for j in range(size)]:
            raise InvariantViolation("the pullback isomorphism does not invert")
    lift: Dict[Tuple[Key, int], Fraction] = {}  # (key, i): coefficient of c_i on key
    for form, inv_row in zip(effective, inv):
        for key, c in form.terms.items():
            for i, x in inv_row:
                lift[key, i] = lift.get((key, i), 0) + c * x
    keys = tuple(sorted({key for key, _ in lift}))
    index = {key: m for m, key in enumerate(keys)}
    values, d = over_common_denominator(list(lift.values()))
    table: List[List[Tuple[int, int, int]]] = [[] for _ in range(size)]
    for (key, i), v in zip(lift, values):
        if v:
            table[i].append((index[key], v, 0))
    return keys, table, d


def effective_lift(eq: MAEquation) -> ExteriorForm:
    """The unique effective n-form whose pullback is the equation: one
    integer table applied to eq's coordinates over one denominator."""
    keys, table, d = _lift_table(eq.n)
    coords, den = over_common_denominator(eq.coords)
    values = apply_table(coords, table, len(keys))
    return ExteriorForm(eq.n, eq.n, {key: Fraction(v, d * den)
                                     for key, v in zip(keys, values) if v})


@lru_cache(maxsize=None)
def _pairing_table(n: int) -> Tuple[Dict[Key, List[Tuple[Key, int]]], int]:
    """Signs of the top coefficient of dk1 ^ dk2 ^ Omega for (n - 1)-keys,
    and the coefficient of Omega^n.

    dk1 ^ dk2 ^ Omega reaches the volume only when k1 and k2 are disjoint
    and miss exactly one pair (i, n + i), so for each k1 the table lists
    those k2, each with the sign of the permutation k1 + k2 + (i, n + i).
    """
    pairs: Dict[Key, List[Tuple[Key, int]]] = {}
    for k1 in combinations(range(2 * n), n - 1):
        rest = set(range(2 * n)) - set(k1)
        pairs[k1] = [(k2, permutation_sign(k1 + k2 + (i, n + i)))
                     for i in range(n) if i in rest and n + i in rest
                     for k2 in [tuple(sorted(rest - {i, n + i}))]]
    _, vol = volume_normalizer(n)
    return pairs, int(vol)


def b_omega_matrix(eq: MAEquation) -> List[List[Fraction]]:
    """Pairing (X, Y) -> (i_X w ^ i_Y w ^ Omega) / Omega^n on basis vectors.

    The contractions of the lift are integer forms over one denominator,
    paired through the sign table of `_pairing_table`.
    """
    n = eq.n
    w = effective_lift(eq)
    pairs, vol = _pairing_table(n)
    _, den = over_common_denominator(list(w.terms.values()))
    contractions = [{key: c.numerator * (den // c.denominator)
                     for key, c in w.interior(a).terms.items()} for a in range(2 * n)]
    scale = den * den * vol
    out = []
    for x in contractions:
        paired: Dict[Key, int] = {}  # k2 -> sum of c * sign over the k1 it completes
        for k1, c in x.items():
            for k2, s in pairs[k1]:
                paired[k2] = paired.get(k2, 0) + s * c
        out.append([Fraction(sum(c * paired.get(k2, 0) for k2, c in y.items()), scale)
                    for y in contractions])
    return out


def symplectic_matrix(n: int) -> List[List[Fraction]]:
    """Omega(e_a, e_b): 1 on (i, n + i), -1 on (n + i, i) and 0 elsewhere."""
    return [[Fraction((b == a + n) - (a == b + n)) for b in range(2 * n)]
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
