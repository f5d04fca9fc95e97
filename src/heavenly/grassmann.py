"""Hyperplane sections of the Plucker-embedded Lagrangian Grassmannian.

The chart identifies a Lagrangian plane with a symmetric n x n matrix U of
variables u_ij (i <= j).  The minors of U (all sizes, the empty minor being
the constant 1) span an N-dimensional space with N = C(2n,n) - C(2n,n+2);
an equation is a hyperplane section, i.e. an element of that span.

The canonical basis is the reduced echelon form of the minor set, degree by
degree, with columns ordered by the frozen monomial order, so coordinates
are reproducible across runs and serializable.  Each basis element has
coefficient 1 at its leading monomial (its pivot) and 0 at every other
pivot, so coordinate k of an equation is its coefficient at basis k's
leading monomial.  The same elimination records each basis element as a
combination of the raw minors.

The Plucker section reads U as the plane spanned by the columns of [I; U]
in Q^2n (rows 0..n-1 are identity rows, rows n..2n-1 the rows of U); p_S
is its minor on the rows S.  Laplace expansion along the identity rows
gives p_S = eps * det U[R, C] for sorted S = T + (n + R), with C the
complement of T in [n] and eps the sign of the permutation (T, C).  So a
2n x 2n matrix acts on the raw minors through its n-th exterior power, in
integers: the sp(2n) action matrices (`derivation_matrix`), the Legendre
flips (`legendre_matrix`), translations and travelling-wave reductions
(`pullback_coords`) use no polynomial arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import MAX_DIM, MIN_DIM
from .errors import (DegenerateChart, InvariantViolation, NotInSpan, NotPurelyQuadratic,
                     UnsupportedDimension)
from .linalg import apply_table, mat_vec, over_common_denominator, rank_kernel, rref
from .poly import Monomial, Polynomial, determinant, mono_order_key


def ucoord(i: int, j: int) -> str:
    return f"u{min(i, j)}{max(i, j)}"


def uvar(i: int, j: int) -> Polynomial:
    return Polynomial.variable(ucoord(i, j))


def chart_vars(n: int) -> List[str]:
    return [ucoord(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def hessian_matrix(n: int) -> List[List[Polynomial]]:
    return [[uvar(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]


def minor_poly(rows: Sequence[int], cols: Sequence[int]) -> Polynomial:
    if not rows:
        return Polynomial.one()
    return determinant([[uvar(i, j) for j in cols] for i in rows])


class MinorBasis(NamedTuple):
    """Canonical (reduced-echelon) basis of the minor span for dimension n.

    `pivots[k]` is the leading monomial of basis polynomial k: it has
    coefficient 1 there and 0 at every other pivot.  `minor_combinations[k]`
    writes it over the raw minors, in `_minor_pairs(n)` order.
    """

    n: int
    basis_polys: Tuple[Polynomial, ...]
    per_degree_dims: Tuple[int, ...]
    pivots: Tuple[Monomial, ...]
    minor_combinations: Tuple[Tuple[Fraction, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis_polys)

    def degree_slice(self, d: int) -> range:
        start = sum(self.per_degree_dims[:d])
        return range(start, start + self.per_degree_dims[d])


def _echelonize_polys(
        polys: Sequence[Polynomial]) -> List[Tuple[Polynomial, Monomial, List[Fraction]]]:
    """Reduced echelon basis of the span of polys, each element also over polys.

    One elimination of [coefficients | I]: the rows with a pivot among the
    monomial columns are the basis, and their identity block is the
    combination of polys giving each.  Returns (poly, pivot, combination)s.
    """
    monomials = sorted({m for p in polys for m in p.terms}, key=mono_order_key)
    index = {m: k for k, m in enumerate(monomials)}
    width = len(monomials)
    rows = []
    for i, p in enumerate(polys):
        row = [Fraction(0)] * (width + len(polys))
        for m, c in p.terms.items():
            row[index[m]] = c
        row[width + i] = Fraction(1)
        rows.append(row)
    return [(Polynomial({monomials[k]: x for k, x in enumerate(row[:width]) if x}),
             monomials[c], row[width:])
            for c, row in zip(*rref(rows)) if c < width]


@lru_cache(maxsize=None)
def minor_basis(n: int) -> MinorBasis:
    """Canonical minor basis; supports 2 <= n <= 4."""
    if not MIN_DIM <= n <= MAX_DIM:
        raise UnsupportedDimension(f"n={n} outside supported range {MIN_DIM}..{MAX_DIM}")
    polys = _minor_polys(n)
    basis: List[Polynomial] = []
    dims: List[int] = []
    pivots: List[Monomial] = []
    combos: List[Tuple[Fraction, ...]] = []
    start = 0
    for size in range(n + 1):
        stop = start + comb(comb(n, size) + 1, 2)  # unordered pairs of size-subsets
        echelon = _echelonize_polys(polys[start:stop])
        dims.append(len(echelon))
        for poly, pivot, combo in echelon:
            basis.append(poly)
            pivots.append(pivot)
            combos.append((Fraction(0),) * start + tuple(combo)
                          + (Fraction(0),) * (len(polys) - stop))
        start = stop
    expected = comb(2 * n, n) - comb(2 * n, n + 2)
    if len(basis) != expected:
        raise InvariantViolation(f"minor span dimension mismatch: {len(basis)} != {expected}")
    return MinorBasis(n, tuple(basis), tuple(dims), tuple(pivots), tuple(combos))


def decompose(poly: Polynomial, basis: MinorBasis) -> List[Fraction]:
    """Coordinates of poly over basis.basis_polys; raises NotInSpan otherwise.

    Coordinate k is poly's coefficient at basis k's pivot.  Whatever is left
    after subtracting that combination lies outside the span, and its
    leading monomial is reported.
    """
    allowed = set(chart_vars(basis.n))
    foreign = poly.variables() - allowed
    if foreign:
        bad = [m for m in poly.terms if any(v in foreign for v, _ in m)]
        raise NotInSpan(_mono_strs(bad))
    coords = [poly.terms.get(m, Fraction(0)) for m in basis.pivots]
    rem = poly - combine(coords, basis)
    if rem.terms:
        raise NotInSpan(_mono_strs([min(rem.terms, key=mono_order_key)]))
    return coords


def _mono_strs(monos):
    return [Polynomial({m: Fraction(1)}).__str__() for m in monos]


def combine(coords: Sequence, basis: MinorBasis) -> Polynomial:
    terms: Dict[Monomial, Fraction] = {}
    for c, p in zip(coords, basis.basis_polys):
        if c:
            for m, a in p.terms.items():
                terms[m] = terms.get(m, 0) + c * a
    return Polynomial(terms)


class MAEquation(NamedTuple):
    """A symplectic Monge-Ampere equation F(u_ij) = 0 in dimension n."""

    n: int
    poly: Polynomial
    coords: Tuple[Fraction, ...]

    @classmethod
    def from_poly(cls, n: int, poly: Polynomial) -> "MAEquation":
        if poly.is_zero():
            raise ValueError("equation polynomial must be nonzero")
        coords = decompose(poly, minor_basis(n))
        return cls(n, poly, tuple(coords))

    @classmethod
    def from_coords(cls, n: int, coords: Sequence) -> "MAEquation":
        basis = minor_basis(n)
        cs = tuple(Fraction(c) for c in coords)
        if len(cs) != basis.dimension:
            raise ValueError(f"expected {basis.dimension} coordinates, got {len(cs)}")
        poly = combine(cs, basis)
        if poly.is_zero():
            raise ValueError("equation polynomial must be nonzero")
        return cls(n, poly, cs)

    @property
    def basis(self) -> MinorBasis:
        return minor_basis(self.n)

    def value_at(self, matrix: Sequence[Sequence]) -> Fraction:
        assignment = {ucoord(i + 1, j + 1): Fraction(matrix[i][j])
                      for i in range(self.n) for j in range(i, self.n)}
        return self.poly.evaluate(assignment)

    def scaled(self, c) -> "MAEquation":
        c = Fraction(c)
        if not c:
            raise ValueError("scale must be nonzero")
        return MAEquation(self.n, c * self.poly, tuple(c * x for x in self.coords))

    def __str__(self):
        return f"{self.poly} = 0  (n={self.n})"


class LagrangePoint(NamedTuple):
    """A point of the Grassmannian in the affine chart, as its symmetric matrix."""

    n: int
    matrix: Tuple[Tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, n: int, rows: Sequence[Sequence]) -> "LagrangePoint":
        m = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if len(m) != n or any(len(r) != n for r in m):
            raise ValueError("matrix shape mismatch")
        if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
            raise ValueError("matrix must be symmetric")
        return cls(n, m)

    @classmethod
    def origin(cls, n: int) -> "LagrangePoint":
        return cls.from_rows(n, [[0] * n for _ in range(n)])


def sym_matrix(n: int, entries: Dict[Tuple[int, int], Fraction]) -> List[List[Fraction]]:
    """Symmetric matrix from upper-triangular entries {(i,j): value}, 1-based."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), v in entries.items():
        m[i - 1][j - 1] = Fraction(v)
        m[j - 1][i - 1] = Fraction(v)
    return m


def plucker_eval(point: LagrangePoint, basis: MinorBasis) -> List[Fraction]:
    """Values of every canonical basis polynomial at the chart point."""
    assignment = {ucoord(i + 1, j + 1): point.matrix[i][j]
                  for i in range(basis.n) for j in range(i, basis.n)}
    return [p.evaluate(assignment) for p in basis.basis_polys]


def translate(eq: MAEquation, u0: Sequence[Sequence]) -> MAEquation:
    """The equation in the chart shifted by U0, i.e. poly(U + U0).

    U0 is read off its upper triangle.  The shift is the n-th exterior power
    of [[I, 0], [U0, I]] acting on the raw minors (`pullback_coords`).
    """
    if not any(Fraction(u0[i][j]) for i in range(eq.n) for j in range(i, eq.n)):
        return eq
    return MAEquation.from_coords(eq.n, pullback_coords(eq, shift=u0))


# -- Plucker coordinates (see the module docstring) -------------------------


@lru_cache(maxsize=None)
def _minor_pairs(n: int) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]:
    return tuple(pair for size in range(n + 1) for pair in
                 combinations_with_replacement(combinations(range(1, n + 1), size), 2))


@lru_cache(maxsize=None)
def _minor_polys(n: int) -> Tuple[Polynomial, ...]:
    return tuple(minor_poly(r, c) for r, c in _minor_pairs(n))


def permutation_sign(seq: Sequence[int]) -> int:
    return (-1) ** sum(1 for a, b in combinations(seq, 2) if a > b)


@lru_cache(maxsize=None)
def _minor_index(n: int) -> Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], int]:
    return {pair: m for m, pair in enumerate(_minor_pairs(n))}


def _signed_minor(n: int, rows: Sequence[int], cols: Sequence[int]) -> Tuple[int, int]:
    """(raw minor m, sign) with det V[rows, cols] = sign * minor m, V symmetric."""
    r, c = tuple(sorted(rows)), tuple(sorted(cols))
    return (_minor_index(n)[min(r, c), max(r, c)],
            permutation_sign(rows) * permutation_sign(cols))


def plucker_minor(n: int, rows: Sequence[int]) -> Optional[Tuple[int, int]]:
    """(raw minor index m, sign) with p_rows = sign * minor m on the chart.

    rows is an ordered tuple of n rows of [I; U], 0-based; None when a row
    repeats, i.e. p_rows = 0.
    """
    if len(set(rows)) < len(rows):
        return None
    top = tuple(r + 1 for r in sorted(rows) if r < n)
    bottom = tuple(r + 1 - n for r in sorted(rows) if r >= n)
    cols = tuple(i for i in range(1, n + 1) if i not in top)
    return (_signed_minor(n, bottom, cols)[0],
            permutation_sign(rows) * permutation_sign(top + cols))


@lru_cache(maxsize=None)
def _plucker_rows(n: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """Raw minor (R, C) as (sorted rows S, eps) with minor = eps * p_S."""
    out = []
    for rows, cols in _minor_pairs(n):
        top = tuple(i for i in range(1, n + 1) if i not in cols)
        out.append((tuple(i - 1 for i in top) + tuple(n + r - 1 for r in rows),
                    permutation_sign(top + cols)))
    return tuple(out)


@lru_cache(maxsize=None)
def _minor_maps(n: int):
    """Each basis element over the raw minors, and each raw minor over the
    basis (decompose checks that it lies in the span), as `apply_table` tables.

    Both maps are integral for 2 <= n <= 4; the build checks it."""
    basis = minor_basis(n)
    maps = ([[(m, a) for m, a in enumerate(c) if a] for c in basis.minor_combinations],
            [[(k, c) for k, c in enumerate(decompose(p, basis)) if c] for p in _minor_polys(n)])
    if any(x.denominator != 1 for rows in maps for row in rows for _, x in row):
        raise InvariantViolation(f"the raw-minor maps of n={n} are not integral")
    return tuple(tuple(tuple((j, int(x), 0) for j, x in row) for row in rows) for rows in maps)


def _on_basis(n: int, table):
    """Canonical-coordinate column table of the raw-minor map `table`:
    column k is basis k's minor combination, mapped, written over the basis,
    composed entry by entry through the three sparse tables."""
    combos, over_basis = _minor_maps(n)
    columns = []
    for combo in combos:
        column: Dict[int, int] = {}
        for m, a, _ in combo:
            for j, b, _ in table[m]:
                for k, c, _ in over_basis[j]:
                    column[k] = column.get(k, 0) + a * b * c
        columns.append(tuple((k, x, 0) for k, x in sorted(column.items()) if x))
    return tuple(columns)


def derivation_matrix(n: int, matrix: Dict[Tuple[int, int], int]):
    """Action of a 2n x 2n matrix M, as a derivation, on canonical coordinates
    (an integer column table).

    M is given by its nonzero entries {(row, column): value}, 0-based.  On
    Plucker coordinates the derivation is
    p_S -> sum over r in S and j of M[r][j] * p_(S with r replaced by j).
    """
    table = []
    for rows, eps in _plucker_rows(n):
        table.append([])
        for (r, j), x in matrix.items():
            hit = r in rows and plucker_minor(n, tuple(j if q == r else q for q in rows))
            if hit:
                table[-1].append((hit[0], eps * hit[1] * x, 0))
    return _on_basis(n, table)


@lru_cache(maxsize=None)
def legendre_matrix(n: int, s: frozenset):
    """Action of the Legendre flip on canonical coordinates, as an integer column table.

    The flip is the row map of [I; V] that swaps identity row i with row i
    of V for i in s and negates row i of V for i not in s.  The image plane
    is [I; V'] times the rows now on top, whose determinant is det V_ss, so
    minor m of V' times det V_ss is a signed Plucker coordinate of [I; V]:
    a signed permutation of the raw minors.  The row map is an involution,
    and the permutation is checked to square to the identity.
    """
    perm = []
    for rows, eps in _plucker_rows(n):
        m, sign = plucker_minor(n, tuple((r + n) % (2 * n) if r % n + 1 in s else r
                                         for r in rows))
        negated = sum(1 for r in rows if r >= n and r - n + 1 not in s)
        perm.append((m, eps * sign * (-1) ** negated))
    if any(perm[j] != (m, sign) for m, (j, sign) in enumerate(perm)):
        raise InvariantViolation(f"Legendre flip {sorted(s)} does not square to the "
                                 "identity on the minors")
    return _on_basis(n, [[(j, sign, 0)] for j, sign in perm])


@lru_cache(maxsize=None)
def _laplace_table(n: int):
    """Each raw minor (R, C) by first-row expansion: entries (sign, index
    (r - 1) * n + c - 1 of the entry (r, c), raw minor it multiplies)."""
    return [[((-1) ** j * sign, (r[0] - 1) * n + col - 1, m) for j, col in enumerate(c)
             for m, sign in [_signed_minor(n, r[1:], c[:j] + c[j + 1:])]]
            for r, c in _minor_pairs(n)]


@lru_cache(maxsize=None)
def _shift_table(n: int):
    """det(X + T)[R, C] is the sum over A in R, B in C with |A| = |B| of
    (-1)^(pos A + pos B) det X[A, B] det T[R - A, C - B]: entries (raw minor
    (A, B) of X, sign, raw minor (R - A, C - B) of T)."""
    out = []
    for r, c in _minor_pairs(n):
        out.append([])
        for size in range(len(r) + 1):
            for pa, pb in product(combinations(range(len(r)), size), repeat=2):
                a, b = [[vs[i] for i in ps] for vs, ps in ((r, pa), (c, pb))]
                rest = [[v for v in vs if v not in ws] for vs, ws in ((r, a), (c, b))]
                out[-1].append((_signed_minor(n, a, b)[0], (-1) ** (sum(pa) + sum(pb)),
                                _signed_minor(n, *rest)[0]))
    return out


@lru_cache(maxsize=None)
def _restrict_table(n: int, perm: Tuple[int, ...], m: int):
    """det(L^T W L)[R, C] for L = K P, with K = [I | k] (m = n - 1) or I
    (m = n) and P the permutation matrix: column c of L is e_perm(c), or k
    when perm(c) = n.  By Cauchy-Binet it is the sum over A, B of
    det L[A, R] det W[A, B] det L[B, C].  Taking rows A in the order of the
    columns, det L[A, R] is 1 on A = perm(R) and, when perm(R) holds n, it
    is k_a on A = perm(R) with n replaced by a.  Entries: (minor (A, B) of
    W, sign, q), weighted by kk[q // (m + 1)] * kk[q % (m + 1)], where
    kk[m] = 1 and kk[a - 1] = k_a."""
    def rows_of(cols):
        images = [perm[c - 1] for c in cols]
        if n not in images or m == n:
            return [(images, m)]
        return [([a if i == n else i for i in images], a - 1)
                for a in range(1, n) if a not in images]
    return [[_signed_minor(m, a, b) + (qa * (m + 1) + qb,)
             for a, qa in rows_of(r) for b, qb in rows_of(c)] for r, c in _minor_pairs(n)]


def pullback_walk(n: int, coords: Sequence, perm: Tuple[int, ...], t: Optional[Sequence] = None,
                  d: int = 1, kk: Optional[Sequence] = None) -> List:
    """The table walk of `pullback_coords` on elements of any ring: ints, or
    Polynomials for the reduction identity.

    coords are an n-dimensional equation's canonical coordinates, t the
    n * n entries of P^T T P row by row, times d, and kk is
    (k_1, ..., k_(n-1), 1) times a scale e, or None for no restriction.
    The result is the image's canonical coordinates times d^n (when t is
    given) and e^2.
    """
    raw = apply_table(coords, _minor_maps(n)[0], len(_minor_pairs(n)))
    if t is not None:
        minors: List = []  # the raw minors of t, then scaled by d^(n - size)
        for terms in _laplace_table(n):
            minors.append(sum([s * t[f] * minors[q] for s, f, q in terms]) if terms else 1)
        minors = [v * d ** (n - len(r)) for v, (r, _) in zip(minors, _minor_pairs(n))]
        raw = apply_table(raw, _shift_table(n), len(raw), minors)
    m, kk = (n, [0] * n + [1]) if kk is None else (n - 1, kk)
    raw = apply_table(raw, _restrict_table(n, perm, m), len(_minor_pairs(m)),
                      [a * b for a in kk for b in kk])
    return apply_table(raw, _minor_maps(m)[1], minor_basis(m).dimension)


def pullback_coords(eq: MAEquation, perm: Sequence[int] = (),
                    shift: Optional[Sequence[Sequence]] = None,
                    k: Optional[Sequence] = None) -> List[Fraction]:
    """Canonical coordinates of W -> F(U) with U = L^T W L + P^T T P.

    F is eq's polynomial and L = K P as in `_restrict_table`: `perm`
    (1-based images, identity by default) relabels the chart indices so
    that U[a][b] = V[perm(a)][perm(b)], `shift` is the symmetric T (read off
    its upper triangle), and `k`, if given, restricts V = K^T W K + T to
    K = [I | k], one dimension down.  Each step is a sparse integer map of
    the raw minors (`pullback_walk`): the shift is the n-th exterior power
    of [[I, 0], [T, I]], det(X + T)[R, C] = sum (-1)^(pos A + pos B)
    det X[A, B] det T[R - A, C - B], and the rest is Cauchy-Binet.  eq's
    coordinates, T and k are cleared of denominators first, so only the
    output coordinates are Fractions.
    """
    n = eq.n
    perm = tuple(perm) or tuple(range(1, n + 1))
    coords, den = over_common_denominator(eq.coords)
    t, d = None, 1
    if shift is not None:
        t, d = over_common_denominator([Fraction(shift[min(p, q) - 1][max(p, q) - 1])
                                        for p in perm for q in perm])
    kk, e = None, 1
    if k is not None:
        kk, e = over_common_denominator([Fraction(x) for x in k] + [1])
    return [Fraction(x, den * d ** n * e * e) for x in pullback_walk(n, coords, perm, t, d, kk)]


def partial_legendre(eq: MAEquation, flip: Sequence[int]) -> MAEquation:
    """Chart change swapping (x^i, u_i) for i in flip.

    The Hessian transforms by block inversion on the flipped block,

        [A B; B^T D]  ->  [A^-1, -A^-1 B; -B^T A^-1, B^T A^-1 B - D],

    an exact involution.  Cleared of the single det(A) denominator it acts
    linearly on the span, as the cached table `legendre_matrix`.  The
    result is rescaled so its leading coefficient in the frozen monomial
    order is 1.  That coefficient is the nonzero coordinate with the leading
    pivot, because each basis element leads with its pivot and is 0 at the others.
    """
    n = eq.n
    s = frozenset(flip)
    if any(i < 1 or i > n for i in s):
        raise ValueError("flip indices out of range")
    if not s:
        return eq
    coords = mat_vec(legendre_matrix(n, s), eq.coords)
    if not any(coords):
        raise DegenerateChart("legendre transform produced the zero polynomial")
    _, lead = min((mono_order_key(p), c) for p, c in zip(eq.basis.pivots, coords) if c)
    return MAEquation.from_coords(n, [c / lead for c in coords])


def quadratic_form_matrix(eq: MAEquation) -> List[List[Fraction]]:
    """Symmetric matrix of a purely quadratic equation over the chart variables."""
    if not (eq.poly.is_homogeneous(2) and not eq.poly.is_zero()):
        raise NotPurelyQuadratic("equation is not purely quadratic in the chart variables")
    names = chart_vars(eq.n)
    idx = {v: k for k, v in enumerate(names)}
    m = len(names)
    h = [[Fraction(0)] * m for _ in range(m)]
    for mono, c in eq.poly.terms.items():
        if len(mono) == 1:
            v, e = mono[0]
            if e != 2:
                raise InvariantViolation(f"{v}^{e} in a purely quadratic equation")
            h[idx[v]][idx[v]] = c
        else:
            (v1, _), (v2, _) = mono
            h[idx[v1]][idx[v2]] = c / 2
            h[idx[v2]][idx[v1]] = c / 2
    return h


def singular_locus_quadratic(eq: MAEquation):
    """Singular locus {F = 0, grad F = 0} of a purely quadratic equation.

    Returns (dimension, kernel directions as symmetric matrices).
    """
    h = quadratic_form_matrix(eq)
    rank, kernel = rank_kernel(h)
    names = chart_vars(eq.n)
    return len(names) - rank, [sym_matrix(eq.n, {(int(v[1]), int(v[2])): x
                                                  for v, x in zip(names, vec)})
                               for vec in kernel]


def meets_all_sublagrangians(eq: MAEquation, kernel_basis: Sequence) -> bool:
    """Whether the tangency directions sweep out the whole symplectic space.

    The map (t, x) -> (x, U(t) x) with U(t) = sum t_k B_k over the kernel
    directions is dominant iff its Jacobian has generic rank 2n; after
    column reduction this is the condition that the n x d matrix
    [B_1 x ... B_d x] reaches rank n over Q(x): one of its n x n minors is
    a nonzero polynomial in x, which expanding them decides exactly.
    """
    n = eq.n
    if n != 4:
        raise UnsupportedDimension("sub-Grassmannian sweep test is specific to n=4")
    cols = [[Polynomial({((f"x{j + 1}", 1),): b[i][j] for j in range(n)}) for i in range(n)]
            for b in kernel_basis]
    return any(not determinant([[cols[k][i] for k in pick] for i in range(n)]).is_zero()
               for pick in combinations(range(len(cols)), n))


def osculating_containment(eq: MAEquation, point: LagrangePoint) -> bool:
    """Whether the hyperplane contains the osculating space O_{n-2} at the point.

    After translating the point to the origin, the equation must have zero
    coefficients on every basis element of degree <= n-2 (constant included),
    i.e. consist of minors of orders n-1 and n only.
    """
    neg = [[-x for x in row] for row in point.matrix]
    moved = translate(eq, neg)
    basis = eq.basis
    cutoff = sum(basis.per_degree_dims[: eq.n - 1])
    return all(c == 0 for c in moved.coords[:cutoff])


# -- serialization ---------------------------------------------------------

FORMAT_TAG = "ma-equation/1"


def equation_to_json(eq: MAEquation) -> str:
    return json.dumps(
        {"format": FORMAT_TAG, "n": eq.n, "coords": [str(c) for c in eq.coords]},
        indent=2,
    )


def equation_from_json(text: str) -> MAEquation:
    data = json.loads(text)
    tag = data.get("format") if isinstance(data, dict) else type(data).__name__
    if tag != FORMAT_TAG:
        raise ValueError(f"unsupported equation format: {tag!r}")
    if type(data["n"]) is not int:  # not a bool, a float or a string
        raise ValueError(f"\"n\" must be an integer, got {data['n']!r}")
    return MAEquation.from_coords(data["n"], [Fraction(c) for c in data["coords"]])
