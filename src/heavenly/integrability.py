"""Travelling-wave reductions, integrability decisions, and classification.

A 4D equation is integrable iff every nondegenerate travelling-wave
reduction is a linearisable 3D equation, and a nondegenerate 3D equation is
linearisable iff its Freudenthal quartic q vanishes; a degenerate one has
q = 0 as well.  Each reduction is a linear map c -> R(k, T) c of the
canonical coordinates, so integrability is one polynomial identity,
P(k, t) = q(R(k, t) c) = 0, decided exactly (`integrable_4d`).  The
identity runs in a packed integer ring: a monomial in the seven variables
is one int of 5-bit exponent fields, so a product of monomials is an int
addition, and coefficients are ints.  Purely quadratic representatives are
classified exactly through the pair of binary quartics attached to the
ten-dimensional space of doubly-tangent quadratic equations.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import InvariantViolation, NotInEF, ZeroReduction
from .grassmann import (
    LagrangePoint,
    MAEquation,
    osculating_containment,
    partial_legendre,
    pullback_coords,
    pullback_walk,
    singular_locus_quadratic,
    meets_all_sublagrangians,
    uvar,
)
from .liesp import b_omega_lambda, is_reductive, nondegenerate, symmetry_algebra
from .linalg import clear_row, in_row_space
from .poly import Polynomial
from .quartic import BinaryQuartic, is_harmonic, multiplicity_pattern, quartic_invariants


class ReductionSample(NamedTuple):
    """Direction (alpha, beta, gamma) and quadratic shift for one reduction."""

    k: Tuple[Fraction, Fraction, Fraction]
    q: Tuple[Tuple[Fraction, ...], ...]

    @classmethod
    def from_values(cls, k, q) -> "ReductionSample":
        kk = tuple(Fraction(x) for x in k)
        if len(kk) != 3:
            raise ValueError("need three direction constants")
        qq = tuple(tuple(Fraction(x) for x in row) for row in q)
        if len(qq) != 4 or any(len(r) != 4 for r in qq):
            raise ValueError("quadratic shift must be a 4x4 matrix")
        if any(qq[i][j] != qq[j][i] for i in range(4) for j in range(i)):
            raise ValueError("quadratic shift must be symmetric")
        return cls(kk, qq)

    @classmethod
    def zero(cls, k=(0, 0, 0)) -> "ReductionSample":
        return cls.from_values(k, [[0] * 4 for _ in range(4)])


def travelling_wave_reduce(eq: MAEquation, sample: ReductionSample,
                           perm: Sequence[int] = (1, 2, 3, 4)) -> MAEquation:
    """Reduce along u = w(x1 + a x4, x2 + b x4, x3 + c x4) + Q(x, x).

    The Hessian becomes U = K^T W K + 2Q with K = [I3 | k], after `perm`
    (1-based images) relabels the chart indices: u_ab goes to the
    reduction's image of u_{perm(a) perm(b)}.  So the
    reduction is a linear map of the raw minors, from the 42 coordinates to
    the 14 (`pullback_coords`): relabel, shift by 2Q, restrict to K^T W K.
    An image of 0 is a `ZeroReduction`.
    """
    if eq.n != 4:
        raise ValueError("travelling-wave reduction starts from n = 4")
    shift = [[2 * x for x in row] for row in sample.q]
    coords = pullback_coords(eq, perm, shift, sample.k)
    if not any(coords):
        raise ZeroReduction("reduction vanished identically in this direction")
    return MAEquation.from_coords(3, coords)


class Linearisability(Enum):
    LINEARISABLE = "linearisable"
    NOT_LINEARISABLE = "not-linearisable"
    DEGENERATE = "degenerate"


def _adjugate3(m: Sequence[Sequence]) -> List[List]:
    """Adjugate of a 3 x 3 matrix by cyclic cofactors."""
    return [[m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
             - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
             for j in range(3)] for i in range(3)]


def freudenthal_quartic(coords: Sequence) -> Fraction:
    """The quartic sp(6)-invariant q of a 3D equation's canonical coordinates.

    Writing F = c0 + tr(C1 U) + tr(C2 adj U) + c3 det U with C1 and C2
    symmetric, q = (tr(C1 C2) - c0 c3)^2 + 4 c3 det C1 + 4 c0 det C2
    - 4 tr(adj C1 adj C2), whose zero set is the dual of LG(3, 6).  The
    coordinates are those of 1; u11, u12, u13, u22, u23, u33; the 2 x 2
    minors with pivots u11u22, u11u23, u11u33, u12u23, u12u33, u22u33; det U
    (`minor_basis(3)`), so 2 C1, 2 C2, 2 c0 and 2 c3 are read off them
    without division, and q(2c) = 16 q(c) is divided by 16 once.
    """
    return Fraction(_sixteen_q(coords), 16)


def _sixteen_q(c: Sequence):
    """16 q(c), without division: the same formula on ints, Fractions, Polynomials
    and the packed polynomials of the reduction identity (`_Packed`)."""
    a = [[2 * c[1], c[2], c[3]], [c[2], 2 * c[4], c[5]], [c[3], c[5], 2 * c[6]]]
    b = [[2 * c[12], -c[11], c[10]], [-c[11], 2 * c[9], -c[8]], [c[10], -c[8], 2 * c[7]]]
    c0, c3 = 2 * c[0], 2 * c[13]
    adj_a, adj_b = _adjugate3(a), _adjugate3(b)
    # all four matrices are symmetric, so tr(XY) is the entrywise sum
    trace_ab = sum(x * y for ra, rb in zip(a, b) for x, y in zip(ra, rb))
    trace_adj = sum(x * y for ra, rb in zip(adj_a, adj_b) for x, y in zip(ra, rb))
    det_a = sum(x * y[0] for x, y in zip(a[0], adj_a))
    det_b = sum(x * y[0] for x, y in zip(b[0], adj_b))
    square = trace_ab - c0 * c3
    return square * square + 4 * c3 * det_a + 4 * c0 * det_b - 4 * trace_adj


def linearisable_3d(eq: MAEquation, seed: int = 0) -> Linearisability:
    """Nondegenerate 3D equations are linearisable iff their Freudenthal
    quartic vanishes.

    Among nondegenerate equations q(c) = 0 is exactly a 9-dimensional
    stabilizer, the linearisable orbit; other nondegenerate equations have
    dimension 8.  q is homogeneous of degree 4, so it is evaluated on the
    primitive integer coordinates.  The sampled non-degeneracy check runs
    first, at `seed`; with no point of {F = 0} to sample it raises
    `NoSamplePoint`, since a verdict needs a nondegenerate equation.
    """
    if eq.n != 3:
        raise ValueError("the linearisability test is for n = 3")
    if not nondegenerate(eq, seed=seed):
        return Linearisability.DEGENERATE
    return (Linearisability.LINEARISABLE if freudenthal_quartic(clear_row(eq.coords)) == 0
            else Linearisability.NOT_LINEARISABLE)


def find_quadratic_chart(eq: MAEquation):
    """The Legendre flip exposing the largest singular slice, if any is quadratic.

    A chart sees the singular variety only through a linear slice, so all
    flips are scanned and the purely quadratic representative with maximal
    singular dimension is returned as (flip, equation, dimension, kernel).
    """
    n = eq.n
    best = None
    for size in range(n + 1):
        for s in combinations(range(1, n + 1), size):
            moved = partial_legendre(eq, s) if s else eq
            if not moved.poly.is_homogeneous(2):
                continue
            dim, kernel = singular_locus_quadratic(moved)
            if best is None or dim > best[2]:
                best = (tuple(s), moved, dim, kernel)
    return best


def find_osculating_certificate(eq: MAEquation):
    """(flip, point) with the osculating space contained at that chart point.

    Chart origins are scanned across all Legendre flips; for n = 3 the
    singular directions of quadratic representatives are checked too.
    """
    n = eq.n
    for size in range(n + 1):
        for s in combinations(range(1, n + 1), size):
            moved = partial_legendre(eq, s) if s else eq
            if osculating_containment(moved, LagrangePoint.origin(n)):
                return tuple(s), LagrangePoint.origin(n)
            if n == 3 and moved.poly.is_homogeneous(2):
                _, kernel = singular_locus_quadratic(moved)
                for mat in kernel:
                    point = LagrangePoint.from_rows(n, mat)
                    if osculating_containment(moved, point):
                        return tuple(s), point
    return None


class Verdict(Enum):
    INTEGRABLE = "integrable"
    NOT_INTEGRABLE = "not-integrable"
    LINEARISABLE = "linearisable"
    DEGENERATE = "degenerate"


class IntegrabilityReport:
    """The verdict of `integrable_4d` and the evidence it gathered, filled
    in as the decision runs."""

    __slots__ = ("verdict", "failing_sample", "nondegenerate", "symmetry_dim", "quadratic_flip",
                 "singular_dim", "meets_all", "osculating_flip", "notes")

    def __init__(self, verdict: Verdict):
        self.verdict = verdict
        self.failing_sample: Optional[dict] = None
        self.nondegenerate = True
        self.symmetry_dim: Optional[int] = None
        self.quadratic_flip: Optional[Tuple[int, ...]] = None
        self.singular_dim: Optional[int] = None
        self.meets_all: Optional[bool] = None
        self.osculating_flip: Optional[Tuple[int, ...]] = None
        self.notes: List[str] = []

    def as_dict(self) -> dict:
        out = {"verdict": self.verdict.value, "nondegenerate": self.nondegenerate}
        if self.symmetry_dim is not None:
            out["symmetry-dim"] = self.symmetry_dim
        if self.failing_sample is not None:
            out["failing-sample"] = self.failing_sample
        if self.quadratic_flip is not None:
            out["quadratic-flip"] = list(self.quadratic_flip)
            out["singular-dim"] = self.singular_dim
            out["meets-all-sublagrangians"] = self.meets_all
        if self.osculating_flip is not None:
            out["osculating-flip"] = list(self.osculating_flip)
        if self.notes:
            out["notes"] = list(self.notes)
        return out


IDENTITY_VARS = ("k1", "k2", "k3", "t1", "t2", "t3", "t4")
_BITS = 5  # exponent field width of a packed monomial


class _Packed:
    """Polynomials in `IDENTITY_VARS` with int coefficients, the ring of the
    reduction identity.  A monomial is one int holding the seven exponents,
    _BITS bits each in the order of `IDENTITY_VARS`, so a product of
    monomials is a sum of ints; exponents stay below 2^_BITS because the
    coordinates have bidegree at most (2, 2) and 16q is quartic in them.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms  # packed monomial -> nonzero int

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, _Packed):
            if not other:
                return self
            other = _Packed({0: other})
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                del out[m]
        return _Packed(out)

    __radd__ = __add__

    def __neg__(self):
        return _Packed({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, _Packed):
            return _Packed({m: c * other for m, c in self.terms.items()} if other else {})
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 + m2
                out[m] = out.get(m, 0) + c1 * c2
        return _Packed({m: c for m, c in out.items() if c})

    __rmul__ = __mul__


def _exponents(m: int) -> List[int]:
    """The exponents of a packed monomial, in the order of `IDENTITY_VARS`."""
    return [(m >> (_BITS * i)) & ((1 << _BITS) - 1) for i in range(len(IDENTITY_VARS))]


def _terms(c) -> dict:
    """The packed terms of an int or a `_Packed` element."""
    return c.terms if isinstance(c, _Packed) else {0: c} if c else {}


def _identity_walk(coords: Sequence[int], k: Sequence, t: Sequence) -> List:
    """`pullback_walk` along (k, 1) with the shift T whose nonzero entries
    are T[a][4] = T[4][a] = t_a, on ints or on `_Packed` elements."""
    shift = [0, 0, 0, t[0], 0, 0, 0, t[1], 0, 0, 0, t[2], *t]
    return pullback_walk(4, coords, (1, 2, 3, 4), shift, 1, [*k, 1])


def _packed_coords(eq: MAEquation) -> List:
    """R(k, t) c as `_Packed` elements or ints, for eq's primitive integer
    coordinates c, checked to have bidegree at most (2, 2) in (k, t): the
    minors of K = [I | k] are linear in k, and T has rank at most 2."""
    names = [_Packed({1 << (_BITS * i): 1}) for i in range(len(IDENTITY_VARS))]
    coords = _identity_walk(clear_row(eq.coords), names[:3], names[3:])
    for c in coords:
        for m in _terms(c):
            e = _exponents(m)
            if sum(e[:3]) > 2 or sum(e[3:]) > 2:
                raise InvariantViolation("a reduction coordinate exceeds bidegree (2, 2)")
    return coords


def _lattice():
    """simplex(3, 8) x simplex(4, 8) as points (k, t) of N^7, by total degree
    and then in stars-and-bars order, generated one at a time."""
    for total in range(17):
        for bars in combinations(range(total + 6), 6):
            m = [b - a - 1 for a, b in zip((-1,) + bars, bars + (total + 6,))]
            if max(sum(m[:3]), sum(m[3:])) <= 8:
                yield m


def _first_nonzero(coords: Sequence[int], points) -> Optional[List[int]]:
    """The first of `points` where 16 q(R(k, t) coords) is nonzero, or None."""
    return next((m for m in points if _sixteen_q(_identity_walk(coords, m[:3], m[3:]))), None)


def integrable_4d(eq: MAEquation, seed: int = 0) -> IntegrabilityReport:
    """Decide integrability of a 4D equation by one exact polynomial identity.

    Nondegenerate reductions must be linearisable, i.e. have Freudenthal
    quartic q = 0, and degenerate ones have q = 0 too, so eq is integrable
    iff P = q(R(k, Q) c) is the zero polynomial.  Seven variables suffice:
    Q - K^T S K (S symmetric 3 x 3) gives a translate of the reduction, and
    a change of basis of K's rows a GL(3) move, both Sp(6) moves, so Q may
    be the T of `_identity_walk` and the identity permutation's chart,
    dense in Gr(3, 4), serves for all.  P has bidegree at most (8, 8) in
    (k, t), so a nonzero P is nonzero on the product of unisolvent lattices
    simplex(3, 8) x simplex(4, 8).  P is expanded in the packed integer
    ring `_Packed`; the lattice points run the same table walk on ints.
    The first such point is the failing sample, with Q = T / 2, re-checked
    on `travelling_wave_reduce`; the 8 points of total degree <= 1 are
    tried before P is expanded, which a nonzero value there makes
    unnecessary.  Only eq's own non-degeneracy is sampled, at `seed`.
    Purely quadratic representatives add the singular-variety evidence, and
    equations with the full n^2-dimensional stabilizer are reported as
    linearisable.
    """
    if eq.n != 4:
        raise ValueError("the integrability decision is for n = 4")
    report = IntegrabilityReport(Verdict.INTEGRABLE)
    if not nondegenerate(eq, seed=seed):
        report.verdict = Verdict.DEGENERATE
        report.nondegenerate = False
        return report
    report.symmetry_dim = symmetry_algebra(eq).dim

    quad = find_quadratic_chart(eq)
    if quad is not None:
        flip, moved, dim, kernel = quad
        report.quadratic_flip = flip
        report.singular_dim = dim
        report.meets_all = meets_all_sublagrangians(moved, kernel)

    coords, points = clear_row(eq.coords), _lattice()
    m = _first_nonzero(coords, islice(points, 8))
    if m is None and _sixteen_q(_packed_coords(eq)):
        m = _first_nonzero(coords, points)
        if m is None:
            raise InvariantViolation("the reduction identity fails but vanishes on its lattice")
    if m is not None:
        q = [[0, 0, 0, Fraction(x, 2)] for x in m[3:6]] + [[Fraction(x, 2) for x in m[3:]]]
        sample = ReductionSample.from_values(m[:3], q)
        if not freudenthal_quartic(travelling_wave_reduce(eq, sample).coords):
            raise InvariantViolation("the reduction identity's witness has q = 0")
        report.verdict = Verdict.NOT_INTEGRABLE
        report.failing_sample = {"permutation": [1, 2, 3, 4], "k": [str(x) for x in sample.k],
                                 "q": [[str(x) for x in row] for row in sample.q]}

    if report.verdict is Verdict.INTEGRABLE:
        if report.symmetry_dim == 16:
            report.verdict = Verdict.LINEARISABLE
            cert = find_osculating_certificate(eq)
            if cert is not None:
                report.osculating_flip = cert[0]
            else:
                report.notes.append("full stabilizer found, no chart-origin certificate")
        if report.quadratic_flip is not None and report.verdict is Verdict.INTEGRABLE:
            if report.singular_dim != 4 or not report.meets_all:
                report.notes.append(
                    "singular-variety evidence disagrees with the reduction identity")
    return report


# -- the ten-dimensional space of doubly tangent quadratics -----------------


@lru_cache(maxsize=None)
def ef_basis() -> Tuple[Tuple[Polynomial, ...], Tuple[Polynomial, ...]]:
    """The two pentads of quadratic equations matched to binary quartics."""
    u = uvar
    half = Fraction(1, 2)
    sixth = Fraction(1, 6)
    third = Fraction(1, 3)
    e = (
        u(1, 1) * u(2, 2) - u(1, 2) ** 2,
        half * (u(1, 1) * u(2, 4) - u(1, 2) * u(1, 4)
                + u(2, 2) * u(1, 3) - u(1, 2) * u(2, 3)),
        sixth * (u(1, 1) * u(4, 4) - u(1, 4) ** 2 + u(2, 2) * u(3, 3) - u(2, 3) ** 2)
        + third * (2 * u(1, 3) * u(2, 4) - u(1, 4) * u(2, 3) - u(1, 2) * u(3, 4)),
        half * (u(3, 3) * u(2, 4) - u(2, 3) * u(3, 4)
                + u(4, 4) * u(1, 3) - u(1, 4) * u(3, 4)),
        u(3, 3) * u(4, 4) - u(3, 4) ** 2,
    )
    f = (
        u(1, 1) * u(3, 3) - u(1, 3) ** 2,
        half * (u(1, 1) * u(3, 4) - u(1, 3) * u(1, 4)
                + u(3, 3) * u(1, 2) - u(1, 3) * u(2, 3)),
        sixth * (u(1, 1) * u(4, 4) - u(1, 4) ** 2 + u(2, 2) * u(3, 3) - u(2, 3) ** 2)
        + third * (2 * u(1, 2) * u(3, 4) - u(1, 4) * u(2, 3) - u(1, 3) * u(2, 4)),
        half * (u(2, 2) * u(3, 4) - u(2, 3) * u(2, 4)
                + u(4, 4) * u(1, 2) - u(1, 4) * u(2, 4)),
        u(2, 2) * u(4, 4) - u(2, 4) ** 2,
    )
    return e, f


class QuarticPair(NamedTuple):
    """Quartics (p, q) describing a vector of the tangent pencil as p - q."""

    p: BinaryQuartic
    q: BinaryQuartic

    def reconstruct(self) -> MAEquation:
        e, f = ef_basis()
        weights = self.p.coeffs() + [-c for c in self.q.coeffs()]
        total = sum((c * poly for c, poly in zip(weights, e + f) if c), Polynomial.zero())
        if total.is_zero():
            raise ValueError("zero quartic pair")
        return MAEquation.from_poly(4, total)


@lru_cache(maxsize=None)
def _ef_coordinate_rows() -> Tuple[Tuple[Fraction, ...], ...]:
    e, f = ef_basis()
    return tuple(MAEquation.from_poly(4, poly).coords for poly in e + f)


def ef_coordinates(eq: MAEquation) -> QuarticPair:
    """Decompose a quadratic equation over the tangent pencil, as p - q."""
    if eq.n != 4:
        raise NotInEF("the tangent pencil lives in n = 4")
    coeffs = in_row_space(_ef_coordinate_rows(), eq.coords)
    if coeffs is None:
        raise NotInEF("equation is outside the doubly tangent quadratic pencil")
    p = BinaryQuartic.from_coeffs(coeffs[:5])
    q = BinaryQuartic.from_coeffs([-c for c in coeffs[5:]])
    return QuarticPair(p, q)


# Each case's name and the verdict of its equations.
CASES = {
    1: ("general heavenly", Verdict.INTEGRABLE),
    2: ("Husain", Verdict.INTEGRABLE),
    3: ("first heavenly", Verdict.INTEGRABLE),
    4: ("degenerate equation", Verdict.DEGENERATE),
    5: ("modified heavenly", Verdict.INTEGRABLE),
    6: ("second heavenly", Verdict.INTEGRABLE),
    7: ("degenerate equation", Verdict.DEGENERATE),
    8: ("Hess u = 1 (non-integrable)", Verdict.NOT_INTEGRABLE),
    9: ("linear wave", Verdict.LINEARISABLE),
    10: ("degenerate equation", Verdict.DEGENERATE),
}

_PATTERN_CLASS = {
    (4,): 1,          # nonzero constant: quadruple root at infinity
    (3, 1): 2,        # t
    (2, 2): 3,        # t^2
    (2, 1, 1): 4,     # t^2 - 1
    (1, 1, 1, 1): 5,  # four distinct roots
}

# Case 5 is the pair (t, t): the proof's enumeration is authoritative here,
# and the reconstructed (t, t) equation indeed carries the 13-dimensional
# stabilizer of the modified heavenly equation while (t^2, t) does not.
_CASE_TABLE = {
    frozenset({(5, "h")}): 1,
    frozenset({(5, "g")}): 1,
    frozenset({(5, "h"), (5, "g")}): 1,
    frozenset({(4, "")}): 2,
    frozenset({(4, ""), (3, "")}): 3,
    frozenset({(3, "")}): 4,
    frozenset({(2, "")}): 5,
    frozenset({(2, ""), (1, "")}): 6,
    frozenset({(1, "")}): 7,
    frozenset({(5, "h"), (0, "")}): 8,
    frozenset({(2, ""), (0, "")}): 9,
    frozenset({(1, ""), (0, "")}): 10,
}


class Classification(NamedTuple):
    case: Optional[int]
    name: str
    pattern_p: Optional[Tuple[int, ...]]
    pattern_q: Optional[Tuple[int, ...]]
    singular_dim: Optional[int] = None
    j_invariants: Optional[Tuple[Optional[Fraction], Optional[Fraction]]] = None


def _quartic_class(q: BinaryQuartic):
    if q.is_zero():
        return (0, ""), None
    pattern = multiplicity_pattern(q)
    cls = _PATTERN_CLASS[pattern]
    if cls == 5:
        return (5, "h" if is_harmonic(q) else "g"), pattern
    return (cls, ""), pattern


def _j_invariant(q: BinaryQuartic) -> Optional[Fraction]:
    """Orbit invariant I^3 / (I^3 - 27 J^2) for quartics with distinct roots."""
    i_inv, j_inv, disc = quartic_invariants(q)
    if disc == 0:
        return None
    return i_inv ** 3 / disc


def classify_quartic_pair(pair: QuarticPair) -> Classification:
    """Match the root-pattern pair against the ten-row case table."""
    cls_p, pat_p = _quartic_class(pair.p)
    cls_q, pat_q = _quartic_class(pair.q)
    case = _CASE_TABLE.get(frozenset({cls_p, cls_q}))
    singular_dim = None
    j_invs = None
    if case == 1:
        # four distinct roots on both sides: confirm the tangency variety
        # is four-dimensional before naming it, and report both orbit invariants
        singular_dim, _ = singular_locus_quadratic(pair.reconstruct())
        j_invs = (_j_invariant(pair.p), _j_invariant(pair.q))
        if singular_dim != 4:
            return Classification(None, "unrecognized", pat_p, pat_q,
                                  singular_dim, j_invs)
    if case is None:
        try:
            singular_dim, _ = singular_locus_quadratic(pair.reconstruct())
        except ValueError:
            singular_dim = None
        return Classification(None, "unrecognized", pat_p, pat_q, singular_dim)
    return Classification(case, CASES[case][0], pat_p, pat_q, singular_dim, j_invs)


# -- fingerprints ------------------------------------------------------------


class Fingerprint(NamedTuple):
    symmetry_dim: int
    lambda_zero: bool
    reductive: Optional[bool]
    nondegenerate: bool

    def as_dict(self) -> dict:
        out = {
            "symmetry-dim": self.symmetry_dim,
            "lambda-zero": self.lambda_zero,
            "nondegenerate": self.nondegenerate,
        }
        out["reductive"] = self.reductive if self.reductive is not None else "n/a"
        return out


_NORMAL_FORM_FINGERPRINTS = {
    (16, True, None, True): "linear wave",
    (14, True, None, True): "second heavenly",
    (13, True, None, True): "modified heavenly",
    (13, False, None, True): "first heavenly",
    (12, False, False, True): "Husain",
    (12, False, True, True): "general heavenly",
}


def fingerprint(eq: MAEquation, seed: int = 0) -> Fingerprint:
    """(stabilizer dimension, lambda vanishing, reductivity at dim 12, symbol rank)."""
    if eq.n != 4:
        raise ValueError("fingerprints are defined for n = 4")
    alg = symmetry_algebra(eq)
    lambda_zero, _ = b_omega_lambda(eq)
    reductive = is_reductive(alg) if alg.dim == 12 else None
    return Fingerprint(alg.dim, lambda_zero, reductive, nondegenerate(eq, seed=seed))


def identify_equation(eq: MAEquation, seed: int = 0) -> Tuple[Optional[str], Fingerprint]:
    """Name the equation by its invariant fingerprint; None when no row matches."""
    fp = fingerprint(eq, seed=seed)
    key = (fp.symmetry_dim, fp.lambda_zero, fp.reductive, fp.nondegenerate)
    return _NORMAL_FORM_FINGERPRINTS.get(key), fp


def routes_agree(result: Classification, name: Optional[str], verdict: Verdict) -> bool:
    """Whether the quartic-pair case carries the reduction identity's verdict
    and the fingerprint's normal-form name (None for cases 4, 7, 8 and 10);
    an unrecognized pair agrees with nothing."""
    case_name, case_verdict = CASES.get(result.case, (None, None))
    normal_form = case_name if case_name in _NORMAL_FORM_FINGERPRINTS.values() else None
    return case_verdict is verdict and normal_form == name
