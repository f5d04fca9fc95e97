"""Parameter-dependent vector fields and on-variety Lax verification.

Fields live on x-space with coefficients in second derivatives u_ij and the
spectral parameter lam; total derivatives push u_ij to the symmetric third
derivatives u_ijk.  A pair verifies in strict mode when every commutator
component vanishes identically in lam at exact sample points of the variety
{F = 0, D_k F = 0}, and in mod-span mode when the commutator stays inside
the span of the two fields there (all 3x3 minors vanish).
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .errors import JetOrderError
from .grassmann import MAEquation, ucoord
from .liesp import sample_zero_point
from .linalg import rank_kernel
from .poly import Polynomial, determinant

LAMBDA = "lam"


def jet3(i: int, j: int, k: int) -> str:
    a, b, c = sorted((i, j, k))
    return f"u{a}{b}{c}"


def total_derivative(poly: Polynomial, direction: int) -> Polynomial:
    """D_j: second derivatives move to third, lam and constants die."""
    out = Polynomial.zero()
    for var in poly.variables():
        if var == LAMBDA:
            continue
        if var[0] == "u" and len(var) == 3:
            image = Polynomial.variable(jet3(int(var[1]), int(var[2]), direction))
        elif var[0] == "u" and len(var) == 4:
            raise JetOrderError("third derivatives have no modeled total derivative")
        else:
            raise JetOrderError(f"unexpected variable {var!r} in a field coefficient")
        part = poly.partial(var)
        if not part.is_zero():
            out = out + image * part
    return out


class LaxField(NamedTuple):
    """Vector field sum_i component_i * d_i with jet coefficients."""

    components: Tuple[Polynomial, ...]

    @classmethod
    def from_components(cls, comps: Sequence) -> "LaxField":
        out = []
        for c in comps:
            out.append(c if isinstance(c, Polynomial) else Polynomial.constant(c))
        return cls(tuple(out))

    @property
    def n(self) -> int:
        return len(self.components)

    def apply(self, poly: Polynomial) -> Polynomial:
        """Directional derivative sum_j X_j D_j(poly)."""
        out = Polynomial.zero()
        for j, comp in enumerate(self.components, start=1):
            if comp.is_zero():
                continue
            d = total_derivative(poly, j)
            if not d.is_zero():
                out = out + comp * d
        return out

    def __str__(self):
        pieces = []
        for i, comp in enumerate(self.components, start=1):
            if comp.is_zero():
                continue
            pieces.append(f"({comp}) d{i}")
        return " + ".join(pieces) if pieces else "0"


def commutator(x: LaxField, y: LaxField) -> LaxField:
    """[X, Y] with components X(Y_i) - Y(X_i); exact symbolic result."""
    if x.n != y.n:
        raise ValueError("field dimensions disagree")
    comps = [x.apply(y.components[i]) - y.apply(x.components[i]) for i in range(x.n)]
    return LaxField(tuple(comps))


def sample_on_variety(eq: MAEquation, rng: Random, budget: int = 100
                      ) -> Dict[str, Fraction]:
    """Exact values for all u_ij and u_ijk with F = 0 and D_k F = 0.

    The second derivatives come from a rational point of {F = 0}; the third
    derivatives solve the n exact linear constraints sum dF/du_ij u_ijk = 0.
    """
    n = eq.n
    point = sample_zero_point(eq, rng, budget=budget)
    grads = {}
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            grads[(a, b)] = eq.poly.partial(ucoord(a, b)).evaluate(point)
    triples = sorted({jet3(a, b, k) for a in range(1, n + 1)
                      for b in range(a, n + 1) for k in range(1, n + 1)})
    index = {t: i for i, t in enumerate(triples)}
    rows = []
    for k in range(1, n + 1):
        row = [Fraction(0)] * len(triples)
        for (a, b), g in grads.items():
            if g:
                row[index[jet3(a, b, k)]] += g
        rows.append(row)
    _, kernel = rank_kernel(rows)
    values = dict(point)
    weights = [Fraction(rng.randint(-5, 5), rng.randint(1, 2)) for _ in kernel]
    for t in triples:
        values[t] = Fraction(0)
    for w, vec in zip(weights, kernel):
        if w:
            for t, i in index.items():
                if vec[i]:
                    values[t] += w * vec[i]
    return values


def _evaluate_keep_lambda(poly: Polynomial, values: Dict[str, Fraction]) -> Polynomial:
    """Substitute jet values, leaving lam symbolic."""
    return poly.subs({var: values[var] for var in poly.variables() if var != LAMBDA})


class LaxVerification(NamedTuple):
    passed: bool
    mode: str
    trials: int
    witness: Optional[dict] = None

    def as_dict(self) -> dict:
        out = {"passed": self.passed, "mode": self.mode, "trials": self.trials}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def verify_lax(x1: LaxField, x2: LaxField, eq: MAEquation, mode: str = "strict",
               trials: int = 20, seed: int = 0) -> LaxVerification:
    """Check [X1, X2] = 0 (strict) or in span{X1, X2} (mod-span) on the variety.

    The zero test is performed on the full polynomial in lam at every
    sampled point; a failing sample is returned as a concrete witness.
    """
    if mode not in ("strict", "mod-span"):
        raise ValueError("mode must be 'strict' or 'mod-span'")
    if x1.n != eq.n or x2.n != eq.n:
        raise ValueError("field dimension does not match the equation")
    rng = Random(seed)
    bracket = commutator(x1, x2)
    for trial in range(trials):
        values = sample_on_variety(eq, rng)
        if mode == "strict":
            for i, comp in enumerate(bracket.components):
                residue = _evaluate_keep_lambda(comp, values)
                if not residue.is_zero():
                    witness = {
                        "trial": trial,
                        "component": i + 1,
                        "residue": str(residue),
                        "point": {k: str(v) for k, v in sorted(values.items())},
                    }
                    return LaxVerification(False, mode, trials, witness)
        else:
            rows = []
            for field in (x1, x2, bracket):
                rows.append([_evaluate_keep_lambda(c, values) for c in field.components])
            for cols in _triples(eq.n):
                minor = determinant([[rows[r][c] for c in cols] for r in range(3)])
                if not minor.is_zero():
                    witness = {
                        "trial": trial,
                        "columns": [c + 1 for c in cols],
                        "residue": str(minor),
                        "point": {k: str(v) for k, v in sorted(values.items())},
                    }
                    return LaxVerification(False, mode, trials, witness)
    return LaxVerification(True, mode, trials)


def _triples(n: int):
    from itertools import combinations

    return combinations(range(n), 3)


# -- the printed pairs -------------------------------------------------------


def _u(i, j):
    return Polynomial.variable(ucoord(i, j))


def _lam():
    return Polynomial.variable(LAMBDA)


def six_dim_pair() -> Tuple[LaxField, LaxField]:
    """The pair for u15 + u26 + u13 u24 - u14 u23 = 0 on six variables."""
    zero = Polynomial.zero()
    x1 = LaxField((_lam(), zero, -_u(1, 4), _u(1, 3), zero, Polynomial.one()))
    x2 = LaxField((zero, -_lam(), _u(2, 4), -_u(2, 3), Polynomial.one(), zero))
    return x1, x2


def reduce_6d_lax(rows: Sequence[Sequence[Fraction]]) -> Tuple[LaxField, LaxField]:
    """Reduce the six-dimensional pair along x_old = rows * x_new.

    rows is a 6 x m matrix: old coordinate k contributes rows[k] to the new
    directions, so d_k maps to sum_i rows[k][i] d_i and second derivatives
    transform by the induced congruence.  The identity matrix returns the
    six-dimensional pair itself.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    if len(mat) != 6:
        raise ValueError("need six direction rows")
    m = len(mat[0])
    if any(len(r) != m for r in mat):
        raise ValueError("ragged direction rows")
    mapping: Dict[str, Polynomial] = {}
    for a in range(1, 7):
        for b in range(a, 7):
            image = Polynomial.zero()
            for i in range(m):
                for j in range(m):
                    coeff = mat[a - 1][i] * mat[b - 1][j]
                    if coeff:
                        image = image + coeff * _u(i + 1, j + 1)
            mapping[ucoord(a, b)] = image

    def reduce_field(field: LaxField) -> LaxField:
        comps = [Polynomial.zero()] * m
        for k in range(6):
            old = field.components[k].subs(mapping)
            if old.is_zero():
                continue
            for i in range(m):
                if mat[k][i]:
                    comps[i] = comps[i] + mat[k][i] * old
        return LaxField(tuple(comps))

    x1, x2 = six_dim_pair()
    return reduce_field(x1), reduce_field(x2)


PAIR_NAMES = ("first-heavenly", "general-heavenly", "husain", "modified-heavenly",
              "second-heavenly")


def catalog_pair(name: str) -> Tuple[LaxField, LaxField, str]:
    """(X1, X2, verification mode) for each integrable nonlinear normal form."""
    from .catalog import GENERAL_HEAVENLY_COEFFS

    zero = Polynomial.zero()
    one = Polynomial.one()
    lam = _lam()
    if name == "second-heavenly":
        return (LaxField((lam - _u(1, 2), _u(1, 1), zero, one)),
                LaxField((_u(2, 2), -lam - _u(1, 2), one, zero)),
                "strict")
    if name == "modified-heavenly":
        return (LaxField((lam, _u(1, 4), zero, -_u(1, 2))),
                LaxField((zero, _u(4, 4), -one, lam - _u(2, 4))),
                "strict")
    if name == "first-heavenly":
        return (LaxField((lam, zero, -_u(1, 4), _u(1, 3))),
                LaxField((zero, -lam, _u(2, 4), -_u(2, 3))),
                "strict")
    if name == "husain":
        return (LaxField((lam, one, -_u(1, 4), _u(1, 3))),
                LaxField((one, -lam, _u(2, 4), -_u(2, 3))),
                "strict")
    if name == "general-heavenly":
        _, beta, gamma = GENERAL_HEAVENLY_COEFFS
        x1 = LaxField((
            _u(3, 4) + gamma * lam * _u(3, 4),
            zero,
            -gamma * lam * _u(1, 4),
            -_u(1, 3),
        ))
        x2 = LaxField((
            zero,
            -_u(3, 4) + beta * lam * _u(3, 4),
            -beta * lam * _u(2, 4),
            _u(2, 3),
        ))
        return x1, x2, "mod-span"
    known = ", ".join(PAIR_NAMES)
    raise KeyError(f"no Lax pair catalogued for {name!r}; available: {known}")
