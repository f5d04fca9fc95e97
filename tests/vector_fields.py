"""The sp(2n) generators as chart vector fields: the oracle side of the
Hamiltonian matrices in `heavenly.liesp`.

Each field is written from its flow on the Lagrangian chart U, by hand and
independently of `liesp._hamiltonian_matrix`: X_ij translates, L_ij is the
linear flow U' = e_ij U + U e_ji and P_ij the quadratic flow U' = U S_ij U.
Adding the projective cocycle phi makes the action linear on the minor span,
so decomposing the corrected images cross-checks `action_matrices`, and the
brackets of the fields cross-check the structure constants of
`LieSubalgebra`, on the whole of sp(2n) and on proper stabilizers.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from heavenly.grassmann import ucoord, uvar
from heavenly.liesp import action_matrices
from heavenly.linalg import mat_vec
from heavenly.poly import Polynomial


@dataclass(frozen=True)
class ChartField:
    """One infinitesimal generator with its chart derivation and cocycle."""

    label: str
    kind: str  # "X", "L" or "P"
    i: int
    j: int
    derivation: Tuple[Tuple[str, Polynomial], ...]
    phi: Polynomial

    def apply(self, poly: Polynomial) -> Polynomial:
        """Raw derivation: sum over chart variables of D(u_ab) * d poly/d u_ab."""
        out = Polynomial.zero()
        for var, image in self.derivation:
            part = poly.partial(var)
            if not part.is_zero():
                out = out + image * part
        return out

    def corrected(self, poly: Polynomial) -> Polynomial:
        """Derivation plus the cocycle term; lands in the minor span."""
        return self.apply(poly) + self.phi * poly


def _derivation_from_flow(n: int, flow) -> Tuple[Tuple[str, Polynomial], ...]:
    out = []
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            img = flow(a, b)
            if not img.is_zero():
                out.append((ucoord(a, b), img))
    return tuple(out)


@lru_cache(maxsize=None)
def chart_fields(n: int) -> Tuple[ChartField, ...]:
    """The fields of X_ij (i<=j), L_ij (all i,j), P_ij (i<=j), in the order
    of `liesp.sp_generators`."""
    gens: List[ChartField] = []
    zero = Polynomial.zero()
    one = Polynomial.one()
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            deriv = ((ucoord(i, j), one),)
            gens.append(ChartField(f"X{i}{j}", "X", i, j, deriv, zero))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            def flow(a, b, i=i, j=j):
                # U' = e_ij U + U e_ji
                img = Polynomial.zero()
                if a == i:
                    img = img + uvar(j, b)
                if b == i:
                    img = img + uvar(j, a)
                return img
            phi = Polynomial.constant(-1) if i == j else zero
            gens.append(ChartField(f"L{i}{j}", "L", i, j,
                                   _derivation_from_flow(n, flow), phi))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            def flow(a, b, i=i, j=j):
                # U' = U S_ij U with S_ij = e_ij + e_ji (2 e_ii on the diagonal)
                img = uvar(a, i) * uvar(j, b) + uvar(a, j) * uvar(i, b)
                return img
            gens.append(ChartField(f"P{i}{j}", "P", i, j,
                                   _derivation_from_flow(n, flow),
                                   -2 * uvar(i, j)))
    return tuple(gens)


def invariance_eigenvalue(eq, vector: Sequence[Fraction]) -> Optional[Fraction]:
    """mu with A_v c = mu c, or None when v does not stabilize the equation."""
    mats = action_matrices(eq.n)
    c = list(eq.coords)
    image = [Fraction(0)] * len(c)
    for coeff, m in zip(vector, mats):
        if coeff:
            for i, val in enumerate(mat_vec(m, c)):
                image[i] += coeff * val
    mu = None
    for i, ci in enumerate(c):
        if ci:
            cand = image[i] / ci
            if mu is None:
                mu = cand
            elif cand != mu:
                return None
        elif image[i]:
            return None
    return mu if mu is not None else Fraction(0)
