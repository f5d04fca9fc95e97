"""The sp(2n) action on equations and symmetry-algebra computation.

sp(2n) is the algebra of Hamiltonian matrices M = [[A, B], [C, D]]
(D = -A^T, B and C symmetric); M moves the Lagrangian chart U by the flow
U' = C + DU - UA - UBU.  With S_ij = e_ij + e_ji (2 e_ii on the diagonal)
the generators are

    X_ij: C = e_ij + e_ji (a single 1 on the diagonal), translations;
    L_ij: D = e_ij, A = -e_ji, linear flows U' = e_ij U + U e_ji;
    P_ij: B = -S_ij, quadratic flows U' = U S_ij U.

Sending a matrix to its chart vector field reverses brackets, so the
bracket of the vector fields of M_p and M_q is the negated commutator
-[M_p, M_q]; a subalgebra brackets its elements as such matrices.

On the minor span the induced action is linear only after adding the
projective cocycle phi (0 for X, -delta_ij for L_ij, -2 u_ij for P_ij).
Each minor is +-1 times a Plucker coordinate p_S of the plane [I; U], on
which M acts as the n-th exterior-power derivation
p_S -> sum over r in S and j of M[r][j] p_(S with r replaced by j).  Its
p_top term is phi, so g(m) + phi_g * m is this derivation of m: linear in
the minors, with no polynomial arithmetic.  An equation F is stabilized
projectively iff A_v c = mu c for its coordinate vector c.

For even n the same tables fix the lambda invariant: the pairing of an
equation's effective exterior lift is lambda * Omega, and lambda = c^T G c
for the sp(2n)-invariant quadric G on canonical coordinates, which has a
closed form on the raw minors (`_invariant_quadric`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InvariantViolation, NoSamplePoint
from .grassmann import (MAEquation, _minor_index, _minor_maps, _minor_pairs, chart_vars,
                        derivation_matrix, ucoord)
from .linalg import (apply_table, clear_row, over_common_denominator, rank_kernel,
                     row_space_basis, rref)
from .poly import signed_sum


class SpGenerator(NamedTuple):
    """One infinitesimal generator, named by its kind and indices;
    `_hamiltonian_matrix` gives its matrix."""

    label: str
    kind: str  # "X", "L" or "P"
    i: int
    j: int


@lru_cache(maxsize=None)
def sp_generators(n: int) -> Tuple[SpGenerator, ...]:
    """The n(2n+1) generators: X_ij (i<=j), L_ij (all i,j), P_ij (i<=j)."""
    upper = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    square = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return tuple(SpGenerator(f"{kind}{i}{j}", kind, i, j)
                 for kind, pairs in (("X", upper), ("L", square), ("P", upper))
                 for i, j in pairs)


def _hamiltonian_matrix(n: int, g: SpGenerator) -> Dict[Tuple[int, int], int]:
    """Nonzero entries of the 2n x 2n matrix [[A, B], [C, D]] of a generator."""
    i, j = g.i - 1, g.j - 1
    out: Dict[Tuple[int, int], int] = {}
    if g.kind == "X":  # C = e_ij + e_ji, a single 1 on the diagonal
        out[n + i, j] = out[n + j, i] = 1
    elif g.kind == "L":  # D = e_ij, A = -e_ji
        out[n + i, n + j] = 1
        out[j, i] = -1
    else:  # B = -S_ij, -2 on the diagonal
        out[i, n + j] = out[j, n + i] = -1 if i != j else -2
    return out


@lru_cache(maxsize=None)
def action_matrices(n: int):
    """Each generator's exterior-power derivation on canonical coordinates,
    as an integer column table."""
    return tuple(derivation_matrix(n, _hamiltonian_matrix(n, g)) for g in sp_generators(n))


@lru_cache(maxsize=None)
def _invariant_quadric(n: int):
    """The sp(2n)-invariant quadratic form G on canonical coordinates, for
    even n, as an integer column table over one denominator d:
    lambda = c^T G c / d.

    G is built in closed form (`_complementary_pairing`) and checked
    exactly: rho^T G + G rho = 0 for every generator table rho of
    `action_matrices`, that is, G rho is antisymmetric, G being symmetric.
    """
    table, d = _complementary_pairing(n)
    for rho in action_matrices(n):
        g_rho: Dict[Tuple[int, int], int] = {}
        for j, column in enumerate(rho):
            for m, x, _ in column:
                for i, g, _ in table[m]:
                    g_rho[i, j] = g_rho.get((i, j), 0) + g * x
        if any(x + g_rho.get((j, i), 0) for (i, j), x in g_rho.items()):
            raise InvariantViolation(f"the invariant quadric of n={n} is not invariant")
    return table, d


def _complementary_pairing(n: int):
    """G of `_invariant_quadric`, unchecked.

    On the raw minors the form pairs each minor (R, C) with its complement
    (R', C'), with weight 1/(2 n!) when R = C and 1/(4 n!) otherwise and sign
    (-1)^(n/2 + 1) (-1)^(|R| + sum R + sum C); `weight` is 4 n! times it.  G
    is its pullback along the basis elements' minor combinations, restricted
    to the complement, orthogonal under it, of the raw minors' relation: the
    basis reproduces every raw minor but those of the relation, so C O - I
    (C the minor combinations, O the over-basis map) is a multiple of the
    relation r in each nonzero column.  At n = 4 r is
    U[12;34] - U[13;24] + U[14;23]; at n = 2 there is none.
    """
    pairs, index = _minor_pairs(n), _minor_index(n)
    combos, over_basis = _minor_maps(n)
    full = range(1, n + 1)
    weight, partner = [], []  # raw minor m pairs with partner[m], weighted
    for rows, cols in pairs:
        rest = tuple(tuple(i for i in full if i not in s) for s in (rows, cols))
        partner.append(index[min(rest), max(rest)])
        sign = (-1) ** (n // 2 + 1 + len(rows) + sum(rows) + sum(cols))
        weight.append(sign * (2 if rows == cols else 1))
    users: List[List[Tuple[int, int]]] = [[] for _ in pairs]  # raw minor: (basis k, coeff)
    for k, combo in enumerate(combos):
        for m, a, _ in combo:
            users[m].append((k, a))

    def paired(raw: Dict[int, int]) -> Dict[int, int]:
        """The form of the raw vector with each basis element."""
        out: Dict[int, int] = {}
        for m, x in raw.items():
            for k, a in users[partner[m]]:
                out[k] = out.get(k, 0) + weight[m] * x * a
        return out

    relation: Dict[int, int] = {}
    for m, column in enumerate(over_basis):
        back = {m: -1}
        for k, x, _ in column:
            for j, a, _ in combos[k]:
                back[j] = back.get(j, 0) + x * a
        relation = {j: x for j, x in back.items() if x}
        if relation:
            break
    g = [paired({m: a for m, a, _ in combo}) for combo in combos]
    d = 4 * factorial(n)
    if relation:  # G - (G r)(G r)^T / (r^T G r), over the denominator times r^T G r
        gr = paired(relation)
        norm = sum(weight[m] * x * relation.get(partner[m], 0) for m, x in relation.items())
        g = [{j: norm * row.get(j, 0) - gr.get(i, 0) * gr.get(j, 0) for j in range(len(g))}
             for i, row in enumerate(g)]
        d *= norm
    sign = -1 if d < 0 else 1
    return (tuple(tuple((j, sign * x, 0) for j, x in sorted(row.items()) if x) for row in g),
            sign * d)


def symplectic_matrix(n: int) -> List[List[Fraction]]:
    """Omega(e_a, e_b): 1 on (i, n + i), -1 on (n + i, i) and 0 elsewhere."""
    return [[Fraction((b == a + n) - (a == b + n)) for b in range(2 * n)]
            for a in range(2 * n)]


def b_omega_lambda(eq: MAEquation) -> Tuple[bool, List[List[Fraction]]]:
    """(lambda == 0, the pairing matrix lambda * Omega), lambda = c^T G c.

    The pairing (X, Y) -> (i_X w ^ i_Y w ^ Omega) / Omega^n of the effective
    lift w is sp(2n)-invariant and quadratic in the coordinates c, so it is
    lambda * Omega with lambda the invariant quadric of `_invariant_quadric`.
    """
    if eq.n % 2:
        raise ValueError("the proportionality invariant needs even n")
    table, d = _invariant_quadric(eq.n)
    coords, den = over_common_denominator(eq.coords)
    image = apply_table(coords, table, len(coords))
    lam = Fraction(sum(x * y for x, y in zip(coords, image)), d * den * den)
    return not lam, [[lam * x for x in row] for row in symplectic_matrix(eq.n)]


def _commutator(m: Dict[Tuple[int, int], Fraction],
                w: Dict[Tuple[int, int], Fraction]) -> Dict[Tuple[int, int], Fraction]:
    """[M, W] = MW - WM of two sparse matrices."""
    out: Dict[Tuple[int, int], Fraction] = {}
    for (a, b), x in m.items():
        for (c, d), y in w.items():
            if b == c:
                out[a, d] = out.get((a, d), 0) + x * y
            if d == a:
                out[c, b] = out.get((c, b), 0) - y * x
    return {k: v for k, v in out.items() if v}


class LieSubalgebra:
    """A subalgebra of sp(2n) given by coefficient vectors over the generators.

    Structure constants over the stored basis, the center and the derived
    subalgebra are computed on first use.
    """

    def __init__(self, n: int, basis, eigenvalues=()):
        self.n = n
        self.basis = tuple(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in v)
                           for v in basis)
        self.eigenvalues = tuple(eigenvalues)

    @cached_property
    def structure_constants(self):
        return _subalgebra_structure(self)

    @cached_property
    def center_basis(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """`center(self)`, computed once."""
        return tuple(tuple(v) for v in center(self))

    @cached_property
    def derived_basis(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """`derived_subalgebra(self)`, computed once."""
        return tuple(tuple(v) for v in derived_subalgebra(self))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return self.n * (2 * self.n + 1)

    def describe(self) -> Dict[str, object]:
        return {
            "dimension": self.dim,
            "generators": [format_sp_vector(self.n, v) for v in self.basis],
            "center-dimension": len(self.center_basis),
            "derived-dimension": len(self.derived_basis),
            "reductive": is_reductive(self),
        }


def format_sp_vector(n: int, vector: Sequence[Fraction]) -> str:
    """Human-readable combination of X/L/P generators, e.g. 'L12 - L43'."""
    labels = [g.label for g in sp_generators(n)]
    return signed_sum((c, label if abs(c) == 1 else f"{abs(c)} {label}")
                      for c, label in zip(vector, labels) if c)


@lru_cache(maxsize=1)
def symmetry_algebra(eq: MAEquation) -> LieSubalgebra:
    """Projective stabilizer of the equation inside sp(2n).

    The last result is kept: `classify` asks for the 4D stabilizer twice, and
    one entry keeps memory flat over a stream of equations.

    Solves {(v, mu) : sum_g v_g A_g c = mu c} exactly and returns the
    projection to v with structure constants over the returned basis.
    Scaling c by a nonzero constant scales the whole system, so c is taken
    as coprime integers: the kernel, mu included, does not change.
    """
    n = eq.n
    mats = action_matrices(n)
    c = clear_row(eq.coords)
    g = len(mats)
    columns = [apply_table(c, m, len(c)) for m in mats] + [[-x for x in c]]
    _, kernel = rank_kernel(list(zip(*columns)))
    basis = [tuple(vec[:g]) for vec in kernel]
    eigen = tuple(vec[g] for vec in kernel)
    return LieSubalgebra(n, basis, eigenvalues=eigen)


def _subalgebra_structure(alg: LieSubalgebra):
    """Coordinates of every bracket of basis elements over the basis.

    Basis vector v_k becomes its matrix B_k = sum_g v_kg M_g, and the bracket
    of e_a and e_b is the commutator W = [B_b, B_a].  One echelon form of
    [B | I] over the matrix entries gives reduced rows R_i = sum_k T_ik B_k,
    so W has coordinates sum_i W[pivot_i] T_i.  The combination is rebuilt as
    a matrix and compared with W, which checks closure in the span.  Each
    unordered pair is bracketed once: c[b][a] = -c[a][b] and c[a][a] = 0.
    """
    dim = alg.dim
    if dim == 0:
        return ()
    gens = [_hamiltonian_matrix(alg.n, g) for g in sp_generators(alg.n)]
    mats = [_combine(zip(v, gens)) for v in alg.basis]
    entries = sorted(set().union(*mats))
    pivots, reduced = rref([[m.get(key, 0) for key in entries] + [int(i == k) for k in range(dim)]
                            for i, m in enumerate(mats)])
    transform = [(entries[c], [(k, x) for k, x in enumerate(row[len(entries):]) if x])
                 for c, row in zip(pivots, reduced) if c < len(entries)]
    zero = (Fraction(0),) * dim
    table = [[zero] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(a + 1, dim):
            br = _commutator(mats[b], mats[a])
            coords = [Fraction(0)] * dim
            for key, t in transform:
                if key in br:
                    for k, x in t:
                        coords[k] += br[key] * x
            if _combine(zip(coords, mats)) != br:
                raise InvariantViolation("stabilizer is not closed under bracket")
            table[a][b] = tuple(coords)
            table[b][a] = tuple(-x for x in coords)
    return tuple(tuple(row) for row in table)


def _combine(terms) -> Dict[Tuple[int, int], Fraction]:
    """Nonzero entries of sum c * M over (c, M) pairs of sparse matrices."""
    out: Dict[Tuple[int, int], Fraction] = {}
    for c, m in terms:
        if c:
            for key, x in m.items():
                out[key] = out.get(key, 0) + c * x
    return {k: v for k, v in out.items() if v}


def killing_form(alg: LieSubalgebra) -> List[List[Fraction]]:
    """K(a, b) = tr(ad_a ad_b) = sum over j, k of c[a][j][k] * c[b][k][j]."""
    dim = alg.dim
    c = alg.structure_constants
    nonzero = [[(j, k, x) for j in range(dim) for k, x in enumerate(c[a][j]) if x]
               for a in range(dim)]
    return [[sum((x * c[b][k][j] for j, k, x in nonzero[a]), Fraction(0))
             for b in range(dim)] for a in range(dim)]


def derived_subalgebra(alg: LieSubalgebra) -> List[List[Fraction]]:
    """Canonical basis of [g, g] in the subalgebra's own coordinates."""
    rows = []
    for a in range(alg.dim):
        for b in range(a + 1, alg.dim):
            rows.append(list(alg.structure_constants[a][b]))
    rows = [r for r in rows if any(r)]
    return row_space_basis(rows) if rows else []


def center(alg: LieSubalgebra) -> List[List[Fraction]]:
    """Canonical basis of the center in the subalgebra's own coordinates."""
    dim = alg.dim
    if dim == 0:
        return []
    rows = []
    for j in range(dim):
        for k in range(dim):
            rows.append([alg.structure_constants[i][j][k] for i in range(dim)])
    _, kernel = rank_kernel(rows)
    return kernel


def radical(alg: LieSubalgebra) -> List[List[Fraction]]:
    """Solvable radical = Killing-orthogonal complement of [g, g]."""
    derived = alg.derived_basis
    if not derived:
        return [[Fraction(int(i == j)) for j in range(alg.dim)] for i in range(alg.dim)]
    k = killing_form(alg)
    rows = [[sum(x * y for x, y in zip(row, d) if x and y) for row in k] for d in derived]
    _, kernel = rank_kernel(rows)
    return kernel


def is_reductive(alg: LieSubalgebra) -> bool:
    """True iff the solvable radical equals the center."""
    return len(radical(alg)) == len(alg.center_basis)


# -- non-degeneracy --------------------------------------------------------


def sample_zero_point(eq: MAEquation, rng, budget: int = 200) -> Dict[str, Fraction]:
    """A rational chart point with F = 0 exactly.

    Assigns random rationals to all variables but one and solves for the
    remaining variable; minor-span elements are at most quadratic in any
    single variable, and a rational root is accepted only when exact.
    """
    names = chart_vars(eq.n)
    active = sorted(eq.poly.variables()) or [names[0]]
    for attempt in range(budget):
        target = active[attempt % len(active)]
        assignment = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                      for v in names if v != target}
        coeffs = [Fraction(0), Fraction(0), Fraction(0)]
        for mono, c in eq.poly.terms.items():
            power = 0
            val = c
            for v, e in mono:
                if v == target:
                    power = e
                else:
                    val *= assignment[v] ** e
            coeffs[power] += val
        c0, c1, c2 = coeffs
        if c2:
            disc = c1 * c1 - 4 * c2 * c0
            root = _fraction_sqrt(disc)
            if root is None:
                continue
            assignment[target] = (-c1 + root) / (2 * c2)
        elif c1:
            assignment[target] = -c0 / c1
        else:
            if c0:
                continue
            assignment[target] = Fraction(rng.randint(-9, 9))
        return assignment
    raise NoSamplePoint(f"no rational point found on {{F = 0}} within {budget} attempts")


def _fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    from math import isqrt

    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def symbol_matrix(eq: MAEquation, point: Dict[str, Fraction]) -> List[List[Fraction]]:
    """Linearization symbol Q with Q_aa = dF/du_aa, Q_ab = dF/du_ab / 2.

    The gradient of F at the point is accumulated in one pass over F's terms.
    """
    grad: Dict[str, Fraction] = {}
    for mono, c in eq.poly.terms.items():
        for k, (v, e) in enumerate(mono):
            val = c * e
            for i, (w, f) in enumerate(mono):
                power = f - 1 if i == k else f
                if power:
                    val *= point[w] ** power
            grad[v] = grad.get(v, 0) + val
    n = eq.n
    q = [[Fraction(0)] * n for _ in range(n)]
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            val = grad.get(ucoord(a, b), Fraction(0))
            if a == b:
                q[a - 1][a - 1] = val
            else:
                q[a - 1][b - 1] = val / 2
                q[b - 1][a - 1] = val / 2
    return q


@lru_cache(maxsize=1)
def nondegenerate(eq: MAEquation, samples: int = 6, seed: int = 0) -> bool:
    """Whether the symbol is an irreducible quadratic form (rank >= 3) on {F=0}.

    Rank <= 2 quadratic forms factor over C, hence are reducible; a single
    exact sample of rank >= 3 certifies non-degeneracy.  The last result is
    kept: `classify` asks for it from the fingerprint and from `integrable_4d`.
    """
    from random import Random

    rng = Random(seed)
    for _ in range(samples):
        point = sample_zero_point(eq, rng)
        rank, _ = rank_kernel(symbol_matrix(eq, point))
        if rank >= 3:
            return True
    return False
