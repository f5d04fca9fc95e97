"""Exact rational linear algebra.

`RatMatrix` keeps its Fraction entries together with the sparse nonzero
`(column, value)` pairs of each row, built once at construction (entries
are never mutated afterwards), so matrix-vector products touch only the
nonzeros: the sp(2n) action matrices are about 1% nonzero at n = 4.

The elimination core is fraction-free (Bareiss) on denominator-cleared
integer rows, which keeps intermediate entries as single big integers
instead of fractions; results are converted back to Fractions and fully
reduced, so kernels and solutions come out in a canonical reduced-echelon
shape.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

Vector = List[Fraction]


class RatMatrix:
    """Matrix of Fractions with the nonzero (column, value) pairs of each row."""

    def __init__(self, entries: Sequence[Sequence]):
        self.entries = [[Fraction(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")
        self.nonzero_rows = [[(j, x) for j, x in enumerate(row) if x] for row in self.entries]

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def column(self, j: int) -> Vector:
        return [row[j] for row in self.entries]

    def mat_vec(self, v: Sequence) -> Vector:
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        v = [Fraction(x) for x in v]
        return [sum((x * v[j] for j, x in row), Fraction(0)) for row in self.nonzero_rows]

    def mat_mul(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return RatMatrix([[sum((self.entries[i][k] * other.entries[k][j]
                                for k in range(self.cols)), Fraction(0))
                           for j in range(other.cols)] for i in range(self.rows)])

    def transpose(self) -> "RatMatrix":
        return RatMatrix([[self.entries[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def __eq__(self, other):
        return isinstance(other, RatMatrix) and self.entries == other.entries

    def rank(self) -> int:
        return len(rref(self.entries)[0])

    def __repr__(self):
        return f"RatMatrix({self.entries})"


def _clear_row(row: Sequence[Fraction]) -> List[int]:
    denoms = [x.denominator for x in row]
    m = 1
    for d in denoms:
        m = lcm(m, d)
    cleared = [int(x * m) for x in row]
    g = 0
    for x in cleared:
        g = gcd(g, abs(x))
    if g > 1:
        cleared = [x // g for x in cleared]
    return cleared


def rref(entries: Sequence[Sequence[Fraction]]) -> Tuple[List[int], List[Vector]]:
    """Reduced row echelon form via integer Bareiss elimination.

    Returns (pivot column indices, reduced rows); the reduced rows have a
    leading 1 in each pivot column and zeros above and below it.
    """
    rows = [_clear_row(row) for row in entries]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: List[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pc = rows[r][c]
        for i in range(r + 1, nrows):
            ic = rows[i][c]
            row_i = rows[i]
            row_r = rows[r]
            for j in range(ncols):
                row_i[j] = (pc * row_i[j] - ic * row_r[j]) // prev
        prev = pc
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # Back-substitute over Fractions to reach the reduced form.
    reduced: List[Vector] = [[Fraction(x) for x in rows[i]] for i in range(len(pivots))]
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        pv = reduced[i][c]
        reduced[i] = [x / pv for x in reduced[i]]
        for k in range(i):
            f = reduced[k][c]
            if f:
                reduced[k] = [a - f * b for a, b in zip(reduced[k], reduced[i])]
    return pivots, reduced


def rank_kernel(m: RatMatrix) -> Tuple[int, List[Vector]]:
    """Rank and a canonical kernel basis (reduced echelon shape).

    Every vector v in the basis satisfies m*v = 0 exactly, and
    rank + len(basis) == m.cols.
    """
    if m.rows == 0:
        return 0, [[Fraction(int(i == j)) for i in range(m.cols)] for j in range(m.cols)]
    pivots, reduced = rref(m.entries)
    return len(pivots), _kernel(pivots, reduced, m.cols)


def _kernel(pivots: List[int], reduced: List[Vector], cols: int) -> List[Vector]:
    """Kernel basis of the first `cols` columns of a reduced echelon form.

    All pivots must lie among those columns; there is one basis vector per
    free column, with a 1 there.
    """
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis: List[Vector] = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -reduced[i][f]
        basis.append(v)
    return basis


def solve_linear(m: RatMatrix, b: Sequence) -> Optional[Tuple[Vector, List[Vector]]]:
    """Solve m*x = b exactly.

    Returns (particular solution, kernel basis), or None when the system
    is inconsistent.  Free variables are set to zero in the particular
    solution, which makes it canonical.  One elimination of [m | b] serves
    both: when the system is consistent, its reduced rows restricted to m's
    columns are the reduced form of m, which gives the kernel.
    """
    bvec = [Fraction(x) for x in b]
    if len(bvec) != m.rows:
        raise ValueError("right-hand side has wrong length")
    if m.rows == 0:
        return [], []
    aug = [list(row) + [bvec[i]] for i, row in enumerate(m.entries)]
    pivots, reduced = rref(aug)
    if m.cols in pivots:
        return None
    particular = [Fraction(0)] * m.cols
    for i, c in enumerate(pivots):
        particular[c] = reduced[i][m.cols]
    return particular, _kernel(pivots, reduced, m.cols)


def invert(m: RatMatrix) -> RatMatrix:
    """Exact inverse of a square matrix; raises on singular input."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m.entries)]
    pivots, reduced = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return RatMatrix([row[n:] for row in reduced])


def row_space_basis(rows: Sequence[Sequence[Fraction]]) -> List[Vector]:
    """Canonical basis (RREF rows) of the span of the given row vectors."""
    if not rows:
        return []
    _, reduced = rref(rows)
    return reduced


def in_row_space(rows: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Optional[Vector]:
    """Coordinates of v over the given rows, or None if v is outside their span."""
    if not rows:
        return None if any(Fraction(x) for x in v) else []
    mt = RatMatrix(rows).transpose()
    sol = solve_linear(mt, v)
    return None if sol is None else sol[0]
