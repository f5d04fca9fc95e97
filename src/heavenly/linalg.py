"""Exact rational linear algebra with integer kernels.

Values are Fractions at the interface and Python ints inside the kernels.
`RatMatrix` keeps, next to its Fraction entries, each row as the integer
numerators of its nonzero entries over one row denominator, built on first
use (entries are never mutated afterwards).  A matrix-vector product
clears the vector to integers over one common denominator, sums
integer products over the nonzeros only (the sp(2n) action matrices are
about 1% nonzero at n = 4) and builds one Fraction per output entry.

`rref` eliminates on denominator-cleared integer rows: a fraction-free
(Bareiss) forward pass, then integer back-substitution above each pivot,
each row kept primitive by dividing out the gcd of its entries.  Each row
becomes Fractions once, at the end, by dividing by its pivot, so kernels
and solutions come out in the unique reduced-echelon shape.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

Vector = List[Fraction]


class RatMatrix:
    """Matrix of Fractions; each row also as integer numerators over one denominator."""

    def __init__(self, entries: Sequence[Sequence]):
        self.entries = [[x if isinstance(x, Fraction) else Fraction(x) for x in row]
                        for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @cached_property
    def integer_rows(self) -> List[Tuple[int, List[Tuple[int, int]]]]:
        """(row denominator, nonzero (column, numerator) pairs) of each row."""
        out = []
        for row in self.entries:
            nums, den = over_common_denominator(row)
            out.append((den, [(j, x) for j, x in enumerate(nums) if x]))
        return out

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RatMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    def mat_vec(self, v: Sequence) -> Vector:
        """Product with a vector of ints or Fractions."""
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        w, d = over_common_denominator(v)
        return [Fraction(sum([x * w[j] for j, x in row]), den * d)
                for den, row in self.integer_rows]

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


def over_common_denominator(values: Sequence) -> Tuple[List[int], int]:
    """Integer numerators of ints or Fractions over their least common denominator."""
    m = lcm(*[x.denominator for x in values])
    return [x.numerator * (m // x.denominator) for x in values], m


def _primitive(row: List[int]) -> List[int]:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def clear_row(row: Sequence) -> List[int]:
    """Primitive integer row proportional to a row of ints or Fractions."""
    return _primitive(over_common_denominator(row)[0])


def rref(entries: Sequence[Sequence[Fraction]]) -> Tuple[List[int], List[Vector]]:
    """Reduced row echelon form via integer elimination.

    Returns (pivot column indices, reduced rows); the reduced rows have a
    leading 1 in each pivot column and zeros above and below it.
    """
    rows = [clear_row(row) for row in entries]
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
        row_r = rows[r]
        for i in range(r + 1, nrows):
            ic = rows[i][c]
            row_i = rows[i]
            # entries left of c are zero in rows r.. and stay zero
            for j in range(c, ncols):
                row_i[j] = (pc * row_i[j] - ic * row_r[j]) // prev
        prev = pc
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # Back-substitute in integers: row_k = pv * row_k - f * row_i clears
    # column c of row k; the pivot rows become Fractions once, at the end.
    rows = [_primitive(rows[i]) for i in range(r)]
    for i in range(r - 1, 0, -1):
        c = pivots[i]
        row_i = rows[i]
        pv = row_i[c]
        for k in range(i):
            f = rows[k][c]
            if f:
                rows[k] = _primitive([pv * a - f * b for a, b in zip(rows[k], row_i)])
    return pivots, [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]


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
