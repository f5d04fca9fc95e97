"""Exact linear algebra: integer column tables and eliminations on row lists.

A linear map of coordinates is an integer column table: column i lists the
nonzero entries (m, c, q) of input i, each adding c * weights[q] times the
input to output m (`apply_table`; q is 0 when the map carries no weights).
The sp(2n) action matrices, the Legendre flips and the raw-minor maps of
the Plucker section are such tables, about 1% nonzero at n = 4.
`mat_vec` applies a square table to a vector of ints or Fractions: it
clears the vector to integers over one common denominator, applies the
table in integers and builds one Fraction per output entry.

Eliminations take plain lists of rows of ints or Fractions.  `rref`
eliminates on denominator-cleared integer rows: a fraction-free (Bareiss)
forward pass, then integer back-substitution above each pivot, each row
kept primitive by dividing out the gcd of its entries.  Each row becomes
Fractions once, at the end, by dividing by its pivot, so kernels and
solutions come out in the unique reduced-echelon shape.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

Vector = List[Fraction]


def apply_table(vec: Sequence[int], table, size: int, weights: Sequence[int] = (1,)) -> List[int]:
    """The integer vector out with out[m] += x * c * weights[q] for every
    entry (m, c, q) of table[i], x = vec[i]."""
    out = [0] * size
    for x, column in zip(vec, table):
        if x:
            for m, c, q in column:
                out[m] += c * weights[q] * x
    return out


def mat_vec(table, v: Sequence) -> Vector:
    """Product of a square integer column table with a vector of ints or Fractions."""
    w, d = over_common_denominator(v)
    return [Fraction(x, d) for x in apply_table(w, table, len(table))]


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


def rank_kernel(rows: Sequence[Sequence]) -> Tuple[int, List[Vector]]:
    """Rank and a canonical kernel basis (reduced echelon shape) of a
    nonempty list of rows.

    Every vector v in the basis is orthogonal to every row, and
    rank + len(basis) is the number of columns.
    """
    pivots, reduced = rref(rows)
    return len(pivots), _kernel(pivots, reduced, len(rows[0]))


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


def solve_linear(rows: Sequence[Sequence], b: Sequence) -> Optional[Tuple[Vector, List[Vector]]]:
    """Solve rows * x = b exactly, for a nonempty list of rows.

    Returns (particular solution, kernel basis), or None when the system
    is inconsistent.  Free variables are set to zero in the particular
    solution, which makes it canonical.  One elimination of [rows | b]
    serves both: when the system is consistent, its reduced rows restricted
    to the first columns are the reduced form of rows, which gives the kernel.
    """
    if len(b) != len(rows):
        raise ValueError("right-hand side has wrong length")
    cols = len(rows[0])
    pivots, reduced = rref([list(row) + [x] for row, x in zip(rows, b)])
    if cols in pivots:
        return None
    particular = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        particular[c] = reduced[i][cols]
    return particular, _kernel(pivots, reduced, cols)


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
    sol = solve_linear(list(zip(*rows)), v)
    return None if sol is None else sol[0]
