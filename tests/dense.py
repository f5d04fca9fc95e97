"""Dense Fraction matrices: the oracle side for the package's integer column tables."""

from fractions import Fraction


class Dense:
    """A dense matrix of Fractions with the plain products."""

    def __init__(self, entries):
        self.entries = [[Fraction(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0

    def mat_vec(self, v):
        return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in self.entries]

    def mat_mul(self, other):
        return Dense([[sum((self.entries[i][k] * other.entries[k][j] for k in range(self.cols)),
                           Fraction(0)) for j in range(other.cols)] for i in range(self.rows)])

    def __eq__(self, other):
        return isinstance(other, Dense) and self.entries == other.entries

    def __repr__(self):
        return f"Dense({self.entries})"


def dense(table):
    """The dense matrix of a square integer column table (entries (row, coefficient, 0))."""
    entries = [[0] * len(table) for _ in table]
    for j, column in enumerate(table):
        for i, c, q in column:
            if q:
                raise ValueError("a weighted table has no dense matrix")
            entries[i][j] += c
    return Dense(entries)
