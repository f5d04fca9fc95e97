"""Exact linear algebra tests, including the naive-elimination cross-check."""

from fractions import Fraction
from random import Random

import pytest

from dense import Dense
from heavenly.linalg import mat_vec, rank_kernel, solve_linear, row_space_basis, in_row_space
from heavenly.linalg import rref


def naive_rank(entries):
    """Independent oracle: plain fraction Gauss elimination."""
    m = [[Fraction(x) for x in row] for row in entries]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][c]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def test_identity_full_rank():
    rank, kernel = rank_kernel(identity(3))
    assert rank == 3 and kernel == []


def test_zero_matrix_kernel():
    rank, kernel = rank_kernel([[Fraction(0)] * 5 for _ in range(2)])
    assert rank == 0 and len(kernel) == 5
    for i, v in enumerate(kernel):
        assert v[i] == 1


def test_rank_kernel_exactness_random():
    rng = Random(11)
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = Dense([[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                    for _ in range(cols)] for _ in range(rows)])
        rank, kernel = rank_kernel(m.entries)
        assert rank == naive_rank(m.entries)
        assert rank + len(kernel) == cols
        for v in kernel:
            assert all(x == 0 for x in m.mat_vec(v))


def test_rank_invariant_under_row_scaling_and_permutation():
    rng = Random(5)
    for _ in range(15):
        m = [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)]
        base_rank, _ = rank_kernel(m)
        scaled = [row[:] for row in m]
        i = rng.randrange(4)
        scaled[i] = [Fraction(7, 3) * x for x in scaled[i]]
        rng.shuffle(scaled)
        new_rank, _ = rank_kernel(scaled)
        assert new_rank == base_rank


def test_solve_identity():
    m = identity(3)
    b = [1, Fraction(2, 3), -5]
    sol = solve_linear(m, b)
    assert sol is not None
    particular, kernel = sol
    assert particular == [Fraction(x) for x in b] and kernel == []


def test_solve_inconsistent():
    m = [[Fraction(0)] * 3 for _ in range(2)]
    assert solve_linear(m, [1, 0]) is None


def test_solve_underdetermined():
    m = Dense([[1, 1, 0], [0, 0, 1]])
    sol = solve_linear(m.entries, [3, 4])
    assert sol is not None
    particular, kernel = sol
    assert m.mat_vec(particular) == [Fraction(3), Fraction(4)]
    assert len(kernel) == 1


def test_solve_random_consistency():
    rng = Random(23)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = Dense([[Fraction(rng.randint(-6, 6)) for _ in range(cols)]
                   for _ in range(rows)])
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
        b = m.mat_vec(x)
        sol = solve_linear(m.entries, b)
        assert sol is not None
        particular, _ = sol
        assert m.mat_vec(particular) == b


def test_row_space_membership():
    rows = [[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]]
    basis = row_space_basis(rows)
    assert len(basis) == 2
    coords = in_row_space(rows, [Fraction(1), Fraction(3), Fraction(1)])
    assert coords is not None
    assert in_row_space(rows, [Fraction(0), Fraction(0), Fraction(1)]) is None


def _random_sparse_matrix(rng, rows, cols):
    """At least half of the entries are zero."""
    entries = [[Fraction(0)] * cols for _ in range(rows)]
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    for i, j in rng.sample(cells, len(cells) // 2):
        entries[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return entries


def _random_int_rows(rng, size):
    """A square integer matrix, at least half of its entries zero."""
    entries = [[0] * size for _ in range(size)]
    cells = [(i, j) for i in range(size) for j in range(size)]
    for i, j in rng.sample(cells, len(cells) // 2):
        entries[i][j] = rng.randint(-9, 9)
    return entries


def _table(entries):
    """The integer column table of a square list of integer rows."""
    return tuple(tuple((i, row[j], 0) for i, row in enumerate(entries) if row[j])
                 for j in range(len(entries)))


def test_mat_vec_matches_dense_sum():
    rng = Random(31)
    for _ in range(40):
        size = rng.randint(1, 7)
        entries = _random_int_rows(rng, size)
        table = _table(entries)
        ints = [rng.randint(-5, 5) for _ in range(size)]
        fracs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(size)]
        mixed = [x if rng.random() < 0.5 else y for x, y in zip(ints, fracs)]
        for v in (ints, fracs, mixed):
            expected = [sum((Fraction(row[j]) * Fraction(v[j]) for j in range(size)),
                            Fraction(0)) for row in entries]
            assert mat_vec(table, v) == expected


def test_solve_linear_kernel_equals_rank_kernel():
    rng = Random(37)
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = Dense(_random_sparse_matrix(rng, rows, cols))
        b = m.mat_vec([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)])
        particular, kernel = solve_linear(m.entries, b)
        assert m.mat_vec(particular) == b
        assert kernel == rank_kernel(m.entries)[1]


def test_rank_kernel_and_solve_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = Random(41)
    for _ in range(25):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = _random_sparse_matrix(rng, rows, cols)
        m = Dense(entries)
        sm = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                           for row in entries])
        rank, kernel = rank_kernel(entries)
        assert rank == sm.rank()
        # both are reduced-echelon kernels with a 1 in each free column
        oracle = [[Fraction(int(x.p), int(x.q)) for x in vec] for vec in sm.nullspace()]
        assert kernel == oracle
        b = m.mat_vec([Fraction(rng.randint(-4, 4)) for _ in range(cols)])
        particular, sol_kernel = solve_linear(entries, b)
        assert sol_kernel == oracle
        sb = sympy.Matrix([sympy.Rational(x.numerator, x.denominator) for x in b])
        assert sm * sympy.Matrix([sympy.Rational(x.numerator, x.denominator)
                                  for x in particular]) == sb
        other = [Fraction(rng.randint(-4, 4)) for _ in range(rows)]
        so = sympy.Matrix([int(x) for x in other])
        consistent = sm.row_join(so).rank() == sm.rank()
        assert (solve_linear(entries, other) is not None) == consistent


def _sympy_matrix(sympy, entries):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                         for row in entries])


def _from_sympy(row):
    return [Fraction(int(x.p), int(x.q)) for x in row]


def _rref_cases(rng):
    """Seeded rational matrices: rank-deficient, zero-row, wide, tall, large-entry."""
    def rand(rows, cols, top=9, den=4):
        return [[Fraction(rng.randint(-top, top), rng.randint(1, den)) for _ in range(cols)]
                for _ in range(rows)]

    cases = []
    for _ in range(6):
        rows, cols = rng.randint(3, 6), rng.randint(3, 6)
        left, right = rand(rows, 2), rand(2, cols)  # rank at most 2
        cases.append([[sum((left[i][k] * right[k][j] for k in range(2)), Fraction(0))
                       for j in range(cols)] for i in range(rows)])
        with_zero = rand(rows, cols)
        with_zero[rng.randrange(rows)] = [Fraction(0)] * cols
        cases.append(with_zero)
        cases.append(rand(rng.randint(1, 3), rng.randint(6, 9)))  # wide
        cases.append(rand(rng.randint(6, 9), rng.randint(1, 3)))  # tall
        cases.append(rand(rows, cols, top=10 ** 30, den=10 ** 12))  # large entries
        cases.append(_random_sparse_matrix(rng, rows, cols))
    cases.append([[Fraction(0)] * 4 for _ in range(3)])
    return cases


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for entries in _rref_cases(Random(43)):
        pivots, reduced = rref(entries)
        oracle, oracle_pivots = _sympy_matrix(sympy, entries).rref()
        assert pivots == list(oracle_pivots)
        assert reduced == [_from_sympy(oracle.row(i)) for i in range(len(pivots))]
        assert all(x == 0 for i in range(len(pivots), oracle.rows) for x in oracle.row(i))


def invert(m):
    """Exact inverse of a square list of rows; raises ValueError on singular input.

    Test-only: the package no longer inverts matrices, and the Legendre
    oracle in test_grassmann.py uses this.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("only square matrices can be inverted")
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    pivots, reduced = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in reduced]


def test_invert_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = Random(47)
    checked = 0
    while checked < 20:
        n = rng.randint(1, 6)
        entries = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
                   for _ in range(n)]
        sm = _sympy_matrix(sympy, entries)
        if sm.det() == 0:
            continue
        inverse = invert(entries)
        assert inverse == [_from_sympy(sm.inv().row(i)) for i in range(n)]
        checked += 1
    singular = [[Fraction(1), Fraction(2)], [Fraction(1, 2), Fraction(1)]]
    with pytest.raises(ValueError):
        invert(singular)


def test_mat_vec_with_zero_columns_and_mixed_vectors():
    # some columns and some rows are zero, and the vector mixes ints with
    # Fractions of several denominators
    rng = Random(53)
    for _ in range(40):
        size = rng.randint(1, 6)
        entries = _random_int_rows(rng, size)
        entries[rng.randrange(size)] = [0] * size
        zero_column = rng.randrange(size)
        for row in entries:
            row[zero_column] = 0
        table = _table(entries)
        ints = [rng.randint(-5, 5) for _ in range(size)]
        fracs = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7, 10 ** 9 + 7)))
                 for _ in range(size)]
        mixed = [x if rng.random() < 0.5 else y for x, y in zip(ints, fracs)]
        for v in (ints, fracs, mixed):
            got = mat_vec(table, v)
            assert got == [sum((row[j] * v[j] for j in range(size)), Fraction(0))
                           for row in entries]
            assert all(type(x) is Fraction for x in got)
