"""sp(2n) action, symmetry algebras, reductivity, non-degeneracy."""

from fractions import Fraction
from itertools import combinations, product
from random import Random

import pytest

from dense import Dense, dense
from tables import (
    EXPECTED_SYMMETRY_DIMS,
    LAPLACE_3D_GENERATORS,
    PRINTED_GENERATORS,
    sp_table,
    table_equation,
)
from vector_fields import chart_fields, invariance_eigenvalue

from heavenly import catalog
from heavenly.errors import InvariantViolation, NoSamplePoint
from heavenly.grassmann import (
    MAEquation,
    chart_vars,
    decompose,
    legendre_matrix,
    minor_basis,
    partial_legendre,
    translate,
    ucoord,
    uvar,
)
from heavenly.linalg import in_row_space
from heavenly.liesp import (
    LieSubalgebra,
    action_matrices,
    center,
    is_reductive,
    killing_form,
    nondegenerate,
    radical,
    sample_zero_point,
    sp_generators,
    symbol_matrix,
    symmetry_algebra,
)
from heavenly.poly import Polynomial


def gen_by_label(n, label):
    for g in chart_fields(n):
        if g.label == label:
            return g
    raise KeyError(label)


def vector_from_terms(n, terms):
    labels = [g.label for g in sp_generators(n)]
    v = [Fraction(0)] * len(labels)
    for coeff, label in terms:
        v[labels.index(label)] += Fraction(coeff)
    return v


def test_generator_counts():
    for n in (2, 3, 4):
        gens = sp_generators(n)
        assert len(gens) == n * (2 * n + 1)
        kinds = [g.kind for g in gens]
        assert kinds.count("X") == n * (n + 1) // 2
        assert kinds.count("L") == n * n
        assert kinds.count("P") == n * (n + 1) // 2


def test_generators_are_records_that_build_no_polynomial(monkeypatch):
    from heavenly import poly

    built = []
    init, raw = poly.Polynomial.__init__, poly._raw
    monkeypatch.setattr(poly.Polynomial, "__init__",
                        lambda self, *a, **k: built.append("init") or init(self, *a, **k))
    monkeypatch.setattr(poly, "_raw", lambda terms: built.append("raw") or raw(terms))
    gens = sp_generators.__wrapped__(4)
    assert built == []
    assert type(gens[0])._fields == ("label", "kind", "i", "j")


def test_chart_fields_follow_the_generator_order():
    for n in (2, 3, 4):
        assert ([(f.label, f.kind, f.i, f.j) for f in chart_fields(n)]
                == [(g.label, g.kind, g.i, g.j) for g in sp_generators(n)])


def test_x11_derivation_on_basis_n2():
    x11 = gen_by_label(2, "X11")
    assert x11.apply(uvar(1, 1)) == Polynomial.one()
    det = uvar(1, 1) * uvar(2, 2) - uvar(1, 2) ** 2
    assert x11.apply(det) == uvar(2, 2)


def test_l12_on_u11():
    for n in (2, 3, 4):
        l12 = gen_by_label(n, "L12")
        assert l12.apply(uvar(1, 1)) == 2 * uvar(1, 2)


def test_derivations_kill_constants():
    one = Polynomial.one()
    for label in ("X12", "L23", "L11", "P11", "P34"):
        g = gen_by_label(4, label)
        assert g.apply(one).is_zero()


def test_corrected_action_decomposes_for_all_generators():
    # span preservation, including the quadratic generators
    for n in (2, 3, 4):
        basis = minor_basis(n)
        for g in chart_fields(n):
            for p in basis.basis_polys:
                decompose(g.corrected(p), basis)  # raises NotInSpan on failure


@pytest.mark.parametrize("n", [2, 3, 4])
def test_action_matrices_match_corrected_derivation_oracle(n):
    # column k: the corrected symbolic derivation of basis polynomial k,
    # decomposed over the basis
    basis = minor_basis(n)
    for g, matrix in zip(chart_fields(n), action_matrices(n)):
        cols = [decompose(g.corrected(p), basis) for p in basis.basis_polys]
        assert dense(matrix) == Dense([[cols[k][i] for k in range(basis.dimension)]
                                       for i in range(basis.dimension)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_action_and_legendre_tables_hold_only_ints(n):
    # the coordinate maps stay integer column tables, so no Fraction is
    # built before a product's one division per output entry
    dim = minor_basis(n).dimension
    flips = [frozenset(s) for size in range(1, n + 1)
             for s in combinations(range(1, n + 1), size)]
    tables = list(action_matrices(n)) + [legendre_matrix(n, s) for s in flips]
    assert len(tables) == n * (2 * n + 1) + 2 ** n - 1
    for table in tables:
        assert len(table) == dim
        for column in table:
            assert all(type(c) is int and 0 <= m < dim and q == 0 for m, c, q in column)


TABLE_SHA256 = {  # n: (action_matrices(n), the Legendre flips in subset order)
    2: ("6b5c2210e4f7318e957e04f975e82b6f0f062dfae5ea935bde1e5680c13c8243",
        "cb9996c8b233d118e21cd2332dee983d86027da669be22213429d6b98f18ab30"),
    3: ("37ef2af5bdcf3d390e5bbbb9201c7ab380fcf4534c2aab4f61591d625b471e7d",
        "49b96bc195d802c306d2fbaedef99934d050dec97732db90c70ab4d77be4c39b"),
    4: ("3e08fcd7b90b44fc5fd769adea89efe307f82991ebd206f67f884e21e8261fd6",
        "16077d96502de0e5d15f475fecee8fe8cc2309994e03d96e04599c2d7ffee819"),
}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_action_and_legendre_tables_are_pinned(n):
    # the exact column tables, entry order included, do not move when their
    # build changes
    from hashlib import sha256

    flips = [frozenset(s) for size in range(1, n + 1)
             for s in combinations(range(1, n + 1), size)]
    digests = (sha256(repr(action_matrices(n)).encode()).hexdigest(),
               sha256(repr([legendre_matrix(n, s) for s in flips]).encode()).hexdigest())
    assert digests == TABLE_SHA256[n]


def test_action_matrices_close_under_bracket():
    n = 3
    mats = [dense(m) for m in action_matrices(n)]
    table = sp_table(n)
    rng = Random(4)
    pairs = [(rng.randrange(len(mats)), rng.randrange(len(mats))) for _ in range(12)]
    for p, q in pairs:
        lhs = mats[p].mat_mul(mats[q])
        rhs = mats[q].mat_mul(mats[p])
        bracket = [[lhs.entries[i][j] - rhs.entries[i][j] for j in range(lhs.cols)]
                   for i in range(lhs.rows)]
        expected = [[Fraction(0)] * lhs.cols for _ in range(lhs.rows)]
        for r, c in table[p][q]:
            for i in range(lhs.rows):
                for j in range(lhs.cols):
                    expected[i][j] += c * mats[r].entries[i][j]
        assert bracket == expected


def test_structure_constants_antisymmetry_and_jacobi():
    for n in (2, 3, 4):
        table = sp_table(n)
        dim = len(table)

        def bracket_vec(p, q):
            v = [Fraction(0)] * dim
            for r, c in table[p][q]:
                v[r] += c
            return v

        rng = Random(8)
        for _ in range(10):
            p, q, r = (rng.randrange(dim) for _ in range(3))
            assert bracket_vec(p, q) == [-x for x in bracket_vec(q, p)]
            # jacobi: [[p,q],r] + [[q,r],p] + [[r,p],q] = 0
            total = [Fraction(0)] * dim
            for a, b in ((p, q), (q, r), (r, p)):
                inner = bracket_vec(a, b)
                third = {(p, q): r, (q, r): p, (r, p): q}[(a, b)]
                for s, coeff in enumerate(inner):
                    if coeff:
                        for t, c2 in table[s][third]:
                            total[t] += coeff * c2
            assert all(x == 0 for x in total)


@pytest.mark.parametrize("name", list(EXPECTED_SYMMETRY_DIMS))
def test_symmetry_algebra_dimensions(name):
    eq = catalog.builtin_equation(name)
    alg = symmetry_algebra(eq)
    assert alg.dim == EXPECTED_SYMMETRY_DIMS[name]


@pytest.mark.parametrize("name", list(PRINTED_GENERATORS))
def test_printed_generators_stabilize(name):
    eq = table_equation(name)
    alg = symmetry_algebra(eq)
    assert alg.dim == EXPECTED_SYMMETRY_DIMS[name]
    basis_rows = [list(v) for v in alg.basis]
    for terms in PRINTED_GENERATORS[name]:
        v = vector_from_terms(4, terms)
        assert invariance_eigenvalue(eq, v) is not None
        assert in_row_space(basis_rows, v) is not None


def test_laplace3_symmetry_generators():
    eq = catalog.laplace(3)
    alg = symmetry_algebra(eq)
    assert alg.dim == 9
    for terms in LAPLACE_3D_GENERATORS:
        v = vector_from_terms(3, terms)
        assert invariance_eigenvalue(eq, v) is not None


def test_symmetry_algebra_bracket_closed():
    # each bracket taken in the whole of sp(8) lies in the stabilizer, with
    # the coordinates the stabilizer's own structure constants give
    alg = symmetry_algebra(catalog.husain())
    table = sp_table(alg.n)
    rows = [list(v) for v in alg.basis]
    for a in range(alg.dim):
        for b in range(a + 1, alg.dim):
            br = [Fraction(0)] * alg.ambient_dim
            for p, x in enumerate(alg.basis[a]):
                for q, y in enumerate(alg.basis[b]):
                    if x and y:
                        for r, c in table[p][q]:
                            br[r] += x * y * c
            assert in_row_space(rows, br) is not None
            coords = alg.structure_constants[a][b]
            assert br == [sum((c * v[p] for c, v in zip(coords, alg.basis)), Fraction(0))
                          for p in range(alg.ambient_dim)]


def test_structure_constants_reject_non_closed_span():
    # [X11, P11] is a multiple of L11, which is outside span{X11, P11}
    alg = LieSubalgebra(2, [vector_from_terms(2, [(1, "X11")]),
                            vector_from_terms(2, [(1, "P11")])])
    with pytest.raises(InvariantViolation):
        alg.structure_constants


@pytest.mark.parametrize("name", ["husain", "general-heavenly", "first-heavenly", "laplace"])
def test_killing_form_matches_adjoint_trace(name):
    alg = symmetry_algebra(catalog.builtin_equation(name))
    c, dim = alg.structure_constants, alg.dim
    # ad_a has column j equal to the coordinates of [e_a, e_j]
    ads = [[[c[a][j][k] for j in range(dim)] for k in range(dim)] for a in range(dim)]
    expected = [[sum((ads[a][k][j] * ads[b][j][k] for j in range(dim) for k in range(dim)),
                     Fraction(0)) for b in range(dim)] for a in range(dim)]
    assert killing_form(alg) == expected


def test_symmetry_dim_invariant_under_transforms():
    rng = Random(6)
    for name in ("husain", "modified-heavenly"):
        eq = catalog.builtin_equation(name)
        base = symmetry_algebra(eq).dim
        u0 = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        for i in range(4):
            for j in range(i):
                u0[i][j] = u0[j][i]
        assert symmetry_algebra(translate(eq, u0)).dim == base
        moved = partial_legendre(eq, [1, 3])
        assert symmetry_algebra(moved).dim == base


def test_reductivity():
    gh = symmetry_algebra(catalog.general_heavenly())
    assert is_reductive(gh) is True
    hus = symmetry_algebra(catalog.husain())
    assert is_reductive(hus) is False
    # abelian algebra (X11, X12, X13): radical = center = everything
    dim = 3
    zeros = tuple(tuple(tuple(Fraction(0) for _ in range(dim)) for _ in range(dim))
                  for _ in range(dim))
    basis = tuple(tuple(Fraction(int(i == j)) for j in range(36)) for i in range(dim))
    abelian = LieSubalgebra(4, basis)
    assert abelian.structure_constants == zeros
    assert is_reductive(abelian) is True
    assert len(center(abelian)) == dim and len(radical(abelian)) == dim


def test_center_inside_radical():
    for name in ("husain", "general-heavenly", "first-heavenly"):
        alg = symmetry_algebra(catalog.builtin_equation(name))
        rad = radical(alg)
        for z in center(alg):
            assert in_row_space(rad, z) is not None


def test_sample_zero_point():
    rng = Random(12)
    for eq in (catalog.first_heavenly(), catalog.hess_equation(3), catalog.laplace(4)):
        point = sample_zero_point(eq, rng)
        assert eq.poly.evaluate(point) == 0


def test_sample_zero_point_budget_exhaustion():
    eq = MAEquation.from_coords(4, [1] + [0] * 41)  # the equation 1 = 0
    with pytest.raises(NoSamplePoint):
        sample_zero_point(eq, Random(0), budget=20)


def test_nondegenerate_examples():
    assert nondegenerate(catalog.first_heavenly(), seed=1) is True
    assert nondegenerate(catalog.laplace(4), seed=1) is True
    e0 = MAEquation.from_poly(4, uvar(1, 1) * uvar(2, 2) - uvar(1, 2) ** 2)
    assert nondegenerate(e0, seed=1) is False


def partial_symbol(eq, point):
    """Reference: the symbol as it was computed before the one-pass gradient,
    one `partial` per chart variable, each evaluated at the point."""
    q = [[Fraction(0)] * eq.n for _ in range(eq.n)]
    for a in range(1, eq.n + 1):
        for b in range(a, eq.n + 1):
            val = eq.poly.partial(ucoord(a, b)).evaluate(point)
            q[a - 1][b - 1] = q[b - 1][a - 1] = val if a == b else val / 2
    return q


def test_symbol_matrix_matches_partial_evaluate_oracle():
    rng = Random(41)
    eqs = [catalog.builtin_equation(name) for name in catalog.builtin_names()]
    for n in (2, 3, 4):
        for _ in range(6):
            coords = [rng.choice([0, 0, rng.randint(-5, 5)])
                      for _ in range(minor_basis(n).dimension)]
            coords[rng.randrange(len(coords))] = rng.randint(1, 5)
            eqs.append(MAEquation.from_coords(n, coords))
    for eq in eqs:
        for _ in range(4):
            point = {v: Fraction(rng.choice([0, rng.randint(-9, 9)]), rng.randint(1, 3))
                     for v in chart_vars(eq.n)}
            assert symbol_matrix(eq, point) == partial_symbol(eq, point)
        if eq.poly.variables():  # a point on F = 0, as `nondegenerate` draws them
            point = sample_zero_point(eq, rng)
            assert symbol_matrix(eq, point) == partial_symbol(eq, point)


def test_theorem2_consistency_3d():
    # nondegenerate + 9-dimensional stabilizer holds exactly when an
    # osculating-containment point exists in some Legendre chart
    from heavenly.integrability import find_osculating_certificate

    linearisable_set = (catalog.laplace(3), catalog.kahler_potential())
    for eq in linearisable_set:
        assert nondegenerate(eq, seed=2)
        assert symmetry_algebra(eq).dim == 9
        assert find_osculating_certificate(eq) is not None
    for eq in (catalog.hess_equation(3), catalog.hess_elliptic_3d()):
        assert nondegenerate(eq, seed=2)
        assert symmetry_algebra(eq).dim != 9
        assert find_osculating_certificate(eq) is None


def test_structure_bracket_matches_derivations():
    # the table is the chart vector-field bracket V_p V_q - V_q V_p, on every pair
    zero = Polynomial.zero()
    for n in (2, 3):
        gens = chart_fields(n)
        images = [dict(g.derivation) for g in gens]
        table = sp_table(n)
        for p, q in product(range(len(gens)), repeat=2):
            for var in chart_vars(n):
                lhs = (gens[p].apply(images[q].get(var, zero))
                       - gens[q].apply(images[p].get(var, zero)))
                rhs = sum((c * images[r].get(var, zero) for r, c in table[p][q]), zero)
                assert lhs == rhs, (gens[p].label, gens[q].label, var)


def _seeded_3d_equations(count, seed):
    rng = Random(seed)
    return [MAEquation.from_coords(3, [Fraction(rng.randint(-3, 3))
                                       for _ in range(minor_basis(3).dimension)])
            for _ in range(count)]


PROPER_3D = ("laplace", "kahler", "hess-3d", "hess-3d-elliptic")


@pytest.mark.parametrize("eq", [catalog.builtin_equation(name) for name in PROPER_3D]
                         + _seeded_3d_equations(3, 25),
                         ids=list(PROPER_3D) + ["seeded-1", "seeded-2", "seeded-3"])
def test_subalgebra_bracket_matches_derivations(eq):
    # on a basis that is not the generators: sum_k c[a][b][k] V(B_k) is the
    # field bracket V(B_a) V(B_b) - V(B_b) V(B_a) on every chart variable,
    # with V(v) = sum_g v_g V_g built from the hand-written chart fields
    zero = Polynomial.zero()
    alg = symmetry_algebra(eq)
    assert alg.dim > 0 and alg.dim < alg.ambient_dim
    gens = chart_fields(alg.n)

    def field(v, poly):
        return sum((c * g.apply(poly) for c, g in zip(v, gens) if c), zero)

    names = chart_vars(alg.n)
    images = [{var: field(v, Polynomial.variable(var)) for var in names} for v in alg.basis]
    c = alg.structure_constants
    for a, b in product(range(alg.dim), repeat=2):
        for var in names:
            lhs = field(alg.basis[a], images[b][var]) - field(alg.basis[b], images[a][var])
            rhs = sum((x * images[k][var] for k, x in enumerate(c[a][b]) if x), zero)
            assert lhs == rhs, (a, b, var)


def test_symmetry_algebra_invariant_under_equation_scaling():
    rng = Random(61)
    eqs = [catalog.husain(), catalog.general_heavenly(), catalog.first_heavenly()]
    # a 3D equation with non-integral coordinates
    eqs.append(MAEquation.from_coords(3, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                          for _ in range(minor_basis(3).dimension)]))
    for eq in eqs:
        alg = symmetry_algebra(eq)
        for scale in (Fraction(7, 3), Fraction(-2, 5)):
            scaled = symmetry_algebra(eq.scaled(scale))
            assert scaled.basis == alg.basis
            assert scaled.eigenvalues == alg.eigenvalues


def test_subalgebra_invariants_computed_once(monkeypatch):
    from heavenly import liesp

    alg = symmetry_algebra(catalog.husain())
    calls = []
    for name in ("center", "derived_subalgebra"):
        original = getattr(liesp, name)
        monkeypatch.setattr(liesp, name,
                            lambda a, name=name, f=original: calls.append(name) or f(a))
    first = alg.describe()
    assert alg.describe() == first
    assert is_reductive(alg) is False
    assert sorted(calls) == ["center", "derived_subalgebra"]
    assert first["center-dimension"] == len(center(alg))


# (dimension, center dimension, derived dimension, reductive) of each stabilizer
DESCRIBE_PINS = {
    "first-heavenly": (13, 0, 12, False), "general-heavenly": (12, 0, 12, True),
    "hess": (15, 0, 15, True), "hess-3d": (8, 0, 8, True),
    "hess-3d-elliptic": (8, 0, 8, True), "hess-3d-hyperbolic": (8, 0, 8, True),
    "husain": (12, 0, 12, False), "kahler": (9, 0, 8, False),
    "laplace": (9, 0, 8, False), "laplace-4d": (16, 0, 15, False),
    "linear-wave": (16, 0, 15, False), "modified-heavenly": (13, 0, 12, False),
    "second-heavenly": (14, 0, 13, False),
}


@pytest.mark.parametrize("name", catalog.builtin_names())
def test_describe_pins_every_builtin(name):
    report = symmetry_algebra(catalog.builtin_equation(name)).describe()
    assert (report["dimension"], report["center-dimension"], report["derived-dimension"],
            report["reductive"]) == DESCRIBE_PINS[name]


def test_structure_constants_bracket_each_unordered_pair_once(monkeypatch):
    from heavenly import liesp

    calls = []
    original = liesp._commutator
    monkeypatch.setattr(liesp, "_commutator", lambda m, w: calls.append(1) or original(m, w))
    stabilizer = symmetry_algebra(catalog.husain())
    alg = LieSubalgebra(stabilizer.n, stabilizer.basis, stabilizer.eigenvalues)
    first = alg.describe()
    assert len(calls) == 12 * 11 // 2
    assert alg.describe() == first
    assert len(calls) == 66
