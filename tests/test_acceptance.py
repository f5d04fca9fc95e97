"""Acceptance suite: one test per criterion, exact values throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Everything is exact rational arithmetic; sampling-based
criteria run at the pinned seed below and are fully deterministic.
"""

from fractions import Fraction
from random import Random

from dense import dense
from exterior import pullback_to_equation, symplectic_form
from pencil import sl2_transform, tangency_points
from tables import (
    EXPECTED_LAMBDA_ZERO,
    EXPECTED_SYMMETRY_DIMS,
    LAPLACE_3D_GENERATORS,
    PRINTED_GENERATORS,
    sp_table,
    table_equation,
)
from vector_fields import chart_fields, invariance_eigenvalue
from wedged import wedge_b_matrix, wedge_lift

from heavenly import catalog
from heavenly.grassmann import (
    MAEquation,
    chart_vars,
    decompose,
    minor_basis,
    partial_legendre,
    ucoord,
    uvar,
)
from heavenly.integrability import (
    CASES,
    Linearisability,
    QuarticPair,
    ReductionSample,
    Verdict,
    classify_quartic_pair,
    ef_basis,
    ef_coordinates,
    integrable_4d,
    linearisable_3d,
    travelling_wave_reduce,
)
from heavenly.laxpair import LaxField, catalog_pair, verify_lax
from heavenly.linalg import rank_kernel
from heavenly.liesp import (
    action_matrices,
    b_omega_lambda,
    is_reductive,
    sp_generators,
    symmetry_algebra,
)
from heavenly.quartic import BinaryQuartic, multiplicity_pattern, quartic_invariants

SEED = 8128


def announce(number, text):
    print(f"PASS criterion {number}: {text}")


def quartic(*coeffs):
    return BinaryQuartic.from_coeffs(coeffs)


def test_criterion_1_minor_space_dimensions():
    b3 = minor_basis(3)
    assert b3.dimension == 14
    assert b3.per_degree_dims == (1, 6, 6, 1)
    b4 = minor_basis(4)
    assert b4.dimension == 42
    assert b4.per_degree_dims == (1, 10, 20, 10, 1)
    announce(1, "minor-span dimensions N=14 (1,6,6,1) and N=42 (1,10,20,10,1)")


def test_criterion_2_symmetry_dimensions_and_printed_generators():
    dims = {}
    for name in catalog.NORMAL_FORMS:
        dims[name] = symmetry_algebra(catalog.builtin_equation(name)).dim
    assert dims == EXPECTED_SYMMETRY_DIMS
    labels = [g.label for g in sp_generators(4)]
    for name, rows in PRINTED_GENERATORS.items():
        eq = table_equation(name)
        for terms in rows:
            vector = [Fraction(0)] * len(labels)
            for coeff, label in terms:
                vector[labels.index(label)] += Fraction(coeff)
            assert invariance_eigenvalue(eq, vector) is not None, (name, terms)
    announce(2, "stabilizer dimensions 16/14/13/13/12/12 and every printed "
                "generator satisfies the invariance condition")


def test_criterion_3_lambda_invariants():
    for name, expected in EXPECTED_LAMBDA_ZERO.items():
        lambda_zero, _ = b_omega_lambda(catalog.builtin_equation(name))
        assert lambda_zero == expected, name
    announce(3, "lambda vanishes exactly for linear wave, second and modified "
                "heavenly, and is nonzero for first heavenly, Husain, general heavenly")


def test_criterion_4_reductivity():
    assert is_reductive(symmetry_algebra(catalog.general_heavenly())) is True
    assert is_reductive(symmetry_algebra(catalog.husain())) is False
    announce(4, "general heavenly stabilizer reductive, Husain stabilizer not")


def test_criterion_5_lax_verification():
    for name in ("second-heavenly", "modified-heavenly", "first-heavenly", "husain"):
        x1, x2, mode = catalog_pair(name)
        assert mode == "strict"
        result = verify_lax(x1, x2, catalog.builtin_equation(name),
                            "strict", trials=20, seed=SEED)
        assert result.passed, (name, result.witness)
    x1, x2, mode = catalog_pair("general-heavenly")
    assert mode == "mod-span"
    result = verify_lax(x1, x2, catalog.general_heavenly(), "mod-span",
                        trials=20, seed=SEED)
    assert result.passed, result.witness
    f1, f2, _ = catalog_pair("first-heavenly")
    flipped = LaxField.from_components(
        [f2.components[0], f2.components[1], -1 * f2.components[2], f2.components[3]])
    bad = verify_lax(f1, flipped, catalog.first_heavenly(), "strict",
                     trials=20, seed=SEED)
    assert not bad.passed and bad.witness is not None
    announce(5, "four strict pairs and the mod-span pair verify over 20 trials; "
                "the sign-flipped pair fails with a witness")


def test_criterion_6_integrability_decisions():
    for name in catalog.NORMAL_FORMS:
        report = integrable_4d(catalog.builtin_equation(name), seed=SEED)
        if name == "linear-wave":
            assert report.verdict is Verdict.LINEARISABLE
        else:
            assert report.verdict is Verdict.INTEGRABLE, (name, report.failing_sample)
        assert report.failing_sample is None
    hess = integrable_4d(catalog.hess_equation(4), seed=SEED)
    assert hess.verdict is Verdict.NOT_INTEGRABLE
    assert hess.failing_sample is not None
    assert hess.singular_dim == 4
    assert hess.meets_all is False
    announce(6, "all six normal forms integrable (linear wave linearisable) over "
                "50 reductions each; Hess u = 1 refuted with singular dimension 4 "
                "and a missed sub-Grassmannian")


def test_criterion_7_three_dimensional_theory():
    laplace = catalog.laplace(3)
    assert linearisable_3d(laplace, seed=SEED) is Linearisability.LINEARISABLE
    assert symmetry_algebra(laplace).dim == 9
    labels = [g.label for g in sp_generators(3)]
    for terms in LAPLACE_3D_GENERATORS:
        vector = [Fraction(0)] * len(labels)
        for coeff, label in terms:
            vector[labels.index(label)] += Fraction(coeff)
        assert invariance_eigenvalue(laplace, vector) is not None
    for eq in (catalog.hess_equation(3), catalog.hess_elliptic_3d(),
               catalog.hess_hyperbolic_3d()):
        assert linearisable_3d(eq, seed=SEED) is Linearisability.NOT_LINEARISABLE
    announce(7, "3D Laplace linearisable with the full 9-dimensional stabilizer; "
                "all three canonical nonlinear 3D forms are not")


CASE_PAIRS = {
    1: (quartic(2, -1, -2, 1), quartic(2, -1, -2, 1)),
    2: (quartic(-1, 0, 1), quartic(-1, 0, 1)),
    3: (quartic(-1, 0, 1), quartic(0, 0, 1)),
    4: (quartic(0, 0, 1), quartic(0, 0, 1)),
    5: (quartic(0, 1), quartic(0, 1)),
    6: (quartic(0, 1), quartic(1)),
    7: (quartic(1), quartic(1)),
    8: (quartic(0, -1, 0, 1), quartic(0)),
    9: (quartic(0, 1), quartic(0)),
    10: (quartic(1), quartic(0)),
}


def test_criterion_8_classification_pipeline():
    # ten-dimensionality of the doubly tangent quadratic space
    basis = minor_basis(4)
    quad_slice = list(basis.degree_slice(2))
    _, third = tangency_points()
    point = {v: Fraction(third[int(v[1]) - 1][int(v[2]) - 1]) for v in chart_vars(4)}
    rows = []
    for k in quad_slice:
        poly = basis.basis_polys[k]
        row = [poly.evaluate(point)]
        for a in range(1, 5):
            for b in range(a, 5):
                row.append(poly.partial(ucoord(a, b)).evaluate(point))
        rows.append(row)
    conditions = [[rows[i][j] for i in range(len(quad_slice))] for j in range(11)]
    _, kernel = rank_kernel(conditions)
    assert len(kernel) == 10
    # all ten rows reproduce through reconstruction + decomposition
    for case, (p, q) in CASE_PAIRS.items():
        pair = QuarticPair(p, q)
        back = ef_coordinates(pair.reconstruct())
        assert back.p.coeffs() == p.coeffs() and back.q.coeffs() == q.coeffs()
        result = classify_quartic_pair(back)
        assert result.case == case and result.name == CASES[case][0], case
    # the harmonic merge: t^4 - 1 against zero also lands in case 8
    i_inv, j_inv, disc = quartic_invariants(quartic(-1, 0, 0, 0, 1))
    assert j_inv == 0 and disc != 0
    merged = classify_quartic_pair(QuarticPair(quartic(-1, 0, 0, 0, 1), quartic(0)))
    assert merged.case == 8
    announce(8, "all ten case rows reproduced from reconstructed quadratics, "
                "case-8 harmonic merge included, tangent space is 10-dimensional")


def test_criterion_9_reduction_formula():
    eq = catalog.first_heavenly()
    rng = Random(SEED)
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        reduced = travelling_wave_reduce(eq, ReductionSample.zero((a, b, c)))
        expected = (a * (uvar(1, 2) * uvar(1, 3) - uvar(1, 1) * uvar(2, 3))
                    + b * (uvar(1, 3) * uvar(2, 2) - uvar(1, 2) * uvar(2, 3)) - 1)
        assert reduced.poly == expected
    announce(9, "travelling-wave reduction of the first heavenly equation matches "
                "the closed form for 20 random directions")


def test_criterion_10_legendre_normalizations():
    e, f = ef_basis()
    case7 = MAEquation.from_poly(4, e[0] - f[0])
    assert partial_legendre(case7, [1]).poly == uvar(2, 2) - uvar(3, 3)
    case10 = MAEquation.from_poly(4, e[0])
    assert partial_legendre(case10, [1]).poly == uvar(2, 2)
    case8 = MAEquation.from_poly(4, e[4] - e[0])
    assert partial_legendre(case8, [1, 2]).poly == catalog.hess_poly(4) - 1
    kahler = catalog.kahler_potential()
    moved = partial_legendre(kahler, [3])
    assert moved.poly == uvar(1, 1) + uvar(2, 2) + uvar(3, 3) - 1
    assert moved.poly.degree() == 1
    announce(10, "case 7 and 10 quadratics map to multiples of u22 = u33 and "
                 "u22 = 0, case 8 maps to Hess u = 1, the Kahler example linearises")


def test_criterion_11_property_suites():
    # span preservation under all 36 corrected generator actions
    basis = minor_basis(4)
    for g in chart_fields(4):
        for p in basis.basis_polys:
            decompose(g.corrected(p), basis)
    # legendre involution up to scale on sampled equations
    rng = Random(SEED)
    for n in (2, 3):
        b = minor_basis(n)
        for _ in range(2):
            coords = [Fraction(rng.randint(-3, 3)) for _ in range(b.dimension)]
            if not any(coords):
                coords[0] = Fraction(1)
            eq = MAEquation.from_coords(n, coords)
            for s in ([1], list(range(1, n + 1))):
                twice = partial_legendre(partial_legendre(eq, s), s)
                assert twice.poly == eq.poly.monic()
    # bracket closure of the action matrices against the structure constants
    mats = [dense(m) for m in action_matrices(3)]
    table = sp_table(3)
    for p, q in ((0, 8), (3, 14), (10, 20), (5, 17)):
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
    # SL(2)-invariance of patterns and invariants
    shear = Random(SEED + 1)
    for coeffs in ((1,), (0, 1), (-1, 0, 1), (0, -1, 0, 1), (3, 1, 0, 0, 2)):
        p = quartic(*coeffs)
        base_pattern = multiplicity_pattern(p)
        base_inv = quartic_invariants(p)
        a, b, c, d = 1, 0, 0, 1
        for _ in range(4):
            k = shear.randint(-3, 3)
            if shear.random() < 0.5:
                a, b, c, d = a + k * c, b + k * d, c, d
            else:
                a, b, c, d = a, b, c + k * a, d + k * b
        moved = sl2_transform(p, a, b, c, d)
        assert multiplicity_pattern(moved) == base_pattern
        assert quartic_invariants(moved) == base_inv
    # effectiveness of lifts, and the wedge pairing is lambda * Omega
    omega = symplectic_form(4)
    for name in catalog.NORMAL_FORMS:
        eq = catalog.builtin_equation(name)
        lift = wedge_lift(eq)
        assert lift.wedge(omega).is_zero()
        assert pullback_to_equation(lift, basis).coords == eq.coords
        assert b_omega_lambda(eq)[1] == wedge_b_matrix(eq)
    announce(11, "module property suites: span preservation, Legendre involution, "
                 "bracket closure, SL(2) invariance, effective lifts, pairing shape")
