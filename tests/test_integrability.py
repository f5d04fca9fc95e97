"""Reductions, integrability verdicts, quartic-pair classification, fingerprints."""

import json
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from heavenly import catalog
from heavenly.errors import InvariantViolation, NoSamplePoint, NotInEF, ZeroReduction
from heavenly.grassmann import (
    MAEquation,
    chart_vars,
    minor_basis,
    partial_legendre,
    pullback_coords,
    pullback_walk,
    translate,
    ucoord,
    uvar,
)
from heavenly.integrability import (
    CASES,
    IDENTITY_VARS,
    Linearisability,
    QuarticPair,
    ReductionSample,
    Verdict,
    classify_quartic_pair,
    ef_basis,
    ef_coordinates,
    find_quadratic_chart,
    freudenthal_quartic,
    identify_equation,
    integrable_4d,
    linearisable_3d,
    travelling_wave_reduce,
)
from heavenly.integrability import _exponents, _packed_coords, _sixteen_q, _terms
from heavenly.linalg import clear_row, mat_vec, rank_kernel
from heavenly.liesp import action_matrices, nondegenerate, symmetry_algebra
from heavenly.poly import Polynomial
from heavenly.quartic import BinaryQuartic
from pencil import sl2_transform, tangency_points
from sampled import PERMUTATIONS, random_sample, sampled_integrable


def quartic(*coeffs):
    return BinaryQuartic.from_coeffs(coeffs)


def permute_equation(eq, perm):
    """Relabel chart indices by the permutation (1-based images): u_ab goes to
    u_{perm(a) perm(b)}, a signed permutation of the raw minors."""
    return MAEquation.from_coords(eq.n, pullback_coords(eq, perm))


def as_polynomial(c):
    """An int or a packed element of the reduction identity's ring as a
    Polynomial in `IDENTITY_VARS`."""
    return Polynomial({tuple((v, e) for v, e in zip(IDENTITY_VARS, _exponents(m)) if e): x
                       for m, x in _terms(c).items()})


def reduction_coords(eq):
    """R(k, t) c as Polynomials in `IDENTITY_VARS`: a view of the packed
    coordinates the reduction identity runs on."""
    return [as_polynomial(c) for c in _packed_coords(eq)]


CASE_PAIRS = {
    1: (quartic(2, -1, -2, 1), quartic(2, -1, -2, 1)),  # (t^2-1)(t-2) twice
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


def test_reduction_matches_closed_form():
    # reduced first heavenly: a (u12 u13 - u11 u23) + b (u13 u22 - u12 u23) = 1
    eq = catalog.first_heavenly()
    rng = Random(20)
    for _ in range(20):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        reduced = travelling_wave_reduce(eq, ReductionSample.zero((a, b, c)))
        expected = (a * (uvar(1, 2) * uvar(1, 3) - uvar(1, 1) * uvar(2, 3))
                    + b * (uvar(1, 3) * uvar(2, 2) - uvar(1, 2) * uvar(2, 3)) - 1)
        assert reduced.poly == expected


def test_reduction_matches_matrix_oracle():
    # oracle: U = J^T W J + 2Q with J = [I | k] built by matrix products
    rng = Random(33)
    for name in ("second-heavenly", "husain"):
        eq = catalog.builtin_equation(name)
        for _ in range(5):
            sample = random_sample(rng)
            j = [[Fraction(int(c == a)) for a in range(3)] + [sample.k[c]]
                 for c in range(3)]
            mapping = {}
            for a in range(1, 5):
                for b in range(a, 5):
                    total = Polynomial.constant(2 * sample.q[a - 1][b - 1])
                    for c in range(3):
                        for d in range(3):
                            coeff = j[c][a - 1] * j[d][b - 1]
                            if coeff:
                                total = total + coeff * uvar(c + 1, d + 1)
                    mapping[ucoord(a, b)] = total
            expected = eq.poly.subs(mapping)
            assert travelling_wave_reduce(eq, sample).poly == expected


def test_reduction_of_linear_equation_is_linear():
    eq = catalog.linear_wave()
    rng = Random(4)
    out = travelling_wave_reduce(eq, random_sample(rng))
    assert out.n == 3 and out.poly.degree() <= 1


def test_reduction_of_hess_decomposes():
    eq = catalog.hess_equation(4)
    rng = Random(5)
    out = travelling_wave_reduce(eq, random_sample(rng))
    assert out.n == 3  # from_poly validates span membership
    # degenerate direction: zero k and Q kill every minor through column 4
    flat = travelling_wave_reduce(eq, ReductionSample.zero())
    assert flat.poly == Polynomial.constant(-1)


def test_linearisable_3d_examples():
    assert linearisable_3d(catalog.laplace(3)) is Linearisability.LINEARISABLE
    assert linearisable_3d(catalog.kahler_potential()) is Linearisability.LINEARISABLE
    for eq in (catalog.hess_equation(3), catalog.hess_elliptic_3d(),
               catalog.hess_hyperbolic_3d()):
        assert linearisable_3d(eq) is Linearisability.NOT_LINEARISABLE


def test_reduced_first_heavenly_linearisable():
    eq = catalog.first_heavenly()
    reduced = travelling_wave_reduce(eq, ReductionSample.zero((1, 1, 0)))
    assert linearisable_3d(reduced) is Linearisability.LINEARISABLE


def test_degenerate_reduction_reported():
    # u44 = 0 reduces to a constant-free zero polynomial along k = 0, Q = 0
    from heavenly.errors import ZeroReduction

    eq = MAEquation.from_poly(4, uvar(4, 4))
    with pytest.raises(ZeroReduction):
        travelling_wave_reduce(eq, ReductionSample.zero())


@pytest.mark.parametrize("name", list(catalog.NORMAL_FORMS))
def test_integrable_4d_normal_forms(name):
    report = integrable_4d(catalog.builtin_equation(name), seed=7)
    if name == "linear-wave":
        assert report.verdict is Verdict.LINEARISABLE
        assert report.osculating_flip is not None
    else:
        assert report.verdict is Verdict.INTEGRABLE
        assert report.singular_dim == 4 and report.meets_all is True
    assert report.failing_sample is None


def test_integrable_4d_hess_counterexample():
    report = integrable_4d(catalog.hess_equation(4), seed=7)
    assert report.verdict is Verdict.NOT_INTEGRABLE
    assert report.failing_sample is not None
    assert report.quadratic_flip == (1, 2)
    assert report.singular_dim == 4 and report.meets_all is False


def test_integrable_4d_degenerate_input():
    eq = MAEquation.from_poly(4, uvar(1, 1) * uvar(2, 2) - uvar(1, 2) ** 2)
    report = integrable_4d(eq, seed=1)
    assert report.verdict is Verdict.DEGENERATE


def test_ef_basis_tangency_conditions():
    # quadratic span elements tangent at both extra base points form a
    # ten-dimensional space spanned exactly by the two pentads
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
    e, f = ef_basis()
    span_rows = kernel
    from heavenly.linalg import in_row_space
    from heavenly.grassmann import decompose

    for poly in e + f:
        coords = decompose(poly, basis)
        vec = [coords[k] for k in quad_slice]
        assert in_row_space(span_rows, vec) is not None


def test_ef_polys_vanish_doubly_at_chart_infinity():
    # via the full Legendre flip, second-order vanishing at the infinity
    # point means the image is again a pure quadratic
    e, f = ef_basis()
    for poly in e + f:
        moved = partial_legendre(MAEquation.from_poly(4, poly), [1, 2, 3, 4])
        assert moved.poly.is_homogeneous(2)


def test_ef_coordinates_examples():
    e, f = ef_basis()
    pair = ef_coordinates(MAEquation.from_poly(4, e[0]))
    assert pair.p.coeffs() == [1, 0, 0, 0, 0] and pair.q.is_zero()
    combo = MAEquation.from_poly(4, e[2] - e[0] - f[2])
    pair = ef_coordinates(combo)
    assert pair.p.coeffs() == [-1, 0, 1, 0, 0]
    assert pair.q.coeffs() == [0, 0, 1, 0, 0]
    for outside in (catalog.first_heavenly(), catalog.husain()):
        with pytest.raises(NotInEF):
            ef_coordinates(outside)


def test_ef_round_trip_random():
    rng = Random(9)
    for _ in range(10):
        p = quartic(*[Fraction(rng.randint(-4, 4)) for _ in range(5)])
        q = quartic(*[Fraction(rng.randint(-4, 4)) for _ in range(5)])
        if p.is_zero() and q.is_zero():
            continue
        pair = QuarticPair(p, q)
        back = ef_coordinates(pair.reconstruct())
        assert back.p.coeffs() == p.coeffs() and back.q.coeffs() == q.coeffs()


@pytest.mark.parametrize("case", sorted(CASE_PAIRS))
def test_case_table(case):
    p, q = CASE_PAIRS[case]
    result = classify_quartic_pair(QuarticPair(p, q))
    assert result.case == case
    assert result.name == CASES[case][0]


def test_case8_harmonic_merge():
    merged = classify_quartic_pair(QuarticPair(quartic(-1, 0, 0, 0, 1), quartic(0)))
    assert merged.case == 8
    # non-harmonic quartic with four distinct roots paired with zero: not in the table
    odd = classify_quartic_pair(QuarticPair(quartic(0, 2, -1, -2, 1), quartic(0)))
    assert odd.case is None and odd.name == "unrecognized"


def test_unrecognized_pairs_report_dimension():
    result = classify_quartic_pair(QuarticPair(quartic(0, 0, 1), quartic(0)))
    assert result.case is None
    assert result.singular_dim is not None and result.singular_dim != 4


def test_case1_records_j_invariants():
    result = classify_quartic_pair(QuarticPair(*CASE_PAIRS[1]))
    assert result.case == 1
    assert result.singular_dim == 4
    assert result.j_invariants is not None
    assert result.j_invariants[0] == result.j_invariants[1]


def test_classification_sl2_invariant():
    rng = Random(14)
    for case in (2, 3, 5, 8):
        p, q = CASE_PAIRS[case]
        base = classify_quartic_pair(QuarticPair(p, q)).case
        for _ in range(3):
            def shear():
                a, b, c, d = 1, 0, 0, 1
                for _ in range(3):
                    k = rng.randint(-2, 2)
                    if rng.random() < 0.5:
                        a, b, c, d = a + k * c, b + k * d, c, d
                    else:
                        a, b, c, d = a, b, c + k * a, d + k * b
                return a, b, c, d
            tp = sl2_transform(p, *shear()) if not p.is_zero() else p
            tq = sl2_transform(q, *shear()) if not q.is_zero() else q
            assert classify_quartic_pair(QuarticPair(tp, tq)).case == base


def test_case_swap_symmetric():
    p, q = CASE_PAIRS[3]
    assert classify_quartic_pair(QuarticPair(q, p)).case == 3


def test_mixed_double_triple_pair_unrecognized():
    # (t^2, t) is not one of the ten cases; its reconstruction has a small
    # singular slice and a 4-dimensional stabilizer, so nothing matches
    result = classify_quartic_pair(QuarticPair(quartic(0, 0, 1), quartic(0, 1)))
    assert result.case is None and result.name == "unrecognized"


def test_legendre_normalizations_of_cases():
    e, f = ef_basis()
    # case 7: p = q = 1 -> a multiple of u22 = u33
    case7 = MAEquation.from_poly(4, e[0] - f[0])
    out = partial_legendre(case7, [1])
    assert out.poly == uvar(2, 2) - uvar(3, 3)
    # case 10: p = 1, q = 0 -> a multiple of u22 = 0
    case10 = MAEquation.from_poly(4, e[0])
    assert partial_legendre(case10, [1]).poly == uvar(2, 2)
    # case 8 through its harmonic representative: -E0 + E4 -> Hess u = 1
    case8 = MAEquation.from_poly(4, e[4] - e[0])
    moved = partial_legendre(case8, [1, 2])
    assert moved.poly == catalog.hess_poly(4) - 1


def test_reconstructed_cases_identify_as_normal_forms():
    expected = {
        1: "general heavenly",
        2: "Husain",
        3: "first heavenly",
        5: "modified heavenly",
        6: "second heavenly",
        9: "linear wave",
    }
    for case, name in expected.items():
        eq = QuarticPair(*CASE_PAIRS[case]).reconstruct()
        found, _ = identify_equation(eq)
        assert found == name, (case, found)


def test_identify_normal_forms_and_hess():
    names = {
        "linear-wave": "linear wave",
        "second-heavenly": "second heavenly",
        "modified-heavenly": "modified heavenly",
        "first-heavenly": "first heavenly",
        "husain": "Husain",
        "general-heavenly": "general heavenly",
    }
    for builtin, expected in names.items():
        found, fp = identify_equation(catalog.builtin_equation(builtin))
        assert found == expected
        assert fp.nondegenerate
    found, fp = identify_equation(catalog.hess_equation(4))
    assert found is None


@pytest.mark.parametrize("case", sorted(CASE_PAIRS))
def test_classify_routes_agree_on_every_base_pair(capsys, case):
    # the case's verdict is the reduction identity's, and its normal-form
    # name (none for cases 4, 7, 8 and 10) is the fingerprint's
    from heavenly.cli import main

    eq = QuarticPair(*CASE_PAIRS[case]).reconstruct()
    assert main(["classify", f"--expr={eq.poly}", "--n", "4", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quartic-pair"]["case"] == case
    assert report["integrability"]["verdict"] == CASES[case][1].value
    assert report["routes-agree"] is True


def test_degenerate_cases_identify_as_unknown():
    for case in (4, 7, 10):
        eq = QuarticPair(*CASE_PAIRS[case]).reconstruct()
        found, fp = identify_equation(eq)
        assert found is None
        assert fp.nondegenerate is False


def test_permute_equation_preserves_span():
    eq = catalog.second_heavenly()
    out = permute_equation(eq, (2, 1, 4, 3))
    assert out.n == 4
    back = permute_equation(out, (2, 1, 4, 3))
    assert back.poly == eq.poly


def test_find_quadratic_chart_for_husain():
    found = find_quadratic_chart(catalog.husain())
    assert found is not None
    flip, moved, dim, kernel = found
    assert moved.poly.is_homogeneous(2)
    assert dim == 4 and len(kernel) == 4


def test_reduction_with_permutation_equals_permuted_reduction():
    from itertools import permutations

    from heavenly.errors import ZeroReduction

    rng = Random(59)
    for eq in (catalog.husain(), catalog.general_heavenly()):
        for perm in permutations((1, 2, 3, 4)):
            sample = random_sample(rng)
            try:
                expected = travelling_wave_reduce(permute_equation(eq, perm), sample)
            except ZeroReduction:
                with pytest.raises(ZeroReduction):
                    travelling_wave_reduce(eq, sample, perm)
                continue
            assert travelling_wave_reduce(eq, sample, perm) == expected


def subs_reduce(eq, sample, perm=(1, 2, 3, 4)):
    """Reference: the reduction as it was computed before the raw-minor map,
    by substituting the images of the u_ab into the polynomial and
    decomposing the result over the 3D basis."""
    from heavenly.errors import ZeroReduction

    k, q = sample.k, sample.q
    image = {}
    for a in range(1, 4):
        for b in range(a, 4):
            image[ucoord(a, b)] = uvar(a, b) + 2 * q[a - 1][b - 1]
    for a in range(1, 4):
        img = Polynomial.constant(2 * q[a - 1][3])
        for b in range(1, 4):
            if k[b - 1]:
                img = img + k[b - 1] * uvar(a, b)
        image[ucoord(a, 4)] = img
    img44 = Polynomial.constant(2 * q[3][3])
    for a in range(1, 4):
        for b in range(1, 4):
            if k[a - 1] and k[b - 1]:
                img44 = img44 + k[a - 1] * k[b - 1] * uvar(a, b)
    image[ucoord(4, 4)] = img44
    mapping = {ucoord(a, b): image[ucoord(perm[a - 1], perm[b - 1])]
               for a in range(1, 5) for b in range(a, 5)}
    reduced = eq.poly.subs(mapping)
    if reduced.is_zero():
        raise ZeroReduction("reduction vanished identically in this direction")
    return MAEquation.from_poly(3, reduced)


def subs_permute(eq, perm):
    """Reference: the relabelling as a substitution u_ab -> u_{perm(a) perm(b)}."""
    mapping = {ucoord(a, b): uvar(perm[a - 1], perm[b - 1])
               for a in range(1, eq.n + 1) for b in range(a, eq.n + 1)}
    return MAEquation.from_poly(eq.n, eq.poly.subs(mapping))


def sheared_pair_equations(rng, count):
    """Reconstructed quartic pairs under random SL(2, Z) shears of p and q."""
    def shear(quartic):
        a, b, c, d = 1, 0, 0, 1
        for _ in range(3):
            t = rng.randint(-2, 2)
            if rng.random() < 0.5:
                a, b = a + t * c, b + t * d
            else:
                c, d = c + t * a, d + t * b
        return sl2_transform(quartic, a, b, c, d) if not quartic.is_zero() else quartic
    cases = rng.sample(sorted(CASE_PAIRS), count)
    return [QuarticPair(shear(CASE_PAIRS[c][0]), shear(CASE_PAIRS[c][1])).reconstruct()
            for c in cases]


def reduction_samples(rng):
    """A random sample, one with zero direction entries, one with Q = 0, one
    with a non-integral shift such as `reduce --q` accepts, and k = Q = 0."""
    def q_matrix(denominators):
        q = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                q[i][j] = q[j][i] = Fraction(rng.randint(-4, 4), rng.choice(denominators))
        return q
    k = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
    k_zeros = [x if rng.random() < 0.4 else Fraction(0) for x in k]
    return [random_sample(rng),
            ReductionSample.from_values(k_zeros, q_matrix((1, 2))),
            ReductionSample.zero(k),
            ReductionSample.from_values(k, q_matrix((3, 5, 7))),
            ReductionSample.zero()]


def test_reduction_matches_substitution_reference():
    from itertools import permutations

    from heavenly.errors import ZeroReduction
    from heavenly.grassmann import translate

    rng = Random(83)
    builtins = [catalog.builtin_equation(name) for name in catalog.builtin_names()
                if catalog.builtin_equation(name).n == 4]
    shift = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
    shift = [[shift[min(i, j)][max(i, j)] for j in range(4)] for i in range(4)]
    equations = (builtins
                 + [partial_legendre(catalog.husain(), (1, 3)),
                    partial_legendre(catalog.general_heavenly(), (2,))]
                 + [translate(catalog.first_heavenly(), shift),
                    translate(catalog.modified_heavenly(), shift)]
                 + sheared_pair_equations(rng, 3)
                 + [MAEquation.from_poly(4, uvar(4, 4)),
                    MAEquation.from_poly(4, uvar(1, 4) * uvar(2, 4) - uvar(1, 2) * uvar(4, 4))])
    zeros = 0
    for eq in equations:
        for i, perm in enumerate(permutations((1, 2, 3, 4))):
            sample = reduction_samples(rng)[i % 5]
            try:
                expected = subs_reduce(eq, sample, perm)
            except ZeroReduction:
                zeros += 1
                with pytest.raises(ZeroReduction):
                    travelling_wave_reduce(eq, sample, perm)
                continue
            assert travelling_wave_reduce(eq, sample, perm) == expected
        perm = tuple(rng.sample((1, 2, 3, 4), 4))
        assert permute_equation(eq, perm) == subs_permute(eq, perm)
    assert zeros > 0


def test_integrable_4d_makes_no_substitution(monkeypatch):
    calls = []
    original = Polynomial.subs

    def counting(self, mapping):
        calls.append(mapping)
        return original(self, mapping)

    monkeypatch.setattr(Polynomial, "subs", counting)
    integrable_4d(catalog.husain())
    assert calls == []


def test_integrable_4d_makes_no_3d_stabilizer_solve(monkeypatch):
    from heavenly import integrability, liesp

    dims = []
    original = liesp.symmetry_algebra

    def counting(eq):
        dims.append(eq.n)
        return original(eq)

    monkeypatch.setattr(liesp, "symmetry_algebra", counting)
    monkeypatch.setattr(integrability, "symmetry_algebra", counting)
    integrable_4d(catalog.husain())
    assert dims == [4]


# -- the Freudenthal quartic -------------------------------------------------


def quartic_test_equations(rng):
    """Seeded reductions of the 4D builtins, the 3D builtins, and random
    integer-coordinate 3D equations, some of them sparse."""
    from itertools import permutations

    perms = list(permutations((1, 2, 3, 4)))
    eqs = []
    for name in catalog.builtin_names():
        eq = catalog.builtin_equation(name)
        if eq.n == 3:
            eqs.append(eq)
            continue
        for _ in range(8):
            try:
                eqs.append(travelling_wave_reduce(eq, random_sample(rng),
                                                  rng.choice(perms)))
            except ZeroReduction:
                pass
    for _ in range(40):
        density = rng.choice([(0, 0, 0, 1), (0, 1), (1,)])
        coords = [rng.randint(-3, 3) * rng.choice(density) for _ in range(14)]
        coords[rng.randrange(14)] = rng.randint(1, 3)
        eqs.append(MAEquation.from_coords(3, coords))
    return eqs


def test_freudenthal_quartic_is_sp6_invariant():
    # d/dt q(c + t v) at t = 0 from five exact values; q(c + t v) has degree 4
    # in t, for which the central difference is exact
    rng = Random(17)
    for _ in range(6):
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(14)]
        for table in action_matrices(3):
            v = mat_vec(table, c)
            f = {t: freudenthal_quartic([x + t * y for x, y in zip(c, v)])
                 for t in (-2, -1, 1, 2)}
            assert f[-2] - 8 * f[-1] + 8 * f[1] - f[2] == 0
    assert len(action_matrices(3)) == 21


def test_freudenthal_quartic_zero_iff_stabilizer_dim_9():
    rng = Random(23)
    seen = {True: 0, False: 0}
    for eq in quartic_test_equations(rng):
        try:
            if not nondegenerate(eq, seed=5):
                continue
        except NoSamplePoint:
            continue
        zero = freudenthal_quartic(clear_row(eq.coords)) == 0
        assert zero == (symmetry_algebra(eq).dim == 9), str(eq)
        seen[zero] += 1
    assert seen[True] >= 10 and seen[False] >= 10


def test_freudenthal_quartic_zero_set_is_preserved_by_sp6_moves():
    from itertools import permutations

    rng = Random(29)
    eqs = quartic_test_equations(rng)
    for eq in eqs:
        zero = freudenthal_quartic(eq.coords) == 0
        u0 = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                u0[i][j] = u0[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        flip = rng.sample((1, 2, 3), rng.randint(1, 3))
        for moved in (translate(eq, u0),
                      permute_equation(eq, rng.choice(list(permutations((1, 2, 3))))),
                      partial_legendre(eq, flip)):
            assert (freudenthal_quartic(moved.coords) == 0) == zero, (str(eq), str(moved))
    assert any(freudenthal_quartic(eq.coords) for eq in eqs)
    assert not all(freudenthal_quartic(eq.coords) for eq in eqs)


def test_freudenthal_quartic_is_exact():
    # hand values: Hess u = 1 is c0 = -1, c3 = 1; the elliptic and hyperbolic
    # forms are c3 = 1, C1 = -diag(1, 1, +-1); Laplace and Kahler have q = 0
    expected = {"hess-3d": 1, "hess-3d-elliptic": -4, "hess-3d-hyperbolic": 4,
                "kahler": 0, "laplace": 0}
    for name, value in expected.items():
        eq = catalog.builtin_equation(name)
        for coords in (eq.coords, clear_row(eq.coords), eq.scaled(Fraction(2, 3)).coords):
            q = freudenthal_quartic(coords)
            assert type(q) in (int, Fraction)
            assert (q == 0) == (value == 0)
        assert freudenthal_quartic(eq.coords) == value
    # one coefficient present and the other thirteen missing
    for k in range(14):
        coords = [Fraction(0)] * 14
        coords[k] = Fraction(3, 2)
        q = freudenthal_quartic(MAEquation.from_coords(3, coords).coords)
        assert type(q) in (int, Fraction) and q == 0


# -- the reduction identity ----------------------------------------------------


def sparse_4d_equations(rng, count):
    """Seeded 4D equations with about five small nonzero integer coordinates."""
    eqs = []
    for _ in range(count):
        coords = [rng.randint(-2, 2) * (rng.random() < 0.12) for _ in range(42)]
        coords[rng.randrange(42)] = rng.randint(1, 2)
        eqs.append(MAEquation.from_coords(4, coords))
    return eqs


def sp_moved(rng, eq):
    """eq translated by an integer U0, Legendre-flipped and relabelled."""
    u0 = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            u0[i][j] = u0[j][i] = rng.randint(-2, 2)
    flip = rng.sample((1, 2, 3, 4), rng.randint(1, 2))
    return permute_equation(partial_legendre(translate(eq, u0), flip), rng.sample((1, 2, 3, 4), 4))


BUILTINS_4D = [name for name in catalog.builtin_names() if catalog.builtin_equation(name).n == 4]


def test_degenerate_reductions_have_zero_quartic():
    # the identity counts a degenerate reduction as one with q = 0
    rng = Random(31)
    eqs = quartic_test_equations(rng)
    for _ in range(60):
        coords = [rng.randint(-2, 2) * (rng.random() < 0.2) for _ in range(14)]
        coords[rng.randrange(14)] = 1
        eqs.append(MAEquation.from_coords(3, coords))
    for eq in sparse_4d_equations(rng, 40):
        for _ in range(3):
            try:
                eqs.append(travelling_wave_reduce(eq, random_sample(rng), rng.choice(PERMUTATIONS)))
            except ZeroReduction:
                pass

    def degenerate_or_unsampled(eq, seed):
        # a constant reduction has no point of {F = 0} to sample, and q = 0 too
        try:
            return linearisable_3d(eq, seed=seed) is Linearisability.DEGENERATE
        except NoSamplePoint:
            return True

    degenerate = [eq for eq in eqs if degenerate_or_unsampled(eq, rng.randrange(100))]
    assert [str(eq) for eq in degenerate if freudenthal_quartic(eq.coords)] == []
    assert len(degenerate) >= 30


def test_reduction_identity_matches_sampled_oracle():
    rng = Random(37)
    eqs = [catalog.builtin_equation(name) for name in BUILTINS_4D]
    eqs += [sp_moved(rng, eq) for eq in eqs] + sparse_4d_equations(rng, 30)
    seen = {True: 0, False: 0}
    for eq in eqs:
        report = integrable_4d(eq, seed=3)
        if report.verdict is Verdict.DEGENERATE:
            continue
        sampled, evidence = sampled_integrable(eq, trials=50, seed=rng.randrange(1000))
        assert (report.verdict is not Verdict.NOT_INTEGRABLE) == sampled, str(eq)
        if sampled:
            assert evidence > 0 and report.failing_sample is None
        else:
            failing = report.failing_sample
            assert failing["permutation"] == [1, 2, 3, 4]
            sample = ReductionSample.from_values(failing["k"], failing["q"])
            assert all(x == 0 for row in sample.q[:3] for x in row[:3])
            status = linearisable_3d(travelling_wave_reduce(eq, sample))
            assert status is Linearisability.NOT_LINEARISABLE
            # no lattice point of lower total degree has q != 0
            total = int(sum(sample.k) + 2 * sum(sample.q[3]))
            for m in product(range(total), repeat=7):
                if sum(m) < total:
                    shift = [[0, 0, 0, m[3 + a]] for a in range(3)] + [list(m[3:])]
                    assert freudenthal_quartic(pullback_coords(eq, (), shift, m[:3])) == 0
        seen[sampled] += 1
    assert seen[True] >= 10 and seen[False] >= 10


def test_reduction_coords_match_pullback_coords():
    rng = Random(41)
    eqs = [catalog.builtin_equation(name) for name in BUILTINS_4D]
    for eq in eqs + [sp_moved(rng, eq) for eq in eqs[:3]] + sparse_4d_equations(rng, 5):
        coords = reduction_coords(eq)
        for c in coords:  # bidegree at most (2, 2) in (k, t)
            for mono in c.terms:
                assert sum(e for v, e in mono if v[0] == "k") <= 2
                assert sum(e for v, e in mono if v[0] == "t") <= 2
        scale = next(x / y for x, y in zip(clear_row(eq.coords), eq.coords) if y)
        for _ in range(4):
            point = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for v in IDENTITY_VARS}
            k, t = list(point.values())[:3], list(point.values())[3:]
            shift = [[0, 0, 0, t[a]] for a in range(3)] + [t]
            expected = pullback_coords(eq, (1, 2, 3, 4), shift, k)
            assert [c.evaluate(point) for c in coords] == [scale * x for x in expected]


def test_hess_witness_is_the_first_lattice_point():
    # P = 16 (2 (k1 t1 + k2 t2 + k3 t3) - t4)^2 for Hess u = 1, first nonzero
    # at t4 = 1, that is Q44 = 1/2
    report = integrable_4d(catalog.hess_equation(4))
    zero = ["0"] * 4
    assert report.failing_sample == {"permutation": [1, 2, 3, 4], "k": ["0", "0", "0"],
                                     "q": [zero, zero, zero, ["0", "0", "0", "1/2"]]}


def test_reduction_identity_witness_is_rechecked(monkeypatch):
    from heavenly import integrability

    monkeypatch.setattr(integrability, "freudenthal_quartic", lambda coords: 0)
    with pytest.raises(InvariantViolation):
        integrable_4d(catalog.hess_equation(4))


# -- the packed ring of the reduction identity ---------------------------------


def polynomial_identity(eq):
    """16 q(R(k, t) c) expanded on Polynomials: the table walk with Polynomial
    weights, as the identity was expanded before it had a ring of its own."""
    k1, k2, k3, *t = map(Polynomial.variable, IDENTITY_VARS)
    shift = [0, 0, 0, t[0], 0, 0, 0, t[1], 0, 0, 0, t[2], *t]
    coords = pullback_walk(4, clear_row(eq.coords), (1, 2, 3, 4), shift, 1, [k1, k2, k3, 1])
    return Polynomial.zero() + _sixteen_q([Polynomial.zero() + c for c in coords])


def packed_identity(eq):
    return as_polynomial(_sixteen_q(_packed_coords(eq)))


def translated_then_flipped(rng, eq):
    u0 = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            u0[i][j] = u0[j][i] = rng.randint(-1, 1)
    return partial_legendre(translate(eq, u0), rng.sample((1, 2, 3, 4), rng.randint(1, 2)))


def test_packed_identity_matches_polynomial_expansion():
    rng = Random(43)
    eqs = [catalog.builtin_equation(name) for name in BUILTINS_4D]
    eqs += [translated_then_flipped(rng, eq) for eq in eqs[:4]] + sparse_4d_equations(rng, 12)
    zero = 0
    for eq in eqs:
        expected = polynomial_identity(eq)
        assert packed_identity(eq).terms == expected.terms, str(eq)
        zero += expected.is_zero()
    assert 5 <= zero < len(eqs)


def test_packed_coordinates_have_bidegree_at_most_2_2():
    rng = Random(45)
    eqs = [catalog.builtin_equation(name) for name in BUILTINS_4D]
    eqs += [translated_then_flipped(rng, eq) for eq in eqs] + sparse_4d_equations(rng, 20)
    degrees = set()
    for eq in eqs:
        for c in _packed_coords(eq):
            for m in _terms(c):
                e = _exponents(m)
                degrees.add((sum(e[:3]), sum(e[3:])))
    assert max(k for k, _ in degrees) == 2 and max(t for _, t in degrees) == 2
    assert all(k <= 2 and t <= 2 for k, t in degrees)


def test_packed_coordinates_reject_a_higher_bidegree(monkeypatch):
    from heavenly import integrability

    walk = integrability._identity_walk
    monkeypatch.setattr(integrability, "_identity_walk",
                        lambda coords, k, t: [c * k[0] * k[0] * k[0] for c in walk(coords, k, t)])
    with pytest.raises(InvariantViolation):
        integrability._packed_coords(catalog.hess_equation(4))


def test_integrable_4d_makes_no_polynomial_product_or_evaluation(monkeypatch):
    # the sub-Grassmannian sweep expands its minors as Polynomials; the
    # reduction identity and its lattice make no Polynomial arithmetic
    from heavenly import integrability

    for eq in (catalog.husain(), catalog.hess_equation(4)):
        integrable_4d(eq)  # warm tables and the non-degeneracy cache
        calls, inside_sweep = [], []
        sweep = integrability.meets_all_sublagrangians

        def sweeping(*args):
            inside_sweep.append(True)
            try:
                return sweep(*args)
            finally:
                inside_sweep.pop()

        def counting(name, original):
            def wrapped(*args):
                if not inside_sweep:
                    calls.append(name)
                return original(*args)
            return wrapped

        monkeypatch.setattr(integrability, "meets_all_sublagrangians", sweeping)
        for name in ("__mul__", "__rmul__", "evaluate"):
            monkeypatch.setattr(Polynomial, name, counting(name, getattr(Polynomial, name)))
        integrable_4d(eq)
        monkeypatch.undo()
        assert calls == [], str(eq)


def test_reduction_quartic_depends_on_q_modulo_ktqk():
    # q(R(k, Q) c) = q(R(k, Q - K^T Q33 K) c) with K = [I | k]: Kahler
    # translates of the reduction are Sp(6) moves
    rng = Random(47)
    eqs = [catalog.builtin_equation(name)
           for name in ("hess", "husain", "general-heavenly", "second-heavenly")]
    eqs += sparse_4d_equations(rng, 6)
    nonzero = 0
    for eq in eqs:
        for _ in range(3):
            k = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
            q = [[Fraction(0)] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i, 4):
                    q[i][j] = q[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
            kk = [[int(i == j) for j in range(3)] + [k[i]] for i in range(3)]
            t = [[q[a][b] - sum(kk[i][a] * q[i][j] * kk[j][b] for i in range(3) for j in range(3))
                  for b in range(4)] for a in range(4)]
            assert all(t[a][b] == 0 for a in range(3) for b in range(3))
            value = freudenthal_quartic(pullback_coords(eq, (), q, k))
            assert freudenthal_quartic(pullback_coords(eq, (), t, k)) == value
            nonzero += value != 0
    assert nonzero >= 10


def test_all_permutations_vanish_with_the_identity_chart():
    rng = Random(49)
    eqs = [catalog.builtin_equation(name) for name in BUILTINS_4D]
    eqs += [sp_moved(rng, eq) for eq in eqs[:4]]
    seen = {True: 0, False: 0}
    for eq in eqs:
        zero = [not _sixteen_q(_packed_coords(permute_equation(eq, perm))) for perm in PERMUTATIONS]
        assert PERMUTATIONS[0] == (1, 2, 3, 4)
        assert all(zero) == zero[0], str(eq)
        seen[zero[0]] += 1
    assert seen[True] >= 6 and seen[False] >= 1
