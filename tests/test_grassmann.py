"""Minor bases, Plucker evaluation, Legendre charts, singular loci."""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from heavenly import grassmann
from heavenly.errors import InvariantViolation, NotInSpan, NotPurelyQuadratic, UnsupportedDimension
from heavenly.grassmann import (
    LagrangePoint,
    _minor_pairs,
    _minor_polys,
    MAEquation,
    chart_vars,
    decompose,
    equation_from_json,
    equation_to_json,
    hessian_matrix,
    legendre_matrix,
    meets_all_sublagrangians,
    minor_basis,
    minor_poly,
    osculating_containment,
    partial_legendre,
    plucker_eval,
    plucker_minor,
    singular_locus_quadratic,
    sym_matrix,
    translate,
    uvar,
)
from heavenly.linalg import mat_vec, rank_kernel
from heavenly.poly import Polynomial, determinant
from dense import Dense, dense
from test_linalg import invert


def det_eq(n):
    return determinant(hessian_matrix(n))


def random_symmetric(rng, n, bound=9):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = Fraction(rng.randint(-bound, bound))
    return m


def assignment_of(matrix):
    n = len(matrix)
    return {f"u{i + 1}{j + 1}": matrix[i][j] for i in range(n) for j in range(i, n)}


def leibniz_det(rows):
    """Determinant as the signed sum over permutations (n <= 4)."""
    from itertools import permutations

    total = Fraction(0)
    for perm in permutations(range(len(rows))):
        inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def legendre_chart_matrix(matrix, flip):
    """Image of a chart point under the Legendre flip of the given index pairs.

    Block inversion on the flipped block:

        [A B; B^T D]  ->  [A^-1, -A^-1 B; -B^T A^-1, B^T A^-1 B - D]

    which is an exact involution.  Returns None when the flipped block is
    singular (the point is outside the new chart).
    """
    n = len(matrix)
    s = sorted(set(flip))
    t = [i for i in range(1, n + 1) if i not in s]
    try:
        ainv = invert([[matrix[i - 1][j - 1] for j in s] for i in s])
    except ValueError:  # the flipped block is singular
        return None
    out = [[Fraction(0)] * n for _ in range(n)]
    pos = {idx: p for p, idx in enumerate(s)}
    for ii in s:
        for jj in s:
            out[ii - 1][jj - 1] = ainv[pos[ii]][pos[jj]]
    for ii in s:
        for jj in t:
            v = -sum((ainv[pos[ii]][pos[kk]] * Fraction(matrix[kk - 1][jj - 1]) for kk in s),
                     Fraction(0))
            out[ii - 1][jj - 1] = v
            out[jj - 1][ii - 1] = v
    for ii in t:
        for jj in t:
            v = sum((Fraction(matrix[p - 1][ii - 1]) * ainv[pos[p]][pos[q]]
                     * Fraction(matrix[q - 1][jj - 1]) for p in s for q in s), Fraction(0))
            out[ii - 1][jj - 1] = v - Fraction(matrix[ii - 1][jj - 1])
    return out


def random_equation(rng, n):
    basis = minor_basis(n)
    while True:
        coords = [Fraction(rng.randint(-3, 3)) for _ in range(basis.dimension)]
        if any(coords):
            return MAEquation.from_coords(n, coords)


def test_minor_basis_dimensions():
    b3 = minor_basis(3)
    assert b3.dimension == 14 and b3.per_degree_dims == (1, 6, 6, 1)
    b4 = minor_basis(4)
    assert b4.dimension == 42 and b4.per_degree_dims == (1, 10, 20, 10, 1)
    b2 = minor_basis(2)
    assert b2.dimension == 5 and b2.per_degree_dims == (1, 3, 1)


def test_minor_basis_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        minor_basis(5)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_basis_polys_are_their_minor_combinations(n):
    basis = minor_basis(n)
    minors = _minor_polys(n)
    for poly, combination in zip(basis.basis_polys, basis.minor_combinations):
        assert len(combination) == len(minors)
        total = Polynomial.zero()
        for c, minor in zip(combination, minors):
            total = total + c * minor
        assert total == poly
    assert basis.pivots == tuple(p.lead_monomial() for p in basis.basis_polys)


def reference_decompose(poly, basis):
    """Leading-monomial elimination over the basis: the oracle for decompose."""
    pivot_index = {p.lead_monomial(): k for k, p in enumerate(basis.basis_polys)}
    coords = [Fraction(0)] * basis.dimension
    rem = poly
    while rem.terms:
        lm = rem.lead_monomial()
        k = pivot_index.get(lm)
        if k is None:
            raise NotInSpan([str(Polynomial({lm: 1}))])
        c = rem.lead_coeff() / basis.basis_polys[k].lead_coeff()
        coords[k] += c
        rem = rem - c * basis.basis_polys[k]
    return coords


@pytest.mark.parametrize("n", [2, 3, 4])
def test_decompose_matches_leading_monomial_reference(n):
    rng = Random(100 + n)
    basis = minor_basis(n)
    names = chart_vars(n)
    outside = 0
    for _ in range(150):
        poly = Polynomial.zero()
        for k in rng.sample(range(basis.dimension), rng.randint(1, 4)):
            poly = poly + Fraction(rng.randint(-5, 5), rng.randint(1, 3)) * basis.basis_polys[k]
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                mono = Polynomial.constant(rng.randint(-3, 3))
                for _ in range(rng.randint(0, n + 1)):
                    mono = mono * Polynomial.variable(rng.choice(names))
                poly = poly + mono
        try:
            expected = reference_decompose(poly, basis)
        except NotInSpan as exc:
            outside += 1
            with pytest.raises(NotInSpan) as got:
                decompose(poly, basis)
            assert got.value.monomials == exc.monomials
        else:
            assert decompose(poly, basis) == expected
    assert 0 < outside < 150


def test_first_heavenly_decomposes():
    poly = uvar(1, 3) * uvar(2, 4) - uvar(1, 4) * uvar(2, 3) - 1
    eq = MAEquation.from_poly(4, poly)
    assert sum(1 for c in eq.coords if c) >= 2
    # round trip through coordinates
    again = MAEquation.from_coords(4, eq.coords)
    assert again.poly == poly


def test_two_by_two_minor_relation():
    # the three minors with four distinct indices satisfy one linear relation
    m1 = minor_poly((1, 2), (3, 4))
    m2 = minor_poly((1, 3), (2, 4))
    m3 = minor_poly((1, 4), (2, 3))
    assert (m1 - m2 + m3).is_zero()
    basis = minor_basis(4)
    rows = [decompose(m, basis) for m in (m1, m2, m3)]
    rank, _ = rank_kernel(rows)
    assert rank == 2
    # decomposing the relation itself yields the zero vector
    assert all(c == 0 for c in decompose(m1 - m2 + m3, basis))


def test_determinant_is_a_basis_element_n2():
    basis = minor_basis(2)
    det = uvar(1, 1) * uvar(2, 2) - uvar(1, 2) ** 2
    coords = decompose(det, basis)
    hits = [k for k, c in enumerate(coords) if c]
    assert hits == [basis.degree_slice(2)[0]] and coords[hits[0]] == 1


def test_not_in_span():
    with pytest.raises(NotInSpan):
        decompose(uvar(1, 1) ** 2, minor_basis(4))
    with pytest.raises(NotInSpan) as err:
        decompose(uvar(1, 1) + uvar(1, 1) ** 2, minor_basis(4))
    assert err.value.monomials


def test_plucker_eval_origin():
    basis = minor_basis(3)
    values = plucker_eval(LagrangePoint.origin(3), basis)
    assert values[0] == 1 and all(v == 0 for v in values[1:])


def test_plucker_eval_identity_n4():
    basis = minor_basis(4)
    point = LagrangePoint.from_rows(4, [[int(i == j) for j in range(4)] for i in range(4)])
    values = plucker_eval(point, basis)
    assignment = {v: Fraction(1) if v[1] == v[2] else Fraction(0) for v in chart_vars(4)}
    assert values == [p.evaluate(assignment) for p in basis.basis_polys]
    # pairing with any equation reproduces the value at the point
    eq = MAEquation.from_poly(4, det_eq(4) - 1)
    pairing = sum(c * v for c, v in zip(eq.coords, values))
    assert pairing == eq.value_at(point.matrix) == 0


def test_plucker_eval_offdiagonal_n2():
    basis = minor_basis(2)
    point = LagrangePoint.from_rows(2, [[0, 1], [1, 0]])
    values = plucker_eval(point, basis)
    det_index = basis.degree_slice(2)[0]
    assert values[det_index] == -1


def test_translate_identity_and_additivity():
    rng = Random(2)
    eq = random_equation(rng, 3)
    zero = [[0] * 3 for _ in range(3)]
    assert translate(eq, zero).poly == eq.poly
    a = sym_matrix(3, {(1, 2): Fraction(1, 2), (3, 3): 2})
    b = sym_matrix(3, {(1, 1): -1, (2, 3): 3})
    ab = [[a[i][j] + b[i][j] for j in range(3)] for i in range(3)]
    assert translate(translate(eq, a), b).poly == translate(eq, ab).poly


def test_translate_hess_through_identity():
    eq = MAEquation.from_poly(3, det_eq(3) - 1)
    moved = translate(eq, [[1 if i == j else 0 for j in range(3)] for i in range(3)])
    assert moved.poly.constant_term() == 0


def test_translate_first_heavenly_vanishing():
    poly = uvar(1, 3) * uvar(2, 4) - uvar(1, 4) * uvar(2, 3) - 1
    eq = MAEquation.from_poly(4, poly)
    u0 = sym_matrix(4, {(1, 3): 1, (2, 4): 1})
    moved = translate(eq, u0)
    assert moved.poly.constant_term() == 0


def test_translate_preserves_span_randomly():
    rng = Random(31)
    for n in (2, 3, 4):
        for _ in range(4):
            eq = random_equation(rng, n)
            u0 = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i):
                    u0[i][j] = u0[j][i]
            assert translate(eq, u0).n == n  # from_coords rejects a wrong length


def subs_translate(eq, u0):
    """Reference: translate as it was computed before the raw-minor map, by
    substituting u_ij + U0_ij into the polynomial and decomposing."""
    n = eq.n
    mapping = {}
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            c = Fraction(u0[i - 1][j - 1])
            if c:
                mapping[f"u{i}{j}"] = uvar(i, j) + c
    if not mapping:
        return eq
    return MAEquation.from_poly(n, eq.poly.subs(mapping))


def test_translate_matches_substitution_reference():
    from heavenly import catalog

    rng = Random(71)
    equations = [catalog.builtin_equation(name) for name in catalog.builtin_names()]
    equations += [partial_legendre(eq, (1, 2)) for eq in equations if eq.n == 4][:3]
    equations += [random_equation(rng, n) for n in (2, 3, 4) for _ in range(3)]
    for eq in equations:
        n = eq.n
        for denominators in ((1,), (1, 2, 3, 7)):
            u0 = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.7:  # some entries stay zero
                        u0[i][j] = u0[j][i] = Fraction(rng.randint(-5, 5),
                                                       rng.choice(denominators))
            moved = translate(eq, u0)
            assert moved == subs_translate(eq, u0)
            assert moved.coords == tuple(decompose(moved.poly, eq.basis))
    eq = catalog.husain()
    assert translate(eq, [[0] * 4 for _ in range(4)]) is eq


def test_legendre_degenerate_pair_to_linear():
    # u11*u22 - u12^2 = u11*u33 - u13^2 becomes a multiple of u22 = u33
    poly = (uvar(1, 1) * uvar(2, 2) - uvar(1, 2) ** 2
            - uvar(1, 1) * uvar(3, 3) + uvar(1, 3) ** 2)
    eq = MAEquation.from_poly(4, poly)
    out = partial_legendre(eq, [1])
    assert out.poly == uvar(2, 2) - uvar(3, 3)
    # u11*u22 - u12^2 becomes a multiple of u22 = 0
    eq0 = MAEquation.from_poly(4, uvar(1, 1) * uvar(2, 2) - uvar(1, 2) ** 2)
    assert partial_legendre(eq0, [1]).poly == uvar(2, 2)


def test_legendre_kahler_linearises():
    # u_tt (1 + u_xx + u_yy) - u_xt^2 - u_yt^2 = eps with (x, y, t) = (1, 2, 3)
    eps = Fraction(1)
    poly = (uvar(3, 3) * (1 + uvar(1, 1) + uvar(2, 2))
            - uvar(1, 3) ** 2 - uvar(2, 3) ** 2 - eps)
    eq = MAEquation.from_poly(3, poly)
    out = partial_legendre(eq, [3])
    assert out.poly == uvar(1, 1) + uvar(2, 2) + eps * uvar(3, 3) - 1


def test_full_legendre_of_hess():
    eq = MAEquation.from_poly(3, det_eq(3) - 1)
    out = partial_legendre(eq, [1, 2, 3])
    assert out.poly == (det_eq(3) - 1).monic()


def test_legendre_involution_up_to_scale():
    rng = Random(47)
    for n in (2, 3):
        for _ in range(3):
            eq = random_equation(rng, n)
            for size in range(1, n + 1):
                for s in combinations(range(1, n + 1), size):
                    twice = partial_legendre(partial_legendre(eq, s), s)
                    assert twice.poly == eq.poly.monic()


def test_legendre_preserves_span_n4():
    rng = Random(53)
    for _ in range(3):
        eq = random_equation(rng, 4)
        for s in ([1], [2, 3], [1, 2, 3, 4]):
            partial_legendre(eq, s)  # raises NotInSpan on failure


def test_legendre_matches_chart_substitution():
    # oracle: F(legendre_chart_matrix(V)) * det(V_S)^deg F is proportional to
    # the transformed polynomial at V, with one fixed scale across samples
    rng = Random(71)
    for n in (2, 3, 4):
        for _ in range(2):
            eq = random_equation(rng, n)
            flips = [[1]] if n == 2 else [[1], [1, 2]]
            for s in flips:
                out = partial_legendre(eq, s)
                scale = None
                checked = 0
                while checked < 5:
                    v = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
                    for i in range(n):
                        for j in range(i):
                            v[i][j] = v[j][i]
                    phi = legendre_chart_matrix(v, s)
                    if phi is None:
                        continue
                    det_s = MAEquation.from_poly(n, minor_poly(tuple(s), tuple(s))).value_at(v)
                    lhs = eq.value_at(phi) * det_s
                    rhs = out.value_at(v)
                    if rhs == 0 and lhs == 0:
                        checked += 1
                        continue
                    if rhs == 0:
                        assert lhs == 0
                        continue
                    ratio = lhs / rhs
                    if scale is None:
                        scale = ratio
                    assert ratio == scale and scale != 0
                    checked += 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_plucker_minor_matches_row_determinants(n):
    # p_S = det([I; U][S, :]) for every n-subset S of the 2n rows, in a
    # shuffled order, is sign * minor at random integer symmetric U
    rng = Random(200 + n)
    minors = _minor_polys(n)
    for _ in range(3):
        u = random_symmetric(rng, n)
        stacked = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)] + u
        values = [m.evaluate(assignment_of(u)) for m in minors]
        for subset in combinations(range(2 * n), n):
            rows = list(subset)
            rng.shuffle(rows)
            index, sign = plucker_minor(n, tuple(rows))
            assert leibniz_det([stacked[r] for r in rows]) == sign * values[index]
        assert plucker_minor(n, (0,) * n) is None
        assert plucker_minor(n, tuple(range(n - 1)) + (n - 2,)) is None


def reference_relabel_minor(pair, s, n):
    """Minor label after the Legendre flip: Plucker rows swap roles on s."""
    r, c = set(pair[0]), set(pair[1])
    c_comp = set(range(1, n + 1)) - c
    r_new = (r - s) | (c_comp & s)
    c_new_comp = (c_comp - s) | (r & s)
    c_new = set(range(1, n + 1)) - c_new_comp
    a, b = tuple(sorted(r_new)), tuple(sorted(c_new))
    return (a, b) if a <= b else (b, a)


def reference_signed_relabel(n, s):
    """Each minor's (image index, sign), pinned at sample points where no minor vanishes."""
    pairs = _minor_pairs(n)
    polys = _minor_polys(n)
    pair_index = {p: k for k, p in enumerate(pairs)}
    rng = Random(10 * n + len(s))
    s_list = sorted(s)

    def sample_point():
        while True:
            m = random_symmetric(rng, n)
            assignment = assignment_of(m)
            if all(p.evaluate(assignment) for p in polys if p.degree() > 0):
                return m, assignment

    results = None
    for _ in range(2):
        v, assignment = sample_point()
        image = legendre_chart_matrix(v, s_list)
        det_s = minor_poly(s_list, s_list).evaluate(assignment)
        img_assignment = assignment_of(image)
        current = []
        for k, pair in enumerate(pairs):
            j = pair_index[reference_relabel_minor(pair, s, n)]
            sign = polys[k].evaluate(img_assignment) * det_s / polys[j].evaluate(assignment)
            assert sign in (1, -1)
            current.append((j, int(sign)))
        assert results is None or results == current
        results = current
    return results


def reference_legendre_matrix(n, s):
    """The flip on canonical coordinates from sampled signs and polynomial decomposition."""
    basis = minor_basis(n)
    relabel = reference_signed_relabel(n, s)
    polys = _minor_polys(n)
    columns = []
    for combination in basis.minor_combinations:
        image = Polynomial.zero()
        for m_idx, coeff in enumerate(combination):
            if coeff:
                j, sign = relabel[m_idx]
                image = image + coeff * sign * polys[j]
        columns.append(decompose(image, basis))
    return Dense([[columns[k][i] for k in range(basis.dimension)]
                  for i in range(basis.dimension)])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_legendre_matrix_matches_sampled_reference(n):
    for size in range(1, n + 1):
        for s in combinations(range(1, n + 1), size):
            s = frozenset(s)
            assert dense(legendre_matrix(n, s)) == reference_legendre_matrix(n, s)


def test_legendre_sign_that_breaks_the_involution_raises(monkeypatch):
    # a wrong sign on the image of the constant minor makes the signed
    # permutation of flip {1} fail to square to the identity
    real = grassmann.plucker_minor

    def wrong_sign(n, rows):
        hit = real(n, rows)
        return (hit[0], -hit[1]) if hit and hit[0] == 0 else hit

    monkeypatch.setattr(grassmann, "plucker_minor", wrong_sign)
    with pytest.raises(InvariantViolation):
        legendre_matrix.__wrapped__(2, frozenset({1}))


def test_singular_locus_examples():
    # pencil of two 2x2 blocks: dimension 4
    p1 = (uvar(1, 1) * uvar(2, 2) - uvar(1, 2) ** 2
          - uvar(3, 3) * uvar(4, 4) + uvar(3, 4) ** 2)
    dim, kernel = singular_locus_quadratic(MAEquation.from_poly(4, p1))
    assert dim == 4
    blocked = {"u11", "u22", "u12", "u33", "u44", "u34"}
    for mat in kernel:
        for name in blocked:
            i, j = int(name[1]), int(name[2])
            assert mat[i - 1][j - 1] == 0
    # hyperbolic 2x2 minor: dimension 6
    p2 = uvar(1, 3) * uvar(2, 4) - uvar(1, 4) * uvar(2, 3)
    dim2, _ = singular_locus_quadratic(MAEquation.from_poly(4, p2))
    assert dim2 == 6
    # rank-3 quadratic: dimension 7
    p3 = uvar(1, 1) * uvar(2, 2) - uvar(1, 2) ** 2
    dim3, _ = singular_locus_quadratic(MAEquation.from_poly(4, p3))
    assert dim3 == 7


def test_singular_locus_requires_quadratic():
    with pytest.raises(NotPurelyQuadratic):
        singular_locus_quadratic(MAEquation.from_poly(4, det_eq(4) - 1))


def test_singular_directions_lie_on_equation():
    p = (uvar(1, 1) * uvar(2, 2) - uvar(1, 2) ** 2
         - uvar(3, 3) * uvar(4, 4) + uvar(3, 4) ** 2)
    eq = MAEquation.from_poly(4, p)
    _, kernel = singular_locus_quadratic(eq)
    rng = Random(3)
    for mat in kernel:
        assert eq.value_at(mat) == 0
    combo = [[sum(Fraction(rng.randint(-5, 5)) * m[i][j] for m in kernel)
              for j in range(4)] for i in range(4)]
    assert eq.value_at(combo) == 0


def test_meets_all_sublagrangians():
    p1 = (uvar(1, 1) * uvar(2, 2) - uvar(1, 2) ** 2
          - uvar(3, 3) * uvar(4, 4) + uvar(3, 4) ** 2)
    eq1 = MAEquation.from_poly(4, p1)
    _, kernel1 = singular_locus_quadratic(eq1)
    assert meets_all_sublagrangians(eq1, kernel1) is False
    p2 = uvar(1, 3) * uvar(2, 4) - uvar(1, 4) * uvar(2, 3)
    eq2 = MAEquation.from_poly(4, p2)
    _, kernel2 = singular_locus_quadratic(eq2)
    assert meets_all_sublagrangians(eq2, kernel2) is True
    zeros = [[[0] * 4 for _ in range(4)] for _ in range(4)]
    assert meets_all_sublagrangians(eq1, zeros) is False


def test_osculating_containment():
    # minors of orders 2 and 3 only: contains O_1 at the origin
    eq = MAEquation.from_poly(3, det_eq(3) - (uvar(1, 1) * uvar(2, 2) - uvar(1, 2) ** 2))
    assert osculating_containment(eq, LagrangePoint.origin(3)) is True
    laplace = MAEquation.from_poly(3, uvar(1, 1) + uvar(2, 2) + uvar(3, 3))
    assert osculating_containment(laplace, LagrangePoint.origin(3)) is False
    # a point off the zero set always fails
    hess = MAEquation.from_poly(3, det_eq(3) - 1)
    assert osculating_containment(hess, LagrangePoint.origin(3)) is False


def test_plucker_translation_constant_link():
    rng = Random(9)
    eq = random_equation(rng, 3)
    u0 = sym_matrix(3, {(1, 1): 1, (2, 3): -2})
    neg = [[-x for x in row] for row in u0]
    moved = translate(eq, u0)
    assert moved.poly.constant_term() == eq.value_at(u0)
    values = plucker_eval(LagrangePoint.from_rows(3, u0), eq.basis)
    pairing = sum(c * v for c, v in zip(eq.coords, values))
    assert pairing == eq.value_at(u0)
    assert (pairing == 0) == (translate(eq, u0).poly.constant_term() == 0)


def test_serialization_round_trip():
    rng = Random(10)
    for n in (2, 3, 4):
        eq = random_equation(rng, n)
        again = equation_from_json(equation_to_json(eq))
        assert again.n == eq.n and again.coords == eq.coords and again.poly == eq.poly


def polynomial_legendre(eq, flip):
    """Reference: the Legendre flip as it was normalised before it read the
    coordinates, by combining the image, making it monic and decomposing it."""
    from heavenly.errors import DegenerateChart
    from heavenly.grassmann import combine

    poly = combine(mat_vec(legendre_matrix(eq.n, frozenset(flip)), eq.coords), eq.basis)
    if poly.is_zero():
        raise DegenerateChart("legendre transform produced the zero polynomial")
    return MAEquation.from_poly(eq.n, poly.monic())


def test_legendre_normalisation_matches_polynomial_reference():
    from heavenly import catalog
    from heavenly.errors import DegenerateChart

    rng = Random(83)
    equations = [catalog.builtin_equation(name) for name in catalog.builtin_names()]
    for n in (2, 3, 4):
        basis = minor_basis(n)
        for _ in range(3):
            coords = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(basis.dimension)]
            if any(coords):
                equations.append(MAEquation.from_coords(n, coords))
    low = []  # flipped back, these images lead in degree 0 or 1
    for n in (2, 3, 4):
        basis = minor_basis(n)
        for s in ((1,), tuple(range(1, n + 1))):
            coords = [Fraction(0)] * basis.dimension
            for k in list(basis.degree_slice(0)) + list(basis.degree_slice(1)):
                coords[k] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            coords[basis.degree_slice(1)[-1]] = Fraction(5)
            low.append((partial_legendre(MAEquation.from_coords(n, coords), s), s))
    for eq in equations:
        for size in range(1, eq.n + 1):
            for s in combinations(range(1, eq.n + 1), size):
                assert partial_legendre(eq, s) == polynomial_legendre(eq, s)
    for eq, s in low:
        image = partial_legendre(eq, s)
        assert image == polynomial_legendre(eq, s)
        assert image.poly.degree() <= 1 and image.poly.lead_coeff() == 1
    zero = MAEquation(4, Polynomial.zero(), (Fraction(0),) * 42)
    for legendre in (partial_legendre, polynomial_legendre):
        with pytest.raises(DegenerateChart):
            legendre(zero, (1, 2))


def sampled_meets_all_sublagrangians(eq, kernel_basis, trials=16, seed=0):
    """Reference: the sub-Grassmannian test as it was before it kept only
    its exact path: random rank trials certify a positive answer, and the
    symbolic minors decide the rest."""
    n = eq.n
    mats = [Dense(b) for b in kernel_basis]
    d = len(mats)
    if d < n:
        return False
    rng = Random(seed)
    for _ in range(trials):
        x = [Fraction(rng.randint(-1000, 1000)) for _ in range(n)]
        cols = [m.mat_vec(x) for m in mats]
        rank, _ = rank_kernel([[cols[k][i] for k in range(d)] for i in range(n)])
        if rank == n:
            return True
    sym_cols = [[Polynomial({((f"x{j + 1}", 1),): m.entries[i][j] for j in range(n)})
                 for i in range(n)] for m in mats]
    return any(not determinant([[sym_cols[k][i] for k in pick] for i in range(n)]).is_zero()
               for pick in combinations(range(d), n))


def seeded_kernels(rng):
    """Symmetric 4 x 4 kernels with d = 0..6 directions: dense ones, ones
    with a common null vector, ones of rank 1 along few vectors, and ones
    supported on a 2 x 2 block."""
    def with_null_vector(v):
        # P S P with P = (v.v) I - v v^T is symmetric and kills v
        p = [[(sum(x * x for x in v) if i == j else 0) - v[i] * v[j] for j in range(4)]
             for i in range(4)]
        s = random_symmetric(rng, 4, 3)
        ps = [[sum(p[i][k] * s[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
        return [[sum(ps[i][k] * p[k][j] for k in range(4)) for j in range(4)] for i in range(4)]

    def rank_one(a):
        return [[a[i] * a[j] for j in range(4)] for i in range(4)]

    out = []  # (kind, kernel)
    for d in range(7):
        for _ in range(3):
            out.append(("dense", [random_symmetric(rng, 4, 3) for _ in range(d)]))
        v = [rng.randint(-2, 2) for _ in range(3)] + [1]
        out.append(("null-vector", [with_null_vector(v) for _ in range(d)]))
        vectors = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)]
        out.append(("rank-one", [rank_one(rng.choice(vectors)) for _ in range(d)]))
        block = []
        for _ in range(d):
            m = [[Fraction(0)] * 4 for _ in range(4)]
            m[0][0], m[1][1], m[0][1] = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            m[1][0] = m[0][1]
            block.append(m)
        out.append(("block", block))
    return out


def test_meets_all_sublagrangians_matches_sampled_reference():
    eq = MAEquation.from_poly(4, uvar(1, 3) * uvar(2, 4) - uvar(1, 4) * uvar(2, 3))
    for kind, kernel in seeded_kernels(Random(89)):
        answer = meets_all_sublagrangians(eq, kernel)
        assert answer is sampled_meets_all_sublagrangians(eq, kernel)
        # dense kernels of 4 or more directions are generic in this sample
        assert answer is (kind == "dense" and len(kernel) >= 4)


def test_meets_all_sublagrangians_matches_sympy_rank():
    # the rank of [B_k x] over Q(x): a fraction-free elimination over Q[x]
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    xs = sympy.symbols("x1:5")
    ring = sympy.QQ[xs]
    eq = MAEquation.from_poly(4, uvar(1, 3) * uvar(2, 4) - uvar(1, 4) * uvar(2, 3))
    for _, kernel in seeded_kernels(Random(97)):
        rank = 0
        if kernel:
            m = sympy.Matrix(4, len(kernel), lambda i, k: sum(
                sympy.Rational(str(Fraction(kernel[k][i][j]))) * xs[j] for j in range(4)))
            rank = len(DomainMatrix.from_Matrix(m).convert_to(ring).rref_den()[2])
        assert meets_all_sublagrangians(eq, kernel) is (rank == 4)
