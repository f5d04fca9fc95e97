"""Shared fixtures: expected symmetry-algebra generators per normal form.

Each generator is written in the X/L/P notation as a list of
(coefficient, label) pairs.  `sp_table` reads the bracket table of the
whole of sp(2n) from the package, for the tests that check it against
the chart vector fields and the action matrices.
"""

from functools import lru_cache

from heavenly.liesp import LieSubalgebra

EXPECTED_SYMMETRY_DIMS = {
    "linear-wave": 16,
    "second-heavenly": 14,
    "modified-heavenly": 13,
    "first-heavenly": 13,
    "husain": 12,
    "general-heavenly": 12,
}

EXPECTED_LAMBDA_ZERO = {
    "linear-wave": True,
    "second-heavenly": True,
    "modified-heavenly": True,
    "first-heavenly": False,
    "husain": False,
    "general-heavenly": False,
}

def table_equation(name):
    """Equation each generator table row refers to.

    The second-heavenly table is written in the chart where the quadratic
    part sits in the (3,4) block (labels 1<->3, 2<->4 swapped relative to
    the normal form); every other row matches its normal form.
    """
    from heavenly import catalog
    from heavenly.grassmann import MAEquation, uvar

    if name == "second-heavenly":
        poly = uvar(1, 3) + uvar(2, 4) + uvar(3, 3) * uvar(4, 4) - uvar(3, 4) ** 2
        return MAEquation.from_poly(4, poly)
    return catalog.builtin_equation(name)


PRINTED_GENERATORS = {
    "linear-wave": [
        [(1, "X11"), (1, "X22")],
        [(1, "X11"), (1, "X33")],
        [(1, "X11"), (1, "X44")],
        [(1, "X12")],
        [(1, "X13")],
        [(1, "X14")],
        [(1, "X23")],
        [(1, "X24")],
        [(1, "X34")],
        [(1, "L11"), (1, "L22"), (1, "L33"), (1, "L44")],
        [(1, "L12"), (1, "L21")],
        [(1, "L13"), (1, "L31")],
        [(1, "L14"), (1, "L41")],
        [(1, "L23"), (-1, "L32")],
        [(1, "L24"), (-1, "L42")],
        [(1, "L34"), (-1, "L43")],
    ],
    "second-heavenly": [
        [(1, "X11")],
        [(1, "X12")],
        [(1, "X13"), (-1, "X24")],
        [(1, "X14")],
        [(1, "X22")],
        [(1, "X23")],
        [(1, "X33"), (-1, "L24")],
        [(1, "X34"), (2, "L23")],
        [(1, "X44"), (-1, "L13")],
        [(1, "L12"), (-1, "L43")],
        [(1, "L21"), (-1, "L34")],
        [(1, "L14"), (-1, "L23")],
        [(2, "L11"), (1, "L22"), (1, "L44")],
        [(1, "L11"), (2, "L22"), (1, "L33")],
    ],
    "modified-heavenly": [
        [(1, "X11")],
        [(1, "X22")],
        [(1, "X23")],
        [(1, "X24"), (-1, "L34")],
        [(1, "X33")],
        [(1, "X34")],
        [(1, "X44"), (1, "L32")],
        [(1, "L11")],
        [(1, "L22"), (1, "L33")],
        [(2, "L33"), (1, "L44")],
        [(1, "L24")],
        [(1, "P11")],
        [(1, "P44"), (-2, "L23")],
    ],
    "first-heavenly": [
        [(1, "X11")],
        [(1, "X12")],
        [(1, "X22")],
        [(1, "X33")],
        [(1, "X34")],
        [(1, "X44")],
        [(1, "L12")],
        [(1, "L21")],
        [(1, "L34")],
        [(1, "L43")],
        [(1, "L11"), (-1, "L22")],
        [(1, "L33"), (-1, "L44")],
        [(1, "L11"), (1, "L22"), (-1, "L33"), (-1, "L44")],
    ],
    "husain": [
        [(1, "X11"), (-1, "X22")],
        [(1, "X12")],
        [(1, "X33")],
        [(1, "X34")],
        [(1, "X44")],
        [(1, "L11"), (1, "L22")],
        [(1, "L12"), (-1, "L21")],
        [(1, "L33"), (-1, "L44")],
        [(1, "L34")],
        [(1, "L43")],
        [(1, "P11"), (-1, "P22")],
        [(1, "P12")],
    ],
    "general-heavenly": [
        [(1, "X11")], [(1, "X22")], [(1, "X33")], [(1, "X44")],
        [(1, "L11")], [(1, "L22")], [(1, "L33")], [(1, "L44")],
        [(1, "P11")], [(1, "P22")], [(1, "P33")], [(1, "P44")],
    ],
}

LAPLACE_3D_GENERATORS = [
    [(1, "X12")], [(1, "X13")], [(1, "X23")],
    [(1, "X11"), (-1, "X22")],
    [(1, "X22"), (-1, "X33")],
    [(1, "L12"), (-1, "L21")],
    [(1, "L13"), (-1, "L31")],
    [(1, "L23"), (-1, "L32")],
    [(1, "L11"), (1, "L22"), (1, "L33")],
]


@lru_cache(maxsize=None)
def sp_table(n):
    """Sparse bracket table of sp(2n) over its generators:
    table[p][q] = tuple of (r, c) with [e_p, e_q] = sum of c * e_r.

    These are the structure constants of the subalgebra spanned by all
    generators, so the table is in the package's vector-field orientation.
    """
    g = n * (2 * n + 1)
    alg = LieSubalgebra(n, [[int(i == j) for j in range(g)] for i in range(g)])
    return tuple(tuple(tuple((r, c) for r, c in enumerate(coords) if c) for coords in row)
                 for row in alg.structure_constants)
