"""The lambda pairing by wedges of exterior forms: the oracle side of the
invariant quadric in `heavenly.liesp`.

The lift solves the pullback isomorphism for each equation, and the pairing
wedges every pair of contractions with Omega and reads the volume
coefficient.  Polarizing its (0, n) entry gives the quadric entry by entry.
"""

from fractions import Fraction

from exterior import ExteriorForm, effective_frame, symplectic_form, volume_normalizer

from heavenly.grassmann import MAEquation, minor_basis
from heavenly.linalg import solve_linear


def wedge_lift(eq):
    """The effective n-form whose pullback is eq, by one linear solve."""
    effective, iso = effective_frame(eq.n)
    sol = solve_linear(iso, list(eq.coords))
    if sol is None:
        raise AssertionError("equation has no effective lift")
    weights, _ = sol
    out = ExteriorForm(eq.n, eq.n, {})
    for w, form in zip(weights, effective):
        if w:
            out = out + w * form
    return out


def _pairing(x, y, n):
    """(x ^ y ^ Omega) / Omega^n for two (n - 1)-forms."""
    key, vol = volume_normalizer(n)
    return x.wedge(y).wedge(symplectic_form(n)).terms.get(key, Fraction(0)) / vol


def wedge_b_matrix(eq):
    """(i_X w ^ i_Y w ^ Omega) / Omega^n on basis vectors, by wedges."""
    w = wedge_lift(eq)
    contractions = [w.interior(a) for a in range(2 * eq.n)]
    return [[_pairing(x, y, eq.n) for y in contractions] for x in contractions]


def polarized_quadric(n):
    """G with lambda(c) = c^T G c, lambda the (0, n) entry of the wedge
    pairing: G[i][j] = (beta(w_i, w_j) + beta(w_j, w_i)) / 2 for the lifts
    w_i of the basis vectors and beta(w, w') = (i_0 w ^ i_n w' ^ Omega) / Omega^n."""
    size = minor_basis(n).dimension
    lifts = [wedge_lift(MAEquation.from_coords(n, [int(i == j) for j in range(size)]))
             for i in range(size)]
    firsts = [w.interior(0) for w in lifts]
    lasts = [w.interior(n) for w in lifts]
    beta = [[_pairing(x, y, n) for y in lasts] for x in firsts]
    return [[(beta[i][j] + beta[j][i]) / 2 for j in range(size)] for i in range(size)]
