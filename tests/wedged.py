"""The lambda pairing by wedges of exterior forms: the oracle side of the
integer tables in `heavenly.forms`.

The lift solves the pullback isomorphism for each equation, and the pairing
wedges every pair of contractions with Omega and reads the volume
coefficient.
"""

from fractions import Fraction

from heavenly.forms import ExteriorForm, _effective_frame, symplectic_form, volume_normalizer
from heavenly.linalg import solve_linear


def wedge_lift(eq):
    """The effective n-form whose pullback is eq, by one linear solve."""
    effective, iso = _effective_frame(eq.n)
    sol = solve_linear(iso, list(eq.coords))
    if sol is None:
        raise AssertionError("equation has no effective lift")
    weights, _ = sol
    out = ExteriorForm(eq.n, eq.n, {})
    for w, form in zip(weights, effective):
        if w:
            out = out + w * form
    return out


def wedge_b_matrix(eq):
    """(i_X w ^ i_Y w ^ Omega) / Omega^n on basis vectors, by wedges."""
    n = eq.n
    w = wedge_lift(eq)
    omega = symplectic_form(n)
    key, vol = volume_normalizer(n)
    contractions = [w.interior(a) for a in range(2 * n)]
    return [[x.wedge(y).wedge(omega).terms.get(key, Fraction(0)) / vol
             for y in contractions] for x in contractions]
