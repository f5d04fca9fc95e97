"""Alias of `heavenly.liesp.b_omega_lambda` under its former module.

The lambda invariant is the sp(2n)-invariant quadric on canonical
coordinates, built and checked in `heavenly.liesp`; the exterior algebra
that served as its lift and pairing is test code now.  No package module
imports this one.
"""

from .liesp import b_omega_lambda

__all__ = ["b_omega_lambda"]
