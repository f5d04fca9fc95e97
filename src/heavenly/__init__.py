"""Exact-arithmetic classification toolkit for symplectic Monge-Ampere equations.

Equations F(u_ij) = 0 built from minors of the Hessian are hyperplane
sections of the Plucker-embedded Lagrangian Grassmannian; this package
mechanizes their classification: linearisability and integrability tests,
stabilizer subalgebras, the lambda invariant, the quartic-pair normal
form pipeline, and Lax-pair verification, all over exact rationals.

Each exported name is imported from its module on first access (PEP 562),
so `import heavenly` loads none of the pipeline.
"""

from importlib import import_module

__version__ = "0.1.0"

MIN_DIM, MAX_DIM = 2, 4  # the dimensions n the minor basis supports

_EXPORTS = {  # exported name: the module that defines it
    "LagrangePoint": "grassmann", "MAEquation": "grassmann", "MinorBasis": "grassmann",
    "decompose": "grassmann", "equation_from_json": "grassmann",
    "equation_to_json": "grassmann", "meets_all_sublagrangians": "grassmann",
    "minor_basis": "grassmann", "osculating_containment": "grassmann",
    "partial_legendre": "grassmann", "plucker_eval": "grassmann",
    "singular_locus_quadratic": "grassmann", "translate": "grassmann",
    "Fingerprint": "integrability", "Linearisability": "integrability",
    "QuarticPair": "integrability", "ReductionSample": "integrability",
    "Verdict": "integrability", "classify_quartic_pair": "integrability",
    "ef_coordinates": "integrability", "identify_equation": "integrability",
    "integrable_4d": "integrability", "linearisable_3d": "integrability",
    "travelling_wave_reduce": "integrability",
    "LaxField": "laxpair", "commutator": "laxpair", "reduce_6d_lax": "laxpair",
    "sample_on_variety": "laxpair", "verify_lax": "laxpair",
    "LieSubalgebra": "liesp", "b_omega_lambda": "liesp", "is_reductive": "liesp",
    "nondegenerate": "liesp", "symmetry_algebra": "liesp",
    "parse_equation": "parse", "parse_lax_field": "parse",
    "BinaryQuartic": "quartic", "multiplicity_pattern": "quartic",
    "quartic_invariants": "quartic",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
