"""Symbolic algebra of integral forms on supermanifolds.

Superforms carry Laurent-polynomial coefficients and monomials in theta,
dgamma, dpsi and delta^(k)(dpsi) generators.  The package computes Cech and
holomorphic de Rham cohomology of the sheaves Omega^{i|j} on flat superspace
and the projective superline by exact rational linear algebra.
"""

from .atlas_morphism import (
    Atlas,
    Chart,
    Morphism,
    builtin_flat,
    builtin_p11,
    identity_morphism,
    pullback,
    verify_cocycle,
)
from .berezin import berezin_integral, berezin_reduce, bosonic_residue
from .coeff_ring import (
    LaurentPoly,
    lp_add,
    lp_mul,
    lp_neg,
    lp_partial,
    lp_scale,
    lp_substitute_monomial,
)
from .cohomology import (
    CohomologyReport,
    Eliminator,
    cech,
    cech_derham_check,
    derham,
    pairing_matrix,
)
from .errors import (
    FormParseError,
    NotATopFormError,
    StructuralError,
    UnsupportedMorphismError,
    UnsupportedSpaceError,
)
from .form_algebra import (
    Bidegree,
    GeneratorTable,
    Monomial,
    Superform,
    bidegree_components,
    delta,
    delta_expand,
    dgamma,
    dpsi,
    exterior_d,
    koszul_sign,
    normalize,
    pair,
    theta,
    wedge,
)
from .cli import load_atlas, parse, pretty_print, run_command

__version__ = "0.1.0"

__all__ = [
    "Atlas",
    "Bidegree",
    "Chart",
    "CohomologyReport",
    "Eliminator",
    "FormParseError",
    "GeneratorTable",
    "LaurentPoly",
    "Monomial",
    "Morphism",
    "NotATopFormError",
    "StructuralError",
    "Superform",
    "UnsupportedMorphismError",
    "UnsupportedSpaceError",
    "berezin_integral",
    "berezin_reduce",
    "bidegree_components",
    "bosonic_residue",
    "builtin_flat",
    "builtin_p11",
    "cech",
    "cech_derham_check",
    "delta",
    "delta_expand",
    "derham",
    "dgamma",
    "dpsi",
    "exterior_d",
    "identity_morphism",
    "koszul_sign",
    "load_atlas",
    "lp_add",
    "lp_mul",
    "lp_neg",
    "lp_partial",
    "lp_scale",
    "lp_substitute_monomial",
    "normalize",
    "pair",
    "pairing_matrix",
    "parse",
    "pretty_print",
    "pullback",
    "run_command",
    "theta",
    "verify_cocycle",
    "wedge",
]
