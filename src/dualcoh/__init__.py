"""Exact cohomology of compact dual symmetric spaces.

Builds the rational cohomology rings of the compact duals in the catalog
(exterior algebras, Lagrangian-Grassmannian and Grassmannian quotients),
restriction morphisms between them, and dual fundamental classes, and
decides non-vanishing and ghost-class criteria with exact certificates.
"""

__version__ = "0.1.0"

from .algebra import (
    DEFAULT_MONOMIAL_CAP,
    Element,
    Generator,
    GradedAlgebra,
    exterior_algebra,
    ideal_basis_in_degree,
    is_divisible,
    monomial_cap,
    pairing,
    pairing_matrix,
    pairs_nontrivially_with_ideal,
    poincare_dual,
    poincare_polynomial,
    tensor_product,
)
from .catalog import (
    FamilyInstance,
    GhostCertificate,
    Verdict,
    build_family,
    decide_ghost,
    decide_nonvanishing,
    family_siegel,
    family_sl_imag_sp,
    family_sl_odd_real,
    family_sp_in_ugg,
    family_unitary,
    siegel_theta,
)
from .errors import (
    CapExceededError,
    InconsistentPresentationError,
    InvalidPresentationError,
)
from .morphisms import (
    Morphism,
    apply,
    build_morphism,
    compose,
    gysin_fundamental_class,
    verify_multiplicativity,
)
from .rings import (
    clear_ring_cache,
    grassmannian_algebra,
    lagrangian_algebra,
    sp_group_algebra,
    su_algebra,
    su_so_algebra,
)

__all__ = [
    "DEFAULT_MONOMIAL_CAP",
    "CapExceededError",
    "Element",
    "FamilyInstance",
    "Generator",
    "GhostCertificate",
    "GradedAlgebra",
    "InconsistentPresentationError",
    "InvalidPresentationError",
    "Morphism",
    "Verdict",
    "apply",
    "build_family",
    "build_morphism",
    "clear_ring_cache",
    "compose",
    "decide_ghost",
    "decide_nonvanishing",
    "exterior_algebra",
    "family_siegel",
    "family_sl_imag_sp",
    "family_sl_odd_real",
    "family_sp_in_ugg",
    "family_unitary",
    "grassmannian_algebra",
    "gysin_fundamental_class",
    "ideal_basis_in_degree",
    "is_divisible",
    "lagrangian_algebra",
    "monomial_cap",
    "pairing",
    "pairing_matrix",
    "pairs_nontrivially_with_ideal",
    "poincare_dual",
    "poincare_polynomial",
    "siegel_theta",
    "sp_group_algebra",
    "su_algebra",
    "su_so_algebra",
    "tensor_product",
    "verify_multiplicativity",
]
