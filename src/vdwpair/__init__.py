"""Two-atom van der Waals potentials and forces, in free space and near
planar reflecting or magneto-electric bodies, by direct quadrature of the
imaginary-frequency Green-tensor expressions.

Reduced units: hbar = c = eps0 = mu0 = 1.
"""

from .materials import LorentzMedium, ResonanceAtom, VACUUM, \
    permeability_iu, permittivity_iu, response_iu
from .greens import GreenComponents, HalfSpaceMedium, PlanarGeometry
from .quadrature import ConvergenceError, QuadResult, QuadSpec
from .potentials import (
    LIMIT_RATIOS,
    AsymptoticCoefficients,
    PotentialBreakdown,
    asymptotic_coefficients,
    nonretarded_closed,
    perfect_retarded_closed,
    threshold,
    u0_ee,
    u0_em,
    u1_halfspace,
    u2_halfspace,
    u_total,
)
from .forces import ForcePair, free_space_force, halfspace_forces

__all__ = [
    "LorentzMedium", "ResonanceAtom", "VACUUM",
    "permeability_iu", "permittivity_iu", "response_iu",
    "GreenComponents", "HalfSpaceMedium", "PlanarGeometry",
    "ConvergenceError", "QuadResult", "QuadSpec",
    "AsymptoticCoefficients", "PotentialBreakdown",
    "LIMIT_RATIOS", "asymptotic_coefficients", "nonretarded_closed",
    "perfect_retarded_closed", "threshold",
    "u0_ee", "u0_em", "u1_halfspace", "u2_halfspace", "u_total",
    "ForcePair", "free_space_force", "halfspace_forces",
]

__version__ = "0.1.0"
