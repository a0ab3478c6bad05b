"""Van der Waals forces on the two atoms.

Free space: the signed radial force from the analytic derivative of the
potential's frequency integrand.  Near a half space: per-atom force vectors
by Richardson-extrapolated central differences of the total potential,
checked against the analytic free-space radial part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import HalfSpaceMedium, PlanarGeometry
from .materials import ResonanceAtom, response_iu
from .quadrature import QuadSpec, integrate_semiinf
from .potentials import _u_scale, u_total

__all__ = ["ForcePair", "free_space_force", "halfspace_forces"]

_PI3_8 = 8.0 * np.pi**3


@dataclass(frozen=True)
class ForcePair:
    """Force vectors on the two atoms, in the xz plane (fy = 0)."""

    f_a: tuple[float, float]
    f_b: tuple[float, float]

    @property
    def net(self) -> tuple[float, float]:
        return (self.f_a[0] + self.f_b[0], self.f_a[1] + self.f_b[1])


def free_space_force(l: float, atom_a: ResonanceAtom, atom_b: ResonanceAtom,
                     spec: QuadSpec | None = None) -> float:
    """Signed radial force F = -dU/dl between the two atoms in free space.

    Negative means attraction (electric-electric pairs), positive repulsion
    (electric-magnetic pairs).
    """
    if l <= 0:
        raise ValueError("separation l must be positive")
    spec = spec or QuadSpec()
    kinds = (atom_a.kind, atom_b.kind)
    if kinds == ("electric", "electric"):
        def f(u):
            x = u * l
            p = np.exp(-2.0 * x) * (9.0 + 18.0 * x + 16.0 * x**2
                                    + 8.0 * x**3 + 3.0 * x**4 + x**5)
            return response_iu(atom_a, u) * response_iu(atom_b, u) * p

        prefactor = -1.0 / (_PI3_8 * l**7)
    elif kinds == ("electric", "magnetic"):
        def f(u):
            x = u * l
            p = np.exp(-2.0 * x) * (2.0 + 4.0 * x + 3.0 * x**2 + x**3)
            return (u**2 * response_iu(atom_a, u) * response_iu(atom_b, u) * p)

        prefactor = 1.0 / (_PI3_8 * l**5)
    else:
        raise ValueError("supported pairs: (electric, electric) and "
                         "(electric, magnetic)")
    s = _u_scale(atom_a, atom_b, l)
    res = integrate_semiinf(lambda v: f(s * v), spec)
    return prefactor * s * res.value


def _richardson_derivative(f, h: float) -> float:
    """Five-point Richardson-extrapolated central difference."""
    d1 = (f(h) - f(-h)) / (2.0 * h)
    d2 = (f(h / 2.0) - f(-h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def halfspace_forces(geom: PlanarGeometry, atom_a: ResonanceAtom,
                     atom_b: ResonanceAtom, medium: HalfSpaceMedium,
                     spec: QuadSpec | None = None,
                     step: float = 1e-3) -> ForcePair:
    """Force vectors on both atoms near the half space.

    Each component is -dU/dcoordinate by Richardson-extrapolated central
    differences of the total potential; ``step`` is relative to the smallest
    geometric scale.  The displaced atom must stay above the surface.
    """
    spec = spec or QuadSpec()
    h = step * min(geom.l, geom.z_a, geom.z_b)
    if geom.z_a - h <= 0 or geom.z_b - h <= 0:
        raise ValueError("finite-difference step would cross the surface")
    # Tighter quadrature than the requested derivative accuracy, so the
    # difference quotient is not noise-limited.
    pspec = spec.tightened()

    def u_of(**kw):
        return u_total(geom.shifted(**kw), atom_a, atom_b, medium,
                       spec=pspec).total

    fax = -_richardson_derivative(lambda d: u_of(dx_a=d), h)
    faz = -_richardson_derivative(lambda d: u_of(dz_a=d), h)
    fbx = -_richardson_derivative(lambda d: u_of(dx_b=d), h)
    fbz = -_richardson_derivative(lambda d: u_of(dz_b=d), h)
    return ForcePair(f_a=(fax, faz), f_b=(fbx, fbz))
