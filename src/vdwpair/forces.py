"""Van der Waals forces on the two atoms.

Free space: the signed radial force from the analytic derivative of the
potential's frequency integrand.  Near a half space: per-atom force vectors
from their own frequency integrals.  The potential depends on the atoms only
through X = x_B - x_A, Z = z_B - z_A and Z+ = z_A + z_B, so the radial
free-space force and three u-integrals of Green-tensor derivatives (dG0 in
closed form, dG1 by image signs or derivative q-kernels) give all four
components.  Richardson-extrapolated differences of the total potential
are kept as the independent oracle ``richardson_forces``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import (
    HalfSpaceMedium,
    PlanarGeometry,
    free_space_green,
    free_space_green_gradient,
    halfspace_scattering_derivative,
)
from .materials import ResonanceAtom, response_iu
from .quadrature import QuadSpec, integrate_semiinf
from .potentials import _frequency_integral, _u_scale, u_total

__all__ = ["ForcePair", "free_space_force", "halfspace_forces",
           "richardson_forces"]

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


def _plate_derivative_trace(wrt: str, geom: PlanarGeometry,
                            medium: HalfSpaceMedium):
    """Trace part of the u-integrand of d(U1 + U2)/d``wrt`` for wrt in X,
    Z, Z_plus.

    With w1 = -u^4 alpha_A alpha_B/pi, U1 + U2 integrates
    w1 (Tr[G0 . G1^T] + Tr[G1 . G1^T]/2), where G1^T = G1(r_B, r_A).  G0
    depends on (X, Z) and G1 on (X, Z+), so
    d/dX:  w1 (Tr[dG0 . G1^T] + Tr[G0 . dG1^T] + Tr[dG1 . G1^T]),
    d/dZ:  w1 Tr[dG0 . G1^T],
    d/dZ+: w1 (Tr[G0 . dG1^T] + Tr[dG1 . G1^T]).
    The weight w1 is applied by ``_frequency_integral``.
    """
    def trace(u, g1, spec):
        g1_t = g1.transpose()
        out = 0.0
        if wrt != "Z_plus":
            dg0 = free_space_green_gradient(geom.X, geom.Z, u)
            out = dg0[0 if wrt == "X" else 1].trace(g1_t)
        if wrt != "Z":
            dg1 = halfspace_scattering_derivative(geom, u, medium, wrt,
                                                  spec=spec)
            out = out + (free_space_green(geom.X, geom.Z, u)
                         .trace(dg1.transpose()) + dg1.trace(g1_t))
        return out

    return trace


def halfspace_forces(geom: PlanarGeometry, atom_a: ResonanceAtom,
                     atom_b: ResonanceAtom, medium: HalfSpaceMedium,
                     spec: QuadSpec | None = None) -> ForcePair:
    """Force vectors on both atoms near the half space.

    U_X = dU/dX = -f0 X/l + Phi_X and U_Z = -f0 Z/l + Phi_Z, with f0 the
    free-space radial force and Phi the plate parts; U_Z+ = Phi_Z+.  Then
    F_A = (U_X, U_Z - U_Z+) and F_B = (-U_X, -U_Z - U_Z+), so
    F_A,x = -F_B,x holds exactly.  The plate parts are u-integrals at the
    scale min(omega10, 1/(l + Z+)), so on finite media they share one G1
    per u-node through a memo that lives for this call only.  U is even in
    X (mirror symmetry) and in Z (atom exchange), so Phi_X on the axis
    X = 0 and Phi_Z at Z = 0 are zero and not integrated.
    """
    spec = spec or QuadSpec()
    l = geom.l
    f0 = free_space_force(l, atom_a, atom_b, spec=spec)
    g1_memo = {}

    def phi(wrt: str, zero: bool) -> float:
        if zero:
            return 0.0
        return _frequency_integral(_plate_derivative_trace(wrt, geom, medium),
                                   geom, atom_a, atom_b, medium, spec,
                                   g1_memo)

    u_x = -f0 * geom.X / l + phi("X", geom.X == 0.0)
    u_z = -f0 * geom.Z / l + phi("Z", geom.Z == 0.0)
    u_zp = phi("Z_plus", False)
    # 0.0 - u_x negates exactly, but gives 0.0 rather than -0.0 on the axis.
    return ForcePair(f_a=(u_x, u_z - u_zp), f_b=(0.0 - u_x, -u_z - u_zp))


def _richardson_derivative(f, h: float) -> float:
    """Five-point Richardson-extrapolated central difference."""
    d1 = (f(h) - f(-h)) / (2.0 * h)
    d2 = (f(h / 2.0) - f(-h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def richardson_forces(geom: PlanarGeometry, atom_a: ResonanceAtom,
                      atom_b: ResonanceAtom, medium: HalfSpaceMedium,
                      spec: QuadSpec | None = None,
                      step: float = 1e-3) -> ForcePair:
    """Oracle for ``halfspace_forces`` that shares no derivative code with
    it: each component is -dU/dcoordinate by Richardson-extrapolated
    central differences of ``u_total`` (16 potentials).

    ``step`` is relative to the smallest geometric scale.  The displaced
    atom must stay above the surface.
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
