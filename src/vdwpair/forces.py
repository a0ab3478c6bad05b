"""Van der Waals forces on the two atoms.

Free space: the signed radial force from the l-derivative of the pair's
row of ``FREE_SPACE_PAIRS``.  Near a half space: per-atom force vectors
from their own frequency integrals.  The potential depends on the atoms only
through X = x_B - x_A, Z = z_B - z_A and Z+ = z_A + z_B, so the radial
free-space force and the derivative parts Phi_X, Phi_Z and Phi_Z+ of
``potentials._PLATE_PARTS`` (dG0 in closed form, dG1 by image signs or
derivative q-kernels) give all four components.  A force row integrates
them with U1 and U2 in one call and returns the potential breakdown as
``ForcePair.potential``.  Richardson-extrapolated differences of the total
potential are kept as the independent oracle ``richardson_forces``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .greens import HalfSpaceMedium, PlanarGeometry
from .materials import ResonanceAtom
from .quadrature import QuadSpec, integrate_semiinf
from .potentials import FREE_SPACE_PAIRS, PotentialBreakdown, \
    _free_space_integral, _plate_parts, u0_ee, u_total

__all__ = ["ForcePair", "free_space_force", "halfspace_forces",
           "richardson_forces"]

# F = -dU/dl of a FREE_SPACE_PAIRS row: at x = ul, -d/dl[l^-n e^{-2x} P(x)]
# = l^-(n+1) e^{-2x} (nP - xP' + 2xP), so q_k = (n - k) p_k + 2 p_(k-1).
_FORCE_ROWS = {
    pair: (sign, n + 1, m, tuple((n - k) * pk + 2.0 * pk_1 for k, (pk, pk_1)
                                 in enumerate(zip(p + (0.0,), (0.0,) + p))))
    for pair, (sign, n, m, p) in FREE_SPACE_PAIRS.items()}


@dataclass(frozen=True)
class ForcePair:
    """Force vectors on the two atoms, in the xz plane (fy = 0), and the
    potential breakdown at their geometry."""

    f_a: tuple[float, float]
    f_b: tuple[float, float]
    potential: PotentialBreakdown


def free_space_force(l: float, atom_a: ResonanceAtom, atom_b: ResonanceAtom,
                     spec: QuadSpec | None = None) -> float:
    """Signed radial force F = -dU/dl between the two atoms in free space.

    Negative means attraction (electric-electric pairs), positive repulsion
    (electric-magnetic pairs).
    """
    return _free_space_integral(_FORCE_ROWS, None, l, atom_a, atom_b, spec,
                                integrate_semiinf)


def halfspace_forces(geom: PlanarGeometry, atom_a: ResonanceAtom,
                     atom_b: ResonanceAtom, medium: HalfSpaceMedium,
                     spec: QuadSpec | None = None) -> ForcePair:
    """Force vectors on both atoms near the half space, with the potential
    breakdown at the same geometry.

    U_X = dU/dX = -f0 X/l + Phi_X and U_Z = -f0 Z/l + Phi_Z, with f0 the
    free-space radial force and Phi the plate parts; U_Z+ = Phi_Z+.  Then
    F_A = (U_X, U_Z - U_Z+) and F_B = (-U_X, -U_Z - U_Z+), so
    F_A,x = -F_B,x holds exactly.  U1, U2 and the Phi come from one
    ``_plate_parts`` call, so ``potential`` is ``u_total``'s to the bit.
    U is even in X (mirror symmetry) and in Z (atom exchange), so Phi_X on
    the axis X = 0 and Phi_Z at Z = 0 are zero and not integrated.
    """
    l = geom.l
    f0 = free_space_force(l, atom_a, atom_b, spec=spec)
    names = ["U1", "U2", "Z_plus", *(wrt for wrt in ("X", "Z")
                                     if getattr(geom, wrt) != 0.0)]
    part = {"X": 0.0, "Z": 0.0, **_plate_parts(names, geom, atom_a, atom_b,
                                               medium, spec, {})}
    u_x = -f0 * geom.X / l + part["X"]
    u_z = -f0 * geom.Z / l + part["Z"]
    u_zp = part["Z_plus"]
    # 0.0 - u_x negates exactly, but gives 0.0 rather than -0.0 on the axis.
    return ForcePair(f_a=(u_x, u_z - u_zp), f_b=(0.0 - u_x, -u_z - u_zp),
                     potential=PotentialBreakdown.assemble(
                         u0_ee(l, atom_a, atom_b, spec=spec), part["U1"],
                         part["U2"]))


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
    central differences of ``u_total`` (16 potentials, at the tightened
    spec), and ``potential`` is ``u_total`` at the unshifted geometry and
    the requested spec (a 17th).

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
    return ForcePair(f_a=(fax, faz), f_b=(fbx, fbz),
                     potential=u_total(geom, atom_a, atom_b, medium,
                                       spec=spec))
