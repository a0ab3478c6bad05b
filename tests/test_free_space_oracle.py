"""Free-space potentials and forces against an mpmath oracle.

The oracle shares no code with the package.  It integrates the
Casimir-Polder forms over the imaginary frequency u (hbar = c = eps0 =
mu0 = 1) with ``mpmath.quad``:

    U_ee = -1/(2 pi) int u^4 alpha_A alpha_B Tr[G0 G0] du,
    U_em = +1/(2 pi) int u^2 alpha_A beta_B Tr[(curl G0)(curl G0)^T] du.

G0(r, iu) has the transverse eigenvalue (1 + x + x^2) e^{-x}/(4 pi u^2 r^3)
(twice) and the longitudinal one -2 (1 + x) e^{-x}/(4 pi u^2 r^3), x = ur,
and curl G0 is the antisymmetric tensor of grad(e^{-ur}/(4 pi r)), whose
two singular values are (1 + x) e^{-x}/(4 pi r^2).  The force is
F = -dU/dl by ``mpmath.diff`` of that U.

A perfect plate's G1 is G0 at the image point times diag(1, 1, -1) (or
its negative), an orthogonal matrix, so Tr[G1 G1^T] is Tr[G0 G0] at
l+ = |r_A - r_B*|: the scattering part U2 is the free-space U_ee(l+).
"""

import mpmath
import pytest

from vdwpair import (
    HalfSpaceMedium,
    PlanarGeometry,
    ResonanceAtom,
    free_space_force,
    u0_ee,
    u0_em,
    u_total,
)
from vdwpair.quadrature import QuadSpec

SPEC = QuadSpec(rel_tol=1e-8)
ATOM_A = ResonanceAtom()
ATOM_B = ResonanceAtom(omega10=0.5, alpha0=2.0)
MAG_B = ResonanceAtom(omega10=0.5, alpha0=2.0, kind="magnetic")
SEPARATIONS = [1e-3, 3e-3, 0.03, 0.3, 1.0, 10.0, 100.0]
# 12 digits keep the oracle within 1e-12 of U and F (against the engine at
# rel_tol 1e-13); mpmath.diff works at twice that precision.
DPS = 12


def _oracle_u(pair, atom_b, r):
    """U at separation r over y = u/s, s = min(resonances, 1/r), with the
    factors that do not depend on y taken out: ``mpmath.quad`` stops at an
    absolute error of about eps, so its integrand must be of size ~1."""
    r = mpmath.mpf(r)
    s = min(ATOM_A.omega10, atom_b.omega10, 1 / r)
    wa2, wb2 = mpmath.mpf(ATOM_A.omega10)**2, mpmath.mpf(atom_b.omega10)**2

    def f(y):
        # (4 pi)^2 e^{2x} r^6 u^4 Tr[G0 G0] = 2 T^2 + L^2 with the factors
        # T = 1 + x + x^2 and L = -2 (1 + x) of the eigenvalues above, and
        # (4 pi)^2 e^{2x} r^4 u^2 Tr[(curl G0)(curl G0)^T] = 2 u^2 (1 + x)^2,
        # here over s^2; times alpha_A alpha_B/(alpha0_A alpha0_B)
        u2, x = (s * y)**2, s * r * y
        if pair == "ee":
            trace = 2 * (1 + x + x**2)**2 + 4 * (1 + x)**2
        else:
            trace = 2 * y**2 * (1 + x)**2
        return (trace * mpmath.exp(-2 * x)
                * wa2 * wb2 / ((wa2 + u2) * (wb2 + u2)))

    factor, power = (-1, 6) if pair == "ee" else (s**2, 4)
    return (factor * ATOM_A.alpha0 * atom_b.alpha0 * s
            * mpmath.quad(f, [0, mpmath.inf])
            / (2 * mpmath.pi * (4 * mpmath.pi)**2 * r**power))


CASES = {
    "u0_ee": lambda l: (u0_ee(l, ATOM_A, ATOM_B, spec=SPEC),
                        _oracle_u("ee", ATOM_B, l)),
    "u0_em": lambda l: (u0_em(l, ATOM_A, MAG_B, spec=SPEC),
                        _oracle_u("em", MAG_B, l)),
    "force_ee": lambda l: (free_space_force(l, ATOM_A, ATOM_B, spec=SPEC),
                           -mpmath.diff(lambda r: _oracle_u("ee", ATOM_B, r),
                                        l, addprec=0)),
    "force_em": lambda l: (free_space_force(l, ATOM_A, MAG_B, spec=SPEC),
                           -mpmath.diff(lambda r: _oracle_u("em", MAG_B, r),
                                        l, addprec=0)),
}


@pytest.mark.parametrize("l", SEPARATIONS)
@pytest.mark.parametrize("name", CASES)
def test_free_space_against_mpmath(name, l):
    with mpmath.workdps(DPS):
        got, ref = CASES[name](l)
        ref = float(ref)
    assert abs(got - ref) <= SPEC.rel_tol * abs(ref)


@pytest.mark.parametrize("medium", ["conducting", "permeable"])
@pytest.mark.parametrize("geom", [PlanarGeometry.parallel(1.0, 0.05),
                                  PlanarGeometry.vertical(2.0, 1.0)],
                         ids=["parallel", "vertical"])
def test_perfect_plate_u2_is_free_space_at_the_image(geom, medium):
    u2 = u_total(geom, ATOM_A, ATOM_B, HalfSpaceMedium(perfect=medium),
                 spec=SPEC).u2
    with mpmath.workdps(DPS):
        ref = float(_oracle_u("ee", ATOM_B, geom.l_plus))
    image = u0_ee(geom.l_plus, ATOM_A, ATOM_B, spec=SPEC)
    assert abs(u2 - ref) <= SPEC.rel_tol * abs(ref)
    assert abs(u2 - image) <= SPEC.rel_tol * abs(image)
