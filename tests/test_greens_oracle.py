"""Half-space scattering tensor G1 against an mpmath oracle.

The oracle shares no code with the package.  It integrates the Sommerfeld
representation of G1(r_A, r_B) at imaginary frequency iu (hbar = c = eps0
= mu0 = 1) with ``mpmath.quad``, for in-plane atoms at horizontal offset
X = x_B - x_A and summed height Z+ = z_A + z_B:

    gxx = int q e^{-b Z+} [(J0 + J2) r_s / b - b (J0 - J2) r_p / u^2] dq / (8 pi),
    gzx = int q^2 e^{-b Z+} J1 r_p dq / (4 pi u^2),

with J_nu = J_nu(qX), b = sqrt(u^2 + q^2), b_m = sqrt(eps mu u^2 + q^2)
and the Fresnel coefficients in direct form, r_s = (mu b - b_m)/(mu b +
b_m), r_p = (eps b - b_m)/(eps b + b_m).  The medium is the single Lorentz
resonance eps(iu) (or mu(iu)) = 1 + wP^2/(wT^2 + u^2 + gamma u).  The
q-axis is split at k/Z+, where e^{-b Z+} falls off, and at the multiples
of pi/X below 40/Z+, where J_nu(qX) changes sign.
"""

import mpmath
import pytest

from vdwpair import HalfSpaceMedium, LorentzMedium, PlanarGeometry
from vdwpair.greens import halfspace_scattering
from vdwpair.quadrature import QuadSpec

SPEC = QuadSpec(rel_tol=1e-9)
# (omegaP, omegaT, gamma) of the default dielectric and magnetic media
LORENTZ = (3.0, 1.0, 1e-3)
MEDIA = {"dielectric": HalfSpaceMedium.dielectric(LorentzMedium(*LORENTZ)),
         "magnetic": HalfSpaceMedium.magnetic(LorentzMedium(*LORENTZ))}
# (x_a, z_a, x_b, z_b, u): X/Z+ = 1.5 at u Z+ = 0.06 and at u Z+ = 1e-3,
# and the surface normal X = 0
POINTS = {"parallel-u3": (0.0, 0.01, 0.03, 0.01, 3.0),
          "parallel-u0.05": (0.0, 0.01, 0.03, 0.01, 0.05),
          "vertical-u1": (0.0, 0.01, 0.0, 0.06, 1.0)}
DECAY_SPLITS = (0.1, 0.3, 1.0, 3.0, 10.0, 40.0)


def lorentz(u):
    w_p, w_t, gamma = (mpmath.mpf(v) for v in LORENTZ)
    return 1 + w_p**2 / (w_t**2 + u**2 + gamma * u)


def oracle_g1(kind, x, zp, u):
    """(gxx, gzx) of G1 by mpmath quadrature of the Sommerfeld integrals."""
    with mpmath.workdps(15):
        x, zp, u = mpmath.mpf(x), mpmath.mpf(zp), mpmath.mpf(u)
        eps = lorentz(u) if kind == "dielectric" else mpmath.mpf(1)
        mu = lorentz(u) if kind == "magnetic" else mpmath.mpf(1)

        def parts(q):
            b = mpmath.sqrt(u**2 + q**2)
            b_m = mpmath.sqrt(eps * mu * u**2 + q**2)
            rs = (mu * b - b_m) / (mu * b + b_m)
            rp = (eps * b - b_m) / (eps * b + b_m)
            return b, rs, rp, q * mpmath.exp(-b * zp)

        def gxx(q):
            b, rs, rp, damp = parts(q)
            j0, j2 = mpmath.besselj(0, q * x), mpmath.besselj(2, q * x)
            return damp * ((j0 + j2) * rs / b
                           - b * (j0 - j2) * rp / u**2) / (8 * mpmath.pi)

        def gzx(q):
            b, rs, rp, damp = parts(q)
            return (damp * q * mpmath.besselj(1, q * x) * rp
                    / (4 * mpmath.pi * u**2))

        q_end = DECAY_SPLITS[-1] / zp
        splits = {k / zp for k in DECAY_SPLITS}
        if x:
            n = 1
            while n * mpmath.pi / x < q_end:
                splits.add(n * mpmath.pi / x)
                n += 1
        edges = [mpmath.mpf(0)] + sorted(splits) + [mpmath.inf]
        return (float(mpmath.quad(gxx, edges)),
                0.0 if x == 0 else float(mpmath.quad(gzx, edges)))


@pytest.mark.parametrize("kind", sorted(MEDIA))
@pytest.mark.parametrize("point", sorted(POINTS))
def test_scattering_tensor_matches_the_mpmath_oracle(kind, point):
    x_a, z_a, x_b, z_b, u = POINTS[point]
    geom = PlanarGeometry(x_a, z_a, x_b, z_b)
    ref = oracle_g1(kind, geom.X, geom.Z_plus, u)
    g1 = halfspace_scattering(geom, u, MEDIA[kind], spec=SPEC)
    scale = max(abs(v) for v in (g1.gxx, g1.gyy, g1.gxz, g1.gzx, g1.gzz))
    assert scale > 0
    for got, want in zip((g1.gxx, g1.gzx), ref):
        assert abs(got - want) <= 1e-8 * scale
