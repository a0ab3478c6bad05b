"""Two-atom van der Waals potentials in free space and near a half space.

Free space: the attractive potential of two polarizable atoms and the
repulsive potential of a polarizable/magnetizable pair, with their
retarded (l^-7) and nonretarded (l^-6, l^-4) asymptotic coefficients.

Half space: the decomposition U = U0 + U1 + U2 into bulk, cross, and
scattering contributions, computed by direct quadrature, plus every
closed-form asymptotic limit (perfect reflector retarded/nonretarded,
magneto-electric retarded, purely electric/magnetic nonretarded) and the
two threshold ratios along the vertical alignment.

All in reduced units hbar = c = eps0 = mu0 = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial
from scipy import special

from .greens import (
    FOUR_PI,
    GreenComponents,
    HalfSpaceMedium,
    PlanarGeometry,
    free_space_green,
    halfspace_scattering,
    reflection,
    static_reflection,
)
from .materials import LorentzMedium, ResonanceAtom, permeability_iu, \
    permittivity_iu, response_iu
from .quadrature import QuadSpec, integrate_mapped, integrate_semiinf
from .specfun import WeightedIntegralKey, bessel_j0_j1_j2, weighted_AB

__all__ = [
    "PotentialBreakdown",
    "AsymptoticCoefficients",
    "u0_ee",
    "u0_em",
    "asymptotic_coefficients",
    "u1_halfspace",
    "u2_halfspace",
    "u_total",
    "perfect_retarded_closed",
    "perfect_nonretarded_closed",
    "perfect_limit_ratio",
    "retarded_halfspace_closed",
    "nonretarded_electric_closed",
    "nonretarded_magnetic_closed",
    "threshold",
]

PI3_32 = 32.0 * np.pi**3
PI3_64 = 64.0 * np.pi**3
PI3_16 = 16.0 * np.pi**3


@dataclass(frozen=True)
class PotentialBreakdown:
    """Bulk, cross, and scattering parts of the two-atom potential."""

    u0: float
    u1: float
    u2: float
    total: float
    ratio: float

    @classmethod
    def assemble(cls, u0: float, u1: float, u2: float) -> "PotentialBreakdown":
        total = u0 + u1 + u2
        return cls(u0=u0, u1=u1, u2=u2, total=total, ratio=total / u0)


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Power-law coefficients: U ~ -c6/l^6, -c7_ee/l^7 (ee pairs) and
    +c4/l^4, +c7_em/l^7 (em pairs)."""

    c6: float
    c7_ee: float
    c7_em: float
    c4: float

    def __post_init__(self):
        if min(self.c6, self.c7_ee, self.c7_em, self.c4) <= 0:
            raise ValueError("asymptotic coefficients must be positive")


def _u_scale(atom_a: ResonanceAtom, atom_b: ResonanceAtom,
             length: float) -> float:
    """Smallest frequency scale of the integrand: a resonance or 1/length."""
    return min(atom_a.omega10, atom_b.omega10, 1.0 / length)


def _scaled_integral(f, scale: float, spec: QuadSpec, axis: str = "x") -> float:
    """int_0^inf f(u) du as scale * int_0^inf f(scale v) dv, so that the
    engine's default panels sit on the integrand's own scale."""
    res = integrate_semiinf(lambda v: f(scale * v), spec, axis=axis)
    return scale * res.value


def _check_ee(atom_a, atom_b):
    if atom_a.kind != "electric" or atom_b.kind != "electric":
        raise ValueError("both atoms must be electric-polarizable")


def u0_ee(l: float, atom_a: ResonanceAtom, atom_b: ResonanceAtom,
          spec: QuadSpec | None = None) -> float:
    """Free-space potential of two polarizable atoms (always attractive)."""
    if l <= 0:
        raise ValueError("separation l must be positive")
    _check_ee(atom_a, atom_b)
    spec = spec or QuadSpec()

    def f(u):
        x = u * l
        g = 2.0 * np.exp(-2.0 * x) * (3.0 + 6.0 * x + 5.0 * x**2
                                      + 2.0 * x**3 + x**4)
        return response_iu(atom_a, u) * response_iu(atom_b, u) * g

    return -_scaled_integral(f, _u_scale(atom_a, atom_b, l), spec) \
        / (PI3_32 * l**6)


def u0_em(l: float, atom_a: ResonanceAtom, atom_b: ResonanceAtom,
          spec: QuadSpec | None = None) -> float:
    """Free-space potential of a polarizable/magnetizable pair (repulsive)."""
    if l <= 0:
        raise ValueError("separation l must be positive")
    if atom_a.kind != "electric" or atom_b.kind != "magnetic":
        raise ValueError("atom A must be electric, atom B magnetic")
    spec = spec or QuadSpec()

    def f(u):
        x = u * l
        h = 2.0 * np.exp(-2.0 * x) * (1.0 + 2.0 * x + x**2)
        return u**2 * response_iu(atom_a, u) * response_iu(atom_b, u) * h

    return _scaled_integral(f, _u_scale(atom_a, atom_b, l), spec) \
        / (PI3_32 * l**4)


def asymptotic_coefficients(atom_a: ResonanceAtom, atom_b: ResonanceAtom,
                            spec: QuadSpec | None = None) -> AsymptoticCoefficients:
    """Retarded and nonretarded power-law coefficients for the atom pair.

    c7 variants are closed forms in the static responses; c6 and c4 require
    one frequency quadrature each.
    """
    spec = spec or QuadSpec()
    a0 = atom_a.alpha0
    b0 = atom_b.alpha0
    c7_ee = 23.0 * a0 * b0 / PI3_64
    c7_em = 7.0 * a0 * b0 / PI3_64
    c6 = 3.0 / PI3_16 * _response_product_integral(
        atom_a, atom_b, lambda u: np.ones_like(u), spec)
    c4 = 1.0 / PI3_16 * _response_product_integral(
        atom_a, atom_b, lambda u: u**2, spec)
    return AsymptoticCoefficients(c6=c6, c7_ee=c7_ee, c7_em=c7_em, c4=c4)


def _plate_weight(u, atom_a: ResonanceAtom, atom_b: ResonanceAtom):
    """-u^4 alpha_A alpha_B/pi, the frequency weight of every plate part."""
    return -u**4 * response_iu(atom_a, u) * response_iu(atom_b, u) / np.pi


def _cross_trace(u, geom: PlanarGeometry, g1: GreenComponents):
    """Tr[G0(r_A,r_B) . G1(r_B,r_A)], with G1(r_B,r_A) = G1(r_A,r_B)^T."""
    return free_space_green(geom.X, geom.Z, u).trace(g1.transpose())


def scattering_trace(g_ab: GreenComponents) -> float:
    """Tr[G1(r_A,r_B) . G1(r_B,r_A)] for in-plane geometry.

    Swapping the atoms flips the off-diagonal elements (gxz <-> gzx with a
    sign), so the cross contribution enters as -2 gxz gzx.
    """
    return (g_ab.gxx**2 + g_ab.gyy**2 + g_ab.gzz**2
            - 2.0 * g_ab.gxz * g_ab.gzx)


def u1_trace_integrand(u, geom: PlanarGeometry,
                       atom_a: ResonanceAtom, atom_b: ResonanceAtom,
                       medium: HalfSpaceMedium,
                       spec: QuadSpec | None = None):
    """u-integrand of the cross term in Green-tensor trace form:
    -(1/pi) u^4 alpha_A alpha_B Tr[G0(r_A,r_B) . G1(r_B,r_A)].
    Vectorized in u for perfect reflectors."""
    g1 = halfspace_scattering(geom, u, medium, spec=spec)
    return _plate_weight(u, atom_a, atom_b) * _cross_trace(u, geom, g1)


def u2_frequency_integrand(u, geom: PlanarGeometry,
                           atom_a: ResonanceAtom, atom_b: ResonanceAtom,
                           medium: HalfSpaceMedium,
                           spec: QuadSpec | None = None):
    """u-integrand of the scattering part:
    -(1/2pi) u^4 alpha_A alpha_B Tr[G1 . G1].  Vectorized in u for
    perfect reflectors."""
    g1 = halfspace_scattering(geom, u, medium, spec=spec)
    return _plate_weight(u, atom_a, atom_b) * scattering_trace(g1) / 2.0


def _frequency_integral(trace, geom: PlanarGeometry, atom_a: ResonanceAtom,
                        atom_b: ResonanceAtom, medium: HalfSpaceMedium,
                        spec: QuadSpec | None,
                        g1_memo: dict | None = None) -> float:
    """u-integral of a plate part: -u^4 alpha_A alpha_B/pi times
    ``trace(u, G1(u), inner_spec)``.

    Every plate part takes the scale s = min(omega10_A, omega10_B,
    1/(l + Z+)), so all of them meet G1 at the same u-nodes.  Perfect
    reflectors take each batch of u-nodes at once, from the engine's
    default panels.  Finite media need one q-quadrature per node, at the
    tightened inner tolerance, so a node costs far more than a refinement
    round: their integral starts from 4 panels, and is taken in units of
    ``_plate_magnitude`` so that abs_tol is relative to an O(1) integrand
    however small the part is.  ``g1_memo``, a dict keyed by float u that
    the caller holds for one call at one geometry, medium and spec, lets
    the integrals of that call evaluate G1 once per node.
    """
    _check_ee(atom_a, atom_b)
    if medium.is_vacuum:
        return 0.0
    spec = spec or QuadSpec()
    inner = spec.tightened()
    memo = {} if g1_memo is None else g1_memo

    def g1_at(u: float) -> GreenComponents:
        g1 = memo.get(u)
        if g1 is None:
            g1 = memo[u] = halfspace_scattering(geom, u, medium, spec=inner)
        return g1

    def outer(us):
        if medium.is_perfect:
            traces = trace(us, halfspace_scattering(geom, us, medium), inner)
        else:
            traces = np.array([trace(u, g1_at(u), inner)
                               for u in us.tolist()])
        return _plate_weight(us, atom_a, atom_b) * traces

    scale = _u_scale(atom_a, atom_b, geom.l + geom.Z_plus)
    if medium.is_perfect:
        return _scaled_integral(outer, scale, spec, axis="u")
    size = _plate_magnitude(scale, geom, atom_a, atom_b)
    res = integrate_mapped(lambda v: outer(scale * v) / size, spec,
                           panels=4, axis="u")
    return size * scale * res.value


def _plate_magnitude(u: float, geom: PlanarGeometry, atom_a: ResonanceAtom,
                     atom_b: ResonanceAtom) -> float:
    """Size of a plate part's u-integrand at u with its exponentials
    dropped: u^4 alpha_A alpha_B/pi times g(l) g(l+), where g(rho) =
    (1 + xi + xi^2)/(4 pi rho), xi = 1/(u rho), is the size of G0 at
    distance rho."""
    def g(rho):
        xi = 1.0 / (u * rho)
        return (1.0 + xi + xi**2) / (FOUR_PI * rho)

    return float(-_plate_weight(u, atom_a, atom_b)) * g(geom.l) \
        * g(geom.l_plus)


def u1_halfspace(geom: PlanarGeometry, atom_a: ResonanceAtom,
                 atom_b: ResonanceAtom, medium: HalfSpaceMedium,
                 spec: QuadSpec | None = None, *,
                 g1_memo: dict | None = None) -> float:
    """Cross term of bulk and scattering Green tensor parts: the
    u-integral of -(1/pi) u^4 alpha_A alpha_B Tr[G0 . G1^T], with the
    exact image closed form of G1 on perfect reflectors and its
    q-quadratures on finite media.  ``g1_memo`` shares G1 with the other
    plate parts of one call (see ``u_total``)."""
    return _frequency_integral(
        lambda u, g1, _: _cross_trace(u, geom, g1), geom, atom_a, atom_b,
        medium, spec, g1_memo)


def u2_scattering_integrand(q, qp, u: float, geom: PlanarGeometry,
                            medium: HalfSpaceMedium):
    """Explicit (q, q')-integrand of the scattering part at fixed u (the
    factor under int dq dq', excluding the frequency prefactor).

    Kept as the reference form of the double Sommerfeld integral; the
    production path integrates the equivalent Green-tensor trace.
    """
    q = np.asarray(q, dtype=float)
    qp = np.asarray(qp, dtype=float)
    x = geom.X
    k2 = u**2
    rs, rp = reflection(q, u, medium)
    rs_p, rp_p = reflection(qp, u, medium)
    b = np.sqrt(u**2 + q**2)
    bp = np.sqrt(u**2 + qp**2)
    j0, j0p = special.j0(q * x), special.j0(qp * x)
    j1, j1p = special.j1(q * x), special.j1(qp * x)
    j2, j2p = special.jn(2, q * x), special.jn(2, qp * x)
    bracket0 = (rs * rs_p / (b * bp)
                + rp * rp_p / k2**2 * (b * bp + 2.0 * q**2 * qp**2 / (b * bp))
                - bp * rs * rp_p / (b * k2)
                - b * rp * rs_p / (bp * k2))
    bracket1 = 4.0 * q * qp * rp * rp_p / k2**2
    bracket2 = (rs * rs_p / (b * bp)
                + b * bp * rp * rp_p / k2**2
                + bp * rs * rp_p / (b * k2)
                + b * rp * rs_p / (bp * k2))
    return (q * qp * np.exp(-(b + bp) * geom.Z_plus)
            * (bracket0 * j0 * j0p + bracket1 * j1 * j1p + bracket2 * j2 * j2p))


def u2_halfspace(geom: PlanarGeometry, atom_a: ResonanceAtom,
                 atom_b: ResonanceAtom, medium: HalfSpaceMedium,
                 spec: QuadSpec | None = None, *,
                 g1_memo: dict | None = None) -> float:
    """Scattering-part contribution, by u-quadrature of the Green-tensor
    trace (whose q-quadratures carry the (q, q') structure).  ``g1_memo``
    shares G1 with the other plate parts of one call (see ``u_total``)."""
    return _frequency_integral(
        lambda u, g1, _: scattering_trace(g1) / 2.0, geom, atom_a, atom_b,
        medium, spec, g1_memo)


def u_total(geom: PlanarGeometry, atom_a: ResonanceAtom,
            atom_b: ResonanceAtom, medium: HalfSpaceMedium,
            spec: QuadSpec | None = None) -> PotentialBreakdown:
    """Full potential breakdown U0 + U1 + U2 at the given geometry.

    U1 and U2 are u-integrals at one scale; on finite media they share one
    G1 per u-node through a memo that lives for this call only.
    """
    spec = spec or QuadSpec()
    u0 = u0_ee(geom.l, atom_a, atom_b, spec=spec)
    if medium.is_vacuum:
        return PotentialBreakdown.assemble(u0, 0.0, 0.0)
    g1_memo = {}
    u1 = u1_halfspace(geom, atom_a, atom_b, medium, spec=spec,
                      g1_memo=g1_memo)
    u2 = u2_halfspace(geom, atom_a, atom_b, medium, spec=spec,
                      g1_memo=g1_memo)
    return PotentialBreakdown.assemble(u0, u1, u2)


def _plate_sign(plate_kind: str) -> float:
    if plate_kind == "conducting":
        return 1.0
    if plate_kind == "permeable":
        return -1.0
    raise ValueError("plate_kind must be 'conducting' or 'permeable'")


def perfect_retarded_closed(geom: PlanarGeometry, atom_a: ResonanceAtom,
                            atom_b: ResonanceAtom,
                            plate_kind: str) -> PotentialBreakdown:
    """Closed-form retarded potential near a perfect reflector (X << Z+)."""
    sign = _plate_sign(plate_kind)
    c7 = 23.0 * atom_a.alpha0 * atom_b.alpha0 / PI3_64
    l = geom.l
    zp = geom.Z_plus
    u0 = -c7 / l**7
    u1 = sign * (32.0 / 23.0) * (geom.X**2 + 6.0 * l**2) * c7 \
        / (l**3 * zp * (l + zp) ** 5)
    u2 = -c7 / zp**7
    return PotentialBreakdown.assemble(u0, u1, u2)


def perfect_nonretarded_closed(geom: PlanarGeometry, atom_a: ResonanceAtom,
                               atom_b: ResonanceAtom, plate_kind: str,
                               spec: QuadSpec | None = None) -> PotentialBreakdown:
    """Closed-form nonretarded potential near a perfect reflector."""
    sign = _plate_sign(plate_kind)
    c6 = asymptotic_coefficients(atom_a, atom_b, spec=spec).c6
    l = geom.l
    lp = geom.l_plus
    x, z, zp = geom.X, geom.Z, geom.Z_plus
    u0 = -c6 / l**6
    u1 = sign * (4.0 * x**4 - 2.0 * z**2 * zp**2 + x**2 * (zp**2 + z**2)) \
        * c6 / (3.0 * l**5 * lp**5)
    u2 = -c6 / lp**6
    return PotentialBreakdown.assemble(u0, u1, u2)


def perfect_limit_ratio(case: str) -> float:
    """Limiting U/U0 ratios of the perfect-reflector closed forms.

    'retarded-vertical-conducting'/'-permeable': atom A approaching the
    surface (z_A/z_B -> 0), where U1/U0 -> -+ (32/23)*6/2^5 and U2/U0 -> 1.
    'nonretarded-parallel-conducting'/'-permeable': on-surface limit
    Z+ -> 0, where U1/U0 -> -+ 4/3 and U2/U0 -> 1.
    """
    if case == "retarded-vertical-conducting":
        return 40.0 / 23.0
    if case == "retarded-vertical-permeable":
        return 52.0 / 23.0
    if case == "nonretarded-parallel-conducting":
        return 2.0 / 3.0
    if case == "nonretarded-parallel-permeable":
        return 10.0 / 3.0
    raise ValueError(f"unknown case {case!r}")


def _v_quadrature(f, spec: QuadSpec, breakpoints=None, axis="v"):
    """Integral over v in [1, inf) via the shift v = 1 + w."""
    shifted_breaks = None
    if breakpoints is not None:
        shifted_breaks = [p - 1.0 for p in breakpoints if p > 1.0]
    return integrate_semiinf(lambda w: f(w + 1.0), spec,
                             breakpoints=shifted_breaks, axis=axis)


def _static_h_weight(v, eps0: float, mu0: float):
    """r_s + r_p v^2 of the static reflection coefficients, v >= 1.

    Its large-v limit r_s(inf) + lim (r_p - r_p(inf)) v^2 = K is 0 at
    (eps0, mu0) = (1, 3), where the two terms are O(1/2) and their sum
    O(1/v^2).  With R = sqrt(a + v^2), a = eps0 mu0 - 1, d = R - v =
    a/(R + v) and the limits r(inf) = (x - 1)/(x + 1):
    r_s - r_s(inf) = -2 mu0 d/((mu0 + 1)((mu0 + 1) v + d)), and
    r_s(inf) + (r_p - r_p(inf)) v^2 is one fraction whose numerator
    2 (eps0 + 1) K v^2 + r_s(inf)((eps0 + 1) v d + a) carries K =
    r_s(inf) - eps0 a/(eps0 + 1)^2 as a coefficient, not as a difference.
    """
    a = eps0 * mu0 - 1.0
    r_sum = np.sqrt(a + v**2) + v
    d = a / r_sum
    rs_inf = (mu0 - 1.0) / (mu0 + 1.0)
    k = rs_inf - eps0 * a / (eps0 + 1.0) ** 2
    return ((eps0 - 1.0) / (eps0 + 1.0) * v**2
            - 2.0 * mu0 * d / ((mu0 + 1.0) * ((mu0 + 1.0) * v + d))
            + (2.0 * (eps0 + 1.0) * k * v**2
               + rs_inf * ((eps0 + 1.0) * v * d + a))
            / (((eps0 + 1.0) * v + d) * r_sum))


def retarded_halfspace_closed(geom: PlanarGeometry, atom_a: ResonanceAtom,
                              atom_b: ResonanceAtom, eps0: float, mu0: float,
                              spec: QuadSpec | None = None):
    """Retarded-limit (U1, U2) for a magneto-electric half space with static
    response (eps0, mu0).

    Both parts are computed at unit length and scaled back, so only the
    ratios of (l, X, Z, Z+) enter the quadratures.  With s = sqrt(v^2 - 1):

    U1 = l^-7 times a v-quadrature over closed-form Bessel moments with
    lambda = 1 + v Z+/l and zeta = (X/l) s.

    U2 = Z+^-7 times int_0^inf dy y^6 [F^T C F + 4 G^2 + H^2] with
    y = Z+ x, rho = X/Z+, C = [[3, -2, -1], [-2, 2, 0], [-1, 0, 1]] and the
    single v-integrals
    F = int dv (r_p v^2, r_p, r_s) e^{-vy} J0(y rho s),
    G = int dv v s r_p e^{-vy} J1(y rho s),
    H = int dv (r_s + r_p v^2) e^{-vy} J2(y rho s);
    each coefficient of the (v, v') double integral is a sum of products of
    one function of v and one of v', so the double integral factorises.
    """
    spec = spec or QuadSpec()
    a0b0 = atom_a.alpha0 * atom_b.alpha0
    l, x, z, zp = geom.l, geom.X, geom.Z, geom.Z_plus
    if eps0 == 1.0 and mu0 == 1.0:
        return 0.0, 0.0

    k_plus = {k: WeightedIntegralKey("A+", k) for k in (3, 4, 5)}
    k_minus = {k: WeightedIntegralKey("A-", k) for k in (3, 4, 5)}

    def u1_integrand(v: float) -> float:
        # v-form of the cross-term integrand: the frequency integral of the
        # explicit (u, q) expression collapses onto Bessel moments with
        # lambda = 1 + v Z+/l, zeta = (X/l) sqrt(v^2 - 1) once the static
        # responses are pulled out.  J0 moments are (A+ + A-)/2, J2 moments
        # (A+ - A-)/2.
        lam = 1.0 + v * zp / l
        zeta = x / l * math.sqrt(v**2 - 1.0)
        ap = {k: weighted_AB(k_plus[k], lam, zeta) for k in (3, 4, 5)}
        am = {k: weighted_AB(k_minus[k], lam, zeta) for k in (3, 4, 5)}
        b0 = {k: 0.5 * (ap[k] + am[k]) for k in (3, 4, 5)}
        c2 = {k: 0.5 * (ap[k] - am[k]) for k in (3, 4, 5)}
        rs, rp = static_reflection(v, eps0, mu0)
        mom_a = b0[5] + b0[4] + b0[3]
        mom_b = b0[5] + 3.0 * b0[4] + 3.0 * b0[3]
        mom_b2 = c2[5] + 3.0 * c2[4] + 3.0 * c2[3]
        term_j0 = ((rs - v**2 * rp) * (2.0 * mom_a - x**2 / l**2 * mom_b)
                   - 2.0 * (v**2 - 1.0) * rp
                   * (mom_a - z**2 / l**2 * mom_b))
        term_j2 = -(x**2 / l**2) * (rs + v**2 * rp) * mom_b2
        return term_j0 + term_j2

    def u1_vec(vs):
        return np.array([u1_integrand(v) for v in np.atleast_1d(vs)])

    v_breaks = [1.0 + w for w in (0.1, 0.3, 1.0, 3.0, 10.0, 5.0 * l / zp + 10.0)]
    u1_res = _v_quadrature(u1_vec, spec, breakpoints=v_breaks)
    u1 = -a0b0 / (PI3_32 * l**7) * u1_res.value

    rho = x / zp
    inner_spec = spec.tightened()
    c_mat = np.array([[3.0, -2.0, -1.0], [-2.0, 2.0, 0.0], [-1.0, 0.0, 1.0]])

    # (weight(v, s, r_s, r_p), Bessel function) of the v-integrals F, G, H.
    v_terms = (
        (lambda v, s, rs, rp: rp * v**2, special.j0),
        (lambda v, s, rs, rp: rp, special.j0),
        (lambda v, s, rs, rp: rs, special.j0),
        (lambda v, s, rs, rp: v * s * rp, special.j1),
        (lambda v, s, rs, rp: _static_h_weight(v, eps0, mu0),
         lambda t: bessel_j0_j1_j2(t)[2]),
    )

    def v_integral(weight, bessel, y: float, breaks) -> float:
        def f(v):
            rs, rp = static_reflection(v, eps0, mu0)
            s = np.sqrt(v**2 - 1.0)
            return weight(v, s, rs, rp) * np.exp(-v * y) * bessel(y * rho * s)

        return _v_quadrature(f, inner_spec, breakpoints=breaks).value

    v2_breaks = [1.0 + w for w in (0.1, 0.3, 1.0, 3.0, 10.0)]

    def y_integrand(ys):
        out = np.empty_like(ys)
        for i, y in enumerate(ys):
            breaks = v2_breaks + [c / y for c in (1.0, 4.0, 16.0) if c / y > 1.0]
            f0, f1, f2, g, h = (v_integral(w, j, y, breaks)
                                for w, j in v_terms)
            f = np.array([f0, f1, f2])
            out[i] = y**6 * (f @ c_mat @ f + 4.0 * g**2 + h**2)
        return out

    # Graded towards y = 0, where the large-v tails of r_s and r_p leave
    # y^k log y terms, and spanning the y^6 e^{-2y}-like peak and decay.
    y_breaks = [0.01, 0.1, 0.875, 1.75, 3.5, 7.0, 14.0, 28.0]
    u2_res = integrate_semiinf(y_integrand, spec, breakpoints=y_breaks, axis="y")
    u2 = -a0b0 / (PI3_64 * zp**7) * u2_res.value
    return u1, u2


def _response_product_integral(atom_a, atom_b, weight, spec, scale=math.inf):
    """int_0^inf alpha_A alpha_B weight du at the lower of the atomic
    resonances and ``scale`` (a medium resonance the weight carries)."""
    def f(u):
        return response_iu(atom_a, u) * response_iu(atom_b, u) * weight(u)

    return _scaled_integral(f, min(atom_a.omega10, atom_b.omega10, scale),
                            spec)


def nonretarded_electric_closed(geom: PlanarGeometry, atom_a: ResonanceAtom,
                                atom_b: ResonanceAtom,
                                eps_medium: LorentzMedium,
                                spec: QuadSpec | None = None) -> float:
    """Nonretarded total potential near a purely electric half space."""
    _check_ee(atom_a, atom_b)
    spec = spec or QuadSpec()

    def frac(u):
        e = permittivity_iu(eps_medium, u)
        return (e - 1.0) / (e + 1.0)

    c6 = 3.0 / PI3_16 * _response_product_integral(
        atom_a, atom_b, lambda u: np.ones_like(u), spec)
    d = 1.0 / PI3_16 * _response_product_integral(
        atom_a, atom_b, frac, spec, eps_medium.omegaT)
    e_coef = 3.0 / PI3_16 * _response_product_integral(
        atom_a, atom_b, lambda u: frac(u) ** 2, spec, eps_medium.omegaT)
    l, lp = geom.l, geom.l_plus
    x, z, zp = geom.X, geom.Z, geom.Z_plus
    return (-c6 / l**6
            + (4.0 * x**4 - 2.0 * z**2 * zp**2 + x**2 * (z**2 + zp**2)) * d
            / (l**5 * lp**5)
            - e_coef / lp**6)


def nonretarded_magnetic_closed(geom: PlanarGeometry, atom_a: ResonanceAtom,
                                atom_b: ResonanceAtom,
                                mu_medium: LorentzMedium,
                                spec: QuadSpec | None = None) -> float:
    """Nonretarded total potential near a purely magnetic half space.

    The scattering part U2 does not contribute at this order.  Static
    permeabilities above 1e3 are rejected: the nonretarded limit is
    incompatible with perfect reflectivity.
    """
    _check_ee(atom_a, atom_b)
    spec = spec or QuadSpec()
    mu0 = permeability_iu(mu_medium, 0.0)
    if mu0 > 1e3:
        raise ValueError(
            f"static permeability {mu0:.3g} too large: the nonretarded limit "
            "breaks down on approach to perfect reflectivity")

    def weight(u):
        m = permeability_iu(mu_medium, u)
        return u**2 * (m - 1.0) * (m - 3.0) / (m + 1.0)

    c6 = 3.0 / PI3_16 * _response_product_integral(
        atom_a, atom_b, lambda u: np.ones_like(u), spec)
    f_coef = 1.0 / PI3_64 * _response_product_integral(atom_a, atom_b, weight,
                                                       spec, mu_medium.omegaT)
    l, lp = geom.l, geom.l_plus
    x, z, zp = geom.X, geom.Z, geom.Z_plus
    return (-c6 / l**6
            + (z**2 - 2.0 * x**2 + 3.0 * zp * (lp - zp)) * f_coef / (l**5 * lp))


_THRESHOLD_CASES = ("retarded-conducting-vertical",
                    "nonretarded-permeable-vertical")


def threshold(case: str) -> float:
    """Height ratio z_B/z_A at which U1 + U2 changes sign (vertical family).

    With z_A = 1 and z_B = r: in the retarded conducting case the closed
    forms give U1 + U2 proportional to
    (192/23)/((r-1)(r+1)(2r)^5) - 1/(r+1)^7, which vanishes at the real
    root above 1 of r^5 (r-1) - (6/23)(r+1)^6; in the nonretarded permeable
    case to 2/(3 (r+1)^3 (r-1)^3) - 1/(r+1)^6, which vanishes at
    (r+1)/(r-1) = 1.5^(1/3).
    """
    if case == "retarded-conducting-vertical":
        poly = (Polynomial([0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0])
                - (6.0 / 23.0) * Polynomial([1.0, 1.0]) ** 6)
        # The other five roots lie in the left half plane.
        return float(max(poly.roots().real))
    if case == "nonretarded-permeable-vertical":
        return 1.0 + 2.0 / (1.5 ** (1.0 / 3.0) - 1.0)
    raise ValueError(f"case must be one of {_THRESHOLD_CASES}")
