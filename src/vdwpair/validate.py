"""Acceptance validation suite.

Each check exercises one verifiable claim about the implementation:
asymptotic power laws, closed-form limit ratios, dual-route integrand
oracles, thresholds, and figure-shape properties.  The checks are shared
between the test suite and the command-line ``validate`` subcommand.

The oracles that only the checks and tests use live here too: the
Green-tensor trace and explicit Bessel-kernel routes of the U1 and U2
u-integrands, with the nested 2-D quadrature of the latter (check 8), the
closed forms of the Bessel moments and their direct quadrature (check 7),
the image-dipole sign table of the cross term (check 12) and the retarded
limit near a magneto-electric half space of static response (eps0, mu0),
a v-quadrature over those moments (check 14).  They take their grids from
``_grid`` and their Bessel functions from ``scipy.special``, none from
``greens``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .forces import halfspace_forces, richardson_forces
from .greens import HalfSpaceMedium, PlanarGeometry, reflection
from .materials import LorentzMedium, ResonanceAtom, response_iu
from .potentials import (
    LIMIT_RATIOS,
    PI3_32,
    PI3_64,
    THRESHOLD_CASES,
    _Batch,
    _check_ee,
    asymptotic_coefficients,
    nonretarded_closed,
    perfect_retarded_closed,
    threshold,
    u0_ee,
    u0_em,
    u_total,
)
from .quadrature import QuadResult, QuadSpec, integrate_semiinf

__all__ = ["CheckResult", "run_all", "CHECKS", "ORACLE_CHECKS"]

_ATOM = ResonanceAtom()
# The two default media: one Lorentz response, eps of the dielectric and mu
# of the magnetic one.
_LORENTZ = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3)
_MEDIA = {"dielectric": HalfSpaceMedium.dielectric(_LORENTZ),
          "magnetic": HalfSpaceMedium.magnetic(_LORENTZ)}


@dataclass
class CheckResult:
    """Outcome of one acceptance check."""

    number: int
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d}: {self.name}"


def _grid(scale: float, zeta: float, cut: float) -> list:
    """The oracles' breakpoints of an integral over [0, inf) of a weight on
    the scale ``scale`` times Bessel factors J_nu(zeta x): 1/4 ... 8 times
    ``scale`` and the half periods pi/zeta below ``cut``, at most 4000."""
    breaks = list(scale * np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]))
    if zeta > 0:
        step = np.pi / zeta
        breaks += list(np.arange(step, cut, step)[:4000])
    return breaks


def _q_grid(geom: PlanarGeometry) -> list:
    """Check 8's q-grid: the weight e^{-b Z+}, b = sqrt(u^2 + q^2) > q,
    decays over 1/Z+ and lies below e^{-60} beyond the cut 60/Z+."""
    return _grid(1.0 / geom.Z_plus, abs(geom.X), 60.0 / geom.Z_plus)


# The explicit cross-term route, the oracle of check 8: a Bessel-weighted
# q-integrand whose integral equals the trace form that production uses.
def u1_cross_integrand(q, u: float, geom: PlanarGeometry,
                       medium: HalfSpaceMedium):
    """q-integrand of the bulk/scattering cross term at fixed u (the factor
    under int dq, excluding the frequency-dependent prefactor)."""
    q = np.asarray(q, dtype=float)
    l = geom.l
    x2_l2 = geom.X**2 / l**2
    z2_l2 = geom.Z**2 / l**2
    xi = 1.0 / (l * u)
    a_xi = 1.0 + xi + xi**2
    b_xi = 1.0 + 3.0 * xi + 3.0 * xi**2
    rs, rp = reflection(q, u, medium)
    b = np.sqrt(u**2 + q**2)
    k2 = u**2
    j0, j2 = special.j0(q * geom.X), special.jn(2, q * geom.X)
    term0 = ((2.0 * a_xi - b_xi * x2_l2) * (rs / b - b * rp / k2)
             - 2.0 * (a_xi - b_xi * z2_l2) * q**2 * rp / (b * k2)) * j0
    term2 = -b_xi * x2_l2 * (rs / b + b * rp / k2) * j2
    return q * np.exp(-b * geom.Z_plus) * (term0 + term2)


def u1_frequency_integrand(u: float, geom: PlanarGeometry,
                           atom_a: ResonanceAtom, atom_b: ResonanceAtom,
                           medium: HalfSpaceMedium,
                           spec: QuadSpec | None = None) -> float:
    """u-integrand of the cross term: the quantity whose semi-infinite
    u-integral is U1.  Equals the trace form
    -(1/pi) u^4 alpha_A alpha_B Tr[G0(r_A,r_B) . G1(r_B,r_A)]."""
    q_res = integrate_semiinf(
        lambda q: u1_cross_integrand(q, u, geom, medium), spec,
        breakpoints=_q_grid(geom), axis="q")
    l = geom.l
    alpha = response_iu(atom_a, u) * response_iu(atom_b, u)
    return -u**4 * alpha * np.exp(-u * l) * q_res.value / (PI3_32 * l)


def trace_integrand(part: str, u, geom: PlanarGeometry,
                    atom_a: ResonanceAtom, atom_b: ResonanceAtom,
                    medium: HalfSpaceMedium, spec: QuadSpec | None = None):
    """u-integrand of the plate part ``part`` ("U1" or "U2") of
    ``_PLATE_PARTS`` in Green-tensor trace form, vectorized in u:
    -(1/pi) u^4 alpha_A alpha_B Tr[G0(r_A,r_B) . G1(r_B,r_A)] for the cross
    term U1, -(1/2pi) u^4 alpha_A alpha_B Tr[G1(r_A,r_B) . G1(r_B,r_A)]
    with G1(r_B,r_A) = G1(r_A,r_B)^T for the scattering part U2."""
    batch = _Batch(geom, u, atom_a, atom_b, medium, spec, ())
    return batch.weight * batch.trace(part)


# The Bessel moments of the retarded limit: the closed form of each, a
# function of (lam, zeta, d = lam^2 + zeta^2), and, the oracle of check 7,
# its defining integral.
_CLOSED_FORMS = {
    ("A+", 3): lambda lam, zeta, d: 6.0 * lam / d**2.5,
    ("A+", 4): lambda lam, zeta, d: 6.0 * (4.0 * lam**2 - zeta**2) / d**3.5,
    ("A+", 5): lambda lam, zeta, d: (
        30.0 * (4.0 * lam**3 - 3.0 * lam * zeta**2) / d**4.5),
    ("A-", 3): lambda lam, zeta, d: (
        6.0 * (lam**3 - 4.0 * lam * zeta**2) / d**3.5),
    ("A-", 4): lambda lam, zeta, d: (
        6.0 * (4.0 * lam**4 - 27.0 * lam**2 * zeta**2 + 4.0 * zeta**4)
        / d**4.5),
    ("A-", 5): lambda lam, zeta, d: (
        30.0 * (4.0 * lam**5 - 41.0 * lam**3 * zeta**2
                + 18.0 * lam * zeta**4) / d**5.5),
    ("B", 3): lambda lam, zeta, d: (
        3.0 * lam * (2.0 * lam**2 - 3.0 * zeta**2) / d**3.5),
    ("B", 4): lambda lam, zeta, d: (
        3.0 * (8.0 * lam**4 - 24.0 * lam**2 * zeta**2 + 3.0 * zeta**4)
        / d**4.5),
    ("B", 5): lambda lam, zeta, d: (
        15.0 * lam * (8.0 * lam**4 - 40.0 * lam**2 * zeta**2
                      + 15.0 * zeta**4) / d**5.5),
}


def weighted_AB(family: str, order: int, lam, zeta=0.0):
    """Closed form of int_0^inf x^order e^{-lam x} [J0(zeta x) +- J2(zeta x)]
    dx (``family`` "A+" or "A-") or of the same integral with J0 alone
    ("B"), for order 3, 4 or 5; ``lam`` and ``zeta`` may be arrays."""
    form = _CLOSED_FORMS.get((family, order))
    if form is None:
        raise ValueError("family must be 'A+', 'A-' or 'B' and order 3, 4 "
                         f"or 5, not ({family!r}, {order!r})")
    if np.any(np.asarray(lam) <= 0):
        raise ValueError("lam must be positive (integral diverges otherwise)")
    return form(lam, zeta, lam**2 + zeta**2)


def weighted_AB_quadrature(family: str, order: int, lam: float,
                           zeta: float = 0.0, spec: QuadSpec | None = None):
    """Direct quadrature of the integral that ``weighted_AB`` gives in
    closed form."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    spec = spec or QuadSpec(rel_tol=1e-11, abs_tol=1e-16)
    sign = {"A+": 1.0, "A-": -1.0, "B": 0.0}[family]  # J0 + sign J2

    def f(x):
        return (x**order * np.exp(-lam * x)
                * (special.j0(zeta * x) + sign * special.jn(2, zeta * x)))

    return integrate_semiinf(f, spec, breakpoints=_grid(
        (order + 1) / lam, zeta, 60.0 / lam))


# The explicit scattering route, the other oracle of check 8: a double
# (q, q') Sommerfeld integrand, integrated by nested quadrature.
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


def integrate_2d(f, spec=None, breakpoints=None):
    """Iterated integral of f(x, y) over [0, inf)^2, both axes split at
    ``breakpoints``.

    The inner (y) integral is run at ``spec.tightened()``.  f is called
    with a scalar x and an array of y values.
    """
    spec = spec or QuadSpec()
    inner_spec = spec.tightened()
    inner_evals = [0]

    def outer(xs):
        out = np.empty_like(xs)
        for i, x in enumerate(xs):
            r = integrate_semiinf(lambda y: f(x, y), inner_spec,
                                  breakpoints=breakpoints, axis="y")
            inner_evals[0] += r.evaluations
            out[i] = r.value
        return out

    res = integrate_semiinf(outer, spec, breakpoints=breakpoints, axis="x")
    return QuadResult(res.value, res.abs_error_estimate, inner_evals[0])


# The retarded limit near a magneto-electric half space of static response
# (eps0, mu0), the oracle of check 14.
def static_reflection(v, eps0: float, mu0: float):
    """Static-limit reflection coefficients as functions of v = b/k >= 1."""
    v = np.asarray(v, dtype=float)
    if np.any(v < 1.0):
        raise ValueError("v must be >= 1")
    radicand = eps0 * mu0 - 1.0 + v**2
    if np.any(radicand < 0):
        raise ValueError("negative radicand: eps0*mu0 - 1 + v^2 must be >= 0")
    root = np.sqrt(radicand)
    # Rationalized as in ``reflection``: x v - root = ((x^2 - 1) v^2 -
    # (eps0 mu0 - 1))/(x v + root) keeps the digits that the direct
    # difference loses at v >> 1.
    rs = ((mu0**2 - 1.0) * v**2 - (eps0 * mu0 - 1.0)) / (mu0 * v + root) ** 2
    rp = ((eps0**2 - 1.0) * v**2 - (eps0 * mu0 - 1.0)) / (eps0 * v + root) ** 2
    if v.ndim == 0:
        return float(rs), float(rp)
    return rs, rp


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


def _v_quadrature(f, spec: QuadSpec, breakpoints):
    """Integral over v in [1, inf) via the shift v = 1 + w, split at the
    ``breakpoints`` in w."""
    return integrate_semiinf(lambda w: f(w + 1.0), spec, axis="v",
                             breakpoints=breakpoints)


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
    _check_ee(atom_a, atom_b)
    spec = spec or QuadSpec()
    a0b0 = atom_a.alpha0 * atom_b.alpha0
    l, x, z, zp = geom.l, geom.X, geom.Z, geom.Z_plus

    def u1_integrand(v):
        # v-form of the cross-term integrand: the frequency integral of the
        # explicit (u, q) expression collapses onto Bessel moments with
        # lambda = 1 + v Z+/l, zeta = (X/l) sqrt(v^2 - 1) once the static
        # responses are pulled out.  J0 moments are (A+ + A-)/2, J2 moments
        # (A+ - A-)/2.
        lam = 1.0 + v * zp / l
        zeta = x / l * np.sqrt(v**2 - 1.0)
        ap = [weighted_AB("A+", k, lam, zeta) for k in (3, 4, 5)]
        am = [weighted_AB("A-", k, lam, zeta) for k in (3, 4, 5)]
        b3, b4, b5 = (0.5 * (p + m) for p, m in zip(ap, am))
        c3, c4, c5 = (0.5 * (p - m) for p, m in zip(ap, am))
        rs, rp = static_reflection(v, eps0, mu0)
        mom_a = b5 + b4 + b3
        mom_b = b5 + 3.0 * b4 + 3.0 * b3
        mom_b2 = c5 + 3.0 * c4 + 3.0 * c3
        term_j0 = ((rs - v**2 * rp) * (2.0 * mom_a - x**2 / l**2 * mom_b)
                   - 2.0 * (v**2 - 1.0) * rp
                   * (mom_a - z**2 / l**2 * mom_b))
        term_j2 = -(x**2 / l**2) * (rs + v**2 * rp) * mom_b2
        return term_j0 + term_j2

    u1_res = _v_quadrature(u1_integrand, spec, breakpoints=[
        0.1, 0.3, 1.0, 3.0, 10.0, 5.0 * l / zp + 10.0])
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
         lambda t: special.jn(2, t)),
    )

    def v_integral(weight, bessel, y: float, breaks) -> float:
        def f(v):
            rs, rp = static_reflection(v, eps0, mu0)
            s = np.sqrt(v**2 - 1.0)
            return weight(v, s, rs, rp) * np.exp(-v * y) * bessel(y * rho * s)

        return _v_quadrature(f, inner_spec, breakpoints=breaks).value

    def y_integrand(ys):
        out = np.empty_like(ys)
        for i, y in enumerate(ys):
            # v = c/y, c = 1, 4, 16, where e^{-vy} has fallen by e^{-c}
            breaks = [0.1, 0.3, 1.0, 3.0, 10.0,
                      *(c / y - 1.0 for c in (1.0, 4.0, 16.0) if c / y > 1.0)]
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


def check_retarded_free_space() -> CheckResult:
    """u0_ee approaches -c7_ee/l^7 at l = 100."""
    spec = QuadSpec(rel_tol=1e-8)
    l = 100.0
    c7 = asymptotic_coefficients(_ATOM, _ATOM).c7_ee
    dev = abs(u0_ee(l, _ATOM, _ATOM, spec=spec) * l**7 / c7 + 1.0)
    return CheckResult(1, "retarded free-space ee power law", dev < 0.01,
                       [f"|u0*l^7/c7 + 1| = {dev:.3e} (tol 0.01)"])


def check_nonretarded_free_space() -> CheckResult:
    """u0_ee approaches -c6/l^6 at l = 1e-3."""
    spec = QuadSpec(rel_tol=1e-8)
    l = 1e-3
    c6 = asymptotic_coefficients(_ATOM, _ATOM).c6
    dev = abs(u0_ee(l, _ATOM, _ATOM, spec=spec) * l**6 / c6 + 1.0)
    return CheckResult(2, "nonretarded free-space ee power law", dev < 0.01,
                       [f"|u0*l^6/c6 + 1| = {dev:.3e} (tol 0.01)"])


def check_em_coefficients() -> CheckResult:
    """c7_em/c7_ee = 7/23 exactly; u0_em > 0 across a 50-point log grid."""
    spec = QuadSpec(rel_tol=1e-8)
    mag = ResonanceAtom(kind="magnetic")
    co = asymptotic_coefficients(_ATOM, mag)
    ratio_exact = co.c7_em / co.c7_ee == 7.0 / 23.0
    grid = np.geomspace(1e-3, 1e3, 50)
    positive = all(u0_em(float(l), _ATOM, mag, spec=spec) > 0.0 for l in grid)
    return CheckResult(3, "em pair: 7/23 coefficient ratio and repulsion",
                       ratio_exact and positive,
                       [f"c7_em/c7_ee == 7/23: {ratio_exact}",
                        f"u0_em > 0 on 50-point log grid: {positive}"])


def check_perfect_retarded_ratios() -> CheckResult:
    """Full quadrature reproduces the 40/23 and 52/23 enhancements for
    z_A/z_B = 1e-3 (vertical, retarded); the retarded closed form reaches
    the table's ratios at z_A/z_B = 1e-15."""
    spec = QuadSpec(rel_tol=1e-7)
    geom = PlanarGeometry.vertical(60.0, 59940.0)  # z_B = 60000
    details, ok = [], True
    for kind, target in (("conducting", 40.0 / 23.0),
                         ("permeable", 52.0 / 23.0)):
        medium = HalfSpaceMedium(perfect=kind)
        bd = u_total(geom, _ATOM, _ATOM, medium, spec=spec)
        dev = abs(bd.ratio / target - 1.0)
        num, den = LIMIT_RATIOS[f"retarded-{kind}"]
        closed = perfect_retarded_closed(PlanarGeometry.vertical(1.0, 1e15),
                                         _ATOM, _ATOM, medium)
        closed_dev = abs(closed.ratio * den / num - 1.0)
        ok &= dev < 0.03 and closed_dev < 1e-12
        details.append(f"{kind}: quadrature ratio {bd.ratio:.5f} vs "
                       f"{target:.5f} (dev {dev:.2e}, tol 3%); closed-form "
                       f"dev {closed_dev:.1e} (tol 1e-12)")
    return CheckResult(4, "perfect reflector retarded enhancement", ok,
                       details)


def check_onsurface_parallel() -> CheckResult:
    """On-surface parallel nonretarded ratios 2/3 and 10/3: the closed
    form at Z+ = 2e-8 l within 1e-12, full quadrature at Z+ = 1e-3 l,
    l = 1e-3, within 5%."""
    spec = QuadSpec(rel_tol=1e-6)
    l = 1e-3
    geom = PlanarGeometry.parallel(l, 0.5e-3 * l)
    details, ok = [], True
    for kind, target in (("conducting", 2.0 / 3.0),
                         ("permeable", 10.0 / 3.0)):
        medium = HalfSpaceMedium(perfect=kind)
        num, den = LIMIT_RATIOS[f"nonretarded-parallel-{kind}"]
        closed = nonretarded_closed(PlanarGeometry.parallel(1.0, 1e-8),
                                    _ATOM, _ATOM, medium)
        closed_dev = abs(closed.ratio * den / num - 1.0)
        bd = u_total(geom, _ATOM, _ATOM, medium, spec=spec)
        dev = abs(bd.ratio / target - 1.0)
        ok &= closed_dev < 1e-12 and dev < 0.05
        details.append(f"{kind}: closed-form dev {closed_dev:.1e} (tol "
                       f"1e-12); quadrature ratio {bd.ratio:.5f} (dev "
                       f"{dev:.2e}, tol 5%)")
    return CheckResult(5, "on-surface parallel nonretarded ratios", ok,
                       details)


def _vertical_u1_plus_u2(case: str, r: float) -> float:
    """U1 + U2 of the closed form behind ``threshold(case)`` at z_A = 1,
    z_B = r."""
    geom = PlanarGeometry.vertical(1.0, r - 1.0)
    if case == "threshold-vertical-conducting":
        bd = perfect_retarded_closed(geom, _ATOM, _ATOM,
                                     HalfSpaceMedium.perfect_conductor())
    else:
        bd = nonretarded_closed(geom, _ATOM, _ATOM,
                                HalfSpaceMedium(perfect="permeable"))
    return bd.u1 + bd.u2


def check_thresholds() -> CheckResult:
    """Sign-change thresholds 4.90 and 14.82 for the vertical alignments:
    U1 + U2 of the closed forms changes sign across each, within 1e-9
    relative."""
    details, ok = [], True
    for case, label, near in zip(THRESHOLD_CASES, ("retarded conducting",
                                                   "nonretarded permeable"),
                                 (4.90, 14.82)):
        r = threshold(case)
        flips = (_vertical_u1_plus_u2(case, r * (1.0 - 1e-9))
                 * _vertical_u1_plus_u2(case, r * (1.0 + 1e-9))) < 0.0
        ok &= abs(r - near) < 0.01 and flips
        details.append(f"{label}: {r:.4f} ({near:.2f} +- 0.01); U1 + U2 "
                       f"changes sign across r (1 +- 1e-9): {flips}")
    return CheckResult(6, "vertical sign-change thresholds", ok, details)


def check_weighted_integrals() -> CheckResult:
    """All nine Bessel-moment closed forms match direct quadrature to
    1e-8 relative on a 3x3 (lambda, zeta) grid."""
    worst = 0.0
    for family in ("A+", "A-", "B"):
        for order in (3, 4, 5):
            for lam in (0.5, 1.0, 3.0):
                for zeta in (0.0, 0.7, 2.5):
                    cf = weighted_AB(family, order, lam, zeta)
                    qd = weighted_AB_quadrature(family, order, lam, zeta).value
                    worst = max(worst, abs(cf - qd) / max(abs(cf), 1e-300))
    return CheckResult(7, "Bessel-moment closed forms vs quadrature",
                       worst < 1e-8,
                       [f"worst relative deviation {worst:.2e} (tol 1e-8)"])


def _decade(dev: float) -> str:
    """A deviation far below its tolerance as the decade it lies below:
    its digits are roundoff, which any change of summation order moves."""
    return (f"<= {10.0 ** np.ceil(np.log10(dev)):.0e}" if 0.0 < dev < np.inf
            else f"= {dev:.2e}")


def check_trace_oracles() -> CheckResult:
    """Explicit cross/scattering integrands match the Green-tensor trace
    forms to 1e-8 relative on a 5x5 (geometry, frequency) grid."""
    spec = QuadSpec(rel_tol=1e-10)
    medium = HalfSpaceMedium.dielectric(
        LorentzMedium(omegaP=1.5, omegaT=1.0, gamma=0.1))
    geoms = [PlanarGeometry.parallel(0.8, 0.6),
             PlanarGeometry.parallel(0.4, 1.1),
             PlanarGeometry.vertical(0.5, 0.9),
             PlanarGeometry(0.2, 0.7, 1.0, 0.4),
             PlanarGeometry(-0.3, 0.5, 0.6, 1.2)]
    us = (0.3, 0.7, 1.2, 2.0, 3.5)
    worst1 = 0.0
    for geom in geoms:
        for u in us:
            explicit = u1_frequency_integrand(u, geom, _ATOM, _ATOM, medium,
                                              spec=spec)
            trace = trace_integrand("U1", u, geom, _ATOM, _ATOM, medium,
                                    spec=spec)
            worst1 = max(worst1, abs(explicit / trace - 1.0))
    # Scattering part: the (q, q') double quadrature is costly, so the
    # grid diagonal (5 points) carries the explicit cross-check.
    worst2 = 0.0
    for geom, u in zip(geoms, us):
        trace = trace_integrand("U2", u, geom, _ATOM, _ATOM, medium,
                                spec=spec)
        res = integrate_2d(
            lambda q, qp: u2_scattering_integrand(q, qp, u, geom, medium),
            QuadSpec(rel_tol=1e-9), breakpoints=_q_grid(geom))
        explicit = (-1.0 / PI3_64 * u**4 * response_iu(_ATOM, u) ** 2
                    * res.value)
        worst2 = max(worst2, abs(explicit / trace - 1.0))
    ok = worst1 < 1e-8 and worst2 < 1e-8
    return CheckResult(8, "dual-route integrand oracles", ok,
                       [f"cross term worst dev {_decade(worst1)} (tol 1e-8)",
                        f"scattering term worst dev {_decade(worst2)} "
                        "(tol 1e-8)"])


def check_far_plate() -> CheckResult:
    """Potential ratio returns to 1 within 1% at z = 100 l for both
    dielectric and magnetic half spaces."""
    spec = QuadSpec(rel_tol=1e-7)
    l = 0.01
    geom = PlanarGeometry.parallel(l, 100.0 * l)
    details, ok = [], True
    for label, medium in _MEDIA.items():
        bd = u_total(geom, _ATOM, _ATOM, medium, spec=spec)
        dev = abs(bd.ratio - 1.0)
        ok &= dev < 0.01
        details.append(f"{label}: |ratio - 1| = {dev:.2e} (tol 1%)")
    return CheckResult(9, "far-plate ratio returns to unity", ok, details)


def check_nonretarded_halfspace() -> CheckResult:
    """Full quadrature matches the nonretarded electric/magnetic
    closed forms within 2% deep in the nonretarded regime."""
    spec = QuadSpec(rel_tol=1e-7)
    geom = PlanarGeometry(0.0, 4e-4, 8e-4, 1e-3)
    details, ok = [], True
    for label, medium in zip(("electric", "magnetic"), _MEDIA.values()):
        bd = u_total(geom, _ATOM, _ATOM, medium, spec=spec)
        ref = nonretarded_closed(geom, _ATOM, _ATOM, medium, spec=spec)
        dev = abs(bd.total / ref.total - 1.0)
        ok &= dev < 0.02
        details.append(f"{label}: dev {dev:.2e} (tol 2%)")
    return CheckResult(10, "nonretarded half-space asymptotics", ok, details)


def _ratio_sweep(ls, make_geom, medium, spec):
    return np.array([u_total(make_geom(float(l)), _ATOM, _ATOM, medium,
                             spec=spec).ratio for l in ls])


def check_figure_shapes() -> CheckResult:
    """Shape properties of the normalized potential versus separation at
    atom-surface distance 0.01: reduction with an interior minimum
    (electric, parallel), growing enhancement (magnetic, parallel),
    enhancement with an interior maximum (electric, vertical), and a
    small-separation dip below 1 (magnetic, vertical)."""
    spec = QuadSpec(rel_tol=1e-6)
    z = 0.01
    die, mag = _MEDIA.values()
    details, ok = [], True

    ls = np.geomspace(1e-3, 0.6, 10)
    r = _ratio_sweep(ls, lambda l: PlanarGeometry.parallel(l, z), die, spec)
    imin = int(np.argmin(r))
    cond = bool(np.all(r < 1.0)) and 0 < imin < len(r) - 1
    ok &= cond
    details.append(f"electric parallel: all < 1 and interior minimum "
                   f"at index {imin}: {cond}")

    r = _ratio_sweep(ls, lambda l: PlanarGeometry.parallel(l, z), mag, spec)
    cond = bool(np.all(r > 1.0)) and bool(np.all(np.diff(r) > 0.0))
    ok &= cond
    details.append(f"magnetic parallel: all > 1 and increasing: {cond}")

    ls_v = np.geomspace(1e-3, 4.0, 12)
    r = _ratio_sweep(ls_v, lambda l: PlanarGeometry.vertical(z, l), die, spec)
    imax = int(np.argmax(r))
    cond = bool(np.all(r > 1.0)) and 0 < imax < len(r) - 1
    ok &= cond
    details.append(f"electric vertical: all > 1 and interior maximum "
                   f"at index {imax}: {cond}")

    r = _ratio_sweep(ls, lambda l: PlanarGeometry.vertical(z, l), mag, spec)
    below = r < 1.0
    cond = bool(below[0]) and bool(r[-1] > 1.0) \
        and bool(np.all(np.diff(below.astype(int)) <= 0))
    ok &= cond
    details.append(f"magnetic vertical: dips below 1 only at small "
                   f"separation: {cond}")
    return CheckResult(11, "figure-shape properties", ok, details)


# The image-dipole rule of check 12: a conducting plate images a dipole with
# reversed horizontal components, a permeable plate with a reversed vertical
# one, which fixes the sign of the nonretarded cross term U1 by alignment.
SIGN_TABLE: dict[tuple[str, str], int] = {
    ("conducting", "parallel"): +1,
    ("conducting", "vertical"): -1,
    ("permeable", "parallel"): -1,
    ("permeable", "vertical"): +1,
}


def verify_against_closed_forms(n_geometries: int = 10,
                                seed: int = 7) -> list[dict]:
    """Compare the ``SIGN_TABLE`` signs with the nonretarded closed-form
    cross term at random aligned geometries.

    Returns one record per case with the predicted sign, the evaluated
    signs, and an ``ok`` flag; any mismatch marks a formula regression.
    """
    rng = np.random.default_rng(seed)
    report = []
    for (plate, alignment), sign in SIGN_TABLE.items():
        got = []
        for _ in range(n_geometries):
            z = float(rng.uniform(0.5, 3.0))
            l = float(rng.uniform(0.2, 2.0))
            geom = (PlanarGeometry.parallel(l, z) if alignment == "parallel"
                    else PlanarGeometry.vertical(z, l))
            bd = nonretarded_closed(geom, _ATOM, _ATOM,
                                    HalfSpaceMedium(perfect=plate))
            got.append(int(np.sign(bd.u1)))
        report.append({"plate": plate, "alignment": alignment,
                       "predicted": sign, "evaluated": got,
                       "ok": all(g == sign for g in got)})
    return report


def check_sign_table() -> CheckResult:
    """Image-dipole sign predictions match the nonretarded cross-term
    closed form at 10 random geometries per case."""
    report = verify_against_closed_forms(n_geometries=10)
    ok = all(rec["ok"] for rec in report)
    details = [f"{rec['plate']}/{rec['alignment']}: predicted "
               f"{rec['predicted']:+d}, ok={rec['ok']}" for rec in report]
    return CheckResult(12, "image-dipole sign table", ok, details)


def check_force_oracle() -> CheckResult:
    """Analytic half-space forces match the Richardson finite-difference
    oracle within 10 rel_tol max|F|, on a perfect plate (rel_tol 1e-8) and
    the default dielectric (rel_tol 1e-6), off both symmetry axes."""
    geom = PlanarGeometry(0.0, 0.5, 0.3, 0.8)
    details, ok = [], True
    for label, medium, rel_tol in (
            ("conducting plate", HalfSpaceMedium.perfect_conductor(), 1e-8),
            ("dielectric", _MEDIA["dielectric"], 1e-6)):
        spec = QuadSpec(rel_tol=rel_tol)
        analytic = halfspace_forces(geom, _ATOM, _ATOM, medium, spec=spec)
        oracle = richardson_forces(geom, _ATOM, _ATOM, medium, spec=spec)
        a = np.array(analytic.f_a + analytic.f_b)
        r = np.array(oracle.f_a + oracle.f_b)
        dev = float(np.max(np.abs(a - r)) / np.max(np.abs(r)))
        ok &= dev <= 10.0 * rel_tol
        details.append(f"{label}: max|F - F_oracle|/max|F| {_decade(dev)} "
                       f"(tol {10.0 * rel_tol:.0e})")
    return CheckResult(13, "analytic forces vs finite differences", ok,
                       details)


def check_retarded_halfspace() -> CheckResult:
    """Full quadrature near the default dielectric and magnetic media
    matches the static-response retarded limit (eps0 or mu0 = 1 + 3^2 =
    10) within 5e-3 at parallel(60, 60) and vertical(240, 240); the
    deviation left is the d^-2 finite-distance correction."""
    spec = QuadSpec(rel_tol=1e-7)
    geoms = (PlanarGeometry.parallel(60.0, 60.0),
             PlanarGeometry.vertical(240.0, 240.0))
    details, ok = [], True
    for label, medium in _MEDIA.items():
        eps0, mu0 = medium.eps_iu(0.0), medium.mu_iu(0.0)
        dev1 = dev2 = 0.0
        for geom in geoms:
            bd = u_total(geom, _ATOM, _ATOM, medium, spec=spec)
            u1, u2 = retarded_halfspace_closed(geom, _ATOM, _ATOM, eps0, mu0,
                                               spec=spec)
            dev1 = max(dev1, abs(bd.u1 / u1 - 1.0))
            dev2 = max(dev2, abs(bd.u2 / u2 - 1.0))
        ok &= dev1 < 5e-3 and dev2 < 5e-3
        details.append(f"{label}: U1 worst dev {dev1:.2e}, U2 worst dev "
                       f"{dev2:.2e} (tol 5e-3)")
    return CheckResult(14, "retarded limit of finite media", ok, details)


CHECKS = (
    check_retarded_free_space,
    check_nonretarded_free_space,
    check_em_coefficients,
    check_perfect_retarded_ratios,
    check_onsurface_parallel,
    check_thresholds,
    check_weighted_integrals,
    check_trace_oracles,
    check_far_plate,
    check_nonretarded_halfspace,
    check_figure_shapes,
    check_sign_table,
)

# Checks of the implementation beyond the paper's twelve criteria.
ORACLE_CHECKS = (check_force_oracle, check_retarded_halfspace)


def run_all() -> list[CheckResult]:
    """Run every acceptance check, printing one pass/fail line each."""
    results = []
    for check in CHECKS + ORACLE_CHECKS:
        res = check()
        results.append(res)
        print(res.line())
        for d in res.details:
            print(f"    {d}")
    return results
