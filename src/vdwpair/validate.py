"""Acceptance validation suite.

Each check exercises one verifiable claim about the implementation:
asymptotic power laws, closed-form limit ratios, dual-route integrand
oracles, thresholds, and figure-shape properties.  The checks are shared
between the test suite and the command-line ``validate`` subcommand.

The oracles that only the checks and tests use live here too: the
explicit Bessel-kernel routes of U1 and U2 with the nested 2-D quadrature
of the latter (check 8), the direct quadrature of the Bessel moments
(check 7) and the image-dipole sign table of the cross term (check 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .forces import halfspace_forces, richardson_forces
from .greens import (
    HalfSpaceMedium,
    PlanarGeometry,
    _scattering_spec,
    bessel_j0_j1_j2,
    q_breakpoints,
    reflection,
)
from .materials import LorentzMedium, ResonanceAtom, response_iu
from .potentials import (
    LIMIT_RATIOS,
    PI3_32,
    asymptotic_coefficients,
    nonretarded_closed,
    threshold,
    u0_ee,
    u0_em,
    u1_trace_integrand,
    u2_frequency_integrand,
    u_total,
    weighted_AB,
)
from .quadrature import QuadResult, QuadSpec, integrate_semiinf

__all__ = ["CheckResult", "run_all", "CHECKS", "ORACLE_CHECKS"]

_ATOM = ResonanceAtom()
_EPS_MEDIUM = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3)
_MU_MEDIUM = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3)


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
    j0, _, j2 = bessel_j0_j1_j2(q * geom.X)
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
    spec = spec or QuadSpec()
    breaks = q_breakpoints(geom, u)
    q_res = integrate_semiinf(
        lambda q: u1_cross_integrand(q, u, geom, medium),
        _scattering_spec(spec, len(breaks)), breakpoints=breaks, axis="q")
    l = geom.l
    alpha = response_iu(atom_a, u) * response_iu(atom_b, u)
    return -u**4 * alpha * np.exp(-u * l) * q_res.value / (PI3_32 * l)


# The oracle of check 7: the defining integral of each Bessel moment.
def weighted_AB_quadrature(family: str, order: int, lam: float,
                           zeta: float = 0.0, spec: QuadSpec | None = None):
    """Direct quadrature of the integral that ``weighted_AB`` gives in
    closed form."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    spec = spec or QuadSpec(rel_tol=1e-11, abs_tol=1e-16, max_subdivisions=2000)

    def f(x):
        w = x**order * np.exp(-lam * x)
        if family == "B":
            return w * special.j0(zeta * x)
        j = special.j0(zeta * x)
        j2 = special.jn(2, zeta * x)
        return w * (j + j2) if family == "A+" else w * (j - j2)

    breaks = list((order + 1) / lam * np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]))
    if zeta > 0:
        step = np.pi / zeta
        breaks += list(np.arange(step, 60.0 / lam, step)[:4000])
    return integrate_semiinf(f, spec, breakpoints=breaks)


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


def integrate_2d(f, spec=None, breakpoints_x=None, breakpoints_y=None):
    """Iterated integral of f(x, y) over [0, inf)^2.

    The inner (y) integral is run at ``spec.tightened()``.  f is called
    with a scalar x and an array of y values.
    """
    spec = spec or QuadSpec()
    inner_spec = spec.tightened()
    inner_evals = [0]

    def outer(xs):
        out = np.empty_like(xs)
        for i, x in enumerate(xs):
            r = integrate_semiinf(
                lambda y: f(x, y), inner_spec, breakpoints=breakpoints_y, axis="y"
            )
            inner_evals[0] += r.evaluations
            out[i] = r.value
        return out

    res = integrate_semiinf(outer, spec, breakpoints=breakpoints_x, axis="x")
    return QuadResult(res.value, res.abs_error_estimate, inner_evals[0])


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
    z_A/z_B = 1e-3 (vertical, retarded); closed-form limit ratios exact."""
    spec = QuadSpec(rel_tol=1e-7)
    geom = PlanarGeometry.vertical(60.0, 59940.0)  # z_B = 60000
    details, ok = [], True
    for kind, target in (("conducting", 40.0 / 23.0),
                         ("permeable", 52.0 / 23.0)):
        bd = u_total(geom, _ATOM, _ATOM, HalfSpaceMedium(perfect=kind),
                     spec=spec)
        dev = abs(bd.ratio / target - 1.0)
        num, den = LIMIT_RATIOS[f"retarded-{kind}"]
        closed_dev = abs(num / den - target)
        ok &= dev < 0.03 and closed_dev < 1e-12
        details.append(f"{kind}: quadrature ratio {bd.ratio:.5f} vs "
                       f"{target:.5f} (dev {dev:.2e}, tol 3%); closed-form "
                       f"dev {closed_dev:.1e} (tol 1e-12)")
    return CheckResult(4, "perfect reflector retarded enhancement", ok,
                       details)


def check_onsurface_parallel() -> CheckResult:
    """On-surface parallel nonretarded ratios 2/3 and 10/3; full
    quadrature at Z+ = 1e-3 l, l = 1e-3 within 5%."""
    spec = QuadSpec(rel_tol=1e-6)
    l = 1e-3
    geom = PlanarGeometry.parallel(l, 0.5e-3 * l)
    details, ok = [], True
    for kind, target in (("conducting", 2.0 / 3.0),
                         ("permeable", 10.0 / 3.0)):
        num, den = LIMIT_RATIOS[f"nonretarded-parallel-{kind}"]
        closed = num / den
        bd = u_total(geom, _ATOM, _ATOM, HalfSpaceMedium(perfect=kind),
                     spec=spec)
        dev = abs(bd.ratio / target - 1.0)
        ok &= closed == target and dev < 0.05
        details.append(f"{kind}: closed {closed} == {target}; quadrature "
                       f"ratio {bd.ratio:.5f} (dev {dev:.2e}, tol 5%)")
    return CheckResult(5, "on-surface parallel nonretarded ratios", ok,
                       details)


def check_thresholds() -> CheckResult:
    """Sign-change thresholds 4.90 and 14.82 for the vertical alignments."""
    r1 = threshold("threshold-vertical-conducting")
    r2 = threshold("threshold-vertical-permeable")
    exact2 = 1.0 + 2.0 / ((1.5) ** (1.0 / 3.0) - 1.0)
    ok = abs(r1 - 4.90) < 0.01 and abs(r2 - exact2) < 1e-4 \
        and abs(r2 - 14.82) < 0.01
    return CheckResult(6, "vertical sign-change thresholds", ok,
                       [f"retarded conducting: {r1:.4f} (4.90 +- 0.01)",
                        f"nonretarded permeable: {r2:.4f} vs analytic "
                        f"{exact2:.4f} (14.82 +- 0.01)"])


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
            trace = u1_trace_integrand(u, geom, _ATOM, _ATOM, medium,
                                       spec=spec)
            worst1 = max(worst1, abs(explicit / trace - 1.0))
    # Scattering part: the (q, q') double quadrature is costly, so the
    # grid diagonal (5 points) carries the explicit cross-check.
    worst2 = 0.0
    pref = 1.0 / (64.0 * np.pi**3)
    for geom, u in zip(geoms, us):
        trace = u2_frequency_integrand(u, geom, _ATOM, _ATOM, medium,
                                       spec=spec)
        breaks = q_breakpoints(geom, u)
        res = integrate_2d(
            lambda q, qp: u2_scattering_integrand(q, qp, u, geom, medium),
            QuadSpec(rel_tol=1e-9), breakpoints_x=breaks, breakpoints_y=breaks)
        explicit = -pref * u**4 * response_iu(_ATOM, u) ** 2 * res.value
        worst2 = max(worst2, abs(explicit / trace - 1.0))
    ok = worst1 < 1e-8 and worst2 < 1e-8
    return CheckResult(8, "dual-route integrand oracles", ok,
                       [f"cross term worst dev {worst1:.2e} (tol 1e-8)",
                        f"scattering term worst dev {worst2:.2e} (tol 1e-8)"])


def check_far_plate() -> CheckResult:
    """Potential ratio returns to 1 within 1% at z = 100 l for both
    dielectric and magnetic half spaces."""
    spec = QuadSpec(rel_tol=1e-7)
    l = 0.01
    geom = PlanarGeometry.parallel(l, 100.0 * l)
    details, ok = [], True
    for label, medium in (("dielectric", HalfSpaceMedium.dielectric(_EPS_MEDIUM)),
                          ("magnetic", HalfSpaceMedium.magnetic(_MU_MEDIUM))):
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
    for label, medium in (
            ("electric", HalfSpaceMedium.dielectric(_EPS_MEDIUM)),
            ("magnetic", HalfSpaceMedium.magnetic(_MU_MEDIUM))):
        bd = u_total(geom, _ATOM, _ATOM, medium, spec=spec)
        ref = nonretarded_closed(geom, _ATOM, _ATOM, medium, spec=spec)
        dev = abs(bd.total / ref.total - 1.0)
        ok &= dev < 0.02
        details.append(f"{label}: dev {dev:.2e} (tol 2%)")
    return CheckResult(10, "nonretarded half-space asymptotics", ok, details)


def _ratio_sweep(ls, make_geom, medium, spec):
    out = []
    for l in ls:
        bd = u_total(make_geom(float(l)), _ATOM, _ATOM, medium, spec=spec)
        out.append(bd.ratio)
    return np.array(out)


def check_figure_shapes() -> CheckResult:
    """Shape properties of the normalized potential versus separation at
    atom-surface distance 0.01: reduction with an interior minimum
    (electric, parallel), growing enhancement (magnetic, parallel),
    enhancement with an interior maximum (electric, vertical), and a
    small-separation dip below 1 (magnetic, vertical)."""
    spec = QuadSpec(rel_tol=1e-6)
    z = 0.01
    die = HalfSpaceMedium.dielectric(_EPS_MEDIUM)
    mag = HalfSpaceMedium.magnetic(_MU_MEDIUM)
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
            ("dielectric", HalfSpaceMedium.dielectric(_EPS_MEDIUM), 1e-6)):
        spec = QuadSpec(rel_tol=rel_tol)
        analytic = halfspace_forces(geom, _ATOM, _ATOM, medium, spec=spec)
        oracle = richardson_forces(geom, _ATOM, _ATOM, medium, spec=spec)
        a = np.array(analytic.f_a + analytic.f_b)
        r = np.array(oracle.f_a + oracle.f_b)
        dev = float(np.max(np.abs(a - r)) / np.max(np.abs(r)))
        ok &= dev <= 10.0 * rel_tol
        # Below tol, dev's digits are roundoff: show its decade.
        shown = (f"<= {10.0 ** np.ceil(np.log10(dev)):.0e}"
                 if 0.0 < dev < np.inf else f"= {dev:.2e}")
        details.append(f"{label}: max|F - F_oracle|/max|F| {shown} "
                       f"(tol {10.0 * rel_tol:.0e})")
    return CheckResult(13, "analytic forces vs finite differences", ok,
                       details)


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
ORACLE_CHECKS = (check_force_oracle,)


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
