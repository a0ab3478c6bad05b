"""Free-space and half-space potentials, closed-form limits, thresholds."""

import numpy as np
import pytest

from vdwpair import (
    HalfSpaceMedium,
    LorentzMedium,
    PlanarGeometry,
    PotentialBreakdown,
    ResonanceAtom,
    asymptotic_coefficients,
    nonretarded_electric_closed,
    nonretarded_magnetic_closed,
    perfect_limit_ratio,
    perfect_nonretarded_closed,
    perfect_retarded_closed,
    retarded_halfspace_closed,
    threshold,
    u0_ee,
    u0_em,
    u1_halfspace,
    u2_halfspace,
    u_total,
)
from vdwpair.potentials import _static_h_weight, u1_trace_integrand, \
    u2_frequency_integrand
from vdwpair.quadrature import QuadSpec
from vdwpair.validate import u1_frequency_integrand

ATOM = ResonanceAtom()
MAG_ATOM = ResonanceAtom(kind="magnetic")
EPS_MEDIUM = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3)
MU_MEDIUM = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3, kind="magnetic")
PI = np.pi


class TestBreakdown:
    def test_assemble(self):
        bd = PotentialBreakdown.assemble(-2.0, 0.5, -0.25)
        assert bd.total == -1.75
        assert bd.ratio == pytest.approx(0.875)


class TestFreeSpace:
    def test_ee_always_attractive_and_softening(self):
        ls = np.geomspace(1e-3, 1e3, 25)
        vals = np.array([u0_ee(float(l), ATOM, ATOM) for l in ls])
        assert np.all(vals < 0.0)
        assert np.all(np.diff(vals) > 0.0)  # monotone increasing in l

    def test_em_always_repulsive(self):
        ls = np.geomspace(1e-3, 1e3, 25)
        vals = np.array([u0_em(float(l), ATOM, MAG_ATOM) for l in ls])
        assert np.all(vals > 0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            u0_ee(0.0, ATOM, ATOM)
        with pytest.raises(ValueError):
            u0_ee(1.0, ATOM, MAG_ATOM)
        with pytest.raises(ValueError):
            u0_em(1.0, ATOM, ATOM)

    def test_exact_coefficients(self):
        co = asymptotic_coefficients(ATOM, ATOM)
        # int du/(1+u^2)^2 = pi/4 gives c6 = 3/(64 pi^2) for unit atoms
        assert co.c6 == pytest.approx(3.0 / (64.0 * PI**2), rel=1e-9)
        assert co.c7_ee == 23.0 / (64.0 * PI**3)
        assert co.c7_em == 7.0 / (64.0 * PI**3)
        # int u^2 du/(1+u^2)^2 = pi/4 as well
        assert co.c4 == pytest.approx(1.0 / (64.0 * PI**2), rel=1e-9)

    def test_em_nonretarded_coefficient(self):
        co = asymptotic_coefficients(ATOM, MAG_ATOM)
        l = 1e-3
        assert u0_em(l, ATOM, MAG_ATOM) * l**4 == pytest.approx(co.c4,
                                                                rel=0.01)

    def test_loglog_slope_transition(self):
        # |u0_ee| slope moves monotonically from 6 to 7 with growing l
        ls = np.geomspace(1e-3, 1e3, 40)
        vals = np.array([abs(u0_ee(float(l), ATOM, ATOM)) for l in ls])
        slopes = -np.diff(np.log(vals)) / np.diff(np.log(ls))
        assert slopes[0] == pytest.approx(6.0, abs=0.01)
        assert slopes[-1] == pytest.approx(7.0, abs=0.01)
        assert np.all(np.diff(slopes) > -1e-9)


class TestHalfSpaceQuadrature:
    def test_vacuum_contributions_vanish(self):
        med = HalfSpaceMedium(eps=LorentzMedium(omegaP=0.0))
        geom = PlanarGeometry.parallel(1.0, 0.5)
        assert u1_halfspace(geom, ATOM, ATOM, med) == 0.0
        assert u2_halfspace(geom, ATOM, ATOM, med) == 0.0
        assert u_total(geom, ATOM, ATOM, med).ratio == 1.0

    def test_perfect_duality(self):
        # swapping (r_s, r_p) signs flips u1 and leaves u2 unchanged
        geom = PlanarGeometry.parallel(0.4, 0.3)
        spec = QuadSpec(rel_tol=1e-8)
        u1_c = u1_halfspace(geom, ATOM, ATOM,
                            HalfSpaceMedium.perfect_conductor(), spec=spec)
        u1_p = u1_halfspace(geom, ATOM, ATOM,
                            HalfSpaceMedium.perfect_permeable(), spec=spec)
        assert u1_p == pytest.approx(-u1_c, rel=1e-7)
        u2_c = u2_halfspace(geom, ATOM, ATOM,
                            HalfSpaceMedium.perfect_conductor(), spec=spec)
        u2_p = u2_halfspace(geom, ATOM, ATOM,
                            HalfSpaceMedium.perfect_permeable(), spec=spec)
        assert u2_p == pytest.approx(u2_c, rel=1e-7)

    def test_u2_negative(self):
        spec = QuadSpec(rel_tol=1e-7)
        for med in (HalfSpaceMedium.perfect_conductor(),
                    HalfSpaceMedium.perfect_permeable(),
                    HalfSpaceMedium.dielectric(EPS_MEDIUM),
                    HalfSpaceMedium.magnetic(MU_MEDIUM)):
            for geom in (PlanarGeometry.parallel(0.5, 0.3),
                         PlanarGeometry.vertical(0.2, 0.6)):
                assert u2_halfspace(geom, ATOM, ATOM, med, spec=spec) < 0.0

    def test_cross_term_dual_routes_pointwise(self):
        # explicit Bessel-integral route vs Green-tensor trace route
        geom = PlanarGeometry(0.2, 0.5, 0.9, 0.8)
        med = HalfSpaceMedium.dielectric(EPS_MEDIUM)
        spec = QuadSpec(rel_tol=1e-10)
        for u in (0.4, 1.1, 2.7):
            explicit = u1_frequency_integrand(u, geom, ATOM, ATOM, med,
                                              spec=spec)
            trace = u1_trace_integrand(u, geom, ATOM, ATOM, med, spec=spec)
            assert explicit == pytest.approx(trace, rel=1e-8)

    def test_perfect_nonretarded_match(self):
        # deep nonretarded geometry: quadrature vs closed forms within 2%
        geom = PlanarGeometry(0.0, 4e-3, 8e-3, 1e-2)
        spec = QuadSpec(rel_tol=1e-7)
        for kind in ("conducting", "permeable"):
            med = HalfSpaceMedium(perfect=kind)
            ref = perfect_nonretarded_closed(geom, ATOM, ATOM, kind)
            assert u1_halfspace(geom, ATOM, ATOM, med, spec=spec) == \
                pytest.approx(ref.u1, rel=0.02)
            assert u2_halfspace(geom, ATOM, ATOM, med, spec=spec) == \
                pytest.approx(ref.u2, rel=0.02)

    def test_perfect_retarded_u2_match(self):
        # retarded X << Z+: u2 -> -c7/Z+^7
        geom = PlanarGeometry.vertical(60.0, 60.0)
        c7 = asymptotic_coefficients(ATOM, ATOM).c7_ee
        spec = QuadSpec(rel_tol=1e-7)
        u2 = u2_halfspace(geom, ATOM, ATOM,
                          HalfSpaceMedium.perfect_conductor(), spec=spec)
        assert u2 == pytest.approx(-c7 / geom.Z_plus**7, rel=0.02, abs=0.0)


# u1_halfspace / u2_halfspace from the per-node implementation that
# preceded the u-vectorized perfect-plate integrands.  They are the converged
# values: a run at rel_tol 1e-13 matches all of them within 5e-15, whatever
# panels the frequency integral starts from.
TIGHT = QuadSpec(rel_tol=1e-13, abs_tol=1e-300)
PERFECT_GOLDENS = [
    ("conducting", (0.0, 0.3, 0.4, 0.3),
     0.11313476445197755, -0.030946308139671534),
    ("conducting", (0.0, 0.2, 0.0, 0.8),
     -0.008195868844362868, -0.004124192823202661),
    ("conducting", (0.1, 0.5, 0.9, 0.8),
     0.0008452016947440638, -0.00029259027366230627),
    ("conducting", (0.0, 0.5, 10.0, 0.5),
     9.613109600704468e-10, -1.0646521749854533e-09),
    ("permeable", (0.0, 0.3, 0.4, 0.3),
     -0.11313476445197755, -0.030946308139671534),
    ("permeable", (0.0, 0.2, 0.0, 0.8),
     0.008195868844362868, -0.004124192823202661),
    ("permeable", (0.1, 0.5, 0.9, 0.8),
     -0.0008452016947440638, -0.00029259027366230627),
    ("permeable", (0.0, 0.5, 10.0, 0.5),
     -9.613109600704468e-10, -1.0646521749854533e-09),
]


class TestPerfectPlateVectorized:
    @pytest.mark.parametrize("kind,pos,u1,u2", PERFECT_GOLDENS)
    def test_goldens(self, kind, pos, u1, u2):
        geom = PlanarGeometry(*pos)
        med = HalfSpaceMedium(perfect=kind)
        assert u1_halfspace(geom, ATOM, ATOM, med, spec=TIGHT) == \
            pytest.approx(u1, rel=1e-13, abs=0.0)
        assert u2_halfspace(geom, ATOM, ATOM, med, spec=TIGHT) == \
            pytest.approx(u2, rel=1e-13, abs=0.0)
        # The default spec (rel_tol 1e-8) meets its own tolerance.
        assert u1_halfspace(geom, ATOM, ATOM, med) == \
            pytest.approx(u1, rel=1e-8, abs=0.0)
        assert u2_halfspace(geom, ATOM, ATOM, med) == \
            pytest.approx(u2, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("kind", ["conducting", "permeable"])
    @pytest.mark.parametrize("integrand", [u1_trace_integrand,
                                           u2_frequency_integrand])
    def test_integrand_on_u_array(self, kind, integrand):
        geom = PlanarGeometry(0.1, 0.5, 0.9, 0.8)
        med = HalfSpaceMedium(perfect=kind)
        us = np.geomspace(1e-3, 30.0, 17)
        batch = integrand(us, geom, ATOM, ATOM, med)
        for i, u in enumerate(us):
            assert batch[i] == pytest.approx(
                integrand(float(u), geom, ATOM, ATOM, med), rel=1e-15,
                abs=0.0)


class TestPerfectClosedForms:
    def test_retarded_u2_depends_only_on_zplus(self):
        a = perfect_retarded_closed(PlanarGeometry(0.0, 1.0, 0.1, 2.0),
                                    ATOM, ATOM, "conducting")
        b = perfect_retarded_closed(PlanarGeometry(0.0, 1.4, 0.8, 1.6),
                                    ATOM, ATOM, "conducting")
        assert a.u2 == pytest.approx(b.u2, rel=1e-13)

    def test_retarded_vertical_cross_ratio(self):
        # z_A/z_B -> 0 (conducting): u1/u0 -> -6/23
        geom = PlanarGeometry.vertical(1e-6, 1.0)
        bd = perfect_retarded_closed(geom, ATOM, ATOM, "conducting")
        assert bd.u1 / bd.u0 == pytest.approx(-6.0 / 23.0, rel=1e-4)

    def test_nonretarded_vertical_conducting_cross(self):
        # X = 0: u1 = -2 c6/(3 Z+^3 l^3), always attractive
        geom = PlanarGeometry.vertical(0.7, 1.1)
        bd = perfect_nonretarded_closed(geom, ATOM, ATOM, "conducting")
        c6 = asymptotic_coefficients(ATOM, ATOM).c6
        assert bd.u1 == pytest.approx(
            -2.0 * c6 / (3.0 * geom.Z_plus**3 * geom.l**3), rel=1e-8)
        assert bd.u1 < 0.0

    def test_limit_ratios_exact(self):
        assert perfect_limit_ratio("retarded-vertical-conducting") \
            == 40.0 / 23.0
        assert perfect_limit_ratio("retarded-vertical-permeable") \
            == 52.0 / 23.0
        assert perfect_limit_ratio("nonretarded-parallel-conducting") \
            == 2.0 / 3.0
        assert perfect_limit_ratio("nonretarded-parallel-permeable") \
            == 10.0 / 3.0
        with pytest.raises(ValueError):
            perfect_limit_ratio("nonretarded-diagonal")

    def test_plate_kind_validation(self):
        with pytest.raises(ValueError):
            perfect_retarded_closed(PlanarGeometry.parallel(1.0, 1.0),
                                    ATOM, ATOM, "wooden")


class TestRetardedHalfSpaceClosed:
    def test_vacuum_trivial(self):
        geom = PlanarGeometry.vertical(1.0, 2.0)
        assert retarded_halfspace_closed(geom, ATOM, ATOM, 1.0, 1.0) \
            == (0.0, 0.0)

    def test_large_eps_approaches_perfect(self):
        geom = PlanarGeometry.vertical(1.0, 2.0)
        u1, u2 = retarded_halfspace_closed(geom, ATOM, ATOM, 1e6, 1.0)
        ref = perfect_retarded_closed(geom, ATOM, ATOM, "conducting")
        assert u1 == pytest.approx(ref.u1, rel=0.02)
        assert u2 == pytest.approx(ref.u2, rel=0.02)

    def test_large_mu_approaches_permeable(self):
        geom = PlanarGeometry.vertical(1.0, 2.0)
        # convergence toward the perfect reflector is O(mu0^{-1/2})
        u1, u2 = retarded_halfspace_closed(geom, ATOM, ATOM, 1.0, 1e10)
        ref = perfect_retarded_closed(geom, ATOM, ATOM, "permeable")
        assert u1 == pytest.approx(ref.u1, rel=0.01)
        assert u2 == pytest.approx(ref.u2, rel=0.01)

    @pytest.mark.parametrize("eps0,mu0", [(10.0, 1.0), (10.0, 10.0)])
    def test_vertical_scaling_is_exact(self, eps0, mu0):
        # along vertical(d, d) only d changes, so U1 and U2 are exactly
        # proportional to d^-7; the requested rel_tol must not be lost to
        # the absolute tolerance as |U| falls
        spec = QuadSpec(rel_tol=1e-8)
        scaled = []
        for d in (1.0, 20.0, 60.0):
            u1, u2 = retarded_halfspace_closed(PlanarGeometry.vertical(d, d),
                                               ATOM, ATOM, eps0, mu0, spec=spec)
            scaled.append((u1 * d**7, u2 * d**7))
        for u1_d7, u2_d7 in scaled[1:]:
            assert u1_d7 == pytest.approx(scaled[0][0], rel=1e-9, abs=0.0)
            assert u2_d7 == pytest.approx(scaled[0][1], rel=1e-9, abs=0.0)

    def test_off_axis_golden(self):
        # X = 0.5: frozen from the (v, v') double quadrature over the
        # two-Bessel moments M_nu that the factorised form replaced
        geom = PlanarGeometry(0.0, 1.0, 0.5, 2.0)
        u1, u2 = retarded_halfspace_closed(geom, ATOM, ATOM, 10.0, 10.0,
                                           spec=QuadSpec(rel_tol=1e-8))
        assert u1 == pytest.approx(-1.5117305679113194e-05, rel=1e-8, abs=0.0)
        assert u2 == pytest.approx(-1.0667080880073215e-06, rel=1e-8, abs=0.0)

    def test_magnetic_off_axis_converges_at_tight_tolerance(self):
        # eps0 = 1: the large-v digits of r_p = (v - root)/(v + root) must
        # survive for the v-integrals to meet rel_tol 1e-8
        geom = PlanarGeometry(0.0, 1.0, 0.5, 2.0)
        loose = retarded_halfspace_closed(geom, ATOM, ATOM, 1.0, 10.0,
                                          spec=QuadSpec(rel_tol=1e-6))
        tight = retarded_halfspace_closed(geom, ATOM, ATOM, 1.0, 10.0,
                                          spec=QuadSpec(rel_tol=1e-8))
        assert tight == pytest.approx(loose, rel=1e-5, abs=0.0)

    # At (eps0, mu0) = (1, 3) the large-v limits of r_s and r_p v^2 are
    # 1/2 and -1/2, so H's weight r_s + r_p v^2 is O(1/v^2).
    @pytest.mark.parametrize("geom", [
        PlanarGeometry(0.0, 1.0, 0.5, 2.0), PlanarGeometry.parallel(1.0, 1.0),
        PlanarGeometry(0.0, 1.0, 3.0, 2.0), PlanarGeometry.parallel(60.0, 60.0),
        PlanarGeometry(0.0, 0.1, 2.0, 0.3),
    ])
    def test_cancelling_limits_converge(self, geom):
        got = retarded_halfspace_closed(geom, ATOM, ATOM, 1.0, 3.0,
                                        spec=QuadSpec(rel_tol=1e-8))
        ref = retarded_halfspace_closed(geom, ATOM, ATOM, 1.0, 3.0,
                                        spec=QuadSpec(rel_tol=1e-10))
        assert got == pytest.approx(ref, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("eps0,mu0", [(1.0, 3.0), (1.0001, 3.0),
                                          (10.0, 10.0), (1.0, 1e10),
                                          (1e6, 1.0), (0.5, 1.5)])
    def test_h_weight_against_mpmath(self, eps0, mu0):
        mpmath = pytest.importorskip("mpmath")
        vs = np.geomspace(1.0, 1e8, 60)
        got = _static_h_weight(vs, eps0, mu0)
        with mpmath.workdps(40):
            for v, h in zip(vs, got):
                v = mpmath.mpf(float(v))
                root = mpmath.sqrt(mpmath.mpf(eps0) * mu0 - 1 + v**2)
                rs = (mu0 * v - root) / (mu0 * v + root)
                rp = (eps0 * v - root) / (eps0 * v + root)
                # relative to the size of the terms, as H(1) = 0 exactly
                scale = abs(rs) + abs(rp * v**2)
                assert abs(h - (rs + rp * v**2)) <= 1e-14 * scale

    def test_cancelling_limits_are_the_far_limit_of_the_full_quadrature(self):
        # a Lorentz permeability with mu(0) = 1 + 2/1 = 3, at 60 resonance
        # wavelengths, where the retardation corrections are below 1e-2
        medium = HalfSpaceMedium.magnetic(LorentzMedium(
            omegaP=np.sqrt(2.0), omegaT=1.0, gamma=1e-3, kind="magnetic"))
        geom = PlanarGeometry.parallel(60.0, 60.0)
        full = u_total(geom, ATOM, ATOM, medium, spec=QuadSpec(rel_tol=1e-8))
        u1, u2 = retarded_halfspace_closed(geom, ATOM, ATOM, 1.0, 3.0,
                                           spec=QuadSpec(rel_tol=1e-8))
        assert full.u1 == pytest.approx(u1, rel=1e-2, abs=0.0)
        assert full.u2 == pytest.approx(u2, rel=1e-2, abs=0.0)


class TestRetardedLimitOfFullQuadrature:
    """``u_total`` at separations far beyond every resonance wavelength
    against the static-response closed form (eps0 = mu0 = 1 + 3^2/1^2 = 10
    for the default Lorentz media)."""

    SPEC = QuadSpec(rel_tol=1e-7)
    MEDIA = {
        "dielectric": (HalfSpaceMedium(eps=EPS_MEDIUM), 10.0, 1.0),
        "magnetic": (HalfSpaceMedium(mu=MU_MEDIUM), 1.0, 10.0),
        "magneto-electric": (HalfSpaceMedium(eps=EPS_MEDIUM, mu=MU_MEDIUM),
                             10.0, 10.0),
    }

    def _pair(self, geom, name):
        medium, eps0, mu0 = self.MEDIA[name]
        full = u_total(geom, ATOM, ATOM, medium, spec=self.SPEC)
        closed = retarded_halfspace_closed(geom, ATOM, ATOM, eps0, mu0,
                                           spec=self.SPEC)
        return (full.u1, full.u2), closed

    @pytest.mark.parametrize("family", ["vertical", "parallel"])
    @pytest.mark.parametrize("name", ["dielectric", "magnetic",
                                      "magneto-electric"])
    def test_u2(self, family, name):
        geom = getattr(PlanarGeometry, family)(60.0, 60.0)
        (_, u2), (_, u2_closed) = self._pair(geom, name)
        assert u2 == pytest.approx(u2_closed, rel=2e-3, abs=0.0)

    @pytest.mark.parametrize("family,name", [
        ("vertical", "magnetic"), ("vertical", "magneto-electric"),
        ("parallel", "dielectric"), ("parallel", "magnetic"),
        ("parallel", "magneto-electric"),
    ])
    def test_u1(self, family, name):
        # the dielectric vertical U1 is left out: its near-cancellation
        # leaves a 2e-2 deviation at this separation.  |U| ~ 1e-18 here,
        # so pytest.approx's default absolute tolerance is switched off.
        geom = getattr(PlanarGeometry, family)(60.0, 60.0)
        (u1, _), (u1_closed, _) = self._pair(geom, name)
        assert u1 == pytest.approx(u1_closed, rel=1e-2, abs=0.0)


class TestNonretardedClosed:
    def test_electric_vacuum_reduces_to_free_space(self):
        geom = PlanarGeometry.parallel(1e-3, 1e-3)
        c6 = asymptotic_coefficients(ATOM, ATOM).c6
        val = nonretarded_electric_closed(geom, ATOM, ATOM,
                                          LorentzMedium(omegaP=0.0))
        assert val == pytest.approx(-c6 / geom.l**6, rel=1e-9)

    def test_electric_perfect_limit(self):
        # eps -> infinity reproduces the perfect-conductor closed form
        geom = PlanarGeometry(0.0, 1e-3, 2e-3, 1.5e-3)
        huge = LorentzMedium(omegaP=1e5, omegaT=1.0, gamma=0.0)
        val = nonretarded_electric_closed(geom, ATOM, ATOM, huge)
        ref = perfect_nonretarded_closed(geom, ATOM, ATOM, "conducting")
        assert val == pytest.approx(ref.total, rel=1e-4)

    def test_magnetic_vacuum_reduces_to_free_space(self):
        geom = PlanarGeometry.parallel(1e-3, 1e-3)
        c6 = asymptotic_coefficients(ATOM, ATOM).c6
        val = nonretarded_magnetic_closed(
            geom, ATOM, ATOM, LorentzMedium(omegaP=0.0, kind="magnetic"))
        assert val == pytest.approx(-c6 / geom.l**6, rel=1e-9)

    def test_magnetic_rejects_perfect_reflectivity(self):
        geom = PlanarGeometry.parallel(1e-3, 1e-3)
        huge = LorentzMedium(omegaP=1e3, omegaT=1.0, gamma=0.0,
                             kind="magnetic")
        with pytest.raises(ValueError, match="perfect reflectivity"):
            nonretarded_magnetic_closed(geom, ATOM, ATOM, huge)

    def test_parallel_signs(self):
        # parallel near-surface: electric reduces, magnetic enhances
        geom = PlanarGeometry.parallel(1e-3, 2e-4)
        free = -asymptotic_coefficients(ATOM, ATOM).c6 / geom.l**6
        die = nonretarded_electric_closed(geom, ATOM, ATOM, EPS_MEDIUM)
        mag = nonretarded_magnetic_closed(geom, ATOM, ATOM, MU_MEDIUM)
        assert die / free < 1.0
        assert mag / free > 1.0


class TestThreshold:
    def test_exact_roots(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            retarded = mpmath.findroot(
                lambda r: r**5 * (r - 1) - mpmath.mpf(6) / 23 * (r + 1)**6,
                4.9)
            c = mpmath.cbrt(mpmath.mpf(3) / 2)
            permeable = 1 + 2 / (c - 1)
        assert abs(threshold("retarded-conducting-vertical")
                   - float(retarded)) < 1e-12
        assert abs(threshold("nonretarded-permeable-vertical")
                   - float(permeable)) < 1e-12

    def test_values(self):
        assert threshold("retarded-conducting-vertical") == \
            pytest.approx(4.90, abs=0.01)
        analytic = 1.0 + 2.0 / ((1.5) ** (1.0 / 3.0) - 1.0)
        assert threshold("nonretarded-permeable-vertical") == \
            pytest.approx(analytic, abs=1e-4)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            threshold("sideways")

    def test_sign_change_retarded_conducting(self):
        root = threshold("retarded-conducting-vertical")

        def u1_plus_u2(r):
            geom = PlanarGeometry.vertical(1.0, r - 1.0)
            bd = perfect_retarded_closed(geom, ATOM, ATOM, "conducting")
            return bd.u1 + bd.u2

        assert u1_plus_u2(root * 0.9) * u1_plus_u2(root * 1.1) < 0.0

    def test_sign_change_nonretarded_permeable(self):
        root = threshold("nonretarded-permeable-vertical")

        def u1_plus_u2(r):
            geom = PlanarGeometry.vertical(1.0, r - 1.0)
            bd = perfect_nonretarded_closed(geom, ATOM, ATOM, "permeable")
            return bd.u1 + bd.u2

        assert u1_plus_u2(root * 0.9) * u1_plus_u2(root * 1.1) < 0.0


class TestU2Integrand:
    def test_negative_pointwise(self):
        geom = PlanarGeometry.parallel(0.5, 0.4)
        med = HalfSpaceMedium.dielectric(EPS_MEDIUM)
        for u in (0.3, 1.0, 3.0):
            assert u2_frequency_integrand(u, geom, ATOM, ATOM, med) < 0.0


class TestSharedScattering:
    """U1 and U2 of one ``u_total`` call share one G1 per u-node, and the
    q-integrals of one G1 share one kernel evaluation on their first grid."""

    GEOM = PlanarGeometry.parallel(0.1, 0.01)  # the benchmark's anchor row
    MEDIUM = HalfSpaceMedium.dielectric(EPS_MEDIUM)

    def _counts(self, monkeypatch):
        """Count q-integrals and ``reflection`` calls made through either
        module that integrates over q."""
        import vdwpair.greens
        import vdwpair.potentials

        counts = {"q": 0, "reflection": 0}
        for module in (vdwpair.greens, vdwpair.potentials):
            def counting_integrate(f, spec=None, breakpoints=None, axis="x",
                                   integrate=module.integrate_semiinf):
                counts["q"] += axis == "q"
                return integrate(f, spec, breakpoints=breakpoints, axis=axis)

            def counting_reflection(*args, reflection=module.reflection):
                counts["reflection"] += 1
                return reflection(*args)

            monkeypatch.setattr(module, "integrate_semiinf",
                                counting_integrate)
            monkeypatch.setattr(module, "reflection", counting_reflection)
        return counts

    def test_anchor_counts(self, monkeypatch):
        # 60 u-nodes (the 4-panel first grid), one G1 each: 4 q-integrals
        # and, since every element integral is accepted on the common
        # first grid, one reflection call.  The 8-panel first grid made
        # 480 q-integrals and 120 reflection calls; a U1 of its own
        # q-integrals and a separate U2 u-grid made 600 and 600.
        counts = self._counts(monkeypatch)
        u_total(self.GEOM, ATOM, ATOM, self.MEDIUM)
        assert counts == {"q": 240, "reflection": 60}

    def test_magnetic_row_counts(self, monkeypatch):
        # a magnetic row of the oscillatory benchmark's shape (X/Z+ = 1.5)
        # at rel_tol 1e-6: the 60-node first grid and one split panel (30
        # nodes); the 8-panel first grid made 120 nodes
        counts = self._counts(monkeypatch)
        u_total(PlanarGeometry.parallel(0.03, 0.01), ATOM, ATOM,
                HalfSpaceMedium.magnetic(MU_MEDIUM),
                spec=QuadSpec(rel_tol=1e-6))
        assert counts == {"q": 360, "reflection": 90}

    def test_no_state_outlives_a_call(self, monkeypatch):
        counts = self._counts(monkeypatch)
        first = u_total(self.GEOM, ATOM, ATOM, self.MEDIUM)
        after_first = dict(counts)
        second = u_total(self.GEOM, ATOM, ATOM, self.MEDIUM)
        assert second == first
        assert {k: v - after_first[k] for k, v in counts.items()} \
            == after_first

    def test_memo_matches_separate_integrals(self):
        # the memo changes which call computes G1, not its value
        spec = QuadSpec(rel_tol=1e-6)
        bd = u_total(self.GEOM, ATOM, ATOM, self.MEDIUM, spec=spec)
        assert bd.u1 == u1_halfspace(self.GEOM, ATOM, ATOM, self.MEDIUM,
                                     spec=spec)
        assert bd.u2 == u2_halfspace(self.GEOM, ATOM, ATOM, self.MEDIUM,
                                     spec=spec)
