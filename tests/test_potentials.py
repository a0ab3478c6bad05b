"""Free-space and half-space potentials, closed-form limits, thresholds."""

import math

import mpmath
import numpy as np
import pytest

from vdwpair import (
    LIMIT_RATIOS,
    HalfSpaceMedium,
    LorentzMedium,
    PlanarGeometry,
    PotentialBreakdown,
    ResonanceAtom,
    asymptotic_coefficients,
    halfspace_forces,
    nonretarded_closed,
    perfect_retarded_closed,
    threshold,
    u0_ee,
    u0_em,
    u1_halfspace,
    u2_halfspace,
    u_total,
)
from vdwpair.potentials import FREE_SPACE_PAIRS
from vdwpair.quadrature import QuadSpec
from vdwpair.validate import _static_h_weight, retarded_halfspace_closed, \
    trace_integrand, u1_frequency_integrand

ATOM = ResonanceAtom()
MAG_ATOM = ResonanceAtom(kind="magnetic")
EPS_MEDIUM = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3)
MU_MEDIUM = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3)
CONDUCTING = HalfSpaceMedium.perfect_conductor()
PERMEABLE = HalfSpaceMedium(perfect="permeable")
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

    @pytest.mark.parametrize("l", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("u0,atom_b", [(u0_ee, ATOM), (u0_em, MAG_ATOM)],
                             ids=["ee", "em"])
    def test_separation_must_be_positive_and_finite(self, u0, atom_b, l):
        with pytest.raises(ValueError, match="positive and finite"):
            u0(l, ATOM, atom_b)

    def test_exact_coefficients(self):
        co = asymptotic_coefficients(ATOM, ATOM)
        # int du/(1+u^2)^2 = pi/4 gives c6 = 3/(64 pi^2) for unit atoms
        assert co.c6 == pytest.approx(3.0 / (64.0 * PI**2), rel=1e-9)
        assert co.c7_ee == 23.0 / (64.0 * PI**3)
        assert co.c7_em == 7.0 / (64.0 * PI**3)
        # int u^2 du/(1+u^2)^2 = pi/4 as well
        assert co.c4 == pytest.approx(1.0 / (64.0 * PI**2), rel=1e-9)

    @pytest.mark.parametrize("atom_a,atom_b", [
        (ResonanceAtom(), ResonanceAtom(omega10=0.05)),
        (ResonanceAtom(), ResonanceAtom(omega10=1.0)),
        (ResonanceAtom(), ResonanceAtom(omega10=20.0)),
        (ResonanceAtom(omega10=0.3, alpha0=2.5),
         ResonanceAtom(omega10=0.3, alpha0=0.4, kind="magnetic")),
    ])
    def test_london_moments_against_mpmath(self, atom_a, atom_b):
        # c6 = 3/(16 pi^3) int alpha_A alpha_B du and c4 = 1/(16 pi^3)
        # int u^2 alpha_A alpha_B du, by mpmath quadrature of the factors
        def alpha(atom, u):
            return atom.alpha0 * atom.omega10**2 / (atom.omega10**2 + u**2)

        def moment(power):
            return float(mpmath.quad(
                lambda u: u**power * alpha(atom_a, u) * alpha(atom_b, u),
                sorted({0.0, atom_a.omega10, atom_b.omega10}) + [mpmath.inf]))

        with mpmath.workdps(30):
            c6 = 3.0 * moment(0) / (16.0 * PI**3)
            c4 = moment(2) / (16.0 * PI**3)
        co = asymptotic_coefficients(atom_a, atom_b)
        assert co.c6 == pytest.approx(c6, rel=1e-13, abs=0.0)
        assert co.c4 == pytest.approx(c4, rel=1e-13, abs=0.0)

    # Each row of FREE_SPACE_PAIRS in its two limits.  As l -> 0,
    # e^{-2ul} P(ul) -> p0, leaving 2 p0 times the u^m-moment of
    # alpha_A alpha_B, whose closed forms for single-resonance atoms are
    # a0 b0 wA^2 wB^2 pi/(2 wA wB (wA + wB)) (m = 0) and
    # a0 b0 wA^2 wB^2 pi/(2 (wA + wB)) (m = 2).  As l -> inf, alpha -> a0 b0
    # and int u^m 2 e^{-2ul} P(ul) du = 2 sum_k p_k (k + m)!/2^(k+m+1)
    # / l^(m+1).
    PAIR_COEFFICIENTS = {("electric", "electric"): ("c6", "c7_ee", 23 / 4),
                         ("electric", "magnetic"): ("c4", "c7_em", 7 / 4)}

    @pytest.mark.parametrize("pair", list(FREE_SPACE_PAIRS))
    def test_pair_table_nonretarded_limit(self, pair):
        _, _, m, p = FREE_SPACE_PAIRS[pair]
        atom_a = ResonanceAtom(omega10=1.0, alpha0=1.0, kind=pair[0])
        atom_b = ResonanceAtom(omega10=1.7, alpha0=0.3, kind=pair[1])
        wa, wb = atom_a.omega10, atom_b.omega10
        moment = (atom_a.alpha0 * atom_b.alpha0 * wa**2 * wb**2 * PI
                  / (2.0 * (wa + wb)) / {0: wa * wb, 2: 1.0}[m])
        co = asymptotic_coefficients(atom_a, atom_b)
        c_nonretarded = getattr(co, self.PAIR_COEFFICIENTS[pair][0])
        assert 2 * p[0] * moment / (32.0 * PI**3) == pytest.approx(
            c_nonretarded, rel=1e-14)

    @staticmethod
    def retarded_moment(pair):
        _, n, m, p = FREE_SPACE_PAIRS[pair]
        assert n + m + 1 == 7
        return sum(pk * math.factorial(k + m) / 2 ** (k + m + 1)
                   for k, pk in enumerate(p))

    @pytest.mark.parametrize("pair", list(FREE_SPACE_PAIRS))
    def test_pair_table_retarded_limit(self, pair):
        moment = self.retarded_moment(pair)
        assert moment == self.PAIR_COEFFICIENTS[pair][2]  # exact
        atom_a = ResonanceAtom(omega10=1.0, alpha0=1.0, kind=pair[0])
        atom_b = ResonanceAtom(omega10=1.7, alpha0=0.3, kind=pair[1])
        co = asymptotic_coefficients(atom_a, atom_b)
        c_retarded = getattr(co, self.PAIR_COEFFICIENTS[pair][1])
        assert atom_a.alpha0 * atom_b.alpha0 * 2 * moment / (32.0 * PI**3) \
            == pytest.approx(c_retarded, rel=1e-14)

    def test_pair_table_gives_the_retarded_ratio(self):
        # check 3's exact c7_em/c7_ee = 7/23, from the two rows alone
        ratio = (self.retarded_moment(("electric", "magnetic"))
                 / self.retarded_moment(("electric", "electric")))
        assert ratio == 7 / 23
        co = asymptotic_coefficients(ATOM, ATOM)
        assert co.c7_em / co.c7_ee == ratio

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
                            HalfSpaceMedium(perfect="permeable"), spec=spec)
        assert u1_p == pytest.approx(-u1_c, rel=1e-7)
        u2_c = u2_halfspace(geom, ATOM, ATOM,
                            HalfSpaceMedium.perfect_conductor(), spec=spec)
        u2_p = u2_halfspace(geom, ATOM, ATOM,
                            HalfSpaceMedium(perfect="permeable"), spec=spec)
        assert u2_p == pytest.approx(u2_c, rel=1e-7)

    def test_u2_negative(self):
        spec = QuadSpec(rel_tol=1e-7)
        for med in (HalfSpaceMedium.perfect_conductor(),
                    HalfSpaceMedium(perfect="permeable"),
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
            trace = trace_integrand("U1", u, geom, ATOM, ATOM, med,
                                    spec=spec)
            assert explicit == pytest.approx(trace, rel=1e-8)

    def test_perfect_nonretarded_match(self):
        # deep nonretarded geometry: quadrature vs closed forms within 2%
        geom = PlanarGeometry(0.0, 4e-3, 8e-3, 1e-2)
        spec = QuadSpec(rel_tol=1e-7)
        for kind in ("conducting", "permeable"):
            med = HalfSpaceMedium(perfect=kind)
            ref = nonretarded_closed(geom, ATOM, ATOM, med)
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

    @pytest.mark.parametrize("geom", [PlanarGeometry.parallel(1e-3, 0.01),
                                      PlanarGeometry.vertical(0.01, 1e-3)],
                             ids=["parallel", "vertical"])
    def test_magnetic_u2_meets_rel_tol_at_short_range(self, geom):
        med = HalfSpaceMedium.magnetic(MU_MEDIUM)
        got = u2_halfspace(geom, ATOM, ATOM, med, QuadSpec(rel_tol=1e-10))
        ref = u2_halfspace(geom, ATOM, ATOM, med,
                           QuadSpec(rel_tol=1e-10, abs_tol=1e-30))
        assert got == pytest.approx(ref, rel=1e-9, abs=0.0)


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
    @pytest.mark.parametrize("part", ["U1", "U2"])
    def test_integrand_on_u_array(self, kind, part):
        geom = PlanarGeometry(0.1, 0.5, 0.9, 0.8)
        med = HalfSpaceMedium(perfect=kind)
        us = np.geomspace(1e-3, 30.0, 17)
        batch = trace_integrand(part, us, geom, ATOM, ATOM, med)
        for i, u in enumerate(us):
            assert batch[i] == pytest.approx(
                trace_integrand(part, float(u), geom, ATOM, ATOM, med),
                rel=1e-15, abs=0.0)


class TestPerfectClosedForms:
    def test_retarded_u2_depends_only_on_zplus(self):
        a = perfect_retarded_closed(PlanarGeometry(0.0, 1.0, 0.1, 2.0),
                                    ATOM, ATOM, CONDUCTING)
        b = perfect_retarded_closed(PlanarGeometry(0.0, 1.4, 0.8, 1.6),
                                    ATOM, ATOM, CONDUCTING)
        assert a.u2 == pytest.approx(b.u2, rel=1e-13)

    def test_retarded_vertical_cross_ratio(self):
        # z_A/z_B -> 0 (conducting): u1/u0 -> -6/23
        geom = PlanarGeometry.vertical(1e-6, 1.0)
        bd = perfect_retarded_closed(geom, ATOM, ATOM, CONDUCTING)
        assert bd.u1 / bd.u0 == pytest.approx(-6.0 / 23.0, rel=1e-4)

    def test_nonretarded_vertical_conducting_cross(self):
        # X = 0: u1 = -2 c6/(3 Z+^3 l^3), always attractive
        geom = PlanarGeometry.vertical(0.7, 1.1)
        bd = nonretarded_closed(geom, ATOM, ATOM, CONDUCTING)
        c6 = asymptotic_coefficients(ATOM, ATOM).c6
        assert bd.u1 == pytest.approx(
            -2.0 * c6 / (3.0 * geom.Z_plus**3 * geom.l**3), rel=1e-8)
        assert bd.u1 < 0.0

    def test_limit_ratios_exact(self):
        assert LIMIT_RATIOS == {
            "retarded-conducting": (40, 23),
            "retarded-permeable": (52, 23),
            "nonretarded-parallel-conducting": (2, 3),
            "nonretarded-parallel-permeable": (10, 3),
        }

    def test_plate_kind_validation(self):
        with pytest.raises(ValueError):
            perfect_retarded_closed(PlanarGeometry.parallel(1.0, 1.0),
                                    ATOM, ATOM,
                                    HalfSpaceMedium.dielectric(EPS_MEDIUM))


class TestRetardedHalfSpaceClosed:
    def test_vacuum_trivial(self):
        geom = PlanarGeometry.vertical(1.0, 2.0)
        assert retarded_halfspace_closed(geom, ATOM, ATOM, 1.0, 1.0) \
            == (0.0, 0.0)

    def test_large_eps_approaches_perfect(self):
        geom = PlanarGeometry.vertical(1.0, 2.0)
        u1, u2 = retarded_halfspace_closed(geom, ATOM, ATOM, 1e6, 1.0)
        ref = perfect_retarded_closed(geom, ATOM, ATOM, CONDUCTING)
        assert u1 == pytest.approx(ref.u1, rel=0.02)
        assert u2 == pytest.approx(ref.u2, rel=0.02)

    def test_large_mu_approaches_permeable(self):
        geom = PlanarGeometry.vertical(1.0, 2.0)
        # convergence toward the perfect reflector is O(mu0^{-1/2})
        u1, u2 = retarded_halfspace_closed(geom, ATOM, ATOM, 1.0, 1e10)
        ref = perfect_retarded_closed(geom, ATOM, ATOM, PERMEABLE)
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
            omegaP=np.sqrt(2.0), omegaT=1.0, gamma=1e-3))
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
        # leaves a 2e-2 deviation at this separation, the d^-2
        # finite-distance term, which check 14 of ``vdwpair validate``
        # holds to 1.3e-3 at d = 240.  |U| ~ 1e-18 here, so
        # pytest.approx's default absolute tolerance is switched off.
        geom = getattr(PlanarGeometry, family)(60.0, 60.0)
        (u1, _), (u1_closed, _) = self._pair(geom, name)
        assert u1 == pytest.approx(u1_closed, rel=1e-2, abs=0.0)


class TestNonretardedClosed:
    def test_electric_vacuum_reduces_to_free_space(self):
        geom = PlanarGeometry.parallel(1e-3, 1e-3)
        c6 = asymptotic_coefficients(ATOM, ATOM).c6
        val = nonretarded_closed(geom, ATOM, ATOM, HalfSpaceMedium.dielectric(
            LorentzMedium(omegaP=0.0))).total
        assert val == pytest.approx(-c6 / geom.l**6, rel=1e-9)

    def test_electric_perfect_limit(self):
        # eps -> infinity reproduces the perfect-conductor closed form
        geom = PlanarGeometry(0.0, 1e-3, 2e-3, 1.5e-3)
        huge = LorentzMedium(omegaP=1e5, omegaT=1.0, gamma=0.0)
        val = nonretarded_closed(geom, ATOM, ATOM,
                                 HalfSpaceMedium.dielectric(huge)).total
        ref = nonretarded_closed(geom, ATOM, ATOM, CONDUCTING)
        assert val == pytest.approx(ref.total, rel=1e-4)

    def test_magnetic_vacuum_reduces_to_free_space(self):
        geom = PlanarGeometry.parallel(1e-3, 1e-3)
        c6 = asymptotic_coefficients(ATOM, ATOM).c6
        val = nonretarded_closed(geom, ATOM, ATOM, HalfSpaceMedium.magnetic(
            LorentzMedium(omegaP=0.0))).total
        assert val == pytest.approx(-c6 / geom.l**6, rel=1e-9)

    def test_magnetic_rejects_perfect_reflectivity(self):
        geom = PlanarGeometry.parallel(1e-3, 1e-3)
        huge = LorentzMedium(omegaP=1e3, omegaT=1.0, gamma=0.0)
        with pytest.raises(ValueError, match="perfect reflectivity"):
            nonretarded_closed(geom, ATOM, ATOM,
                               HalfSpaceMedium.magnetic(huge))

    def test_parallel_signs(self):
        # parallel near-surface: electric reduces, magnetic enhances
        geom = PlanarGeometry.parallel(1e-3, 2e-4)
        free = -asymptotic_coefficients(ATOM, ATOM).c6 / geom.l**6
        die = nonretarded_closed(geom, ATOM, ATOM,
                                 HalfSpaceMedium.dielectric(EPS_MEDIUM)).total
        mag = nonretarded_closed(geom, ATOM, ATOM,
                                 HalfSpaceMedium.magnetic(MU_MEDIUM)).total
        assert die / free < 1.0
        assert mag / free > 1.0

    def test_rejects_a_medium_with_both_eps_and_mu(self):
        medium = HalfSpaceMedium(eps=EPS_MEDIUM, mu=MU_MEDIUM)
        with pytest.raises(ValueError, match="both eps and mu"):
            nonretarded_closed(PlanarGeometry.parallel(1e-3, 1e-3), ATOM,
                               ATOM, medium)


@pytest.mark.parametrize("closed_form", [
    lambda geom, b: perfect_retarded_closed(geom, ATOM, b, CONDUCTING),
    lambda geom, b: nonretarded_closed(geom, ATOM, b, PERMEABLE),
    lambda geom, b: nonretarded_closed(geom, ATOM, b,
                                       HalfSpaceMedium.dielectric(EPS_MEDIUM)),
    lambda geom, b: retarded_halfspace_closed(geom, ATOM, b, 10.0, 1.0),
], ids=["perfect-retarded", "nonretarded-perfect", "nonretarded-dielectric",
        "retarded-halfspace"])
def test_closed_forms_reject_an_electric_magnetic_pair(closed_form):
    with pytest.raises(ValueError, match="electric-polarizable"):
        closed_form(PlanarGeometry.parallel(0.5, 0.3), MAG_ATOM)


# (medium, (x_a, z_a, x_b, z_b), U0, U1, U2) of the closed forms as they
# stood when each medium had its own nonretarded function and the perfect
# plates took a plate-kind string (default spec).  The perfect plates now
# round D = +-c6/3 once, so the last bit may move.
CLOSED_MEDIA = {"conducting": CONDUCTING, "permeable": PERMEABLE,
                "dielectric": HalfSpaceMedium.dielectric(EPS_MEDIUM),
                "magnetic": HalfSpaceMedium.magnetic(MU_MEDIUM)}
NONRETARDED_GOLDENS = [
    ("conducting", (0.0, 0.0004, 0.0008, 0.001),
     -4749430483234583.0, 248651263865305.97, -270222489942796.1),
    ("permeable", (0.0, 0.0004, 0.0008, 0.001),
     -4749430483234583.0, -248651263865305.97, -270222489942796.1),
    ("dielectric", (0.0, 0.0004, 0.0008, 0.001),
     -4749430483234583.0, 185247008069559.88, -153372027609044.16),
    ("magnetic", (0.0, 0.0004, 0.0008, 0.001),
     -4749430483234583.0, -4357349.060371876, 0.0),
    ("conducting", (0.0, 0.0002, 0.001, 0.0002),
     -4749430483234583.0, 4544317200366382.0, -3042759084035439.5),
    ("permeable", (0.0, 0.0002, 0.001, 0.0002),
     -4749430483234583.0, -4544317200366382.0, -3042759084035439.5),
    ("dielectric", (0.0, 0.0002, 0.001, 0.0002),
     -4749430483234583.0, 3385549512199238.5, -1726999593346743.2),
    ("magnetic", (0.0, 0.0002, 0.001, 0.0002),
     -4749430483234583.0, -279641259.55848706, 0.0),
    ("conducting", (0.0, 0.7, 0.0, 1.8),
     -0.002680929690388635, -0.00015224820983071038, -1.9453667259328853e-05),
    ("permeable", (0.0, 0.7, 0.0, 1.8),
     -0.002680929690388635, 0.00015224820983071038, -1.9453667259328853e-05),
    ("dielectric", (0.0, 0.7, 0.0, 1.8),
     -0.002680929690388635, -0.00011342602855364314, -1.1041451037722867e-05),
    ("magnetic", (0.0, 0.7, 0.0, 1.8),
     -0.002680929690388635, 7.621780824203006e-05, 0.0),
    ("conducting", (0.0, 0.001, 0.002, 0.0015),
     -61869234872178.59, 10980777954053.004, -4410318348935.93),
    ("permeable", (0.0, 0.001, 0.002, 0.0015),
     -61869234872178.59, -10980777954053.004, -4410318348935.93),
    ("dielectric", (0.0, 0.001, 0.002, 0.0015),
     -61869234872178.59, 8180759794434.03, -2503194562824.3896),
    ("magnetic", (0.0, 0.001, 0.002, 0.0015),
     -61869234872178.59, -5293467.222930847, 0.0),
    ("conducting", (-0.3, 0.5, 0.6, 1.2),
     -0.00216177991954237, 7.893654448631804e-05, -9.376405115658669e-05),
    ("permeable", (-0.3, 0.5, 0.6, 1.2),
     -0.00216177991954237, -7.893654448631804e-05, -9.376405115658669e-05),
    ("dielectric", (-0.3, 0.5, 0.6, 1.2),
     -0.00216177991954237, 5.880830230310534e-05, -5.321830409366791e-05),
    ("magnetic", (-0.3, 0.5, 0.6, 1.2),
     -0.00216177991954237, 6.87389499753057e-07, 0.0),
]
RETARDED_GOLDENS = [
    ("conducting", (0.0, 1.0, 0.1, 2.0),
     -0.011193694134264916, 3.119607124812263e-05, -5.2996777260773055e-06),
    ("permeable", (0.0, 1.0, 0.1, 2.0),
     -0.011193694134264916, -3.119607124812263e-05, -5.2996777260773055e-06),
    ("conducting", (0.0, 60.0, 0.0, 120.0),
     -4.140373223497895e-15, 1.1251014194287758e-17, -1.8931747706894812e-18),
    ("permeable", (0.0, 60.0, 0.0, 120.0),
     -4.140373223497895e-15, -1.1251014194287758e-17, -1.8931747706894812e-18),
    ("conducting", (0.0, 1e-06, 0.0, 1.000001),
     -0.011590395186931076, 0.0030235601881306667, -0.01159023292269658),
    ("permeable", (0.0, 1e-06, 0.0, 1.000001),
     -0.011590395186931076, -0.0030235601881306667, -0.01159023292269658),
    ("conducting", (0.2, 3.0, 0.5, 4.0),
     -0.008572460667786816, 3.9849928264180683e-07, -1.407381908040147e-08),
    ("permeable", (0.2, 3.0, 0.5, 4.0),
     -0.008572460667786816, -3.9849928264180683e-07, -1.407381908040147e-08),
    ("conducting", (0.0, 0.5, 0.3, 0.5),
     -52.99677726077307, 0.10133988567537247, -0.011590395186931068),
    ("permeable", (0.0, 0.5, 0.3, 0.5),
     -52.99677726077307, -0.10133988567537247, -0.011590395186931068),
]


class TestClosedFormGoldens:
    @pytest.mark.parametrize("name,pos,u0,u1,u2", NONRETARDED_GOLDENS)
    def test_nonretarded(self, name, pos, u0, u1, u2):
        bd = nonretarded_closed(PlanarGeometry(*pos), ATOM, ATOM,
                                CLOSED_MEDIA[name])
        assert (bd.u0, bd.u1, bd.u2) == pytest.approx((u0, u1, u2),
                                                      rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("name,pos,u0,u1,u2", RETARDED_GOLDENS)
    def test_perfect_retarded(self, name, pos, u0, u1, u2):
        bd = perfect_retarded_closed(PlanarGeometry(*pos), ATOM, ATOM,
                                     CLOSED_MEDIA[name])
        assert (bd.u0, bd.u1, bd.u2) == pytest.approx((u0, u1, u2),
                                                      rel=1e-14, abs=0.0)


class TestThreshold:
    def test_exact_roots(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            retarded = mpmath.findroot(
                lambda r: r**5 * (r - 1) - mpmath.mpf(6) / 23 * (r + 1)**6,
                4.9)
            c = mpmath.cbrt(mpmath.mpf(3) / 2)
            permeable = 1 + 2 / (c - 1)
        assert abs(threshold("threshold-vertical-conducting")
                   - float(retarded)) < 1e-12
        assert abs(threshold("threshold-vertical-permeable")
                   - float(permeable)) < 1e-12

    def test_values(self):
        assert threshold("threshold-vertical-conducting") == \
            pytest.approx(4.90, abs=0.01)
        analytic = 1.0 + 2.0 / ((1.5) ** (1.0 / 3.0) - 1.0)
        assert threshold("threshold-vertical-permeable") == \
            pytest.approx(analytic, abs=1e-4)

    def test_unknown_case(self):
        with pytest.raises(ValueError):
            threshold("sideways")

    def test_sign_change_retarded_conducting(self):
        root = threshold("threshold-vertical-conducting")

        def u1_plus_u2(r):
            geom = PlanarGeometry.vertical(1.0, r - 1.0)
            bd = perfect_retarded_closed(geom, ATOM, ATOM, CONDUCTING)
            return bd.u1 + bd.u2

        assert u1_plus_u2(root * 0.9) * u1_plus_u2(root * 1.1) < 0.0

    def test_sign_change_nonretarded_permeable(self):
        root = threshold("threshold-vertical-permeable")

        def u1_plus_u2(r):
            geom = PlanarGeometry.vertical(1.0, r - 1.0)
            bd = nonretarded_closed(geom, ATOM, ATOM, PERMEABLE)
            return bd.u1 + bd.u2

        assert u1_plus_u2(root * 0.9) * u1_plus_u2(root * 1.1) < 0.0


class TestU2Integrand:
    def test_negative_pointwise(self):
        geom = PlanarGeometry.parallel(0.5, 0.4)
        med = HalfSpaceMedium.dielectric(EPS_MEDIUM)
        for u in (0.3, 1.0, 3.0):
            assert trace_integrand("U2", u, geom, ATOM, ATOM, med) < 0.0


class TestSharedScattering:
    """U1 and U2 of one ``u_total`` call share one G1 per u-node, and the
    q-integrals of one G1 share one kernel evaluation on their first grid."""

    GEOM = PlanarGeometry.parallel(0.1, 0.01)  # the benchmark's anchor row
    MEDIUM = HalfSpaceMedium.dielectric(EPS_MEDIUM)

    def _counts(self, monkeypatch):
        """Count q-integrals made through either module that integrates
        over q, the u-rows that ``reflection`` is called on, and its
        calls."""
        import vdwpair.greens
        import vdwpair.potentials

        counts = {"q": 0, "rows": 0, "reflection": 0}
        for module in (vdwpair.greens, vdwpair.potentials):
            def counting_integrate(f, spec=None, breakpoints=None, axis="x",
                                   integrate=module.integrate_semiinf):
                counts["q"] += axis == "q"
                return integrate(f, spec, breakpoints=breakpoints, axis=axis)

            monkeypatch.setattr(module, "integrate_semiinf",
                                counting_integrate)

        def counting_reflection(q, u, medium,
                                reflection=vdwpair.greens.reflection):
            counts["rows"] += np.size(u)
            counts["reflection"] += 1
            return reflection(q, u, medium)

        monkeypatch.setattr(vdwpair.greens, "reflection", counting_reflection)
        return counts

    def test_anchor_counts(self, monkeypatch):
        # 63 u-nodes (the ladder's 15 + 16 + 32), one G1 each: 4
        # q-integrals and one reflection row, all of a chunk's rows in one
        # call (2 + 2 + 4 chunks of at most 8 nodes), since every element
        # integral but one is accepted on the common first grid; that one
        # refines once, one more row and call.
        counts = self._counts(monkeypatch)
        u_total(self.GEOM, ATOM, ATOM, self.MEDIUM)
        assert counts == {"q": 252, "rows": 64, "reflection": 9}

    def test_magnetic_row_counts(self, monkeypatch):
        # a magnetic row of the oscillatory benchmark's shape (X/Z+ = 1.5)
        # at rel_tol 1e-6: the ladder's 63 nodes in 2 + 2 + 4 chunks
        counts = self._counts(monkeypatch)
        u_total(PlanarGeometry.parallel(0.03, 0.01), ATOM, ATOM,
                HalfSpaceMedium.magnetic(MU_MEDIUM),
                spec=QuadSpec(rel_tol=1e-6))
        assert counts == {"q": 252, "rows": 63, "reflection": 8}

    @staticmethod
    def _g1_nodes(monkeypatch):
        """The u-node of every G1 (``wrt=None``) that a plate part asks
        ``halfspace_scattering`` for, one entry per node."""
        import vdwpair.potentials

        nodes = []

        def spy(geom, us, medium, spec=None, wrt=None,
                scattering=vdwpair.potentials.halfspace_scattering):
            if wrt is None:
                nodes.extend(np.atleast_1d(us).tolist())
            return scattering(geom, us, medium, spec, wrt)

        monkeypatch.setattr(vdwpair.potentials, "halfspace_scattering", spy)
        return nodes

    def test_g1_nodes_follow_the_tolerance(self, monkeypatch):
        # the ladder stops at the first level whose change from the one
        # below meets rel_tol: 31 nodes at 1e-6, at least as many at 1e-8
        nodes = self._g1_nodes(monkeypatch)
        counts = []
        for rel_tol in (1e-6, 1e-8):
            nodes.clear()
            u_total(self.GEOM, ATOM, ATOM, self.MEDIUM,
                    spec=QuadSpec(rel_tol=rel_tol))
            counts.append(len(nodes))
        assert counts[0] == 31
        assert counts[1] >= counts[0]

    def test_one_g1_per_u_node_across_a_row(self, monkeypatch):
        # at this geometry U2 stops at 31 nodes, U1 and Phi_X at 63 and
        # Phi_Z+ at 127: every part of a force row meets G1 at the
        # ladder's node batches, so the row evaluates each node once
        import vdwpair.potentials

        geom = PlanarGeometry.parallel(1e-4, 0.01)
        medium = HalfSpaceMedium.magnetic(MU_MEDIUM)
        spec = QuadSpec(rel_tol=1e-8)
        levels = []

        def recording(f, spec=None, axis="x",
                      integrate=vdwpair.potentials.integrate_mapped):
            res = integrate(f, spec, axis=axis)
            levels.append(res.evaluations)
            return res

        monkeypatch.setattr(vdwpair.potentials, "integrate_mapped", recording)
        nodes = self._g1_nodes(monkeypatch)
        halfspace_forces(geom, ATOM, ATOM, medium, spec=spec)
        assert len(set(levels)) > 1
        assert len(nodes) == len(set(nodes)) == max(levels)

    @pytest.mark.parametrize("kind,lorentz", [("dielectric", EPS_MEDIUM),
                                              ("magnetic", MU_MEDIUM)],
                             ids=["dielectric", "magnetic"])
    @pytest.mark.parametrize("geom", [PlanarGeometry.parallel(0.1, 0.01),
                                      PlanarGeometry.vertical(0.01, 0.01)],
                             ids=["parallel", "vertical"])
    def test_q_evaluations_do_not_rise_as_rel_tol_loosens(self, monkeypatch,
                                                         kind, lorentz,
                                                         geom):
        # the summed q-evaluations of one u_total at rel_tol 1e-4, 1e-6 and
        # 1e-8 (169,380 / 352,740 / 731,460 on the magnetic medium in
        # parallel): a looser tolerance never costs more
        import vdwpair.greens

        evaluations = []

        def counting(f, spec=None, breakpoints=None, axis="x",
                     integrate=vdwpair.greens.integrate_semiinf):
            res = integrate(f, spec, breakpoints=breakpoints, axis=axis)
            evaluations[-1] += res.evaluations
            return res

        monkeypatch.setattr(vdwpair.greens, "integrate_semiinf", counting)
        medium = getattr(HalfSpaceMedium, kind)(lorentz)
        for rel_tol in (1e-4, 1e-6, 1e-8):
            evaluations.append(0)
            u_total(geom, ATOM, ATOM, medium, spec=QuadSpec(rel_tol=rel_tol))
        assert 0 < evaluations[0] <= evaluations[1] <= evaluations[2]

    def test_a_shared_memo_keeps_geometries_and_specs_apart(self):
        # both geometries take the u-scale 1, so their u-nodes coincide: a
        # memo keyed by the batch alone would hand the second the first's
        # G1; back at the first geometry, a tighter spec must not change
        # what a shared memo returns either.  Here the G1 of the inner
        # rel_tols 1e-7 and 1e-9 agree to the bit, so only the 1e-11 call,
        # whose G1 differ, tells a memo keyed without the spec apart.
        medium = HalfSpaceMedium.dielectric(EPS_MEDIUM)
        memo = {}
        for geom, rel_tol in ((PlanarGeometry.parallel(0.05, 0.01), 1e-6),
                              (PlanarGeometry.parallel(0.1, 0.02), 1e-6),
                              (PlanarGeometry.parallel(0.05, 0.01), 1e-8),
                              (PlanarGeometry.parallel(0.05, 0.01), 1e-11)):
            spec = QuadSpec(rel_tol=rel_tol)
            for part in (u1_halfspace, u2_halfspace):
                assert part(geom, ATOM, ATOM, medium, spec=spec,
                            g1_memo=memo) \
                    == part(geom, ATOM, ATOM, medium, spec=spec)

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
