"""Forces on the two atoms: analytic free-space radial force and
half-space force vectors, checked against the finite-difference oracle."""

import numpy as np
import pytest

from vdwpair import (
    ForcePair,
    HalfSpaceMedium,
    LorentzMedium,
    PlanarGeometry,
    ResonanceAtom,
    asymptotic_coefficients,
    free_space_force,
    halfspace_forces,
    u0_ee,
    u0_em,
    u_total,
)
from vdwpair.forces import _FORCE_ROWS, richardson_forces
from vdwpair.quadrature import QuadSpec

ATOM = ResonanceAtom()
MAG_ATOM = ResonanceAtom(kind="magnetic")
EPS_MEDIUM = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3)
MU_MEDIUM = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3)


class TestForcePair:
    def test_net(self):
        # The plate takes up momentum only along z: the net force on the
        # pair is -2 dU/dZ+ along z, and its x part is exactly 0.
        fp = halfspace_forces(PlanarGeometry(0.0, 0.3, 0.4, 0.5), ATOM, ATOM,
                              HalfSpaceMedium(perfect="conducting"),
                              spec=QuadSpec(rel_tol=1e-8))
        assert isinstance(fp, ForcePair)
        assert fp.f_a[0] + fp.f_b[0] == 0.0
        assert abs(fp.f_a[1] + fp.f_b[1]) > 1e-2 * abs(fp.f_b[1])


class TestFreeSpaceForce:
    def test_nonretarded_ee_magnitude(self):
        l = 1e-3
        c6 = asymptotic_coefficients(ATOM, ATOM).c6
        f = free_space_force(l, ATOM, ATOM)
        assert f < 0.0  # attractive
        assert abs(f) == pytest.approx(6.0 * c6 / l**7, rel=0.01)

    def test_retarded_ee_magnitude(self):
        l = 100.0
        c7 = asymptotic_coefficients(ATOM, ATOM).c7_ee
        f = free_space_force(l, ATOM, ATOM)
        assert abs(f) == pytest.approx(7.0 * c7 / l**8, rel=0.01, abs=0.0)

    def test_em_repulsive(self):
        for l in (1e-3, 1.0, 100.0):
            assert free_space_force(l, ATOM, MAG_ATOM) > 0.0

    @pytest.mark.parametrize("l", [0.05, 0.7, 20.0])
    @pytest.mark.parametrize("atom_b", [
        ATOM, ResonanceAtom(omega10=1.7, alpha0=0.3),
        MAG_ATOM, ResonanceAtom(omega10=1.7, alpha0=0.3, kind="magnetic"),
    ], ids=["ee-equal", "ee-unequal", "em-equal", "em-unequal"])
    def test_matches_potential_derivative(self, atom_b, l):
        u0 = u0_em if atom_b.kind == "magnetic" else u0_ee
        h = 1e-4 * l
        spec = QuadSpec(rel_tol=1e-11)
        fd = -(u0(l + h, ATOM, atom_b, spec=spec)
               - u0(l - h, ATOM, atom_b, spec=spec)) / (2.0 * h)
        assert free_space_force(l, ATOM, atom_b) == pytest.approx(fd,
                                                                  rel=1e-6)

    def test_force_rows_are_the_hand_derived_polynomials(self):
        # -dU/dl worked out by hand: -e^{-2x}(9 + 18x + 16x^2 + 8x^3 + 3x^4
        # + x^5)/(8 pi^3 l^7) and +u^2 e^{-2x}(2 + 4x + 3x^2 + x^3)
        # /(8 pi^3 l^5), times alpha_A alpha_B; a row carries 2/(32 pi^3).
        assert _FORCE_ROWS == {
            ("electric", "electric"): (-1.0, 7, 0, (18, 36, 32, 16, 6, 2)),
            ("electric", "magnetic"): (1.0, 5, 2, (4, 8, 6, 2)),
        }

    def test_domain(self):
        with pytest.raises(ValueError):
            free_space_force(0.0, ATOM, ATOM)
        with pytest.raises(ValueError):
            free_space_force(1.0, MAG_ATOM, ATOM)

    @pytest.mark.parametrize("l", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("atom_b", [ATOM, MAG_ATOM], ids=["ee", "em"])
    def test_separation_must_be_positive_and_finite(self, l, atom_b):
        with pytest.raises(ValueError, match="positive and finite"):
            free_space_force(l, ATOM, atom_b)


class TestHalfSpaceForces:
    def test_far_plate_action_reaction(self):
        # body influence vanishes: f_A ~ -f_B within 1%
        l = 0.01
        geom = PlanarGeometry.parallel(l, 100.0 * l)
        fp = halfspace_forces(geom, ATOM, ATOM,
                              HalfSpaceMedium.dielectric(EPS_MEDIUM),
                              spec=QuadSpec(rel_tol=1e-7))
        scale = np.hypot(*fp.f_b)
        assert abs(fp.f_a[0] + fp.f_b[0]) < 0.01 * scale
        assert abs(fp.f_a[1] + fp.f_b[1]) < 0.01 * scale
        # and the x-component matches the free-space radial force
        assert fp.f_b[0] == pytest.approx(free_space_force(l, ATOM, ATOM),
                                          rel=0.01)

    def test_asymmetry_near_plate(self):
        # F_AB != -F_BA near the body
        geom = PlanarGeometry.vertical(0.02, 0.03)
        fp = halfspace_forces(geom, ATOM, ATOM,
                              HalfSpaceMedium.perfect_conductor(),
                              spec=QuadSpec(rel_tol=1e-7))
        net = np.hypot(fp.f_a[0] + fp.f_b[0], fp.f_a[1] + fp.f_b[1])
        assert net > 1e-3 * np.hypot(*fp.f_b)

    def test_parallel_force_tracks_potential_ratio(self):
        # horizontal force ratio follows the potential ratio within 5%
        geom = PlanarGeometry.parallel(0.05, 0.01)
        med = HalfSpaceMedium.dielectric(EPS_MEDIUM)
        spec = QuadSpec(rel_tol=1e-7)
        fp = halfspace_forces(geom, ATOM, ATOM, med, spec=spec)
        force_ratio = fp.f_b[0] / free_space_force(geom.l, ATOM, ATOM)
        pot_ratio = u_total(geom, ATOM, ATOM, med, spec=spec).ratio
        assert force_ratio == pytest.approx(pot_ratio, rel=0.05)

    @pytest.mark.parametrize("medium,rel_tol,geom", [
        *(pytest.param(HalfSpaceMedium(perfect=kind), 1e-10, geom,
                       id=f"{kind}-{name}")
          for kind in ("conducting", "permeable")
          for name, geom in (("parallel", PlanarGeometry.parallel(0.005, 0.01)),
                             ("vertical", PlanarGeometry.vertical(0.01, 0.005)),
                             ("general", PlanarGeometry(0.0, 0.3, 0.4, 0.5)),
                             ("l>>Z+", PlanarGeometry.parallel(10.0, 0.01)))),
        pytest.param(HalfSpaceMedium.dielectric(EPS_MEDIUM), 1e-6,
                     PlanarGeometry.vertical(0.02, 0.03), id="dielectric"),
        pytest.param(HalfSpaceMedium.magnetic(MU_MEDIUM), 1e-6,
                     PlanarGeometry(0.0, 0.02, 0.03, 0.05), id="magnetic"),
    ])
    def test_matches_richardson_oracle(self, medium, rel_tol, geom):
        # abs_tol off: at l >> Z+ the z forces sit near the 1e-14 floor.
        spec = QuadSpec(rel_tol=rel_tol, abs_tol=1e-300)
        analytic = halfspace_forces(geom, ATOM, ATOM, medium, spec=spec)
        oracle = richardson_forces(geom, ATOM, ATOM, medium, spec=spec)
        a = np.array(analytic.f_a + analytic.f_b)
        r = np.array(oracle.f_a + oracle.f_b)
        assert a == pytest.approx(r, rel=0.0, abs=10.0 * rel_tol
                                  * np.max(np.abs(r)))

    def test_small_offset_converges_at_tight_tolerances(self):
        # X << Z+ puts qX ~ 1e-6 on the q-grid.  The X-derivative kernels
        # divide J2(qX) by qX there, so J2 needs relative accuracy, or its
        # roundoff noise stalls the q-integrals above rel_tol 1e-11.
        geom = PlanarGeometry.parallel(1e-4, 0.01)
        med = HalfSpaceMedium.magnetic(MU_MEDIUM)
        ref = halfspace_forces(geom, ATOM, ATOM, med,
                               spec=QuadSpec(rel_tol=1e-10))
        for rel_tol in (1e-11, 1e-12):
            got = halfspace_forces(geom, ATOM, ATOM, med,
                                   spec=QuadSpec(rel_tol=rel_tol))
            assert got.f_a == pytest.approx(ref.f_a, rel=1e-10, abs=0.0)
            assert got.f_b == pytest.approx(ref.f_b, rel=1e-10, abs=0.0)

    def test_symmetry_axes_exact(self):
        # X = 0: no x force at all; Z = 0: equal z forces on both atoms.
        med = HalfSpaceMedium.dielectric(EPS_MEDIUM)
        spec = QuadSpec(rel_tol=1e-6)
        vert = halfspace_forces(PlanarGeometry.vertical(0.02, 0.03), ATOM,
                                ATOM, med, spec=spec)
        assert vert.f_a[0] == 0.0 and vert.f_b[0] == 0.0
        par = halfspace_forces(PlanarGeometry.parallel(0.03, 0.02), ATOM,
                               ATOM, med, spec=spec)
        assert par.f_a[0] == -par.f_b[0]
        assert par.f_a[1] == par.f_b[1]

    def test_potential_is_u_total_to_the_bit(self):
        # a force row's U1 and U2 are integrals of the same call as its
        # forces, and they equal u_total's at the same geometry and spec
        spec = QuadSpec(rel_tol=1e-6)
        for med in (HalfSpaceMedium.perfect_conductor(),
                    HalfSpaceMedium.dielectric(EPS_MEDIUM),
                    HalfSpaceMedium.magnetic(MU_MEDIUM)):
            for geom in (PlanarGeometry.parallel(0.03, 0.02),
                         PlanarGeometry(0.0, 0.02, 0.03, 0.05)):
                assert halfspace_forces(geom, ATOM, ATOM, med,
                                        spec=spec).potential \
                    == u_total(geom, ATOM, ATOM, med, spec=spec)

    def test_richardson_step_halving(self):
        geom = PlanarGeometry.parallel(0.5, 0.3)
        med = HalfSpaceMedium.perfect_conductor()
        spec = QuadSpec(rel_tol=1e-8)
        a = richardson_forces(geom, ATOM, ATOM, med, spec=spec, step=1e-3)
        b = richardson_forces(geom, ATOM, ATOM, med, spec=spec, step=5e-4)
        assert a.f_b[0] == pytest.approx(b.f_b[0], rel=1e-6)
        assert a.f_b[1] == pytest.approx(b.f_b[1], rel=1e-6)

    def test_surface_collision_rejected(self):
        geom = PlanarGeometry.parallel(1.0, 0.5)
        with pytest.raises(ValueError, match="surface"):
            richardson_forces(geom, ATOM, ATOM,
                              HalfSpaceMedium.perfect_conductor(), step=2.0)
