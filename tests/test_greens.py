"""Free-space and half-space Green tensors, reflection coefficients."""

import numpy as np
import pytest
from scipy import special

from vdwpair import (
    GreenComponents,
    HalfSpaceMedium,
    LorentzMedium,
    PlanarGeometry,
)
from vdwpair.greens import (
    _scattering_spec,
    free_space_green,
    free_space_green_gradient,
    halfspace_scattering,
    halfspace_scattering_derivative,
    halfspace_scattering_quadrature,
    nonretarded_scattering,
    perfect_image_scattering,
    q_breakpoints,
    reflection,
    reflection_expansion,
    static_reflection,
)
from vdwpair.quadrature import QuadSpec, integrate_semiinf
from vdwpair.specfun import bessel_j0_j1_j2

EPS_MEDIUM = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3)
MU_MEDIUM = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3, kind="magnetic")
COMPONENTS = ("gxx", "gyy", "gxz", "gzx", "gzz")


class TestPlanarGeometry:
    def test_derived_quantities(self):
        g = PlanarGeometry(0.0, 1.0, 3.0, 5.0)
        assert g.X == 3.0
        assert g.Z == 4.0
        assert g.Z_plus == 6.0
        assert g.l == pytest.approx(5.0)
        assert g.l_plus == pytest.approx(np.hypot(3.0, 6.0))

    def test_swapped(self):
        g = PlanarGeometry(0.2, 1.0, 1.0, 2.0).swapped()
        assert (g.x_a, g.z_a, g.x_b, g.z_b) == (1.0, 2.0, 0.2, 1.0)

    def test_families(self):
        par = PlanarGeometry.parallel(2.0, 0.5)
        assert par.Z == 0.0 and par.l == 2.0 and par.Z_plus == 1.0
        ver = PlanarGeometry.vertical(0.5, 2.0)
        assert ver.X == 0.0 and ver.l == 2.0 and ver.z_b == 2.5

    def test_invalid(self):
        with pytest.raises(ValueError):
            PlanarGeometry(0.0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            PlanarGeometry(0.0, 1.0, 0.0, 1.0)  # coincident


class TestHalfSpaceMedium:
    def test_exclusive_descriptions(self):
        with pytest.raises(ValueError):
            HalfSpaceMedium(eps=EPS_MEDIUM, perfect="conducting")
        with pytest.raises(ValueError):
            HalfSpaceMedium()
        with pytest.raises(ValueError):
            HalfSpaceMedium(perfect="translucent")

    def test_vacuum_detection(self):
        assert HalfSpaceMedium(eps=LorentzMedium(omegaP=0.0)).is_vacuum
        assert not HalfSpaceMedium.dielectric(EPS_MEDIUM).is_vacuum
        assert not HalfSpaceMedium.perfect_conductor().is_vacuum


class TestFreeSpaceGreen:
    def test_trace(self):
        # Tr G0 = e^{-u rho}/(4 pi rho) (3a - b)
        u = 2.0
        g = free_space_green(0.3, 0.4, u)
        rho = 0.5
        xi = 1.0 / (u * rho)
        a = 1.0 + xi + xi**2
        b = 1.0 + 3.0 * xi + 3.0 * xi**2
        expected = np.exp(-u * rho) / (4.0 * np.pi * rho) * (3.0 * a - b)
        assert g.gxx + g.gyy + g.gzz == pytest.approx(expected, rel=1e-13)

    def test_unit_argument_coefficients(self):
        # u*rho = 1: a = 3, b = 7
        g = free_space_green(1.0, 0.0, 1.0)
        pref = np.exp(-1.0) / (4.0 * np.pi)
        assert g.gyy == pytest.approx(pref * 3.0, rel=1e-13)
        assert g.gxx == pytest.approx(pref * (3.0 - 7.0), rel=1e-13)

    def test_transverse_retarded_limit(self):
        # yy -> e^{-u rho}/(4 pi rho) (1 + xi) to first order in
        # xi = 1/(u rho) << 1
        g = free_space_green(30.0, 0.0, 1.0)
        assert g.gyy == pytest.approx(
            np.exp(-30.0) / (4.0 * np.pi * 30.0) * (1.0 + 1.0 / 30.0),
            rel=1e-2, abs=0.0)

    def test_symmetric_and_offdiagonal(self):
        g = free_space_green(0.3, 0.7, 1.4)
        assert g.gxz == g.gzx
        g_axis = free_space_green(0.0, 0.7, 1.4)
        assert g_axis.gxz == 0.0 and g_axis.gzx == 0.0

    def test_singularity(self):
        with pytest.raises(ValueError):
            free_space_green(0.0, 0.0, 1.0)

    def test_nonpositive_u_in_array(self):
        with pytest.raises(ValueError):
            free_space_green(0.3, 0.7, np.array([0.5, 0.0, 2.0]))

    def test_vectorized_in_u(self):
        us = np.geomspace(1e-3, 30.0, 17)
        g = free_space_green(0.3, 0.7, us)
        for i, u in enumerate(us):
            gi = free_space_green(0.3, 0.7, float(u))
            for name in ("gxx", "gyy", "gxz", "gzx", "gzz"):
                assert getattr(g, name)[i] == pytest.approx(
                    getattr(gi, name), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("x,z", [(0.3, 0.7), (-0.4, 0.2), (0.0, 0.5),
                                     (0.6, 0.0)])
    def test_gradient_matches_complex_step(self, x, z):
        # Im G0(x + ih)/h is dG0/dx to O(h^2) with no difference quotient
        # (Squire and Trapp, SIAM Review 40, 1998).  Compared per u against
        # the largest component: at |x| = 2|z| the static parts of d/dx gzz
        # and d/dz gxz cancel, and both routes lose digits there.
        us = np.geomspace(1e-2, 30.0, 9)
        h = 1e-30
        grad_x, grad_z = free_space_green_gradient(x, z, us)
        for grad, shifted in ((grad_x, free_space_green(x + 1j * h, z, us)),
                              (grad_z, free_space_green(x, z + 1j * h, us))):
            closed = np.array([getattr(grad, n) for n in COMPONENTS])
            step = np.array([np.imag(getattr(shifted, n)) / h
                             for n in COMPONENTS])
            scale = np.max(np.abs(step), axis=0)
            assert np.all(np.abs(closed - step) <= 1e-13 * scale)

    def test_transpose_swaps_offdiagonals(self):
        g = GreenComponents(1.0, 2.0, 3.0, 4.0, 5.0)
        assert g.transpose() == GreenComponents(1.0, 2.0, 4.0, 3.0, 5.0)


class TestReflection:
    def test_vacuum(self):
        med = HalfSpaceMedium(eps=LorentzMedium(omegaP=0.0))
        assert reflection(1.0, 1.0, med) == (0.0, 0.0)

    def test_perfect(self):
        assert reflection(1.0, 1.0, HalfSpaceMedium.perfect_conductor()) \
            == (-1.0, 1.0)
        assert reflection(1.0, 1.0, HalfSpaceMedium.perfect_permeable()) \
            == (1.0, -1.0)

    def test_dielectric_normal_incidence(self):
        # eps(iu) = 10, q = 0: r_p = (10 - sqrt(10))/(10 + sqrt(10))
        med = HalfSpaceMedium.dielectric(
            LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=0.0))
        rs, rp = reflection(0.0, 1e-9, med)  # u -> 0 keeps eps at 10
        target = (10.0 - np.sqrt(10.0)) / (10.0 + np.sqrt(10.0))
        assert rp == pytest.approx(target, rel=1e-6)
        assert rs == pytest.approx(-(np.sqrt(10.0) - 1.0)
                                   / (np.sqrt(10.0) + 1.0), rel=1e-6)

    def test_bounded(self):
        med = HalfSpaceMedium(eps=EPS_MEDIUM, mu=MU_MEDIUM)
        q = np.geomspace(1e-6, 1e6, 200)
        for u in (0.01, 1.0, 50.0):
            rs, rp = reflection(q, u, med)
            assert np.all(np.abs(rs) <= 1.0)
            assert np.all(np.abs(rp) <= 1.0)

    def test_large_q_stability(self):
        # the rationalized form must not lose digits at q >> u
        med = HalfSpaceMedium.magnetic(
            LorentzMedium(omegaP=0.1, omegaT=1.0, gamma=0.0, kind="magnetic"))
        u = 1e-3
        q = 1e6
        rs, rp = reflection(q, u, med)
        mu = med.mu_iu(u)
        assert rs == pytest.approx((mu - 1.0) / (mu + 1.0), rel=1e-10)

    def test_expansion_accuracy(self):
        med = HalfSpaceMedium.dielectric(
            LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=0.0))
        u = 0.01
        q = 1.0  # u/b = 0.01
        _, rp = reflection(q, u, med)
        _, rp_exp = reflection_expansion(q, u, med)
        assert abs(rp - rp_exp) < 1e-6

    def test_expansion_vanishing_leading_terms(self):
        mu_only = HalfSpaceMedium.magnetic(MU_MEDIUM)
        rs, _ = reflection_expansion(10.0, 1e-4, HalfSpaceMedium.dielectric(
            EPS_MEDIUM))
        assert abs(rs) < 1e-7  # mu = 1: leading s-term vanishes
        _, rp = reflection_expansion(10.0, 1e-4, mu_only)
        assert abs(rp) < 1e-7


class TestStaticReflection:
    def test_vacuum(self):
        assert static_reflection(1.5, 1.0, 1.0) == (0.0, 0.0)

    def test_reference_value(self):
        _, rp = static_reflection(1.0, 2.0, 1.0)
        assert rp == pytest.approx((2.0 - np.sqrt(2.0)) / (2.0 + np.sqrt(2.0)),
                                   rel=1e-14)

    def test_perfect_limits(self):
        rs, rp = static_reflection(1.3, 1e12, 1.0)
        assert rp == pytest.approx(1.0, abs=1e-5)
        assert rs == pytest.approx(-1.0, abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            static_reflection(0.5, 2.0, 1.0)

    @pytest.mark.parametrize("eps0,mu0", [(1.0, 10.0), (10.0, 1.0),
                                          (1.0, 3.0), (10.0, 10.0)])
    def test_against_mpmath_at_large_v(self, eps0, mu0):
        # x v - root cancels as v grows; the 40-digit direct difference is
        # the oracle
        mpmath = pytest.importorskip("mpmath")
        v = np.geomspace(1.0, 1e6, 61)
        rs, rp = static_reflection(v, eps0, mu0)
        with mpmath.workdps(40):
            for vi, got_s, got_p in zip(v, rs, rp):
                vm = mpmath.mpf(vi)
                root = mpmath.sqrt(eps0 * mu0 - 1 + vm**2)
                for x, got in ((mu0, got_s), (eps0, got_p)):
                    exact = (x * vm - root) / (x * vm + root)
                    assert abs(got - exact) <= 1e-12 * abs(exact), (vi, x)


class TestHalfspaceScattering:
    def test_vacuum_zero(self):
        med = HalfSpaceMedium(eps=LorentzMedium(omegaP=0.0))
        g = halfspace_scattering_quadrature(
            PlanarGeometry.parallel(1.0, 0.5), 1.0, med)
        assert g == GreenComponents(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_axis_aligned_offdiagonals_vanish(self):
        g = halfspace_scattering_quadrature(
            PlanarGeometry.vertical(0.4, 0.6), 1.0,
            HalfSpaceMedium.dielectric(EPS_MEDIUM))
        assert g.gxz == 0.0 and g.gzx == 0.0

    def test_antisymmetric_offdiagonal_and_swap(self):
        med = HalfSpaceMedium.dielectric(EPS_MEDIUM)
        geom = PlanarGeometry(0.1, 0.5, 0.8, 0.9)
        g = halfspace_scattering_quadrature(geom, 1.2, med)
        assert g.gxz == -g.gzx
        gs = halfspace_scattering_quadrature(geom.swapped(), 1.2, med)
        assert gs.gxx == pytest.approx(g.gxx, rel=1e-8)
        assert gs.gyy == pytest.approx(g.gyy, rel=1e-8)
        assert gs.gzz == pytest.approx(g.gzz, rel=1e-8)
        assert gs.gxz == pytest.approx(g.gzx, rel=1e-8)

    def test_perfect_image_closed_form_vs_quadrature(self):
        # the image construction is the exact value of the q-integrals
        med = HalfSpaceMedium.perfect_conductor()
        for geom, u in [(PlanarGeometry.parallel(0.7, 0.4), 0.8),
                        (PlanarGeometry.vertical(0.3, 0.9), 1.5),
                        (PlanarGeometry(0.1, 0.5, 0.9, 0.8), 2.0)]:
            img = perfect_image_scattering(geom, u, med)
            quad = halfspace_scattering_quadrature(geom, u, med,
                                                   spec=QuadSpec(rel_tol=1e-10))
            for name in ("gxx", "gyy", "gxz", "gzx", "gzz"):
                assert getattr(quad, name) == pytest.approx(
                    getattr(img, name), rel=1e-8, abs=1e-14)

    @pytest.mark.parametrize("medium", [HalfSpaceMedium.dielectric(EPS_MEDIUM),
                                        HalfSpaceMedium.magnetic(MU_MEDIUM)])
    def test_converges_to_tight_reference(self, medium):
        # X = 5 Z+: the Bessel factors oscillate many times before the
        # e^{-q Z+} damping cuts the q-integrals off
        geom = PlanarGeometry.parallel(0.1, 0.01)

        def components(rel_tol):
            g = halfspace_scattering(geom, 1.0, medium,
                                     spec=QuadSpec(rel_tol=rel_tol))
            return np.array([g.gxx, g.gyy, g.gxz, g.gzz])

        ref = components(1e-11)
        scale = np.max(np.abs(ref))
        for rel_tol in (1e-6, 1e-8):
            err = np.max(np.abs(components(rel_tol) - ref))
            assert err <= 10.0 * rel_tol * scale, (rel_tol, err / scale)

    @pytest.mark.parametrize("medium", [HalfSpaceMedium.dielectric(EPS_MEDIUM),
                                        HalfSpaceMedium.magnetic(MU_MEDIUM)])
    @pytest.mark.parametrize("geom", [PlanarGeometry(0.1, 0.3, 0.5, 0.4),
                                      PlanarGeometry.vertical(0.3, 0.4)])
    def test_derivative_kernels_match_central_differences(self, medium, geom):
        # Fourth-order central differences of the undifferentiated
        # q-quadrature; on the axis X = 0 only the xz/zx pair has an
        # X-derivative (J1'(0) = 1/2).
        spec = QuadSpec(rel_tol=1e-12)
        u = 1.3
        h = 1e-3 * geom.Z_plus

        def components(**shift):
            g = halfspace_scattering_quadrature(geom.shifted(**shift), u,
                                                medium, spec=spec)
            return np.array([getattr(g, n) for n in COMPONENTS])

        for wrt, shift in (("X", lambda d: {"dx_b": d}),
                           ("Z_plus", lambda d: {"dz_a": d / 2.0,
                                                 "dz_b": d / 2.0})):
            fd = (8.0 * (components(**shift(h)) - components(**shift(-h)))
                  - (components(**shift(2.0 * h))
                     - components(**shift(-2.0 * h)))) / (12.0 * h)
            dg = halfspace_scattering_derivative(geom, u, medium, wrt,
                                                 spec=spec)
            exact = np.array([getattr(dg, n) for n in COMPONENTS])
            assert exact == pytest.approx(
                fd, rel=0.0, abs=1e-7 * np.max(np.abs(fd))), wrt

    def test_envelope_cut_converges_at_large_u(self):
        # At u = 7489 and Z+ = 0.02 the envelope e^{-b Z+} still holds
        # 1.3e-3 of its peak at b = u + 45/Z+ only if the head ends at
        # q = 45/Z+; the mapped tail then exhausts the panel budget at the
        # inner spec of a rel_tol 1e-13, abs_tol 1e-300 frequency integral.
        geom = PlanarGeometry.parallel(0.1, 0.01)
        spec = QuadSpec(rel_tol=1e-14, abs_tol=1e-301)
        for medium in (HalfSpaceMedium.dielectric(EPS_MEDIUM),
                       HalfSpaceMedium.magnetic(MU_MEDIUM)):
            g = halfspace_scattering(geom, 7489.0, medium, spec=spec)
            assert np.all(np.isfinite([getattr(g, n) for n in COMPONENTS]))

    def test_derivative_rejects_unknown_coordinate(self):
        with pytest.raises(ValueError, match="wrt"):
            halfspace_scattering_derivative(
                PlanarGeometry.parallel(0.5, 0.3), 1.0,
                HalfSpaceMedium.perfect_conductor(), "Z")

    def test_dispatch_uses_image_for_perfect(self):
        med = HalfSpaceMedium.perfect_permeable()
        geom = PlanarGeometry.parallel(0.7, 0.4)
        assert halfspace_scattering(geom, 1.0, med) == \
            perfect_image_scattering(geom, 1.0, med)

    @pytest.mark.parametrize("kind", ["conducting", "permeable"])
    def test_perfect_image_vectorized_in_u(self, kind):
        med = HalfSpaceMedium(perfect=kind)
        geom = PlanarGeometry(0.1, 0.5, 0.9, 0.8)
        us = np.geomspace(1e-3, 30.0, 17)
        g = halfspace_scattering(geom, us, med)
        for i, u in enumerate(us):
            gi = perfect_image_scattering(geom, float(u), med)
            for name in ("gxx", "gyy", "gxz", "gzx", "gzz"):
                assert getattr(g, name)[i] == pytest.approx(
                    getattr(gi, name), rel=1e-15, abs=0.0)

    def test_retarded_vertical_conductor(self):
        # X = 0, u Z+ = 20: quadrature matches the image closed form to 1%
        geom = PlanarGeometry.vertical(5.0, 10.0)  # Z+ = 20
        med = HalfSpaceMedium.perfect_conductor()
        g = halfspace_scattering_quadrature(geom, 1.0, med)
        ref = perfect_image_scattering(geom, 1.0, med)
        assert g.gxx == pytest.approx(ref.gxx, rel=0.01, abs=0.0)
        assert g.gzz == pytest.approx(ref.gzz, rel=0.01, abs=0.0)

    def test_large_eps_approaches_perfect_nonretarded(self):
        # eps = 1e6 behaves as a perfect conductor in the nonretarded regime
        big = HalfSpaceMedium.dielectric(
            LorentzMedium(omegaP=1e3, omegaT=1.0, gamma=0.0))
        perf = HalfSpaceMedium.perfect_conductor()
        u = 1e-3
        for geom in (PlanarGeometry.parallel(0.02, 0.01),
                     PlanarGeometry.vertical(0.01, 0.02)):
            gb = halfspace_scattering_quadrature(geom, u, big)
            gp = halfspace_scattering(geom, u, perf)
            for name in ("gxx", "gyy", "gzz"):
                assert getattr(gb, name) == pytest.approx(
                    getattr(gp, name), rel=1e-3)

    def test_decay_with_height(self):
        # components decay to zero as Z+ grows (e^{-b Z+} damping); the
        # decay need not be monotone since components can change sign
        med = HalfSpaceMedium.dielectric(EPS_MEDIUM)
        vals = []
        for z in (0.5, 2.0, 4.0, 8.0):
            g = halfspace_scattering_quadrature(
                PlanarGeometry.parallel(1.0, z), 1.0, med)
            vals.append(max(abs(g.gxx), abs(g.gyy), abs(g.gzz)))
        assert vals[-1] < 1e-6 * vals[0]

    def test_phi_grid_rederivation(self):
        """Assemble the scattering tensor from s/p polarization-vector outer
        products on a phi-grid and compare with the Bessel-integral route.

        The angular-spectrum form is
        G1 = (1/8 pi^2) int dq (q/b) e^{-b Z+}
             int dphi e^{i q X cos phi} [r_s s s + r_p p+ p-]
        with s = (-sin phi, cos phi, 0),
        p+- = (+-b cos phi, +-b sin phi, i q)/k; the phi-integral produces
        exactly the J0/J1/J2 weights of the implemented components.
        """
        geom = PlanarGeometry(0.1, 0.6, 0.9, 0.8)
        u = 1.3
        med = HalfSpaceMedium.dielectric(
            LorentzMedium(omegaP=2.0, omegaT=1.0, gamma=0.05))
        phi = np.linspace(0.0, 2.0 * np.pi, 721)[:-1]
        w = 2.0 * np.pi / phi.size
        s_hat = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
        spec = QuadSpec(rel_tol=1e-9)
        breaks = q_breakpoints(geom, u)

        def component(i, j):
            def f(qs):
                out = np.empty_like(qs)
                for n, q in enumerate(qs):
                    rs, rp = reflection(q, u, med)
                    b = np.sqrt(u**2 + q**2)
                    pp = np.stack([b * np.cos(phi), b * np.sin(phi),
                                   1j * q * np.ones_like(phi)]) / u
                    pm = np.stack([-b * np.cos(phi), -b * np.sin(phi),
                                   1j * q * np.ones_like(phi)]) / u
                    phase = np.exp(1j * q * geom.X * np.cos(phi))
                    m = (rs * np.einsum("p,p,p->", phase, s_hat[i], s_hat[j])
                         + rp * np.einsum("p,p,p->", phase, pp[i], pm[j]))
                    out[n] = (q / b) * np.exp(-b * geom.Z_plus) * m.real * w
                return out / (8.0 * np.pi**2)
            return integrate_semiinf(f, spec, breakpoints=breaks).value

        g = halfspace_scattering_quadrature(geom, u, med, spec=spec)
        assert component(0, 0) == pytest.approx(g.gxx, rel=1e-6)
        assert component(1, 1) == pytest.approx(g.gyy, rel=1e-6)
        assert component(0, 2) == pytest.approx(g.gxz, rel=1e-6)
        assert component(2, 0) == pytest.approx(g.gzx, rel=1e-6)
        assert component(2, 2) == pytest.approx(g.gzz, rel=1e-6)


def _old_bessel_x_derivatives(q, x):
    t = q * x
    j0, j1 = special.j0(t), special.j1(t)
    nonzero = t != 0.0
    safe_t = np.where(nonzero, t, 1.0)
    j1_t = np.where(nonzero, j1 / safe_t, 0.5)
    j2_t = np.where(nonzero, (2.0 * j1_t - j0) / safe_t, 0.0)
    return -q * j1, q * (j0 - j1_t), q * (j1 - 2.0 * j2_t)


def _per_element_kernels(geom, u, medium, spec, wrt=None):
    """The scattering elements with every element integrand evaluating its
    own reflection coefficients, decay and Bessel factors, as the q-kernels
    did before they shared one evaluation per node array."""
    x, zp, k2 = geom.X, geom.Z_plus, u**2
    decay = lambda b: np.exp(-b * zp)
    j0 = lambda q: special.j0(q * x)
    j1 = lambda q: special.j1(q * x)
    j0_j2 = lambda q: bessel_j0_j1_j2(q * x)[::2]
    if wrt == "Z_plus":
        decay = lambda b: -b * np.exp(-b * zp)
    elif wrt == "X":
        j0 = lambda q: -q * special.j1(q * x)
        j1 = lambda q: _old_bessel_x_derivatives(q, x)[1]
        j0_j2 = lambda q: _old_bessel_x_derivatives(q, x)[::2]

    def xx_yy(q, sign):
        rs, rp = reflection(q, u, medium)
        b = np.sqrt(u**2 + q**2)
        damp = q * decay(b)
        c0, c2 = j0_j2(q)
        return damp * ((c0 + sign * c2) / b * rs
                       - b * (c0 - sign * c2) / k2 * rp) / (8.0 * np.pi)

    def xz(q):
        _, rp = reflection(q, u, medium)
        b = np.sqrt(u**2 + q**2)
        return q**2 * decay(b) * j1(q) * rp / k2 / (4.0 * np.pi)

    def zz(q):
        _, rp = reflection(q, u, medium)
        b = np.sqrt(u**2 + q**2)
        return q**3 * decay(b) * j0(q) * rp / (b * k2) / (4.0 * np.pi)

    breaks = q_breakpoints(geom, u)
    spec = _scattering_spec(spec, len(breaks))

    def integral(f):
        return integrate_semiinf(f, spec, breakpoints=breaks, axis="q").value

    i1 = 0.0 if x == 0.0 and wrt != "X" else integral(xz)
    return GreenComponents(gxx=integral(lambda q: xx_yy(q, +1.0)),
                           gyy=integral(lambda q: xx_yy(q, -1.0)),
                           gxz=-i1, gzx=+i1, gzz=-integral(zz))


class TestSharedKernel:
    """One kernel evaluation on the first q-grid, shared by the element
    integrals, leaves every element of G1 and its derivatives bitwise
    unchanged on the same grid; rel_tol 1e-13 also exercises the
    refinements."""

    @pytest.mark.parametrize("medium", [HalfSpaceMedium.dielectric(EPS_MEDIUM),
                                        HalfSpaceMedium.magnetic(MU_MEDIUM)],
                             ids=["dielectric", "magnetic"])
    @pytest.mark.parametrize("geom", [PlanarGeometry(0.9, 0.3, 0.2, 0.4),
                                      PlanarGeometry.parallel(0.1, 0.01),
                                      PlanarGeometry.vertical(0.3, 0.4)],
                             ids=["negative-X", "X=5Z+", "axis"])
    @pytest.mark.parametrize("wrt", [None, "X", "Z_plus"])
    @pytest.mark.parametrize("rel_tol", [1e-7, 1e-13])
    def test_bitwise_equal_to_per_element_kernels(self, medium, geom, wrt,
                                                  rel_tol):
        spec = QuadSpec(rel_tol=rel_tol, abs_tol=1e-300)
        for u in (0.3, 4.0):
            if wrt is None:
                got = halfspace_scattering_quadrature(geom, u, medium,
                                                      spec=spec)
            else:
                got = halfspace_scattering_derivative(geom, u, medium, wrt,
                                                      spec=spec)
            assert got == _per_element_kernels(geom, u, medium, spec, wrt)


class TestNonretardedScattering:
    def test_perfect_conductor_vertical(self):
        # X = 0: gxx reduces to -r_p/(u^2 4 pi Z+^3)
        geom = PlanarGeometry.vertical(0.01, 0.015)
        u = 0.5
        g = nonretarded_scattering(geom, u, HalfSpaceMedium.perfect_conductor())
        zp = geom.Z_plus
        assert g.gxx == pytest.approx(-1.0 / (u**2 * 4.0 * np.pi * zp**3),
                                      rel=1e-12)

    def test_electric_component_ratio(self):
        geom = PlanarGeometry(0.0, 0.01, 0.02, 0.015)
        g = nonretarded_scattering(geom, 0.5,
                                   HalfSpaceMedium.dielectric(EPS_MEDIUM))
        x, zp = geom.X, geom.Z_plus
        assert g.gzz / g.gxx == pytest.approx(
            (x**2 - 2.0 * zp**2) / (2.0 * x**2 - zp**2), rel=1e-12)

    def test_magnetic_gzz(self):
        geom = PlanarGeometry(0.0, 0.01, 0.02, 0.015)
        u = 0.5
        med = HalfSpaceMedium.magnetic(MU_MEDIUM)
        g = nonretarded_scattering(geom, u, med)
        mu = med.mu_iu(u)
        assert g.gzz == pytest.approx((mu - 1.0) / (16.0 * np.pi * geom.l_plus),
                                      rel=1e-12)

    def test_matches_quadrature_in_regime(self):
        # u l+ << 1: closed forms approximate the exact integrals
        geom = PlanarGeometry(0.0, 0.01, 0.02, 0.015)
        u = 0.1  # u*l_plus ~ 3e-3, well inside the nonretarded regime
        for med in (HalfSpaceMedium.dielectric(EPS_MEDIUM),
                    HalfSpaceMedium.magnetic(MU_MEDIUM),
                    HalfSpaceMedium.perfect_conductor()):
            approx = nonretarded_scattering(geom, u, med)
            exact = halfspace_scattering_quadrature(geom, u, med)
            for name in ("gxx", "gyy", "gzz"):
                assert getattr(approx, name) == pytest.approx(
                    getattr(exact, name), rel=0.05)
