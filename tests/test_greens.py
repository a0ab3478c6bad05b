"""Free-space and half-space Green tensors, reflection coefficients."""

import contextlib
import warnings

import numpy as np
import pytest
from scipy import special

from vdwpair import (
    GreenComponents,
    HalfSpaceMedium,
    LorentzMedium,
    PlanarGeometry,
    ResonanceAtom,
    u1_halfspace,
)
from vdwpair import cli
from vdwpair.greens import (
    FOUR_PI,
    _LANES,
    _U_CHUNK,
    _bessel,
    _sommerfeld,
    free_space_green,
    halfspace_scattering,
    q_breakpoints,
    reflection,
)
from vdwpair.quadrature import ConvergenceError, QuadSpec, _first_panels, \
    integrate_semiinf
from vdwpair.validate import static_reflection

EPS_MEDIUM = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3)
MU_MEDIUM = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3)
COMPONENTS = ("gxx", "gyy", "gxz", "gzx", "gzz")


def sommerfeld_quadrature(geom, u, medium, spec=None):
    """G1 by Sommerfeld q-quadrature for any medium, perfect plates too,
    whose ``halfspace_scattering`` takes the image closed form."""
    return _sommerfeld(geom, u, medium, spec, None)


class TestPlanarGeometry:
    def test_derived_quantities(self):
        g = PlanarGeometry(0.0, 1.0, 3.0, 5.0)
        assert g.X == 3.0
        assert g.Z == 4.0
        assert g.Z_plus == 6.0
        assert g.l == pytest.approx(5.0)
        assert g.l_plus == pytest.approx(np.hypot(3.0, 6.0))

    def test_lengths_are_kept_and_equality_stays_field_only(self):
        # l and l_plus are computed once; a geometry that has computed them
        # still equals, and hashes as, one that has not (the plate-part
        # memo is keyed by geometry)
        read, fresh = (PlanarGeometry(0.0, 1.0, 3.0, 5.0) for _ in range(2))
        assert read.l is read.l and read.l_plus is read.l_plus
        assert read == fresh and hash(read) == hash(fresh)
        assert {fresh: 1}[read] == 1

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

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate(self, index, value):
        coords = [0.0, 1.0, 0.5, 2.0]
        coords[index] = value
        with pytest.raises(ValueError):
            PlanarGeometry(*coords)


class TestHalfSpaceMedium:
    def test_exclusive_descriptions(self):
        with pytest.raises(ValueError):
            HalfSpaceMedium(eps=EPS_MEDIUM, perfect="conducting")
        with pytest.raises(ValueError):
            HalfSpaceMedium()
        with pytest.raises(ValueError):
            HalfSpaceMedium(perfect="translucent")

    def test_reflection_sign_only_on_perfect_plates(self):
        assert HalfSpaceMedium.perfect_conductor().reflection_sign == 1.0
        assert HalfSpaceMedium(perfect="permeable").reflection_sign == -1.0
        for medium in (HalfSpaceMedium.dielectric(EPS_MEDIUM),
                       HalfSpaceMedium.magnetic(MU_MEDIUM)):
            with pytest.raises(ValueError, match="only a perfect plate"):
                medium.reflection_sign


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

    def test_nan_u_in_array(self):
        with pytest.raises(ValueError, match="u must be positive"):
            free_space_green(0.3, 0.7, np.array([0.5, np.nan, 2.0]))

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
        for wrt, shifted in (("X", free_space_green(x + 1j * h, z, us)),
                             ("Z", free_space_green(x, z + 1j * h, us))):
            grad = free_space_green(x, z, us, wrt)
            closed = np.array([getattr(grad, n) for n in COMPONENTS])
            step = np.array([np.imag(getattr(shifted, n)) / h
                             for n in COMPONENTS])
            scale = np.max(np.abs(step), axis=0)
            assert np.all(np.abs(closed - step) <= 1e-13 * scale)

    def test_inner_sums_the_elementwise_product(self):
        # Tr[A . B^T] = sum_ij A_ij B_ij over the full 3x3 tensors; gxz !=
        # gzx in both, so a transposed pairing would give another value.
        def full(g):
            return np.array([[g.gxx, 0.0, g.gxz], [0.0, g.gyy, 0.0],
                             [g.gzx, 0.0, g.gzz]])
        a = GreenComponents(1.0, 2.0, 3.0, 4.0, 5.0)
        b = GreenComponents(0.7, -1.3, 2.9, -0.6, 1.1)
        assert a.inner(b) == pytest.approx(np.sum(full(a) * full(b)),
                                           rel=1e-15)
        assert a.inner(b) != pytest.approx(np.trace(full(a) @ full(b)))


def reflection_expansion(q, u: float, medium: HalfSpaceMedium):
    """Leading nonretarded expansion of (r_s, r_p) in powers of u/b."""
    eps = medium.eps_iu(u)
    mu = medium.mu_iu(u)
    ratio = u**2 / (u**2 + q**2)
    rs = (mu - 1.0) / (mu + 1.0) - mu * (eps * mu - 1.0) / (mu + 1.0) ** 2 * ratio
    rp = (eps - 1.0) / (eps + 1.0) - eps * (eps * mu - 1.0) / (eps + 1.0) ** 2 * ratio
    return rs, rp


class TestReflection:
    def test_vacuum(self):
        med = HalfSpaceMedium(eps=LorentzMedium(omegaP=0.0))
        assert reflection(1.0, 1.0, med) == (0.0, 0.0)

    def test_perfect(self):
        assert reflection(1.0, 1.0, HalfSpaceMedium.perfect_conductor()) \
            == (-1.0, 1.0)
        assert reflection(1.0, 1.0, HalfSpaceMedium(perfect="permeable")) \
            == (1.0, -1.0)

    def test_nan_u(self):
        with pytest.raises(ValueError, match="u must be positive"):
            reflection(1.0, np.nan, HalfSpaceMedium.dielectric(EPS_MEDIUM))

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
            LorentzMedium(omegaP=0.1, omegaT=1.0, gamma=0.0))
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


def _squares_differ(v):
    """Whether numpy's x*x and Python's x**2 (libm pow) differ, per value."""
    return np.array([x * x != x**2 for x in np.ravel(v).tolist()])


class TestReflectionColumn:
    """A column of u gives one row per u, each bitwise the scalar call."""

    MEDIA = pytest.mark.parametrize("medium", [
        HalfSpaceMedium.dielectric(EPS_MEDIUM),
        HalfSpaceMedium.magnetic(MU_MEDIUM),
        HalfSpaceMedium(eps=EPS_MEDIUM,
                        mu=LorentzMedium(omegaP=1.5, omegaT=2.0, gamma=0.1)),
        HalfSpaceMedium.perfect_conductor(),
        HalfSpaceMedium(perfect="permeable")],
        ids=["dielectric", "magnetic", "both", "conducting", "permeable"])

    @MEDIA
    def test_rows_are_scalar_calls_to_the_bit(self, medium):
        # Nodes where x*x and x**2 differ for u, eps(iu) or mu(iu) come
        # first: rows and scalar calls both square by x*x, so a row that
        # squared another way would miss their bits.
        pool = np.geomspace(1e-4, 1e3, 40001)
        odd = (_squares_differ(pool) | _squares_differ(medium.eps_iu(pool))
               | _squares_differ(medium.mu_iu(pool)))
        us = np.concatenate([pool[odd][:40], pool[::2000]])
        assert odd.sum() >= 10
        q = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 30)])
        rs, rp = reflection(q, us[:, None], medium)
        assert rs.shape == rp.shape == (us.size, q.size)
        for i, u in enumerate(us.tolist()):
            rs_u, rp_u = reflection(q, u, medium)
            assert rs[i].tobytes() == rs_u.tobytes(), u
            assert rp[i].tobytes() == rp_u.tobytes(), u

    @MEDIA
    def test_one_u_gives_floats(self, medium):
        rs, rp = reflection(2.0, 0.7, medium)
        assert type(rs) is float and type(rp) is float
        column = reflection(np.array([2.0]), np.array([[0.7]]), medium)
        assert [c.tolist() for c in column] == [[[rs]], [[rp]]]

    @pytest.mark.parametrize("medium", [HalfSpaceMedium.dielectric(EPS_MEDIUM),
                                        HalfSpaceMedium.perfect_conductor()],
                             ids=["dielectric", "conducting"])
    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0])
    def test_rejects_a_nonpositive_entry(self, medium, bad):
        with pytest.raises(ValueError, match="u must be positive"):
            reflection(np.array([0.5, 1.0]), np.array([[0.5], [bad], [2.0]]),
                       medium)


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
        g = halfspace_scattering(
            PlanarGeometry.parallel(1.0, 0.5), 1.0, med)
        assert g == GreenComponents(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_finite_medium_rejects_nan_u(self):
        with pytest.raises(ValueError, match="u must be positive"):
            halfspace_scattering(PlanarGeometry.parallel(0.5, 0.3), np.nan,
                                 HalfSpaceMedium.dielectric(EPS_MEDIUM))

    def test_axis_aligned_offdiagonals_vanish(self):
        g = halfspace_scattering(
            PlanarGeometry.vertical(0.4, 0.6), 1.0,
            HalfSpaceMedium.dielectric(EPS_MEDIUM))
        assert g.gxz == 0.0 and g.gzx == 0.0

    def test_antisymmetric_offdiagonal_and_swap(self):
        med = HalfSpaceMedium.dielectric(EPS_MEDIUM)
        geom = PlanarGeometry(0.1, 0.5, 0.8, 0.9)
        g = halfspace_scattering(geom, 1.2, med)
        assert g.gxz == -g.gzx
        swapped = PlanarGeometry(geom.x_b, geom.z_b, geom.x_a, geom.z_a)
        gs = halfspace_scattering(swapped, 1.2, med)
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
            img = halfspace_scattering(geom, u, med)
            quad = sommerfeld_quadrature(geom, u, med,
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
            g = halfspace_scattering(geom.shifted(**shift), u, medium,
                                     spec=spec)
            return np.array([getattr(g, n) for n in COMPONENTS])

        for wrt, shift in (("X", lambda d: {"dx_b": d}),
                           ("Z_plus", lambda d: {"dz_a": d / 2.0,
                                                 "dz_b": d / 2.0})):
            fd = (8.0 * (components(**shift(h)) - components(**shift(-h)))
                  - (components(**shift(2.0 * h))
                     - components(**shift(-2.0 * h)))) / (12.0 * h)
            dg = halfspace_scattering(geom, u, medium, spec, wrt)
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
        geom = PlanarGeometry.parallel(0.5, 0.3)
        for medium in (HalfSpaceMedium.perfect_conductor(),
                       HalfSpaceMedium.dielectric(EPS_MEDIUM)):
            with pytest.raises(ValueError, match="wrt"):
                halfspace_scattering(geom, 1.0, medium, wrt="Z")
        with pytest.raises(ValueError, match="wrt"):
            free_space_green(geom.X, geom.Z, 1.0, wrt="Z_plus")

    @pytest.mark.parametrize("kind", ["conducting", "permeable"])
    def test_perfect_image_vectorized_in_u(self, kind):
        med = HalfSpaceMedium(perfect=kind)
        geom = PlanarGeometry(0.1, 0.5, 0.9, 0.8)
        us = np.geomspace(1e-3, 30.0, 17)
        g = halfspace_scattering(geom, us, med)
        for i, u in enumerate(us):
            gi = halfspace_scattering(geom, float(u), med)
            for name in ("gxx", "gyy", "gxz", "gzx", "gzz"):
                assert getattr(g, name)[i] == pytest.approx(
                    getattr(gi, name), rel=1e-15, abs=0.0)

    def test_retarded_vertical_conductor(self):
        # X = 0, u Z+ = 20: quadrature matches the image closed form to 1%
        geom = PlanarGeometry.vertical(5.0, 10.0)  # Z+ = 20
        med = HalfSpaceMedium.perfect_conductor()
        g = sommerfeld_quadrature(geom, 1.0, med)
        ref = halfspace_scattering(geom, 1.0, med)
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
            gb = halfspace_scattering(geom, u, big)
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
            g = halfspace_scattering(
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

        g = halfspace_scattering(geom, u, med, spec=spec)
        assert component(0, 0) == pytest.approx(g.gxx, rel=1e-6)
        assert component(1, 1) == pytest.approx(g.gyy, rel=1e-6)
        assert component(0, 2) == pytest.approx(g.gxz, rel=1e-6)
        assert component(2, 0) == pytest.approx(g.gzx, rel=1e-6)
        assert component(2, 2) == pytest.approx(g.gzz, rel=1e-6)


def _constant_reflection_parts(x, zp, u):
    """Closed forms of the s-part S (r_s = 1, r_p = 0) and the p-part P
    (r_s = 0, r_p = 1) of G1 at (X, Z+) = (x, zp), x != 0.

    Two identities give every q-kernel with R = sqrt(X^2 + Z+^2):
    int q J0(qX) e^{-b Z}/b dq = f(R) = e^{-uR}/R and
    int q J2(qX) e^{-b Z}/b dq = 2 (e^{-uZ} - e^{-uR})/(u X^2) - f(R).
    A factor b is -d/dZ, q^2 = b^2 - u^2, and q J1(qX) = -d/dX J0(qX).
    With D = (e^{-uZ+} - e^{-uR})/X^2, whose e^{-uZ+} terms cancel in
    P - S, and W = e^{-uR} (u/R^2 + 1/R^3):
    S: gxx = D/(4 pi u), gyy = (f - D/u)/(4 pi), the rest 0;
    P: gxx = -(f_ZZ - u D - W)/(4 pi u^2), gyy = -(u D + W)/(4 pi u^2),
       gzx = -gxz = f_XZ/(4 pi u^2), gzz = -(f_ZZ - u^2 f)/(4 pi u^2).
    """
    r = np.hypot(x, zp)
    e = np.exp(-u * r)
    f = e / r
    df = -f * (u + 1.0 / r)
    d2f = f * ((u + 1.0 / r) ** 2 + 1.0 / r**2)
    f_zz = d2f * zp**2 / r**2 + df * x**2 / r**3
    f_xz = x * zp / r**2 * (d2f - df / r)
    # e^{-uZ+} - e^{-uR} = -e^{-uZ+} expm1(-u (R - Z+)), R - Z+ = X^2/(R + Z+)
    d = -np.exp(-u * zp) * np.expm1(-u * x**2 / (r + zp)) / x**2
    w = e * (u / r**2 + 1.0 / r**3)
    c = 1.0 / (FOUR_PI * u**2)
    zero = 0.0 * u
    s_part = GreenComponents(gxx=d / (FOUR_PI * u), gyy=(f - d / u) / FOUR_PI,
                             gxz=zero, gzx=zero, gzz=zero)
    p_part = GreenComponents(gxx=-c * (f_zz - u * d - w), gyy=-c * (u * d + w),
                             gxz=-c * f_xz, gzx=c * f_xz,
                             gzz=-c * (f_zz - u**2 * f))
    return s_part, p_part


CONSTANT_REFLECTION_X = pytest.mark.parametrize(
    "x", [1e-3, 3.0, 50.0], ids=["X=1e-3Z+", "X=3Z+", "X=50Z+"])


class TestConstantReflectionOracle:
    """The s- and p-parts of G1 in closed form: an exact reference for the
    Sommerfeld q-integrals at any X/Z+, here Z+ = 1."""

    @CONSTANT_REFLECTION_X
    def test_p_minus_s_is_the_conducting_image(self, x):
        us = np.geomspace(1e-3, 30.0, 9)
        s_part, p_part = _constant_reflection_parts(x, 1.0, us)
        image = halfspace_scattering(PlanarGeometry(0.0, 0.4, x, 0.6), us,
                                     HalfSpaceMedium(perfect="conducting"))
        # The e^{-uZ+} terms of S and P cancel in P - S, so the scale of
        # the roundoff is that of the larger part, at each u.
        scale = np.max([np.maximum(abs(getattr(s_part, n)),
                                   abs(getattr(p_part, n)))
                        for n in COMPONENTS], axis=0)
        for name in COMPONENTS:
            diff = getattr(p_part, name) - getattr(s_part, name)
            assert np.all(abs(diff - getattr(image, name)) <= 1e-14 * scale)

    @CONSTANT_REFLECTION_X
    @pytest.mark.parametrize("u", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("rs,rp", [(1.0, 0.0), (0.0, 1.0)],
                             ids=["s-part", "p-part"])
    def test_quadrature_matches(self, monkeypatch, x, u, rs, rp):
        monkeypatch.setattr(
            "vdwpair.greens.reflection",
            lambda q, u, medium: (np.full(q.shape, rs), np.full(q.shape, rp)))
        got = halfspace_scattering(
            PlanarGeometry(0.0, 0.4, x, 0.6), u,
            HalfSpaceMedium.dielectric(EPS_MEDIUM),
            spec=QuadSpec(rel_tol=1e-11))
        ref = _constant_reflection_parts(x, 1.0, u)[0 if rs else 1]
        # Elements far below the tensor's largest one (gxz at X >> Z+ and
        # large u) are accepted by the absolute floors of the q-integrals.
        scale = max(abs(getattr(ref, name)) for name in COMPONENTS)
        for name in COMPONENTS:
            assert getattr(got, name) == pytest.approx(
                getattr(ref, name), rel=0.0, abs=1e-11 * scale)


class TestOscillationBudget:
    """At X >> Z+ the q-grid takes a breakpoint every half-period pi/X of
    J_nu(qX), up to MAX_OSCILLATION_PANELS, and the engine raises the
    panel budget of the q-integrals with the grid."""

    @pytest.mark.parametrize(
        "geom,widened", [(PlanarGeometry.parallel(2.6, 0.001), False),
                         (PlanarGeometry.parallel(1.8, 0.0005), True)],
        ids=["X=1300Z+", "X=1800Z+-widened-step"])
    def test_converges(self, geom, widened):
        with (pytest.warns(RuntimeWarning, match="MAX_OSCILLATION_PANELS")
              if widened else contextlib.nullcontext()):
            g = halfspace_scattering(geom, 1.0,
                                     HalfSpaceMedium.dielectric(EPS_MEDIUM),
                                     spec=QuadSpec(rel_tol=1e-9))
        assert all(np.isfinite(getattr(g, name)) for name in COMPONENTS)

    def test_widened_step_is_reported(self):
        with pytest.warns(RuntimeWarning,
                          match=r"X/Z\+ = 1800: .* widened to 1\.3 pi/X"):
            q_breakpoints(PlanarGeometry.parallel(1.8, 0.0005), 1.0)

    def test_grid_within_the_cap_is_not_reported(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q_breakpoints(PlanarGeometry.parallel(2.6, 0.001), 1.0)

    def test_beyond_the_grid_fails_with_an_error(self):
        # X/Z+ = 5000: the widened step no longer resolves the oscillations,
        # and the budget runs out in a fraction of a second, not a hang
        with pytest.raises(ConvergenceError) as err, \
                pytest.warns(RuntimeWarning, match="MAX_OSCILLATION_PANELS"):
            halfspace_scattering(PlanarGeometry.parallel(10.0, 0.001), 1.0,
                                 HalfSpaceMedium.dielectric(EPS_MEDIUM),
                                 spec=QuadSpec(rel_tol=1e-9))
        assert err.value.axis == "q"

    def test_sweep_row_beyond_the_grid_ends_in_an_error_marker(
            self, tmp_path, capsys):
        # X/Z+ = 50,000 end to end: the half-space row carries the q-axis
        # ConvergenceError and the sweep exits 2, in about a second.
        cfg = tmp_path / "config.json"
        cfg.write_text('{"rel_tol": 1e-6, '
                       '"geometry": {"family": "parallel", "z": 1e-4}, '
                       '"sweep": {"variable": "l", "start": 10.0, '
                       '"stop": 10.0, "points": 1, "scale": "log"}}')
        with pytest.warns(RuntimeWarning, match="MAX_OSCILLATION_PANELS"):
            assert cli.main(["half-space", "--config", str(cfg)]) == 2
        row = capsys.readouterr().out.splitlines()[-1]
        assert row.startswith("1.000000000000e+01,")
        assert "ConvergenceError" in row and "(axis 'q')" in row


def _old_bessel_x_derivatives(q, x):
    t = q * x
    j0, j1 = special.j0(t), special.j1(t)
    nonzero = t != 0.0
    safe_t = np.where(nonzero, t, 1.0)
    j1_t = np.where(nonzero, j1 / safe_t, 0.5)
    j2_t = np.where(nonzero, _bessel(t, 1.0, None, (0, 1, 2))[2] / safe_t,
                    0.0)
    return -q * j1, q * (j0 - j1_t), q * (j1 - 2.0 * j2_t)


def _per_element_kernels(geom, u, medium, spec, wrt=None):
    """The scattering elements with every element integrand evaluating its
    own reflection coefficients, decay and Bessel factors, as the q-kernels
    did before they shared one evaluation per node array."""
    x, zp, k2 = geom.X, geom.Z_plus, u**2
    decay = lambda b: np.exp(-b * zp)
    j0 = lambda q: special.j0(q * x)
    j1 = lambda q: special.j1(q * x)
    j0_j2 = lambda q: _bessel(q * x, 1.0, None, (0, 1, 2))[::2]
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
            got = halfspace_scattering(geom, u, medium, spec, wrt)
            assert got == _per_element_kernels(geom, u, medium, spec, wrt)

    def test_one_first_panel_set_per_tensor(self):
        # the four element integrals start from the same q panel set: it is
        # built once and read back three times
        _first_panels.cache_clear()
        halfspace_scattering(PlanarGeometry.parallel(0.5, 0.3), 1.0,
                             HalfSpaceMedium.dielectric(EPS_MEDIUM),
                             QuadSpec(rel_tol=1e-6))
        info = _first_panels.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_one_kernel_evaluation_on_the_first_grid(self, monkeypatch):
        # all four element integrals meet the tolerance on the first grid,
        # whose reflection coefficients are computed once
        calls = []

        def counted(q, u, medium):
            calls.append(q.size)
            return reflection(q, u, medium)

        monkeypatch.setattr("vdwpair.greens.reflection", counted)
        halfspace_scattering(PlanarGeometry.parallel(0.5, 0.3), 1.0,
                             HalfSpaceMedium.dielectric(EPS_MEDIUM),
                             QuadSpec(rel_tol=1e-6))
        assert len(calls) == 1


def _ladder_u_nodes(geom, medium, levels=3):
    """The new u-nodes of each of the first ``levels`` levels of a row's
    plate u-integrals: the first node arrays that ``u1_halfspace`` hands
    ``halfspace_scattering``, which here returns noise that no level
    accepts."""
    class Stop(Exception):
        pass

    seen = []
    rng = np.random.default_rng(0)

    def spy(geom, us, medium, spec=None, wrt=None):
        if len(seen) == levels:
            raise Stop
        seen.append(us)
        return GreenComponents(*rng.standard_normal((5, us.size)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("vdwpair.potentials.halfspace_scattering", spy)
        with pytest.raises(Stop):
            u1_halfspace(geom, ResonanceAtom(), ResonanceAtom(), medium)
    return seen


BATCH_MEDIA = pytest.mark.parametrize(
    "medium", [HalfSpaceMedium.dielectric(EPS_MEDIUM),
               HalfSpaceMedium.magnetic(MU_MEDIUM)],
    ids=["dielectric", "magnetic"])
WRT = pytest.mark.parametrize("wrt", [None, "X", "Z_plus"])


class TestBatchedSommerfeld:
    """A finite medium takes an array of u in chunks of ``_U_CHUNK``
    consecutive nodes, each on the q-grid of its u-range."""

    GEOM = PlanarGeometry.parallel(0.1, 0.01)

    @BATCH_MEDIA
    @WRT
    def test_one_node_array_is_the_scalar_call(self, medium, wrt):
        spec = QuadSpec(rel_tol=1e-7)
        for u in (0.02, 1.3, 40.0):
            got = halfspace_scattering(self.GEOM, np.array([u]), medium,
                                       spec, wrt)
            ref = halfspace_scattering(self.GEOM, u, medium, spec, wrt)
            for name in COMPONENTS:
                assert getattr(got, name).shape == (1,)
                assert getattr(got, name)[0] == getattr(ref, name)

    @BATCH_MEDIA
    @WRT
    @pytest.mark.parametrize(
        "geom", [GEOM, PlanarGeometry.vertical(0.01, 0.02)],
        ids=["parallel", "axis"])
    def test_one_u_gives_floats(self, medium, wrt, geom):
        # Python floats, not numpy scalars, as halfspace_scattering says;
        # on the axis, i1 is 0 without an integral
        g = halfspace_scattering(geom, 0.7, medium, QuadSpec(rel_tol=1e-7),
                                 wrt)
        assert [type(getattr(g, name)) for name in COMPONENTS] == [float] * 5

    @WRT
    def test_array_is_its_chunks_concatenated(self, wrt):
        medium = HalfSpaceMedium.dielectric(EPS_MEDIUM)
        us = np.geomspace(1e-3, 50.0, 2 * _U_CHUNK + 1)
        spec = QuadSpec(rel_tol=1e-7)
        whole = halfspace_scattering(self.GEOM, us, medium, spec, wrt)
        chunks = [halfspace_scattering(self.GEOM, us[i:i + _U_CHUNK], medium,
                                       spec, wrt)
                  for i in range(0, us.size, _U_CHUNK)]
        for name in COMPONENTS:
            assert np.array_equal(
                getattr(whole, name),
                np.concatenate([getattr(c, name) for c in chunks]))

    def test_one_panel_set_and_one_bessel_table_per_chunk(self,
                                                          monkeypatch):
        # 17 nodes are three chunks; every q-integral of a chunk starts
        # from its one first panel set, where J0/J1/J2 are computed once
        calls = []

        def counted(q, x, wrt, orders):
            if orders == (0, 1, 2):
                calls.append(q.size)
            return _bessel(q, x, wrt, orders)

        monkeypatch.setattr("vdwpair.greens._bessel", counted)
        _first_panels.cache_clear()
        halfspace_scattering(PlanarGeometry.parallel(0.5, 0.3),
                             np.geomspace(0.1, 10.0, 2 * _U_CHUNK + 1),
                             HalfSpaceMedium.dielectric(EPS_MEDIUM),
                             QuadSpec(rel_tol=1e-6))
        assert _first_panels.cache_info().misses == 3
        assert len(calls) == 3

    @WRT
    @pytest.mark.parametrize("orders",
                             sorted({o for _, o in _LANES} | {(0, 1, 2)}),
                             ids=lambda o: "".join(map(str, o)))
    def test_bessel_forms_only_the_orders_asked(self, wrt, orders):
        # a lane's refinements ask for its own orders: each factor is the
        # block table's to the bit, and every other order is None
        q = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 61)])
        for x in (0.0, -0.4, 2.5):
            full = _bessel(q, x, wrt, (0, 1, 2))
            got = _bessel(q, x, wrt, orders)
            for nu in range(3):
                if nu in orders:
                    assert got[nu].tobytes() == full[nu].tobytes()
                else:
                    assert got[nu] is None

    def test_grid_of_a_u_range(self):
        geom = self.GEOM
        u_lo, u_hi = 0.02, 300.0
        breaks = np.sort(q_breakpoints(geom, np.array([u_hi, 1.0, u_lo])))
        # the cut of u_hi, and one run from lo to hi, at most a third of a
        # decade per step
        c = 45.0 / geom.Z_plus
        q_cut = np.sqrt(c * (2.0 * u_hi + c))
        assert breaks[-1] == q_cut
        lo = min(0.1 * u_lo, 0.05 / geom.Z_plus)
        hi = max(min(30.0 / geom.Z_plus, np.pi / geom.X),
                 min(10.0 * u_hi, q_cut))
        assert np.all(np.isin([lo, hi], breaks))
        run = breaks[(breaks >= lo) & (breaks <= hi)]
        assert np.all(run[1:] / run[:-1] <= 10.0 ** (1.0 / 3.0) * (1 + 1e-12))
        # one u, as an array or not, has the grid of that u alone
        assert q_breakpoints(geom, np.array([u_lo])) \
            == q_breakpoints(geom, u_lo)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0])
    def test_rejects_a_nonpositive_entry(self, bad):
        with pytest.raises(ValueError, match="u must be positive"):
            halfspace_scattering(self.GEOM, np.array([0.5, bad, 1.0]),
                                 HalfSpaceMedium.dielectric(EPS_MEDIUM))

    def test_vacuum_gives_zero_arrays(self):
        g = halfspace_scattering(self.GEOM, np.array([0.5, 1.0]),
                                 HalfSpaceMedium(eps=LorentzMedium(omegaP=0.0)))
        for name in COMPONENTS:
            assert np.array_equal(getattr(g, name), np.zeros(2))

    @BATCH_MEDIA
    @pytest.mark.parametrize("geom", [PlanarGeometry.parallel(0.05, 0.01),
                                      PlanarGeometry.parallel(1.0, 0.01),
                                      PlanarGeometry.vertical(0.01, 0.01),
                                      PlanarGeometry(0.9, 0.3, 0.2, 0.4)],
                             ids=["X=2.5Z+", "X=50Z+", "axis", "negative-X"])
    def test_first_round_u_nodes_match_tight_scalar_calls(self, medium,
                                                          geom):
        # Beyond u (l+ - Z+) = 15 the q-integrals cancel to roundoff (G1 is
        # below 1e-13 of its low-u size there), so two grids disagree in
        # noise that the u-integral does not see.
        # Every node of the 63-node level, each batch of new nodes
        # evaluated as the row evaluates it.
        batches = _ladder_u_nodes(geom, medium)
        assert [us.size for us in batches] == [15, 16, 32]
        for us in batches:
            batch = halfspace_scattering(geom, us, medium,
                                         QuadSpec(rel_tol=1e-7))
            far = us * (geom.l_plus - geom.Z_plus) > 15.0
            for i in np.flatnonzero(~far):
                ref = halfspace_scattering(geom, float(us[i]), medium,
                                           QuadSpec(rel_tol=1e-12))
                ref = np.array([getattr(ref, name) for name in COMPONENTS])
                got = np.array([getattr(batch, name)[i]
                                for name in COMPONENTS])
                assert np.max(np.abs(got - ref)) \
                    <= 1e-6 * np.max(np.abs(ref)), us[i]

    @pytest.mark.parametrize("kind", ["conducting", "permeable"])
    @WRT
    def test_shared_grid_on_a_perfect_plate_is_the_image(self, kind, wrt):
        # Constant reflection r_s, r_p = -+1, +-1 through the Sommerfeld
        # route, chunk by chunk, against the exact image closed form.
        medium = HalfSpaceMedium(perfect=kind)
        geom = PlanarGeometry(0.1, 0.5, 0.9, 0.8)
        us = np.geomspace(1e-2, 30.0, 30)
        got = _sommerfeld(geom, us, medium, QuadSpec(rel_tol=1e-11), wrt)
        image = halfspace_scattering(geom, us, medium, wrt=wrt)
        for name in COMPONENTS:
            assert getattr(got, name) == pytest.approx(
                getattr(image, name), rel=1e-9, abs=0.0), name


def nonretarded_scattering(geom: PlanarGeometry, u: float,
                           medium: HalfSpaceMedium) -> GreenComponents:
    """Closed-form nonretarded approximations of the scattering tensor.

    Valid for purely electric media, purely magnetic media, and perfect
    reflectors, at u * l_plus < 0.1.
    """
    x = geom.X
    zp = geom.Z_plus
    lp = geom.l_plus

    if medium.is_perfect or medium.mu is None or medium.mu.omegaP == 0.0:
        # Perfect reflector or purely electric half space: same tensor
        # structure, with r_p replaced by (eps-1)/(eps+1) in the finite case.
        if medium.is_perfect:
            rp = 1.0 if medium.perfect == "conducting" else -1.0
        else:
            eps = medium.eps_iu(u)
            rp = (eps - 1.0) / (eps + 1.0)
        c = rp / (u**2 * FOUR_PI)
        gxx = (2.0 * x**2 - zp**2) / lp**5 * c
        gyy = -1.0 / lp**3 * c
        i1 = 3.0 * x * zp / lp**5 * c
        gzz = (x**2 - 2.0 * zp**2) / lp**5 * c
        return GreenComponents(gxx=gxx, gyy=gyy, gxz=-i1, gzx=+i1, gzz=gzz)

    mu = medium.mu_iu(u)
    frac = (mu - 1.0) / (mu + 1.0)
    if x == 0.0:
        # l_plus - Z_plus ~ X^2/(2 Z_plus): finite X -> 0 limits
        gxx = frac / (8.0 * np.pi * zp) + (mu - 1.0) / (32.0 * np.pi * zp)
        gyy = (mu - 1.0) / (32.0 * np.pi * zp) + frac / (8.0 * np.pi * zp)
        i1 = 0.0
    else:
        gxx = ((lp - zp) / (FOUR_PI * x**2) * frac
               + (zp * lp - zp**2) / (16.0 * np.pi * x**2 * lp) * (mu - 1.0))
        gyy = ((lp - zp) / (16.0 * np.pi * x**2) * (mu - 1.0)
               + (zp * lp - zp**2) / (FOUR_PI * x**2 * lp) * frac)
        i1 = -(lp - zp) / (16.0 * np.pi * x * lp) * (mu - 1.0)
    gzz = (mu - 1.0) / (16.0 * np.pi * lp)
    # xz carries the upper (plus) sign here, opposite to the exact tensor's
    # minus convention; i1 above is defined so that gxz = -i1 stays uniform.
    return GreenComponents(gxx=gxx, gyy=gyy, gxz=-i1, gzx=+i1, gzz=gzz)


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
            exact = sommerfeld_quadrature(geom, u, med)
            for name in ("gxx", "gyy", "gzz"):
                assert getattr(approx, name) == pytest.approx(
                    getattr(exact, name), rel=0.05)
