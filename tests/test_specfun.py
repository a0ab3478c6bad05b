"""Special functions and Bessel-weighted auxiliary integrals."""

import numpy as np
import pytest

from scipy import special

from vdwpair.quadrature import QuadSpec
from vdwpair.specfun import (
    WeightedIntegralKey,
    bessel_j,
    bessel_j0_j2,
    free_space_polys,
    m_nu,
    weighted_AB,
    weighted_AB_quadrature,
)

# Golden value of the two-Bessel moment at (nu=0, zeta=0.3, zeta'=0.2, s=2),
# frozen from an independent adaptive quadrature (scipy.integrate.quad on
# [0, 60], reported error 5e-11).
M0_GOLDEN = 3.623185664803147


class TestBesselJ:
    def test_values_at_origin(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(2, 0.0) == 0.0

    def test_j1_reference_value(self):
        # power-series value of J1(1)
        assert bessel_j(1, 1.0) == pytest.approx(0.4400505857449335, rel=1e-12)

    def test_bounded(self):
        x = np.linspace(0.0, 200.0, 4001)
        for nu in (0, 1, 2):
            assert np.all(np.abs(bessel_j(nu, x)) <= 1.0)

    def test_recurrence(self):
        # three-term recurrence J0(x) + J2(x) = 2 J1(x)/x on (0, 50]
        x = np.linspace(1e-3, 50.0, 2000)
        lhs = bessel_j(0, x) + bessel_j(2, x)
        rhs = 2.0 * bessel_j(1, x) / x
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_derivative_identity(self):
        # J1'(x) = (J0(x) - J2(x))/2, checked by central differences
        x = np.linspace(0.5, 40.0, 500)
        h = 1e-6
        deriv = (bessel_j(1, x + h) - bessel_j(1, x - h)) / (2.0 * h)
        assert np.max(np.abs(deriv - 0.5 * (bessel_j(0, x)
                                            - bessel_j(2, x)))) < 1e-9

    def test_invalid_order_and_argument(self):
        with pytest.raises(ValueError):
            bessel_j(3, 1.0)
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)


class TestBesselJ0J2:
    def test_matches_scipy(self):
        t = np.concatenate([[0.0], np.geomspace(1e-8, 1e4, 20001)])
        j0, j2 = bessel_j0_j2(t)
        assert np.max(np.abs(j2 - special.jn(2, t))) < 1e-14
        assert np.array_equal(j0, special.j0(t))

    def test_origin_and_parity(self):
        j0, j2 = bessel_j0_j2(np.array([0.0, -2.5, 2.5]))
        assert j0[0] == 1.0 and j2[0] == 0.0
        assert j0[1] == j0[2] and j2[1] == j2[2]


class TestFreeSpacePolys:
    def test_values_at_zero(self):
        assert free_space_polys(0.0) == (1.0, 1.0, 6.0, 2.0)

    def test_values_at_one(self):
        a, b, g, h = free_space_polys(1.0)
        assert (a, b) == (3.0, 7.0)
        assert g == pytest.approx(34.0 * np.exp(-2.0), rel=1e-14)
        assert h == pytest.approx(8.0 * np.exp(-2.0), rel=1e-14)

    def test_positive(self):
        x = np.linspace(0.0, 30.0, 500)
        for arr in free_space_polys(x):
            assert np.all(arr > 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            free_space_polys(-0.5)


class TestWeightedIntegralKey:
    def test_valid_orders(self):
        WeightedIntegralKey("A+", 3)
        WeightedIntegralKey("B", 5)
        WeightedIntegralKey("M", 0)

    @pytest.mark.parametrize("family,order", [
        ("A+", 2), ("A-", 6), ("B", 0), ("M", 3), ("C", 3),
    ])
    def test_invalid(self, family, order):
        with pytest.raises(ValueError):
            WeightedIntegralKey(family, order)


class TestWeightedAB:
    def test_a3_plus_reduces_to_gamma(self):
        # zeta = 0: J0 + J2 -> 1, integral is Gamma(4) = 6
        assert weighted_AB(WeightedIntegralKey("A+", 3), 1.0, 0.0) == 6.0

    def test_a3_minus_reference(self):
        val = weighted_AB(WeightedIntegralKey("A-", 3), 1.0, 1.0)
        assert val == pytest.approx(6.0 * (1.0 - 4.0) / 2.0**3.5, rel=1e-14)
        assert val == pytest.approx(-1.5909902576697319, rel=1e-12)

    def test_b3_reduces_to_gamma(self):
        assert weighted_AB(WeightedIntegralKey("B", 3), 2.0, 0.0) == \
            pytest.approx(6.0 / 2.0**4, rel=1e-14)

    def test_closed_forms_match_quadrature(self):
        worst = 0.0
        for family in ("A+", "A-", "B"):
            for order in (3, 4, 5):
                key = WeightedIntegralKey(family, order)
                for lam in (0.5, 1.0, 2.0):
                    for zeta in (0.0, 0.5, 1.0):
                        cf = weighted_AB(key, lam, zeta)
                        qd = weighted_AB_quadrature(key, lam, zeta).value
                        # the grid hits an exact zero of A4+ at (0.5, 1.0),
                        # where a pure relative metric is ill-defined
                        worst = max(worst,
                                    abs(cf - qd) / max(abs(cf), 1.0))
        assert worst < 1e-8

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            weighted_AB(WeightedIntegralKey("A+", 3), 0.0, 0.0)

    def test_m_family_redirected(self):
        with pytest.raises(ValueError):
            weighted_AB(WeightedIntegralKey("M", 0), 1.0)


class TestMnu:
    def test_zero_zeta_closed_form(self):
        assert m_nu(0, 0.0, 0.0, 2.0) == 720.0 / 2.0**7
        assert m_nu(1, 0.0, 0.0, 2.0) == 0.0
        assert m_nu(2, 0.0, 0.0, 2.0) == 0.0

    def test_golden_value(self):
        assert m_nu(0, 0.3, 0.2, 2.0) == pytest.approx(M0_GOLDEN, rel=1e-9)

    def test_monotone_in_s(self):
        vals = [m_nu(0, 0.4, 0.3, s) for s in (1.0, 1.5, 2.0, 3.0, 5.0)]
        assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            m_nu(0, 0.1, 0.1, 0.0)
        with pytest.raises(ValueError):
            m_nu(3, 0.1, 0.1, 1.0)
        with pytest.raises(ValueError):
            m_nu(0, -0.1, 0.1, 1.0)

    def test_tight_spec_consistency(self):
        loose = m_nu(0, 0.3, 0.2, 2.0)
        tight = m_nu(0, 0.3, 0.2, 2.0,
                     spec=QuadSpec(rel_tol=1e-12, abs_tol=1e-20,
                                   max_subdivisions=8000))
        assert tight == pytest.approx(loose, rel=1e-9)
