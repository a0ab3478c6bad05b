"""Special functions and Bessel-weighted auxiliary integrals."""

import mpmath
import numpy as np
import pytest

from scipy import special

from vdwpair.greens import bessel_j0_j1_j2
from vdwpair.validate import weighted_AB, weighted_AB_quadrature


class TestBesselJ0J2:
    def test_matches_scipy(self):
        t = np.concatenate([[0.0], np.geomspace(1e-8, 1e4, 20001)])
        j0, _, j2 = bessel_j0_j1_j2(t)
        assert np.max(np.abs(j2 - special.jn(2, t))) < 1e-14
        assert np.array_equal(j0, special.j0(t))

    def test_origin_and_parity(self):
        j0, _, j2 = bessel_j0_j1_j2(np.array([0.0, -2.5, 2.5]))
        assert j0[0] == 1.0 and j2[0] == 0.0
        assert j0[1] == j0[2] and j2[1] == j2[2]


class TestBesselJ2Series:
    def test_relative_error_against_mpmath(self):
        # Below |t| ~ 1 the recurrence 2 J1/t - J0 cancels to t^2/8 and
        # keeps only absolute accuracy; the series keeps relative accuracy.
        t = np.geomspace(1e-8, 2.0, 401)
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.besselj(2, x)) for x in t])
        j2 = bessel_j0_j1_j2(np.concatenate([-t, t]))[2]
        assert np.max(np.abs(j2[t.size:] / ref - 1.0)) < 5e-15
        assert np.array_equal(j2[:t.size], j2[t.size:])


class TestWeightedIntegralKey:
    def test_valid_orders(self):
        weighted_AB("A+", 3, 1.0)
        weighted_AB("B", 5, 1.0)

    @pytest.mark.parametrize("family,order", [
        ("A+", 2), ("A-", 6), ("B", 0), ("M", 3), ("C", 3),
    ])
    def test_invalid(self, family, order):
        with pytest.raises(ValueError):
            weighted_AB(family, order, 1.0)


class TestWeightedAB:
    def test_a3_plus_reduces_to_gamma(self):
        # zeta = 0: J0 + J2 -> 1, integral is Gamma(4) = 6
        assert weighted_AB("A+", 3, 1.0, 0.0) == 6.0

    def test_a3_minus_reference(self):
        val = weighted_AB("A-", 3, 1.0, 1.0)
        assert val == pytest.approx(6.0 * (1.0 - 4.0) / 2.0**3.5, rel=1e-14)
        assert val == pytest.approx(-1.5909902576697319, rel=1e-12)

    def test_b3_reduces_to_gamma(self):
        assert weighted_AB("B", 3, 2.0, 0.0) == \
            pytest.approx(6.0 / 2.0**4, rel=1e-14)

    def test_closed_forms_match_quadrature(self):
        worst = 0.0
        for family in ("A+", "A-", "B"):
            for order in (3, 4, 5):
                for lam in (0.5, 1.0, 2.0):
                    for zeta in (0.0, 0.5, 1.0):
                        cf = weighted_AB(family, order, lam, zeta)
                        qd = weighted_AB_quadrature(family, order, lam,
                                                    zeta).value
                        # the grid hits an exact zero of A4+ at (0.5, 1.0),
                        # where a pure relative metric is ill-defined
                        worst = max(worst,
                                    abs(cf - qd) / max(abs(cf), 1.0))
        assert worst < 1e-8

    def test_arrays_match_scalars(self):
        lam, zeta = np.meshgrid([0.5, 1.0, 3.0, 40.0], [0.0, 0.7, 2.5, 30.0])
        for family in ("A+", "A-", "B"):
            for order in (3, 4, 5):
                got = weighted_AB(family, order, lam, zeta)
                want = [weighted_AB(family, order, float(a), float(b))
                        for a, b in zip(lam.ravel(), zeta.ravel())]
                assert got.ravel() == pytest.approx(want, rel=1e-14)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            weighted_AB("A+", 3, 0.0, 0.0)

