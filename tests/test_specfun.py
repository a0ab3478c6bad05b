"""Special functions and Bessel-weighted auxiliary integrals."""

import numpy as np
import pytest

from scipy import special

from vdwpair.specfun import (
    WeightedIntegralKey,
    bessel_j0_j1_j2,
    weighted_AB,
    weighted_AB_quadrature,
)


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


class TestWeightedIntegralKey:
    def test_valid_orders(self):
        WeightedIntegralKey("A+", 3)
        WeightedIntegralKey("B", 5)

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

