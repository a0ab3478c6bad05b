"""Atom and medium response functions on the imaginary frequency axis."""

import numpy as np
import pytest

from vdwpair import (
    LorentzMedium,
    ResonanceAtom,
    VACUUM,
    permeability_iu,
    permittivity_iu,
    response_iu,
)
from vdwpair.materials import response_product


class TestResonanceAtom:
    def test_static_limit(self):
        atom = ResonanceAtom(omega10=1.0, alpha0=1.0)
        assert response_iu(atom, 0.0) == 1.0

    def test_half_value_at_resonance(self):
        atom = ResonanceAtom(omega10=1.0, alpha0=1.0)
        assert response_iu(atom, 1.0) == 0.5

    def test_lorentzian_tail(self):
        atom = ResonanceAtom(omega10=1.0, alpha0=1.0)
        assert response_iu(atom, 3.0) == pytest.approx(0.1, rel=1e-14)

    def test_bounds_and_monotonicity(self):
        atom = ResonanceAtom(omega10=2.0, alpha0=0.7)
        us = np.linspace(0.0, 40.0, 300)
        vals = response_iu(atom, us)
        assert np.all(vals > 0.0)
        assert np.all(vals <= atom.alpha0)
        assert np.all(np.diff(vals) < 0.0)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            response_iu(ResonanceAtom(), -0.1)

    @pytest.mark.parametrize("field", ["omega10", "alpha0"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0])
    def test_invalid_parameters(self, field, value):
        with pytest.raises(ValueError, match="positive and finite"):
            ResonanceAtom(**{field: value})

    def test_response_product_matches_factors(self):
        atom_a = ResonanceAtom(omega10=0.7, alpha0=1.3)
        atom_b = ResonanceAtom(omega10=2.9, alpha0=0.45, kind="magnetic")
        us = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 2001)])
        expected = response_iu(atom_a, us) * response_iu(atom_b, us)
        assert response_product(atom_a, atom_b, us) == pytest.approx(
            expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("kwargs", [
        {"omega10": 0.0}, {"omega10": -1.0}, {"alpha0": 0.0},
        {"alpha0": -2.0}, {"kind": "gravitational"},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ResonanceAtom(**kwargs)


class TestLorentzMedium:
    def test_vacuum_is_unity(self):
        for u in (0.0, 0.5, 7.0):
            assert permittivity_iu(VACUUM, u) == 1.0

    def test_static_value(self):
        m = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=0.001)
        assert permittivity_iu(m, 0.0) == pytest.approx(10.0, rel=1e-14)

    def test_undamped_value(self):
        m = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=0.0)
        assert permittivity_iu(m, 1.0) == pytest.approx(5.5, rel=1e-14)

    def test_permeability_same_form(self):
        m = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=0.0)
        assert permeability_iu(m, 1.0) == pytest.approx(5.5, rel=1e-14)

    def test_monotone_decreasing_to_one(self):
        m = LorentzMedium(omegaP=2.0, omegaT=1.5, gamma=0.3)
        us = np.linspace(0.0, 100.0, 400)
        vals = permittivity_iu(m, us)
        assert np.all(vals >= 1.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_high_frequency_decay(self):
        # eps(iu) - 1 ~ omegaP^2/u^2 for u >> omegaT, within 1% at 100 omegaT
        m = LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=0.001)
        u = 100.0 * m.omegaT
        ratio = (permittivity_iu(m, u) - 1.0) / (m.omegaP**2 / u**2)
        assert ratio == pytest.approx(1.0, abs=0.01)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            permittivity_iu(LorentzMedium(omegaP=1.0, omegaT=1.0), -1.0)

    @pytest.mark.parametrize("kwargs", [
        {"omegaP": -1.0, "omegaT": 1.0},
        {"omegaP": 1.0, "omegaT": 0.0},
        {"omegaP": 1.0, "omegaT": 1.0, "gamma": -0.5},
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            LorentzMedium(**kwargs)

    @pytest.mark.parametrize("field", ["omegaP", "omegaT", "gamma"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameters(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            LorentzMedium(**{field: value})


@pytest.mark.parametrize("u", [np.nan, np.array([1.0, np.nan])],
                         ids=["scalar", "array"])
@pytest.mark.parametrize("response", [
    lambda u: response_iu(ResonanceAtom(), u),
    lambda u: permittivity_iu(LorentzMedium(omegaP=3.0), u),
    lambda u: permeability_iu(LorentzMedium(omegaP=3.0), u)],
    ids=["response_iu", "permittivity_iu", "permeability_iu"])
def test_nan_frequency_rejected(response, u):
    # "not >= 0" turns NaN away, as every other guard of the package does
    with pytest.raises(ValueError, match="u must be >= 0"):
        response(u)
