"""Image-dipole sign predictor and its closed-form cross-check."""

import pytest

from vdwpair import ImageCase, predict_u1_sign, verify_against_closed_forms


class TestImageCase:
    def test_valid_cases(self):
        for plate in ("conducting", "permeable"):
            for alignment in ("parallel", "vertical"):
                ImageCase(plate, alignment)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ImageCase("dielectric", "parallel")
        with pytest.raises(ValueError):
            ImageCase("conducting", "diagonal")


class TestPredictions:
    def test_sign_table(self):
        assert predict_u1_sign(ImageCase("conducting", "parallel")) == +1
        assert predict_u1_sign(ImageCase("conducting", "vertical")) == -1
        assert predict_u1_sign(ImageCase("permeable", "parallel")) == -1
        assert predict_u1_sign(ImageCase("permeable", "vertical")) == +1


class TestVerification:
    def test_all_cases_confirmed(self):
        report = verify_against_closed_forms(n_geometries=10)
        assert len(report) == 4
        for rec in report:
            assert rec["ok"], rec
            assert len(rec["evaluated"]) == 10
            assert all(s == rec["predicted"] for s in rec["evaluated"])

    def test_deterministic(self):
        a = verify_against_closed_forms(n_geometries=3, seed=11)
        b = verify_against_closed_forms(n_geometries=3, seed=11)
        assert a == b

    def test_mutation_canary(self, monkeypatch):
        # a sign flip in the closed-form cross term must break the check
        import vdwpair.imaging as imaging
        original = imaging.perfect_nonretarded_closed

        def flipped(geom, atom_a, atom_b, plate):
            bd = original(geom, atom_a, atom_b, plate)
            return type(bd)(u0=bd.u0, u1=-bd.u1, u2=bd.u2,
                            total=bd.total, ratio=bd.ratio)

        monkeypatch.setattr(imaging, "perfect_nonretarded_closed", flipped)
        report = verify_against_closed_forms(n_geometries=3)
        assert all(not rec["ok"] for rec in report)
