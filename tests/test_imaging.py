"""The image-dipole sign table of the cross term near perfect plates
(gate check 12) and its closed-form cross-check."""

from vdwpair import validate
from vdwpair.validate import SIGN_TABLE, verify_against_closed_forms


class TestPredictions:
    def test_sign_table(self):
        assert SIGN_TABLE == {("conducting", "parallel"): +1,
                              ("conducting", "vertical"): -1,
                              ("permeable", "parallel"): -1,
                              ("permeable", "vertical"): +1}


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
        original = validate.nonretarded_closed

        def flipped(geom, atom_a, atom_b, medium, spec=None):
            bd = original(geom, atom_a, atom_b, medium, spec)
            return type(bd)(u0=bd.u0, u1=-bd.u1, u2=bd.u2,
                            total=bd.total, ratio=bd.ratio)

        monkeypatch.setattr(validate, "nonretarded_closed", flipped)
        report = verify_against_closed_forms(n_geometries=3)
        assert all(not rec["ok"] for rec in report)
