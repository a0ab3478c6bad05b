"""Golden values: U0, U1 and U2 of ``u_total`` meet their rel_tol 1e-12
values of ``golden_values.json`` (written by ``make_golden.py``) within
C rel_tol of each part, at rel_tol 1e-6 and 1e-8.

A change that moves roundoff digits, the summation order or the
quadrature grids passes as long as every part still meets the tolerance
it was asked for."""

import json
from pathlib import Path

import pytest

from vdwpair import HalfSpaceMedium, LorentzMedium, PlanarGeometry, \
    ResonanceAtom, u_total
from vdwpair.quadrature import QuadSpec

GOLDEN = json.loads(Path(__file__).with_name("golden_values.json")
                    .read_text(encoding="utf-8"))
# The one constant of the contract: |value - golden| <= C rel_tol |golden|.
C = 10.0


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8])
@pytest.mark.parametrize(
    "case", GOLDEN["cases"],
    ids=[f"{c['medium']}-{c['family']}{tuple(c['args'])}"
         for c in GOLDEN["cases"]])
def test_parts_meet_their_golden_values(case, rel_tol):
    medium = getattr(HalfSpaceMedium, case["medium"])(
        LorentzMedium(**GOLDEN["lorentz"]))
    geom = getattr(PlanarGeometry, case["family"])(*case["args"])
    bd = u_total(geom, ResonanceAtom(), ResonanceAtom(), medium,
                 spec=QuadSpec(rel_tol=rel_tol))
    for part, value in (("U0", bd.u0), ("U1", bd.u1), ("U2", bd.u2)):
        golden = case[part]
        assert abs(value - golden) <= C * rel_tol * abs(golden), \
            (part, (value - golden) / golden)
