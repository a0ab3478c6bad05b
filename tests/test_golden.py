"""Golden values: U0, U1 and U2 of ``u_total`` meet their rel_tol 1e-12
values of ``golden_values.json`` (written by ``make_golden.py``) within
C rel_tol of each part, and the four components of ``halfspace_forces``
meet theirs within C rel_tol of the largest, at rel_tol 1e-6 and 1e-8.

A change that moves roundoff digits, the summation order or the
quadrature grids passes as long as every part still meets the tolerance
it was asked for."""

import json
from pathlib import Path

import pytest

from vdwpair import HalfSpaceMedium, LorentzMedium, PlanarGeometry, \
    ResonanceAtom, halfspace_forces, u_total
from vdwpair.quadrature import QuadSpec

GOLDEN = json.loads(Path(__file__).with_name("golden_values.json")
                    .read_text(encoding="utf-8"))
# The one constant of the contract: |value - golden| <= C rel_tol |golden|.
C = 10.0
FORCE_CASES = [c for c in GOLDEN["cases"] if "F" in c]


def case_id(case):
    return f"{case['medium']}-{case['family']}{tuple(case['args'])}"


def medium_and_geometry(case):
    medium = getattr(HalfSpaceMedium, case["medium"])(
        LorentzMedium(**GOLDEN["lorentz"]))
    return medium, getattr(PlanarGeometry, case["family"])(*case["args"])


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8])
@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=[case_id(c) for c in GOLDEN["cases"]])
def test_parts_meet_their_golden_values(case, rel_tol):
    medium, geom = medium_and_geometry(case)
    bd = u_total(geom, ResonanceAtom(), ResonanceAtom(), medium,
                 spec=QuadSpec(rel_tol=rel_tol))
    for part, value in (("U0", bd.u0), ("U1", bd.u1), ("U2", bd.u2)):
        golden = case[part]
        assert abs(value - golden) <= C * rel_tol * abs(golden), \
            (part, (value - golden) / golden)


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8])
@pytest.mark.parametrize("case", FORCE_CASES,
                         ids=[case_id(c) for c in FORCE_CASES])
def test_forces_meet_their_golden_values(case, rel_tol):
    medium, geom = medium_and_geometry(case)
    fp = halfspace_forces(geom, ResonanceAtom(), ResonanceAtom(), medium,
                          spec=QuadSpec(rel_tol=rel_tol))
    golden = case["F"]
    size = max(abs(g) for g in golden)
    for k, (value, g) in enumerate(zip([*fp.f_a, *fp.f_b], golden)):
        assert abs(value - g) <= C * rel_tol * size, (k, (value - g) / size)
