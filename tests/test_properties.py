"""Symmetries of the perfect-plate potential on random geometries.

Hypothesis draws parallel, vertical and general geometries with heights
and separations log-uniform in [1e-3, 10], and checks three properties of
the potential of two unequal atoms at rel_tol 1e-8:

- the permeable plate's G1 is the conducting plate's with the opposite
  sign, so U1 changes sign and U2 stays, to the bit;
- exchanging the atoms together with their positions leaves U0, U1 and U2
  unchanged, up to quadrature noise;
- a perfect plate's G1 is G0 at the image point times an orthogonal
  matrix, so U2 is the free-space U_ee at l+ = |r_A - r_B*|.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdwpair import (
    HalfSpaceMedium,
    PlanarGeometry,
    QuadSpec,
    ResonanceAtom,
    u0_ee,
    u_total,
)

REL_TOL = 1e-8
SPEC = QuadSpec(rel_tol=REL_TOL)
ATOM_A = ResonanceAtom(omega10=1.0, alpha0=1.0)
ATOM_B = ResonanceAtom(omega10=1.7, alpha0=0.6)
PLATES = [HalfSpaceMedium.perfect_conductor(),
          HalfSpaceMedium(perfect="permeable")]
SETTINGS = settings(max_examples=60, derandomize=True, database=None,
                    deadline=None)

lengths = st.floats(min_value=-3.0, max_value=1.0).map(lambda e: 10.0**e)
geometries = st.one_of(
    st.builds(PlanarGeometry.parallel, lengths, lengths),
    st.builds(PlanarGeometry.vertical, lengths, lengths),
    st.builds(lambda x, z_a, z_b: PlanarGeometry(0.0, z_a, x, z_b),
              lengths, lengths, lengths))


def parts(p):
    return p.u0, p.u1, p.u2


@SETTINGS
@given(geom=geometries)
def test_permeable_plate_flips_u1_and_keeps_u2(geom):
    conducting, permeable = (u_total(geom, ATOM_A, ATOM_B, plate, SPEC)
                             for plate in PLATES)
    assert permeable.u1 == -conducting.u1
    assert permeable.u2 == conducting.u2


@SETTINGS
@given(geom=geometries)
def test_exchanging_the_atoms_keeps_every_part(geom):
    swapped = PlanarGeometry(geom.x_b, geom.z_b, geom.x_a, geom.z_a)
    for plate in PLATES:
        ab = parts(u_total(geom, ATOM_A, ATOM_B, plate, SPEC))
        ba = parts(u_total(swapped, ATOM_B, ATOM_A, plate, SPEC))
        scale = max(abs(v) for v in ab)
        for x, y in zip(ab, ba):
            assert abs(x - y) <= 10.0 * REL_TOL * scale


@SETTINGS
@given(geom=geometries)
def test_u2_is_the_free_pair_at_the_image_distance(geom):
    image = u0_ee(geom.l_plus, ATOM_A, ATOM_B, spec=SPEC)
    for plate in PLATES:
        u2 = u_total(geom, ATOM_A, ATOM_B, plate, SPEC).u2
        assert u2 == pytest.approx(image, rel=10.0 * REL_TOL, abs=0.0)
