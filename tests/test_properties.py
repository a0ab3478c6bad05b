"""Properties of the perfect-plate and free-space potentials on random draws.

Hypothesis draws parallel, vertical and general geometries with heights
and separations log-uniform in [1e-3, 10], and checks three properties of
the potential of two unequal atoms at rel_tol 1e-8:

- the permeable plate's G1 is the conducting plate's with the opposite
  sign, so U1 changes sign and U2 stays, to the bit;
- exchanging the atoms together with their positions leaves U0, U1 and U2
  unchanged, up to quadrature noise;
- a perfect plate's G1 is G0 at the image point times an orthogonal
  matrix, so U2 is the free-space U_ee at l+ = |r_A - r_B*|.

It also checks the rule of a finite medium's q-grid on random heights,
offsets (X = 0 among them) and sets of u, integrating nothing, and the
free-space pair on random atoms (omega10 and alpha0 log-uniform in
[0.1, 10]) and separations (l log-uniform in [1e-3, 1e2]):

- the ee pair attracts (U < 0, F < 0) and the em pair repels (U > 0,
  F > 0);
- U_ee is symmetric in the two atoms;
- the radial force is -dU0/dl, within 1e-8 relative of a Richardson
  difference at rel_tol 1e-10.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vdwpair import (
    HalfSpaceMedium,
    PlanarGeometry,
    QuadSpec,
    ResonanceAtom,
    free_space_force,
    u0_ee,
    u0_em,
    u_total,
)
from vdwpair.greens import MAX_OSCILLATION_PANELS, q_breakpoints

REL_TOL = 1e-8
SPEC = QuadSpec(rel_tol=REL_TOL)
ATOM_A = ResonanceAtom(omega10=1.0, alpha0=1.0)
ATOM_B = ResonanceAtom(omega10=1.7, alpha0=0.6)
PLATES = [HalfSpaceMedium.perfect_conductor(),
          HalfSpaceMedium(perfect="permeable")]
SETTINGS = settings(max_examples=60, derandomize=True, database=None,
                    deadline=None)


def log_uniform(lo_exp, hi_exp):
    return st.floats(min_value=lo_exp, max_value=hi_exp).map(
        lambda e: 10.0**e)


lengths = log_uniform(-3.0, 1.0)
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


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(z_a=lengths, z_b=lengths,
       x=st.one_of(st.just(0.0), log_uniform(-3.0, 3.0)),
       us=st.lists(log_uniform(-6.0, 5.0), min_size=1, max_size=8))
def test_q_grid_is_one_geometric_run_below_the_cut(z_a, z_b, x, us):
    assume(x > 0.0 or z_a != z_b)
    geom = PlanarGeometry(0.0, z_a, x, z_b)
    with warnings.catch_warnings():
        # far off the axis the half periods are capped, with a warning
        warnings.simplefilter("ignore", RuntimeWarning)
        grid = np.asarray(q_breakpoints(geom, us))
        assert np.array_equal(q_breakpoints(geom, us[::-1]), grid)
    c = 45.0 / geom.Z_plus
    q_cut = np.sqrt(c * (2.0 * max(us) + c))
    assert np.all(np.isfinite(grid) & (grid > 0.0))
    assert grid.max() == q_cut
    lo = min(0.1 * min(us), 0.05 / geom.Z_plus)
    hi = max(min(30.0 / geom.Z_plus, np.pi / x if x else np.inf),
             min(10.0 * max(us), q_cut))
    run = np.sort(grid[(grid >= lo) & (grid <= hi)])
    assert run[0] == lo and run[-1] == hi
    assert np.all(run[1:] / run[:-1] <= 10.0 ** (1.0 / 3.0) * (1 + 1e-12))
    half_periods = min(int(q_cut * x / np.pi), MAX_OSCILLATION_PANELS)
    assert grid.size <= half_periods + math.ceil(3.0 * math.log10(hi / lo)) + 2


def atoms(kind):
    return st.builds(ResonanceAtom, log_uniform(-1.0, 1.0),
                     log_uniform(-1.0, 1.0), st.just(kind))


free_pairs = st.one_of(
    st.tuples(st.just(u0_ee), atoms("electric"), atoms("electric")),
    st.tuples(st.just(u0_em), atoms("electric"), atoms("magnetic")))
separations = log_uniform(-3.0, 2.0)


@SETTINGS
@given(pair=free_pairs, l=separations)
def test_free_pair_attracts_if_ee_and_repels_if_em(pair, l):
    u0, a, b = pair
    sign = -1.0 if u0 is u0_ee else 1.0
    assert sign * u0(l, a, b, spec=SPEC) > 0.0
    assert sign * free_space_force(l, a, b, spec=SPEC) > 0.0


@SETTINGS
@given(a=atoms("electric"), b=atoms("electric"), l=separations)
def test_u0_ee_is_symmetric_in_the_atoms(a, b, l):
    assert u0_ee(l, b, a, spec=SPEC) == pytest.approx(
        u0_ee(l, a, b, spec=SPEC), rel=1e-14, abs=0.0)


@SETTINGS
@given(pair=free_pairs, l=separations)
def test_free_space_force_is_minus_the_slope_of_u0(pair, l):
    u0, a, b = pair
    spec = QuadSpec(rel_tol=1e-10)
    h = 1e-3 * l

    def diff(step):
        return (u0(l + step, a, b, spec=spec)
                - u0(l - step, a, b, spec=spec)) / (2.0 * step)

    slope = (4.0 * diff(h / 2.0) - diff(h)) / 3.0
    assert free_space_force(l, a, b, spec=spec) == pytest.approx(
        -slope, rel=1e-8, abs=0.0)
