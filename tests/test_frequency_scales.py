"""Frequency integrals meet rel_tol across widely different frequency scales.

Each quantity is computed at rel_tol 1e-8 and compared, component by
component, with a rel_tol 1e-13 run.  The cases put the integrand's scale
far from 1 in both directions: slow and fast atomic resonances, free-space
separations of 1e-3 and 1e3, a plate correction decaying over 6e4 (gate
check 4) and one over 1e-6 (gate check 5).

The reference runs at abs_tol 1e-300, so that only rel_tol decides its
acceptance.  The rel_tol 1e-8 run is made twice: at abs_tol 1e-300, where
adaptivity alone must meet rel_tol, and at the default abs_tol 1e-14.  At
the gate check 4 geometry a first grid at frequencies ~1 sees only the
e^{-60} tail of integrands that decay over u ~ 1/6e4, and that abs_tol
accepts the tail as the value; the first panels must sit on the
integrand's own frequency scale.

Plate parts at 60 resonance wavelengths (|U| ~ 1e-18) must meet rel_tol
at the default abs_tol too, against a rel_tol 1e-12 reference.  Last, the
evaluation counts of perfect-plate and free-space frequency integrals are
pinned: their nodes are cheap closed forms, so the 8-panel first grid is
part of their speed.
"""

import pytest

from vdwpair import (
    AsymptoticCoefficients,
    HalfSpaceMedium,
    LorentzMedium,
    PlanarGeometry,
    PotentialBreakdown,
    ResonanceAtom,
    asymptotic_coefficients,
    free_space_force,
    u0_ee,
    u0_em,
    u_total,
)
from vdwpair.quadrature import QuadSpec

SPECS = {"abs_tol=1e-300": QuadSpec(rel_tol=1e-8, abs_tol=1e-300),
         "default-abs_tol": QuadSpec(rel_tol=1e-8)}
TIGHT = QuadSpec(rel_tol=1e-13, abs_tol=1e-300)
ATOM = ResonanceAtom()
MAG_ATOM = ResonanceAtom(kind="magnetic")
CONDUCTING = HalfSpaceMedium(perfect="conducting")
PERMEABLE = HalfSpaceMedium(perfect="permeable")
DIELECTRIC = HalfSpaceMedium.dielectric(
    LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3))


def _free_space_cases(tag, l, atom_b, mag_b):
    return [
        (f"u0_ee-{tag}", lambda s: u0_ee(l, ATOM, atom_b, spec=s)),
        (f"u0_em-{tag}", lambda s: u0_em(l, ATOM, mag_b, spec=s)),
        (f"force_ee-{tag}", lambda s: free_space_force(l, ATOM, atom_b, spec=s)),
        (f"force_em-{tag}", lambda s: free_space_force(l, ATOM, mag_b, spec=s)),
    ]


CASES = []
for w in (0.05, 20.0):
    slow_or_fast = ResonanceAtom(omega10=w)
    CASES += _free_space_cases(f"omegaB={w}", 1.0, slow_or_fast,
                               ResonanceAtom(omega10=w, kind="magnetic"))
    CASES += [
        (f"coefficients-omegaB={w}",
         lambda s, b=slow_or_fast: asymptotic_coefficients(ATOM, b, spec=s)),
        (f"u_total-omegaB={w}",
         lambda s, b=slow_or_fast: u_total(PlanarGeometry.parallel(1.0, 0.5),
                                           ATOM, b, CONDUCTING, spec=s)),
    ]
for l in (1e-3, 1e3):
    CASES += _free_space_cases(f"l={l}", l, ATOM, MAG_ATOM)
for name, medium in (("conducting", CONDUCTING), ("permeable", PERMEABLE)):
    for label, geom in (("check4", PlanarGeometry.vertical(60.0, 59940.0)),
                        ("check5", PlanarGeometry.parallel(1e-3, 5e-7))):
        CASES.append((f"u_total-{label}-{name}",
                      lambda s, g=geom, m=medium: u_total(g, ATOM, ATOM, m,
                                                          spec=s)))
CASES.append(("u_total-dielectric-z=0.01",
              lambda s: u_total(PlanarGeometry.parallel(0.1, 0.01), ATOM,
                                ATOM, DIELECTRIC, spec=s)))


def _components(value):
    if isinstance(value, PotentialBreakdown):
        return [value.u0, value.u1, value.u2]
    if isinstance(value, AsymptoticCoefficients):
        return [value.c6, value.c4]  # the c7 are closed forms
    return [value]


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
@pytest.mark.parametrize("compute", [c for _, c in CASES],
                         ids=[n for n, _ in CASES])
def test_meets_rel_tol_against_tight_run(compute, spec):
    got = _components(compute(spec))
    ref = _components(compute(TIGHT))
    assert got == pytest.approx(ref, rel=10.0 * spec.rel_tol, abs=0.0)


# Plate parts far beyond every resonance wavelength: |U1|, |U2| ~ 1e-18,
# far below the default abs_tol, so only an integrand taken in units of
# its own size lets rel_tol decide acceptance.
FAR_MEDIA = {
    "dielectric": DIELECTRIC,
    "magnetic": HalfSpaceMedium.magnetic(
        LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3, kind="magnetic")),
}
FAR_GEOMETRIES = {"vertical(60,60)": PlanarGeometry.vertical(60.0, 60.0),
                  "parallel(60,60)": PlanarGeometry.parallel(60.0, 60.0)}


@pytest.mark.parametrize("geom_name", FAR_GEOMETRIES)
@pytest.mark.parametrize("medium_name", FAR_MEDIA)
def test_far_plate_parts_meet_rel_tol(medium_name, geom_name):
    geom, medium = FAR_GEOMETRIES[geom_name], FAR_MEDIA[medium_name]
    ref = u_total(geom, ATOM, ATOM, medium,
                  spec=QuadSpec(rel_tol=1e-12, abs_tol=1e-300))
    for rel_tol in (1e-6, 1e-8):
        got = u_total(geom, ATOM, ATOM, medium, spec=QuadSpec(rel_tol=rel_tol))
        assert abs(got.u1 - ref.u1) <= rel_tol * abs(ref.u1), rel_tol
        assert abs(got.u2 - ref.u2) <= rel_tol * abs(ref.u2), rel_tol


def _evaluations_by_call(monkeypatch, compute):
    """(axis, evaluations) of every semi-infinite integral ``compute``
    makes through ``vdwpair.potentials``."""
    import vdwpair.potentials

    calls = []
    integrate = vdwpair.potentials.integrate_semiinf

    def recording(f, spec=None, breakpoints=None, axis="x"):
        res = integrate(f, spec, breakpoints=breakpoints, axis=axis)
        calls.append((axis, res.evaluations))
        return res

    monkeypatch.setattr(vdwpair.potentials, "integrate_semiinf", recording)
    compute()
    return calls


@pytest.mark.parametrize("geom,expected", [
    (PlanarGeometry.parallel(1.0, 0.05), [("x", 120), ("u", 120), ("u", 120)]),
    (PlanarGeometry.vertical(2.0, 1.0), [("x", 120), ("u", 180), ("u", 150)]),
])
def test_perfect_plate_frequency_counts(monkeypatch, geom, expected):
    # Perfect plates evaluate whole u-panel batches in closed form, so a
    # refinement round costs more than its nodes: a first grid of fewer
    # than 8 panels adds rounds and slows these rows down.  U0, U1, U2.
    calls = _evaluations_by_call(monkeypatch, lambda: u_total(
        geom, ATOM, ATOM, CONDUCTING, spec=QuadSpec(rel_tol=1e-8)))
    assert calls == expected


@pytest.mark.parametrize("l,expected", [(1.0, 120), (100.0, 150)])
def test_free_space_frequency_counts(monkeypatch, l, expected):
    calls = _evaluations_by_call(monkeypatch, lambda: u0_ee(
        l, ATOM, ATOM, spec=QuadSpec(rel_tol=1e-8)))
    assert calls == [("x", expected)]
