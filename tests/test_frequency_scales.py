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
