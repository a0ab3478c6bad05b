"""Frequency integrals meet rel_tol across widely different frequency scales.

Each quantity is computed at rel_tol 1e-8 and compared, component by
component, with a rel_tol 1e-13 run.  The cases put the integrand's scale
far from 1 in both directions: slow and fast atomic resonances, free-space
separations of 1e-7, 1e-3 and 1e3, a plate correction decaying over 6e4
(gate check 4) and one over 1e-6 (gate check 5).  At l = 1e-7 the em
integrand's u^-2 tail runs seven decades past the resonance; a first grid
on the resonance alone accepts it in one round, 19 rel_tol off.

The reference runs at abs_tol 1e-300, so that only rel_tol decides its
acceptance.  The rel_tol 1e-8 run is made twice: at abs_tol 1e-300, where
adaptivity alone must meet rel_tol, and at the default abs_tol 1e-14.  At
the gate check 4 geometry a first grid at frequencies ~1 sees only the
e^{-60} tail of integrands that decay over u ~ 1/6e4, and that abs_tol
accepts the tail as the value; the first panels must sit on the
integrand's own frequency scale.

Plate parts at 60 resonance wavelengths (|U| ~ 1e-15 to 1e-18) must meet
rel_tol at the default abs_tol too, on finite media and perfect plates,
against a rel_tol 1e-12 reference, and rel_tol, not abs_tol, must accept
each of their frequency integrals.  Last, the rounds of perfect-plate and
free-space frequency integrals are pinned: their nodes are cheap closed
forms, so a round costs about as much as the whole first one, and the
32-panel first grid meets rel_tol 1e-8 in one (in two for the em pair at
l = 1e-3, where resonance and cutoff lie three decades apart).  A
free-space row makes two frequency integrals, U and the force: its
asymptotic coefficients are closed forms.
"""

import pytest

from vdwpair import (
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
    CASES.append(
        (f"u_total-omegaB={w}",
         lambda s, b=slow_or_fast: u_total(PlanarGeometry.parallel(1.0, 0.5),
                                           ATOM, b, CONDUCTING, spec=s)))
for l in (1e-7, 1e-3, 1e3):
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
    return [value]


@pytest.mark.parametrize("spec", SPECS.values(), ids=SPECS.keys())
@pytest.mark.parametrize("compute", [c for _, c in CASES],
                         ids=[n for n, _ in CASES])
def test_meets_rel_tol_against_tight_run(compute, spec):
    got = _components(compute(spec))
    ref = _components(compute(TIGHT))
    assert got == pytest.approx(ref, rel=10.0 * spec.rel_tol, abs=0.0)


def _recorded(calls, integrate):
    """``integrate``, appending the (axis, QuadResult) of each call to
    ``calls``."""
    def recording(f, spec=None, **kwargs):
        res = integrate(f, spec, **kwargs)
        calls.append((kwargs.get("axis", "x"), res))
        return res

    return recording


# Plate parts far beyond every resonance wavelength: |U1|, |U2| ~ 1e-15
# (perfect plates) to 1e-18 (finite media), below the default abs_tol, so
# only an integrand taken in units of its own size lets rel_tol decide
# acceptance.
FAR_MEDIA = {
    "dielectric": DIELECTRIC,
    "magnetic": HalfSpaceMedium.magnetic(
        LorentzMedium(omegaP=3.0, omegaT=1.0, gamma=1e-3)),
    "conducting": CONDUCTING,
    "permeable": PERMEABLE,
}
FAR_GEOMETRIES = {"vertical(60,60)": PlanarGeometry.vertical(60.0, 60.0),
                  "parallel(60,60)": PlanarGeometry.parallel(60.0, 60.0)}


@pytest.mark.parametrize("geom_name", FAR_GEOMETRIES)
@pytest.mark.parametrize("medium_name", FAR_MEDIA)
def test_far_plate_parts_meet_rel_tol(monkeypatch, medium_name, geom_name):
    import vdwpair.potentials

    geom, medium = FAR_GEOMETRIES[geom_name], FAR_MEDIA[medium_name]
    calls = []
    for name in ("integrate_semiinf", "integrate_mapped"):
        monkeypatch.setattr(vdwpair.potentials, name, _recorded(
            calls, getattr(vdwpair.potentials, name)))
    ref = u_total(geom, ATOM, ATOM, medium,
                  spec=QuadSpec(rel_tol=1e-12, abs_tol=1e-300))
    for rel_tol in (1e-6, 1e-8):
        calls.clear()
        got = u_total(geom, ATOM, ATOM, medium, spec=QuadSpec(rel_tol=rel_tol))
        assert abs(got.u1 - ref.u1) <= rel_tol * abs(ref.u1), rel_tol
        assert abs(got.u2 - ref.u2) <= rel_tol * abs(ref.u2), rel_tol
        u_results = [res for axis, res in calls if axis == "u"]
        assert len(u_results) == 2  # U1 and U2
        for res in u_results:
            assert res.abs_error_estimate <= rel_tol * abs(res.value), rel_tol


def _evaluations_by_call(monkeypatch, compute):
    """(axis, evaluations) of every semi-infinite integral ``compute``
    makes through ``vdwpair.potentials`` and ``vdwpair.forces``."""
    import vdwpair.forces
    import vdwpair.potentials

    calls = []
    recording = _recorded(calls, vdwpair.potentials.integrate_semiinf)
    for module in (vdwpair.potentials, vdwpair.forces):
        monkeypatch.setattr(module, "integrate_semiinf", recording)
    compute()
    return [(axis, res.evaluations) for axis, res in calls]


def _rounds_by_call(monkeypatch, compute):
    """(axis, integrand calls) of every semi-infinite integral ``compute``
    makes through ``vdwpair.potentials`` and ``vdwpair.forces``: one call
    per round."""
    import vdwpair.forces
    import vdwpair.potentials

    integrate, calls = vdwpair.potentials.integrate_semiinf, []

    def counting(f, spec=None, **kwargs):
        rounds = [0]

        def counted(x):
            rounds[0] += 1
            return f(x)

        res = integrate(counted, spec, **kwargs)
        calls.append((kwargs.get("axis", "x"), rounds[0]))
        return res

    for module in (vdwpair.potentials, vdwpair.forces):
        monkeypatch.setattr(module, "integrate_semiinf", counting)
    compute()
    return calls


@pytest.mark.parametrize("geom,expected", [
    (PlanarGeometry.parallel(1.0, 0.05), [("x", 1), ("u", 1), ("u", 1)]),
    (PlanarGeometry.vertical(2.0, 1.0), [("x", 1), ("u", 1), ("u", 1)]),
])
def test_perfect_plate_frequency_counts(monkeypatch, geom, expected):
    # Perfect plates evaluate whole u-panel batches in closed form, so a
    # refinement round costs about as much as the first: U0, U1 and U2
    # each take one round at rel_tol 1e-8, on both plates.
    for medium in (CONDUCTING, PERMEABLE):
        calls = _rounds_by_call(monkeypatch, lambda: u_total(
            geom, ATOM, ATOM, medium, spec=QuadSpec(rel_tol=1e-8)))
        assert calls == expected, medium.perfect


# Rounds of an em pair's U and force at rel_tol 1e-8 where they take more
# than one: at the scale sqrt(s0/l) of ``_free_space_integral`` both the
# resonance s0 and the cutoff 1/l sit on the first panels, so only the
# widest spread here, 1/(s0 l) = 1e3, refines once.
EM_ROUNDS = {1e-3: [("x", 2), ("x", 2)]}


@pytest.mark.parametrize("l", [1e-3, 0.01, 0.05, 1.0, 100.0])
def test_free_space_frequency_counts(monkeypatch, l):
    spec = QuadSpec(rel_tol=1e-8)
    calls = _rounds_by_call(monkeypatch, lambda: u0_ee(l, ATOM, ATOM,
                                                       spec=spec))
    assert calls == [("x", 1)]
    calls = _rounds_by_call(monkeypatch, lambda: (
        u0_em(l, ATOM, MAG_ATOM, spec=spec),
        free_space_force(l, ATOM, MAG_ATOM, spec=spec)))
    assert calls == EM_ROUNDS.get(l, [("x", 1), ("x", 1)])


@pytest.mark.parametrize("kind_b", ["electric", "magnetic"])
def test_free_space_row_makes_two_frequency_integrals(monkeypatch, kind_b):
    # U and the force; the c6, c4 and c7 asymptotes are closed forms.
    from vdwpair.cli import _free_space_row, load_config

    # a one-row block task: ((cfg, atom A, atom B, medium, spec), separations)
    scenario = (load_config(None), ResonanceAtom(kind="electric"),
                ResonanceAtom(kind=kind_b), None, QuadSpec(rel_tol=1e-8))
    rows = []
    calls = _evaluations_by_call(
        monkeypatch, lambda: rows.extend(_free_space_row((scenario, (0.5,)))))
    assert rows[0]["error"] == ""
    assert [axis for axis, _ in calls] == ["x", "x"]
    assert _evaluations_by_call(monkeypatch, lambda: asymptotic_coefficients(
        ResonanceAtom(omega10=0.3), MAG_ATOM)) == []
