"""A tuple of rows is one library call: ``u_total``, ``halfspace_forces``,
``u0_ee``, ``u0_em`` and ``free_space_force`` take a tuple of geometries or
separations and return a tuple in its order.  Every member is, to the bit,
the call on its row alone, or the exception that call raises, so one row's
failure leaves the others of its block."""

import math
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import vdwpair.forces
import vdwpair.potentials
from vdwpair import (
    HalfSpaceMedium,
    LorentzMedium,
    PlanarGeometry,
    ResonanceAtom,
    free_space_force,
    halfspace_forces,
    u0_ee,
    u0_em,
    u_total,
)
from vdwpair.greens import free_space_green
from vdwpair.quadrature import QuadSpec, _mapped_panels

ATOM = ResonanceAtom()
MAG_ATOM = ResonanceAtom(kind="magnetic")
SLOW_ATOM = ResonanceAtom(omega10=0.3, alpha0=2.0)
SPEC = QuadSpec(rel_tol=1e-8)
PLATES = [HalfSpaceMedium(perfect="conducting"),
          HalfSpaceMedium(perfect="permeable")]
SEPARATIONS = np.geomspace(1e-3, 10.0, 7).tolist()


def _bits(value):
    """``value`` with every float as its bit pattern (so that -0.0 and 0.0
    differ), and an exception as its type and message."""
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    if is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return float(value).hex()


def _alone(call, row, *args, spec):
    try:
        return call(row, *args, spec=spec)
    except Exception as exc:  # noqa: BLE001 - compared with the member
        return exc


def _assert_members_are_single_calls(call, rows, *args, spec=SPEC):
    members = call(tuple(rows), *args, spec=spec)
    assert type(members) is tuple and len(members) == len(rows)
    for row, member in zip(rows, members):
        assert _bits(member) == _bits(_alone(call, row, *args, spec=spec)), \
            row


@pytest.mark.parametrize("call", [u_total, halfspace_forces],
                         ids=["u_total", "forces"])
@pytest.mark.parametrize("family,height", [("parallel", 0.05),
                                           ("parallel", 2.0),
                                           ("vertical", 0.05),
                                           ("vertical", 2.0)])
@pytest.mark.parametrize("medium", PLATES, ids=["conducting", "permeable"])
def test_perfect_plate_members_are_single_calls(call, family, height,
                                                medium):
    if family == "parallel":
        rows = [PlanarGeometry.parallel(l, height) for l in SEPARATIONS]
    else:
        rows = [PlanarGeometry.vertical(height, l) for l in SEPARATIONS]
    _assert_members_are_single_calls(call, rows, ATOM, ATOM, medium)


@pytest.mark.parametrize("call,g0,g1", [
    (u_total, {"parallel": None, "vertical": None},
     {"parallel": None, "vertical": None}),
    (halfspace_forces, {"parallel": (None, "X"), "vertical": (None, "Z")},
     {"parallel": (None, "Z_plus", "X"), "vertical": (None, "Z_plus")})],
    ids=["u_total", "forces"])
@pytest.mark.parametrize("family", ["parallel", "vertical"])
@pytest.mark.parametrize("medium", PLATES, ids=["conducting", "permeable"])
def test_perfect_plate_block_builds_one_table(monkeypatch, call, g0, g1,
                                              family, medium):
    # the whole block's first round: one G0 and one G1 family over a
    # (rows x nodes) table of u, and one set of free-space factors; rows
    # that ran alone would each make their own
    calls, factor_sets = [], []
    green = vdwpair.potentials.free_space_green
    scattering = vdwpair.potentials.halfspace_scattering
    factors = vdwpair.potentials._free_space_factors

    def green_spy(x, z, u, wrt=None):
        calls.append(("G0", np.ndim(u), wrt))
        return green(x, z, u, wrt)

    def scattering_spy(geom, u, medium, spec=None, wrt=None):
        calls.append(("G1", np.ndim(u), wrt))
        return scattering(geom, u, medium, spec, wrt)

    def factors_spy(*args):
        factor_sets.append(np.ndim(args[0]))  # a column of scales: a table
        return factors(*args)

    monkeypatch.setattr(vdwpair.potentials, "free_space_green", green_spy)
    monkeypatch.setattr(vdwpair.potentials, "halfspace_scattering",
                        scattering_spy)
    monkeypatch.setattr(vdwpair.potentials, "_free_space_factors",
                        factors_spy)
    if family == "parallel":
        rows = [PlanarGeometry.parallel(l, 0.05) for l in SEPARATIONS]
    else:
        rows = [PlanarGeometry.vertical(0.05, l) for l in SEPARATIONS]
    call(tuple(rows), ATOM, ATOM, medium, spec=SPEC)
    assert calls == [("G0", 2, g0[family]), ("G1", 2, g1[family])]
    assert factor_sets == [2]


@pytest.mark.parametrize("call", [u_total, halfspace_forces],
                         ids=["u_total", "forces"])
def test_refined_members_are_single_calls(call, monkeypatch):
    # at rel_tol 1e-13 the first round of most parts misses: a refinement
    # evaluates its row alone
    rounds = []
    integrate = vdwpair.potentials.integrate_semiinf

    def counting(f, spec=None, **kwargs):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return f(x)

        res = integrate(counted, spec, **kwargs)
        rounds.append(calls[0])
        return res

    monkeypatch.setattr(vdwpair.potentials, "integrate_semiinf", counting)
    rows = [PlanarGeometry.parallel(l, 0.05) for l in SEPARATIONS]
    _assert_members_are_single_calls(call, rows, ATOM, ATOM, PLATES[0],
                                     spec=QuadSpec(rel_tol=1e-13))
    assert max(rounds) > 1


def test_general_geometries_share_a_block():
    # rows off both symmetry axes, with parts that other rows skip
    rows = [PlanarGeometry(0.0, 0.3, 0.2, 0.5), PlanarGeometry.parallel(
        0.1, 0.4), PlanarGeometry.vertical(0.2, 0.7),
            PlanarGeometry(1.0, 0.02, 0.0, 0.01)]
    for call in (u_total, halfspace_forces):
        _assert_members_are_single_calls(call, rows, ATOM, SLOW_ATOM,
                                         PLATES[0])


def test_finite_medium_members_are_single_calls():
    medium = HalfSpaceMedium.dielectric(LorentzMedium(omegaP=3.0))
    rows = [PlanarGeometry.parallel(0.1, 0.05),
            PlanarGeometry.vertical(0.05, 0.2)]
    members = u_total(tuple(rows), ATOM, ATOM, medium,
                      spec=QuadSpec(rel_tol=1e-4))
    for row, member in zip(rows, members):
        assert _bits(member) == _bits(u_total(
            row, ATOM, ATOM, medium, spec=QuadSpec(rel_tol=1e-4)))


# The float-range ends: a value beyond the range is a ValueError naming l,
# one below it a zero of the pair's sign.
FREE_SEPARATIONS = [*np.geomspace(1e-6, 1e6, 25).tolist(), 1e-320, 1e-300,
                    1e-60, 1e-53, 2e-52, 1e300, 1.7e308]


@pytest.mark.parametrize("call,atom_b", [
    (u0_ee, ATOM), (u0_em, MAG_ATOM), (free_space_force, ATOM),
    (free_space_force, MAG_ATOM)], ids=["u0_ee", "u0_em", "force_ee",
                                        "force_em"])
def test_free_space_members_are_single_calls(call, atom_b):
    _assert_members_are_single_calls(call, FREE_SEPARATIONS, ATOM, atom_b)
    _assert_members_are_single_calls(call, [2.0, math.nan, -1.0, math.inf,
                                            0.5], ATOM, atom_b)


def test_one_row_tuple_and_empty_tuple():
    assert u0_ee((0.5,), ATOM, ATOM) == (u0_ee(0.5, ATOM, ATOM),)
    assert u0_ee((), ATOM, ATOM) == ()
    assert u_total((), ATOM, ATOM, PLATES[0]) == ()
    assert halfspace_forces((), ATOM, ATOM, PLATES[1]) == ()


def test_unsupported_atoms_fail_the_call():
    with pytest.raises(ValueError, match="atom kinds"):
        u0_em((0.5, 1.0), ATOM, ATOM)
    with pytest.raises(ValueError, match="electric-polarizable"):
        halfspace_forces((PlanarGeometry.parallel(0.5, 0.3),), ATOM,
                         MAG_ATOM, PLATES[0])


@pytest.mark.parametrize("call", [u_total, halfspace_forces],
                         ids=["u_total", "forces"])
def test_a_failing_row_leaves_the_others(monkeypatch, call):
    # G0 fails wherever X is the marked value: the block's table then
    # fails, and every row runs alone, so only the marked row fails
    marked = 0.77
    green = vdwpair.potentials.free_space_green

    def failing(x, z, u, wrt=None):
        if np.any(np.asarray(x) == marked):
            raise ArithmeticError("marked row")
        return green(x, z, u, wrt)

    monkeypatch.setattr(vdwpair.potentials, "free_space_green", failing)
    rows = [PlanarGeometry.parallel(l, 0.05) for l in (0.1, marked, 2.0)]
    members = call(tuple(rows), ATOM, ATOM, PLATES[0], spec=SPEC)
    assert _bits(members[1]) == ("ArithmeticError", "marked row")
    for i in (0, 2):
        assert _bits(members[i]) == _bits(call(rows[i], ATOM, ATOM,
                                               PLATES[0], spec=SPEC))
    with pytest.raises(ArithmeticError, match="marked row"):
        call(rows[1], ATOM, ATOM, PLATES[0], spec=SPEC)


def test_a_row_beyond_the_float_range_leaves_the_others():
    # U0 and the free-space force of the first row are beyond the float
    # range, so that row fails before its plate parts
    rows = [PlanarGeometry.parallel(1e-60, 0.05),
            PlanarGeometry.parallel(0.1, 0.05)]
    for call in (u_total, halfspace_forces):
        first, second = call(tuple(rows), ATOM, ATOM, PLATES[0], spec=SPEC)
        assert isinstance(first, ValueError) and "l = 1e-60" in str(first)
        assert _bits(second) == _bits(call(rows[1], ATOM, ATOM, PLATES[0],
                                           spec=SPEC))


def test_green_tensor_columns_are_rows_alone():
    x = np.array([[0.3], [0.0], [-1.5], [2e-3]])
    z = np.array([[0.4], [0.7], [0.0], [5.0]])
    u = np.geomspace(1e-3, 30.0, 4 * 9).reshape(4, 9)
    wrt = (None, "X", "Z")
    table = free_space_green(x, z, u, wrt)
    for i in range(4):
        alone = free_space_green(float(x[i, 0]), float(z[i, 0]), u[i], wrt)
        for member, single in zip(table, alone):
            for f in fields(member):
                assert np.array_equal(getattr(member, f.name)[i],
                                      getattr(single, f.name))
    with pytest.raises(ValueError, match="zero separation"):
        free_space_green(np.array([[1.0], [0.0]]), np.array([[0.0], [0.0]]),
                         u[:2])


def test_force_row_forms_the_free_space_factors_once(monkeypatch):
    # U0 and the free-space force of a force row share u, ul, the weight
    # and e^{-2ul}, and stay two integrals through their own bindings
    calls, made = [], []
    factors = vdwpair.potentials._free_space_factors

    def counted(*args):
        made.append(args)
        return factors(*args)

    for module in (vdwpair.potentials, vdwpair.forces):
        integrate = module.integrate_semiinf

        def recording(f, spec=None, *, _name=module.__name__,
                      _integrate=integrate, **kwargs):
            calls.append(_name)
            return _integrate(f, spec, **kwargs)

        monkeypatch.setattr(module, "integrate_semiinf", recording)
    monkeypatch.setattr(vdwpair.potentials, "_free_space_factors", counted)
    halfspace_forces(PlanarGeometry.parallel(0.1, 0.05), ATOM, ATOM,
                     PLATES[0], spec=SPEC)
    assert len(made) == 1
    assert calls.count("vdwpair.forces") == 1
    assert calls.count("vdwpair.potentials") == 1 + 4  # U0, 4 plate parts


def test_finite_medium_rows_build_the_mapped_panels_once():
    # the q-grids of a finite-medium row do not evict the 32 mapped panels
    # of its U0 and of the next row's
    medium = HalfSpaceMedium.dielectric(LorentzMedium(omegaP=3.0))
    _mapped_panels.cache_clear()
    for l in (0.1, 0.2):
        u_total(PlanarGeometry.parallel(l, 0.05), ATOM, ATOM, medium,
                spec=QuadSpec(rel_tol=1e-4))
    assert _mapped_panels.cache_info().misses <= 1
