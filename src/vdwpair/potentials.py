"""Two-atom van der Waals potentials in free space and near a half space.

Free space: the attractive potential of two polarizable atoms and the
repulsive potential of a polarizable/magnetizable pair, each from its row
of the frequency-integrand table ``FREE_SPACE_PAIRS``, with their retarded
(l^-7) and nonretarded (l^-6, l^-4) asymptotic coefficients.

Half space: the decomposition U = U0 + U1 + U2 into bulk, cross, and
scattering contributions, computed by direct quadrature.  U1 and U2 are
two of the five plate parts in ``_PLATE_PARTS``; the other three are the
plate parts of the forces (``vdwpair.forces``).  ``_plate_parts``
integrates any of them and computes each Green tensor of a batch of
u-nodes once.  The closed-form asymptotic limits each take the medium as a
``HalfSpaceMedium``: retarded near a perfect plate, and one nonretarded
form for perfect plates and purely electric or purely magnetic media.
``LIMIT_RATIOS`` and ``threshold`` give the limiting U/U0 ratios and the
two sign-change thresholds, under the case names that ``vdwpair limits``
prints.  The retarded limit near a magneto-electric half space of static
response (eps0, mu0) is an oracle of ``vdwpair.validate``.

All in reduced units hbar = c = eps0 = mu0 = 1.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .greens import (
    FOUR_PI,
    HalfSpaceMedium,
    PlanarGeometry,
    free_space_green,
    halfspace_scattering,
)
from .materials import ResonanceAtom, response_product
from .quadrature import QuadSpec, _mapped_panels, integrate_mapped, \
    integrate_semiinf

__all__ = [
    "PotentialBreakdown",
    "AsymptoticCoefficients",
    "u0_ee",
    "u0_em",
    "FREE_SPACE_PAIRS",
    "HALF_SPACE_PAIRS",
    "asymptotic_coefficients",
    "u1_halfspace",
    "u2_halfspace",
    "u_total",
    "perfect_retarded_closed",
    "nonretarded_closed",
    "LIMIT_RATIOS",
    "THRESHOLD_CASES",
    "threshold",
]

PI3_32 = 32.0 * np.pi**3
PI3_64 = 64.0 * np.pi**3
PI3_16 = 16.0 * np.pi**3
# The double epsilon and the smallest normal double.
_EPS, _TINY = sys.float_info.epsilon, sys.float_info.min

# (kind_A, kind_B): (sign, n, m, P), one row per free-space pair: U0 =
# sign/(32 pi^3 l^n) int_0^inf u^m alpha_A alpha_B 2 e^{-2ul} P(ul) du, with
# P's coefficients lowest order first.
FREE_SPACE_PAIRS = {
    ("electric", "electric"): (-1.0, 6, 0, (3.0, 6.0, 5.0, 2.0, 1.0)),
    ("electric", "magnetic"): (+1.0, 4, 2, (1.0, 2.0, 1.0)),
}
# (kind_A, kind_B) of every pair that the half-space parts and limits take.
HALF_SPACE_PAIRS = (("electric", "electric"),)


@dataclass(frozen=True)
class PotentialBreakdown:
    """Bulk, cross, and scattering parts of the two-atom potential."""

    u0: float
    u1: float
    u2: float
    total: float
    ratio: float

    @classmethod
    def assemble(cls, u0: float, u1: float, u2: float) -> "PotentialBreakdown":
        total = u0 + u1 + u2
        return cls(u0=u0, u1=u1, u2=u2, total=total, ratio=total / u0)


@dataclass(frozen=True)
class AsymptoticCoefficients:
    """Power-law coefficients: U ~ -c6/l^6, -c7_ee/l^7 (ee pairs) and
    +c4/l^4, +c7_em/l^7 (em pairs)."""

    c6: float
    c7_ee: float
    c7_em: float
    c4: float

    def __post_init__(self):
        if min(self.c6, self.c7_ee, self.c7_em, self.c4) <= 0:
            raise ValueError("asymptotic coefficients must be positive")


def _u_scale(atom_a: ResonanceAtom, atom_b: ResonanceAtom,
             length: float) -> float:
    """Frequency scale of every plate u-integral, length = l + Z+: the
    smallest of the two resonances and 1/length.  The u^4-weighted plate
    integrands keep it for all parts (``_plate_parts``); the
    free-space rows start from it at length = l and adjust it by their own
    u-power (``_free_space_block``)."""
    return min(atom_a.omega10, atom_b.omega10, 1.0 / length)


def _scaled_integral(f, scale: float, spec: QuadSpec, axis: str = "x") -> float:
    """int_0^inf f(u) du as scale * int_0^inf f(scale v) dv, so that the
    engine's default panels sit on the integrand's own scale."""
    res = integrate_semiinf(lambda v: f(scale * v), spec, axis=axis)
    return scale * res.value


def _check_ee(atom_a, atom_b):
    if (atom_a.kind, atom_b.kind) not in HALF_SPACE_PAIRS:
        raise ValueError("both atoms must be electric-polarizable")


def _free_space_block(integrals, ls, atom_a, atom_b, spec) -> list:
    """Each of ``integrals``, a (rows, pair, integrate) triple, at each
    separation of the tuple ``ls``: a list per integral, with a member per
    separation, its value or the exception its row raised.  ``rows`` is a
    table such as ``FREE_SPACE_PAIRS``, whose entry at ``pair``, the atoms'
    kinds (any entry when None), is integrated as it states by the
    caller's own ``integrate_semiinf`` at the scale
    s = s0^(1 - m/4) l^(-m/4), with s0 from ``_u_scale`` and m the entry's
    u-power, which the integrals share.

    Above the resonances alpha_A alpha_B falls as u^-4, so the weight
    u^m alpha_A alpha_B falls as u^(m-4) between s0 and the cutoff 1/l
    of e^{-2ul}: for m = 0 the integrand lives at s0, and s is s0 to the
    bit; for m = 4 it would run flat out to 1/l.  The em rows (m = 2) have
    a u^-2 tail that the cutoff ends, and s = sqrt(s0/l), the geometric
    mean of the two scales, puts both ends of it on the engine's first
    panels, where s0 alone leaves the cutoff in the last mapped panel at
    l << 1/s0 and each refinement round bisects that one panel.  Below
    s0 l = the double epsilon, e^{-2ul} P(ul) is P(0) to within that
    epsilon where the integrand has its weight, so the cutoff no longer
    matters and every row takes s0: there sqrt(s0/l) would put the
    resonance below the first panels (the em potential at s0 l = 1e-19
    came out at 9e-6 of its value, and less below).  The last step,
    ``_over_power``, keeps an l^n that leaves the float range from
    deciding the value.

    The separations share the engine's first nodes v, at u = s v, so the
    first round of every integral and separation is one (separations x
    nodes) table, whose factors u^m alpha_A alpha_B, ul and 2 e^{-2ul}
    (``_free_space_factors``) the integrals share; each integral of a
    separation gets its row of it, and a refinement evaluates that
    separation alone.  One integral at one separation shares nothing and
    forms its first round itself.
    """
    kinds = (atom_a.kind, atom_b.kind)
    for rows, pair, _ in integrals:
        if kinds not in ([pair] if pair else rows):
            raise ValueError(f"atom kinds (A, B) = {kinds} are not supported")
    m = integrals[0][0][kinds][2]
    live, scales = [], []
    for l in ls:
        if 0.0 < l < np.inf:  # NaN fails every comparison
            s0 = _u_scale(atom_a, atom_b, l)
            live.append(l)
            scales.append(s0 ** (1.0 - m / 4.0) * l ** (-m / 4.0)
                          if s0 * l >= _EPS else s0)
    tables = None
    if len(live) * len(integrals) > 1:  # else no table is shared
        try:
            factors = _free_space_factors(_column(scales), _column(live), m,
                                          atom_a, atom_b, _mapped_panels()[3])
            tables = [_free_space_integrand(rows[kinds][3], factors)
                      for rows, _, _ in integrals]
            del factors  # only the tables outlive the first round
        except Exception:  # noqa: BLE001 - each row then raises its own
            pass
    out = [[] for _ in integrals]
    row = 0
    for l in ls:
        if not 0.0 < l < np.inf:
            error = ValueError("separation l must be positive and finite")
            for values in out:
                values.append(error)
            continue
        s = scales[row]
        for k, (rows, _, integrate) in enumerate(integrals):
            sign, n, _, poly = rows[kinds]

            def f(v):
                return _free_space_integrand(poly, _free_space_factors(
                    s, l, m, atom_a, atom_b, v))

            first = None if tables is None else _table_row(tables[k], row)
            try:
                out[k].append(_over_power(sign * s * integrate(
                    _first_round(first, f), spec).value, PI3_32, l, n))
            except Exception as exc:  # noqa: BLE001 - this row's failure
                out[k].append(exc)
        row += 1
    return out


def _free_space_factors(s, l, m: int, atom_a: ResonanceAtom,
                        atom_b: ResonanceAtom, v):
    """x = ul, the weight u^m alpha_A alpha_B and the decay 2 e^{-2x} at
    u = s v: at one separation, or at columns s and l of them."""
    u = s * v
    x = u * l
    w = response_product(atom_a, atom_b, u)
    return x, (u**m * w if m else w), 2.0 * np.exp(-2.0 * x)


def _free_space_integrand(poly, factors):
    """weight 2 e^{-2x} P(x), with P's coefficients ``poly`` lowest order
    first, from ``_free_space_factors``."""
    x, weight, decay = factors
    p = poly[-1]
    for c in poly[-2::-1]:  # Horner
        p = p * x + c
    return weight * (decay * p)


def _column(values):
    """``values`` as a column against a table of nodes, one row per entry;
    a single value stays itself, against the nodes alone, where numpy's
    broadcasting would only add cost."""
    if len(values) == 1:
        return values[0]
    return np.array(values, dtype=float)[:, None]


def _table_row(table, row: int):
    """Row ``row`` of a table from ``_column`` operands."""
    return table[row] if table.ndim == 2 else table


def _first_round(first, f):
    """``f``, except that its first call returns ``first`` (when not None):
    the row of a block's table at the first nodes, which an integral of
    ``integrate_semiinf`` without breakpoints asks for first.  A first call
    at nodes of another shape is ``f``'s own."""
    if first is None:
        return f
    pending = [first]

    def first_then_f(x):
        row = pending.pop() if pending else None
        return row if row is not None and row.shape == x.shape else f(x)

    return first_then_f


def _rows(rows) -> tuple:
    """The rows of a call: a tuple of them, or one row."""
    return rows if isinstance(rows, tuple) else (rows,)


def _value(member):
    """A member of a tuple call as the call on its row alone gives it: its
    value, or its exception raised."""
    if isinstance(member, Exception):
        raise member
    return member


def _results(rows, members):
    """What a call on ``rows`` returns: the tuple of ``members`` in its
    order for a tuple of rows, else the value of the one row."""
    if isinstance(rows, tuple):
        return tuple(members)
    (member,) = members
    return _value(member)


def _u0_integral(pair) -> tuple:
    """The (rows, pair, integrate) of a free-space potential in
    ``_free_space_block``, integrated through this module's binding."""
    return FREE_SPACE_PAIRS, pair, integrate_semiinf


def _over_power(num: float, den: float, l: float, n: int) -> float:
    """num/(den l^n), the last step of a free-space value at separation
    l: that expression to the bit where den l^n is a normal float, and
    elsewhere exponent arithmetic on l = m 2^e, so that an l^n which under-
    or overflows does not decide the result.  A result below the float
    range rounds towards 0 (large l); one beyond it raises ``ValueError``
    naming l (small l)."""
    try:
        denom = den * l**n
    except OverflowError:  # l^n beyond the largest float
        denom = math.inf
    if _TINY <= denom < math.inf:
        value = num / denom
    else:
        mantissa, exponent = math.frexp(l)
        try:
            value = math.ldexp(num / (den * mantissa**n), -n * exponent)
        except OverflowError:
            value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"the free-space value at separation l = {l!r} is "
                         "beyond the float range")
    return value


def u0_ee(l, atom_a: ResonanceAtom, atom_b: ResonanceAtom,
          spec: QuadSpec | None = None):
    """Free-space potential of two polarizable atoms (always attractive).
    A tuple of separations gives a tuple of potentials in its order, each
    the call at its separation to the bit, or the exception that call
    raises (``_free_space_block``)."""
    return _results(l, _free_space_block(
        [_u0_integral(("electric", "electric"))], _rows(l), atom_a, atom_b,
        spec)[0])


def u0_em(l, atom_a: ResonanceAtom, atom_b: ResonanceAtom,
          spec: QuadSpec | None = None):
    """Free-space potential of a polarizable/magnetizable pair (repulsive),
    at one separation or a tuple of them, as ``u0_ee``."""
    return _results(l, _free_space_block(
        [_u0_integral(("electric", "magnetic"))], _rows(l), atom_a, atom_b,
        spec)[0])


def asymptotic_coefficients(atom_a: ResonanceAtom,
                            atom_b: ResonanceAtom) -> AsymptoticCoefficients:
    """Retarded and nonretarded power-law coefficients for the atom pair.

    All are closed forms: the c7 in the static responses a0, b0; c6 =
    3 M/(16 pi^3) and c4 = wA wB M/(16 pi^3) in the London moment
    M = int alpha_A alpha_B du = pi a0 b0 wA wB/(2 (wA + wB)) of two
    single-resonance atoms, whose u^2-moment is wA wB M.
    """
    a0, b0 = atom_a.alpha0, atom_b.alpha0
    wa, wb = atom_a.omega10, atom_b.omega10
    london = a0 * b0 * np.pi * wa * wb / (2.0 * (wa + wb))
    return AsymptoticCoefficients(c6=3.0 / PI3_16 * london,
                                  c7_ee=23.0 * a0 * b0 / PI3_64,
                                  c7_em=7.0 * a0 * b0 / PI3_64,
                                  c4=london * wa * wb / PI3_16)


def _plate_weight(u, atom_a: ResonanceAtom, atom_b: ResonanceAtom):
    """-u^4 alpha_A alpha_B/pi, the frequency weight of every plate part."""
    return -u**4 * response_product(atom_a, atom_b, u) / np.pi


# The plate parts of a half-space row by name: U1 and U2, and the parts
# Phi_X, Phi_Z and Phi_Z+ of dU/dX, dU/dZ and dU/dZ+.  Each is a trace of
# Green tensors of a u-batch (``_Batch``), the tensors it reads in the order
# of the trace's arguments, which the batch's weight multiplies, and the two
# distances of its ``_plate_magnitude``.  A tensor is ("G0" or "G1", the
# ``wrt`` of ``free_space_green`` or ``halfspace_scattering``).  U1 + U2
# integrates Tr[G0 . G1^T] + Tr[G1 . G1^T]/2, with G1^T = G1(r_B, r_A); G0
# depends on (X, Z) and G1 on (X, Z+), which gives the three derivative
# traces.
_G0, _G1 = ("G0", None), ("G1", None)
_PLATE_PARTS = {
    "U1": (lambda g0, g1: g0.inner(g1), (_G0, _G1), ("l", "l_plus")),
    "U2": (lambda g1: g1.inner(g1) / 2.0, (_G1,), ("l_plus", "l_plus")),
    "X": (lambda g0, g1, g0_x, g1_x: g0_x.inner(g1)
          + (g0.inner(g1_x) + g1_x.inner(g1)),
          (_G0, _G1, ("G0", "X"), ("G1", "X")), ("l", "l_plus")),
    "Z": (lambda g0_z, g1: g0_z.inner(g1), (("G0", "Z"), _G1),
          ("l", "l_plus")),
    "Z_plus": (lambda g0, g1, g1_zp: g0.inner(g1_zp) + g1_zp.inner(g1),
               (_G0, _G1, ("G1", "Z_plus")), ("l", "l_plus")),
}


class _Batch(dict):
    """One batch of u-nodes of the plate parts: its ``weight``
    -u^4 alpha_A alpha_B/pi, and its Green tensors, keyed as in
    ``_PLATE_PARTS``.  It computes each of ``families`` (``_families``)
    with one call when it is made, and every other tensor with one call
    on first use."""

    def __init__(self, geom, us, atom_a, atom_b, medium, spec, families):
        self.weight = _plate_weight(us, atom_a, atom_b)
        self.args = geom, us, medium, spec
        for family in families:
            self.update(zip(family, self._tensor(
                family[0][0], tuple([wrt for _, wrt in family]))))

    def _tensor(self, tensor, wrt):
        geom, us, medium, spec = self.args
        if tensor == "G0":
            return free_space_green(geom.X, geom.Z, us, wrt)
        return halfspace_scattering(geom, us, medium, spec, wrt)

    def __missing__(self, key):
        self[key] = value = self._tensor(*key)
        return value

    def trace(self, part):
        """The trace of the plate part ``part`` on this batch's tensors."""
        trace, tensors, _ = _PLATE_PARTS[part]
        return trace(*[self[key] for key in tensors])


def _families(names, medium: HalfSpaceMedium) -> list:
    """The Green tensor families that a batch of the plate parts ``names``
    computes at once: G0 and the derivatives of it that the parts read,
    and on a perfect plate G1 and its, wherever that is more than one
    tensor.  A finite medium's G1 members stay one call each on first
    use, so that a ladder level which only some parts reach computes no
    derivative that none of them reads."""
    reads = {}  # the tensors read, by "G0" or "G1", in the order read
    for name in names:
        for key in _PLATE_PARTS[name][1]:
            reads.setdefault(key[0], {})[key] = None
    if not medium.is_perfect:
        reads.pop("G1", None)
    return [list(family) for family in reads.values() if len(family) > 1]


def _plate_parts(names, geom: PlanarGeometry, atom_a: ResonanceAtom,
                 atom_b: ResonanceAtom, medium: HalfSpaceMedium,
                 spec: QuadSpec | None, memo: dict,
                 first: dict | None = None) -> dict:
    """The plate parts ``names`` of ``_PLATE_PARTS`` by name, each its own
    u-integral of its batches' weight times its trace.

    Every part takes the scale s = min(omega10_A, omega10_B, 1/(l + Z+)),
    so all of them meet the same u-nodes, and is taken in units of its own
    ``_plate_magnitude`` so that abs_tol is relative to an O(1) integrand
    however small the part is.  Perfect reflectors, whose nodes are closed
    forms, take the panel engine's 32 first panels; a part in ``first``
    takes its first round from there (``_plate_block``).  A finite-medium
    node (one G1, four q-integrals) costs far more than a quadrature round,
    so their integrals climb the nested ladder of ``integrate_mapped``: 15
    nodes, then 16, 32, ... new ones, until the change between two levels
    meets the tolerance.  Every part hands the integrand the same batch at
    each level, and ``memo`` keeps each ``_Batch`` under its bytes, filed
    under the (geometry, atoms, medium, inner spec) that made it: the
    weight and each tensor of a batch are computed once, the tensors at
    the tightened inner tolerance, and a memo shared across calls never
    hands one geometry another's G1.  A batch takes the tensors that the
    named parts read as families (``_families``): G0 and its derivatives
    from one set of distance factors, and on a perfect plate G1 and its
    derivatives from another.
    """
    _check_ee(atom_a, atom_b)
    spec = spec or QuadSpec()
    inner = spec.tightened()
    batches = memo.setdefault((geom, atom_a, atom_b, medium, inner), {})
    scale, sizes = _part_sizes(names, geom, atom_a, atom_b)
    values = {}
    for name in names:
        size = sizes[name]

        def integrand(us):
            key = us.tobytes()
            batch = batches.get(key)
            if batch is None:
                batch = batches[key] = _Batch(geom, us, atom_a, atom_b,
                                              medium, inner,
                                              _families(names, medium))
            return batch.weight * batch.trace(name) / size

        if medium.is_perfect:
            values[name] = size * _scaled_integral(
                integrand if first is None
                else _first_round(first[name], integrand), scale, spec,
                axis="u")
        else:
            res = integrate_mapped(lambda v: integrand(scale * v), spec,
                                   axis="u")
            values[name] = size * scale * res.value
    return values


def _part_sizes(names, geom, atom_a: ResonanceAtom,
                atom_b: ResonanceAtom) -> tuple:
    """The u-scale of the plate parts at ``geom``, and by name the
    ``_plate_magnitude`` of each part of ``names``: the units in which it
    is integrated."""
    distances = {"l": geom.l, "l_plus": geom.l_plus}
    scale = _u_scale(atom_a, atom_b, distances["l"] + geom.Z_plus)
    return scale, {name: _plate_magnitude(
        scale, [distances[rho] for rho in _PLATE_PARTS[name][2]], atom_a,
        atom_b) for name in names}


# The X, Z and Z+ of a block of rows as columns: a perfect plate's Green
# tensors take them in place of a geometry, for a table of u with a row
# per geometry.
_Columns = namedtuple("_Columns", "X Z Z_plus")


def _plate_block(names, geoms, atom_a: ResonanceAtom, atom_b: ResonanceAtom,
                 medium: HalfSpaceMedium, spec: QuadSpec | None) -> list:
    """``_plate_parts`` of each geometry of ``geoms`` alone, its parts
    ``names[i]``: a dict by name, or the exception that its row raised.

    On a perfect plate the rows share the engine's first nodes v, at
    u = s_i v, so the first round of every part of every row is one
    (rows x nodes) table: one ``_Batch`` of the whole block, whose weight
    and Green tensor families take the rows' X, Z and Z+ as columns
    (``_Columns``).  Each part of a row takes its row of that table as its
    first round, and a refinement evaluates that row alone.  A single row
    has no table to share, and finite media share none: their q-grids
    depend on X.
    """
    _check_ee(atom_a, atom_b)
    spec = spec or QuadSpec()
    firsts = [None] * len(geoms)
    if medium.is_perfect and len(geoms) > 1:
        try:
            firsts = _plate_table(names, geoms, atom_a, atom_b, medium, spec)
        except Exception:  # noqa: BLE001 - each row then raises its own
            pass
    out = []
    for row_names, geom, first in zip(names, geoms, firsts):
        try:
            out.append(_plate_parts(row_names, geom, atom_a, atom_b, medium,
                                    spec, {}, first))
        except Exception as exc:  # noqa: BLE001 - this row's failure
            out.append(exc)
    return out


def _plate_table(names, geoms, atom_a: ResonanceAtom, atom_b: ResonanceAtom,
                 medium: HalfSpaceMedium, spec: QuadSpec) -> list:
    """Per row of ``_plate_block``, the first-round integrand of each of
    its parts by name, from one batch of the whole block."""
    union = list(dict.fromkeys(name for row in names for name in row))
    scales, sizes = zip(*[_part_sizes(union, geom, atom_a, atom_b)
                          for geom in geoms])
    columns = _Columns(*[_column([getattr(geom, c) for geom in geoms])
                         for c in _Columns._fields])
    batch = _Batch(columns, _column(scales) * _mapped_panels()[3], atom_a,
                   atom_b, medium, spec.tightened(), _families(union, medium))
    tables = {name: batch.weight * batch.trace(name)
              / _column([size[name] for size in sizes]) for name in union}
    return [{name: _table_row(tables[name], i) for name in row}
            for i, row in enumerate(names)]


def _plate_magnitude(u: float, rhos: tuple, atom_a: ResonanceAtom,
                     atom_b: ResonanceAtom) -> float:
    """Size of a plate part's u-integrand at u with its exponentials
    dropped: u^4 alpha_A alpha_B/pi times g(rho_1) g(rho_2) at the two
    distances ``rhos``, where g(rho) = (1 + xi + xi^2)/(4 pi rho),
    xi = 1/(u rho), is the size of G0 at distance rho."""
    def g(rho):
        xi = 1.0 / (u * rho)
        return (1.0 + xi + xi**2) / (FOUR_PI * rho)

    return float(-_plate_weight(u, atom_a, atom_b)) * g(rhos[0]) \
        * g(rhos[1])


def u1_halfspace(geom: PlanarGeometry, atom_a: ResonanceAtom,
                 atom_b: ResonanceAtom, medium: HalfSpaceMedium,
                 spec: QuadSpec | None = None, *,
                 g1_memo: dict | None = None) -> float:
    """Cross term of bulk and scattering Green tensor parts: the
    u-integral of -(1/pi) u^4 alpha_A alpha_B Tr[G0 . G1^T], with the
    exact image closed form of G1 on perfect reflectors and its
    q-quadratures on finite media.  ``g1_memo`` shares the tensors with
    the other plate parts of a row (see ``_plate_parts``)."""
    return _plate_parts(["U1"], geom, atom_a, atom_b, medium, spec,
                        {} if g1_memo is None else g1_memo)["U1"]


def u2_halfspace(geom: PlanarGeometry, atom_a: ResonanceAtom,
                 atom_b: ResonanceAtom, medium: HalfSpaceMedium,
                 spec: QuadSpec | None = None, *,
                 g1_memo: dict | None = None) -> float:
    """Scattering-part contribution, by u-quadrature of the Green-tensor
    trace (whose q-quadratures carry the (q, q') structure), in units of
    the size of G1 squared.  ``g1_memo`` shares the tensors with the other
    plate parts of a row (see ``_plate_parts``)."""
    return _plate_parts(["U2"], geom, atom_a, atom_b, medium, spec,
                        {} if g1_memo is None else g1_memo)["U2"]


def u_total(geom, atom_a: ResonanceAtom, atom_b: ResonanceAtom,
            medium: HalfSpaceMedium, spec: QuadSpec | None = None):
    """Full potential breakdown U0 + U1 + U2 at the given geometry.  A
    tuple of geometries gives a tuple of breakdowns in its order, each the
    call at its geometry to the bit, or the exception that call raises.

    U1 and U2 are u-integrals at one scale that share one G1 per batch of
    u-nodes through a memo of the row.  The rows take U0's first round
    from one table (``u0_ee``), and on a perfect plate U1's and U2's from
    another (``_plate_block``); a finite-medium row is its own
    ``u1_halfspace`` and ``u2_halfspace``.  ``halfspace_forces`` returns
    the same breakdown, to the bit, with the forces of a row.
    """
    geoms = _rows(geom)
    u0s = u0_ee(tuple([g.l for g in geoms]), atom_a, atom_b, spec=spec)
    if medium.is_perfect:
        live = [g for g, u0 in zip(geoms, u0s)
                if not isinstance(u0, Exception)]
        parts = iter(_plate_block([("U1", "U2")] * len(live), live, atom_a,
                                  atom_b, medium, spec))
    members = []
    for g, u0 in zip(geoms, u0s):
        try:
            u0 = _value(u0)
            if medium.is_perfect:
                part = _value(next(parts))
            else:
                memo = {}
                part = {"U1": u1_halfspace(g, atom_a, atom_b, medium,
                                           spec=spec, g1_memo=memo),
                        "U2": u2_halfspace(g, atom_a, atom_b, medium,
                                           spec=spec, g1_memo=memo)}
            members.append(PotentialBreakdown.assemble(u0, part["U1"],
                                                       part["U2"]))
        except Exception as exc:  # noqa: BLE001 - this row's failure
            members.append(exc)
    return _results(geom, members)


def perfect_retarded_closed(geom: PlanarGeometry, atom_a: ResonanceAtom,
                            atom_b: ResonanceAtom,
                            medium: HalfSpaceMedium) -> PotentialBreakdown:
    """Closed-form retarded potential near a perfect plate (X << Z+); a
    finite medium raises ValueError."""
    _check_ee(atom_a, atom_b)
    sign = medium.reflection_sign
    c7 = asymptotic_coefficients(atom_a, atom_b).c7_ee
    l = geom.l
    zp = geom.Z_plus
    u0 = -c7 / l**7
    u1 = sign * (32.0 / 23.0) * (geom.X**2 + 6.0 * l**2) * c7 \
        / (l**3 * zp * (l + zp) ** 5)
    u2 = -c7 / zp**7
    return PotentialBreakdown.assemble(u0, u1, u2)


# Limiting U/U0 of the perfect-plate closed forms as (numerator,
# denominator), keyed by the case names of ``vdwpair limits``.  Retarded:
# atom A approaching the surface along the vertical (z_A/z_B -> 0), where
# U1/U0 -> -+(32/23) 6/2^5 and U2/U0 -> 1.  Nonretarded parallel: the
# on-surface limit Z+ -> 0, where U1/U0 -> -+4/3 and U2/U0 -> 1.  Upper
# signs for the conducting plate.
LIMIT_RATIOS = {
    "retarded-conducting": (40, 23),
    "retarded-permeable": (52, 23),
    "nonretarded-parallel-conducting": (2, 3),
    "nonretarded-parallel-permeable": (10, 3),
}


def nonretarded_closed(geom: PlanarGeometry, atom_a: ResonanceAtom,
                       atom_b: ResonanceAtom, medium: HalfSpaceMedium,
                       spec: QuadSpec | None = None) -> PotentialBreakdown:
    """Nonretarded potential near a perfect plate or a purely electric or
    purely magnetic half space.  U0 = -c6/l^6 on each.  A perfect plate or
    an electric medium gives U2 = -E/l+^6 and
    U1 = (4 X^4 - 2 Z^2 Z+^2 + X^2 (Z^2 + Z+^2)) D/(l^5 l+^5),
    with D and E the moments 1/(16 pi^3) int alpha_A alpha_B r du and
    3/(16 pi^3) int alpha_A alpha_B r^2 du of the static image factor
    r = (eps - 1)/(eps + 1).  A perfect plate has r = +-1 (upper sign for
    the conducting plate), so D = +-c6/3 and E = c6.  A purely magnetic
    medium gives U1 = (Z^2 - 2 X^2 + 3 Z+ (l+ - Z+)) F/(l^5 l+), with F the
    moment 1/(64 pi^3) int alpha_A alpha_B u^2 (mu - 1)(mu - 3)/(mu + 1) du,
    and U2 = 0 at this order; static permeabilities above 1e3 are rejected,
    as the limit breaks down on approach to perfect reflectivity.  A medium
    with both eps and mu has no closed form here.
    """
    _check_ee(atom_a, atom_b)
    if medium.eps is not None and medium.mu is not None:
        raise ValueError("no nonretarded closed form for a medium with both "
                         "eps and mu")
    c6 = asymptotic_coefficients(atom_a, atom_b).c6
    l, lp = geom.l, geom.l_plus
    x, z, zp = geom.X, geom.Z, geom.Z_plus
    u0 = -c6 / l**6

    def moment(weight, omega_t):
        # int alpha_A alpha_B weight du, at the lower of the atomic
        # resonances and the medium's
        return _scaled_integral(
            lambda u: response_product(atom_a, atom_b, u) * weight(u),
            min(atom_a.omega10, atom_b.omega10, omega_t), spec)

    if medium.mu is not None:
        mu0 = medium.mu_iu(0.0)
        if mu0 > 1e3:
            raise ValueError(
                f"static permeability {mu0:.3g} too large: the nonretarded "
                "limit breaks down on approach to perfect reflectivity")

        def weight(u):
            m = medium.mu_iu(u)
            return u**2 * (m - 1.0) * (m - 3.0) / (m + 1.0)

        f_coef = 1.0 / PI3_64 * moment(weight, medium.mu.omegaT)
        return PotentialBreakdown.assemble(
            u0, (z**2 - 2.0 * x**2 + 3.0 * zp * (lp - zp)) * f_coef
            / (l**5 * lp), 0.0)
    if medium.is_perfect:
        d, e_coef = medium.reflection_sign * c6 / 3.0, c6
    else:
        def frac(u):
            e = medium.eps_iu(u)
            return (e - 1.0) / (e + 1.0)

        d = 1.0 / PI3_16 * moment(frac, medium.eps.omegaT)
        e_coef = 3.0 / PI3_16 * moment(lambda u: frac(u) ** 2,
                                       medium.eps.omegaT)
    u1 = (4.0 * x**4 - 2.0 * z**2 * zp**2 + x**2 * (z**2 + zp**2)) * d \
        / (l**5 * lp**5)
    return PotentialBreakdown.assemble(u0, u1, -e_coef / lp**6)


THRESHOLD_CASES = ("threshold-vertical-conducting",
                   "threshold-vertical-permeable")


def threshold(case: str) -> float:
    """Height ratio z_B/z_A at which U1 + U2 changes sign (vertical family),
    for a case of ``THRESHOLD_CASES``.

    With z_A = 1 and z_B = r: in the retarded conducting case the closed
    forms give U1 + U2 proportional to
    (192/23)/((r-1)(r+1)(2r)^5) - 1/(r+1)^7, which vanishes at the real
    root above 1 of r^5 (r-1) - (6/23)(r+1)^6; in the nonretarded permeable
    case to 2/(3 (r+1)^3 (r-1)^3) - 1/(r+1)^6, which vanishes at
    (r+1)/(r-1) = 1.5^(1/3).
    """
    if case == "threshold-vertical-conducting":
        from numpy.polynomial import Polynomial

        poly = (Polynomial([0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0])
                - (6.0 / 23.0) * Polynomial([1.0, 1.0]) ** 6)
        # The other five roots lie in the left half plane.
        return float(max(poly.roots().real))
    if case == "threshold-vertical-permeable":
        return 1.0 + 2.0 / (1.5 ** (1.0 / 3.0) - 1.0)
    raise ValueError(f"case must be one of {THRESHOLD_CASES}")
