"""Electromagnetic Green tensors on the imaginary frequency axis.

Covers the free-space (bulk) tensor G0, Fresnel reflection coefficients of
a magneto-electric half space, the half-space scattering tensor G1 (the
image closed form for a perfect reflector, Sommerfeld-type q-quadrature
of the ``_LANES`` kernels for a finite medium) and their Bessel factors.
Each tensor has one function, ``free_space_green`` and
``halfspace_scattering``, whose ``wrt`` argument selects the tensor or
one of the derivatives that the forces need, or a tuple of these: a
family, computed from one set of distance factors where the tensor is a
closed form.

Geometry convention: the half-space surface is the z = 0 plane, atoms sit
in the vacuum region z > 0, both atoms lie in the xz plane.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .materials import VACUUM, LorentzMedium, permeability_iu, \
    permittivity_iu
from .quadrature import QuadSpec, integrate_semiinf

__all__ = [
    "PlanarGeometry",
    "GreenComponents",
    "HalfSpaceMedium",
    "free_space_green",
    "reflection",
    "halfspace_scattering",
]

FOUR_PI = 4.0 * np.pi


@dataclass(frozen=True)
class PlanarGeometry:
    """Positions of two atoms above the surface, in the xz plane."""

    x_a: float
    z_a: float
    x_b: float
    z_b: float
    # |r_B - r_A| and the distance from r_A to B's image, computed once; not
    # compared, so == and hash stay those of the positions.
    l: float = field(init=False, repr=False, compare=False)
    l_plus: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # "not" also turns away NaN; l is NaN or inf if any coordinate is.
        if not (self.z_a > 0 and self.z_b > 0):
            raise ValueError("both atoms must sit above the surface (z > 0)")
        object.__setattr__(self, "l", float(np.hypot(self.X, self.Z)))
        object.__setattr__(self, "l_plus",
                           float(np.hypot(self.X, self.Z_plus)))
        if not 0.0 < self.l < np.inf:
            raise ValueError("atom positions must not coincide and must be "
                             "finite")

    @property
    def X(self) -> float:
        return self.x_b - self.x_a

    @property
    def Z(self) -> float:
        return self.z_b - self.z_a

    @property
    def Z_plus(self) -> float:
        return self.z_a + self.z_b

    def shifted(self, dx_a=0.0, dz_a=0.0, dx_b=0.0, dz_b=0.0) -> "PlanarGeometry":
        return PlanarGeometry(self.x_a + dx_a, self.z_a + dz_a,
                              self.x_b + dx_b, self.z_b + dz_b)

    @classmethod
    def parallel(cls, l: float, z: float) -> "PlanarGeometry":
        """Both atoms at height z, horizontal separation l."""
        return cls(0.0, z, l, z)

    @classmethod
    def vertical(cls, z_a: float, l: float) -> "PlanarGeometry":
        """Atoms on a common surface normal, lower atom at z_a."""
        return cls(0.0, z_a, 0.0, z_a + l)


@dataclass(frozen=True)
class GreenComponents:
    """Nonzero Green tensor elements for in-plane geometry; each is a float
    or an array over frequency nodes.  ``inner`` is the product of two
    tensors that every plate integrand takes."""

    gxx: float | np.ndarray
    gyy: float | np.ndarray
    gxz: float | np.ndarray
    gzx: float | np.ndarray
    gzz: float | np.ndarray

    def inner(self, other: "GreenComponents"):
        """sum_ij self_ij other_ij = Tr[self . other^T], row by row."""
        return (self.gxx * other.gxx + self.gxz * other.gxz
                + self.gyy * other.gyy
                + (self.gzx * other.gzx + self.gzz * other.gzz))


@dataclass(frozen=True)
class HalfSpaceMedium:
    """Either a finite-response magneto-electric half space or a perfect
    reflector; exactly one of the two descriptions is active."""

    eps: LorentzMedium | None = None
    mu: LorentzMedium | None = None
    perfect: str | None = None

    def __post_init__(self):
        if self.perfect is not None:
            if self.perfect not in ("conducting", "permeable"):
                raise ValueError("perfect must be 'conducting' or 'permeable'")
            if self.eps is not None or self.mu is not None:
                raise ValueError("perfect reflector excludes finite response")
        else:
            if self.eps is None and self.mu is None:
                raise ValueError("specify eps and/or mu, or a perfect kind")

    @classmethod
    def perfect_conductor(cls) -> "HalfSpaceMedium":
        return cls(perfect="conducting")

    @classmethod
    def dielectric(cls, eps: LorentzMedium) -> "HalfSpaceMedium":
        return cls(eps=eps)

    @classmethod
    def magnetic(cls, mu: LorentzMedium) -> "HalfSpaceMedium":
        return cls(mu=mu)

    @property
    def is_perfect(self) -> bool:
        return self.perfect is not None

    @property
    def reflection_sign(self) -> float:
        """r_p = -r_s of a perfect plate: +1 for the conducting plate, -1
        for the permeable one.  A finite medium has no such sign."""
        if not self.is_perfect:
            raise ValueError("only a perfect plate has a reflection sign")
        return 1.0 if self.perfect == "conducting" else -1.0

    def eps_iu(self, u):
        return permittivity_iu(self.eps or VACUUM, u)

    def mu_iu(self, u):
        return permeability_iu(self.mu or VACUUM, u)


def _members(wrt, allowed: tuple) -> tuple:
    """The ``wrt`` of each member that a call asks for: ``wrt`` itself, or
    each entry of a tuple of them."""
    members = wrt if isinstance(wrt, tuple) else (wrt,)
    for w in members:
        if w not in allowed:
            raise ValueError(f"wrt must be one of {allowed}, or a tuple of "
                             "them")
    return members


def free_space_green(x: float, z: float, u, wrt=None):
    """Bulk Green tensor G0 at imaginary frequency iu for the in-plane
    separation (x, 0, z), or its derivative with respect to x (``wrt="X"``)
    or z (``wrt="Z"``); closed form, vectorized in u.  A tuple ``wrt`` asks
    for a family of these, returned as a tuple in its order: the distance
    factors below are formed once for all of them, and each member is, to
    the bit, the call with its own ``wrt``.

    G0_ij = p (a delta_ij - b e_i e_j) with p = e^{-u rho}/(4 pi rho),
    xi = 1/(u rho), a = 1 + xi + xi^2 and b = 1 + 3 xi + 3 xi^2.  With
    d_k rho = e_k and d_k e_i = (delta_ik - e_i e_k)/rho:
    d_k G0_ij = e_k (A delta_ij - B e_i e_j)
                - (p b/rho)(delta_ik e_j + delta_jk e_i - 2 e_i e_j e_k),
    where A = d(p a)/d rho and B = d(p b)/d rho follow from
    dp/d rho = -p (u + 1/rho), da/d rho = -(xi + 2 xi^2)/rho and
    db/d rho = -(3 xi + 6 xi^2)/rho.
    """
    members = _members(wrt, (None, "X", "Z"))
    rho = np.sqrt(x * x + z * z)
    if rho == 0.0:
        raise ValueError("free-space Green tensor is singular at zero separation")
    if not (np.asarray(u) > 0).all():  # "not > 0" also turns away NaN
        raise ValueError("u must be positive")
    ex, ez = x / rho, z / rho
    u_rho = u * rho
    xi = 1.0 / u_rho
    xi2 = xi**2
    a = 1.0 + xi + xi2
    b = 1.0 + 3.0 * xi + 3.0 * xi2
    p = np.exp(-u_rho) / (FOUR_PI * rho)
    minus_p = -p
    if any(members):
        dp = minus_p * (u + 1.0 / rho)
        big_a = dp * a - p * (xi + 2.0 * xi2) / rho
        big_b = dp * b - p * (3.0 * xi + 6.0 * xi2) / rho
        c = p * b / rho
        # The parts of the xx and zz elements that both directions share.
        a_xx, a_zz = big_a - big_b * ex * ex, big_a - big_b * ez * ez
        c2 = 2.0 * c
        c_x, c_z = c2 * ex, c2 * ez

    def member(wrt):
        if wrt is None:
            gxz = minus_p * (b * (ex * ez))
            return GreenComponents(gxx=p * (a - b * (ex * ex)), gyy=p * a,
                                   gxz=gxz, gzx=gxz,
                                   gzz=p * (a - b * (ez * ez)))
        # ek = e_k of the direction k; dxk, dzk: the Kronecker deltas
        # delta_xk, delta_zk.
        ek, dxk, dzk = (ex, 1.0, 0.0) if wrt == "X" else (ez, 0.0, 1.0)
        gxz = -ek * big_b * (ex * ez) - c * (dxk * ez + dzk * ex
                                             - 2.0 * ex * ez * ek)
        return GreenComponents(gxx=ek * a_xx - c_x * (dxk - ex * ek),
                               gyy=ek * big_a, gxz=gxz, gzx=gxz,
                               gzz=ek * a_zz - c_z * (dzk - ez * ek))

    if isinstance(wrt, tuple):
        return tuple([member(w) for w in wrt])
    return member(wrt)


def reflection(q, u, medium: HalfSpaceMedium):
    """Fresnel coefficients (r_s, r_p) at imaginary frequency iu, vectorized
    in q and in a column of u (shape (n, 1)): row i is, to the bit, the call
    at u_i alone.  Scalar q and u give floats; an entry of u that is not
    positive (NaN included) raises ``ValueError``."""
    q = np.asarray(q, dtype=float)
    u = np.asarray(u, dtype=float)
    if (q < 0).any():
        raise ValueError("q must be >= 0")
    if not (u > 0).all():  # "not > 0" also turns away NaN
        raise ValueError("u must be positive")
    if medium.is_perfect:
        sign = medium.reflection_sign
        shape = np.broadcast_shapes(u.shape, q.shape)
        return ((np.full(shape, -sign), np.full(shape, sign)) if shape
                else (-sign, sign))
    eps = medium.eps_iu(u)
    mu = medium.mu_iu(u)
    u2, eps2, mu2, q2 = u * u, eps * eps, mu * mu, q * q
    b = np.sqrt(u2 + q2)
    b_m = np.sqrt(eps * mu * u2 + q2)
    # Rationalized numerators: x*b - b_m = (x^2 b^2 - b_m^2)/(x*b + b_m)
    # avoids catastrophic cancellation at q >> u, where the direct
    # difference loses the digits that the 1/u^2 kernels amplify.
    rs = (mu * (mu - eps) * u2 + (mu2 - 1.0) * q2) / (mu * b + b_m) ** 2
    rp = (eps * (eps - mu) * u2 + (eps2 - 1.0) * q2) / (eps * b + b_m) ** 2
    if rs.ndim == 0:
        return float(rs), float(rp)
    return rs, rp


MAX_OSCILLATION_PANELS = 20000


def q_breakpoints(geom: PlanarGeometry, u):
    """Initial q-grid resolving the e^{-b Z+} decay and J_nu(qX) oscillations
    at one u, or at every u of the range [u_lo, u_hi] of an array of u.

    The grid ends at q_cut = sqrt(c (2u + c)), c = 45/Z+, where b - u = c:
    relative to its peak e^{-u Z+}, every kernel's envelope e^{-b Z+} has
    fallen to e^{-45} there, at any u (q_cut -> 45/Z+ as u -> 0).  The grid
    of a range holds the cut q_cut(u_hi), the half periods pi/X of J_nu(qX)
    and one geometric run, 3 points per decade, from lo = min(0.1 u_lo,
    0.05/Z+) to hi = max(min(30/Z+, pi/|X|), min(10 u_hi, q_cut)), pi/|X|
    infinite on the axis; one u gives the grid of that u alone.  Above
    ``MAX_OSCILLATION_PANELS`` half periods the oscillation step is widened,
    with a ``RuntimeWarning``.
    """
    bounds = np.asarray(u, dtype=float)
    u_lo, u_hi = float(bounds.min()), float(bounds.max())
    zp = geom.Z_plus
    c = 45.0 / zp
    q_cut = float(np.sqrt(c * (2.0 * u_hi + c)))
    x = abs(geom.X)
    # The run resolves q ~ u, where b crosses over from u to q, and the slow
    # algebraic tails up to the decay scale 1/Z+ or the first half period.
    lo = min(0.1 * u_lo, 0.05 / zp)
    hi = max(min(30.0 / zp, np.pi / x if x > 0 else np.inf),
             min(10.0 * u_hi, q_cut))
    # The run lo 10^(k span/(n - 1)), k = 0 ... n - 1, with both ends exact.
    span = math.log10(hi / lo)
    n_run = math.ceil(3.0 * span) + 1
    run = lo * 10.0 ** (np.arange(n_run) * (span / (n_run - 1)))
    run[-1] = hi
    breaks = [*run.tolist(), q_cut]
    if x > 0:
        step = np.pi / x
        n = int(q_cut / step)
        if n > MAX_OSCILLATION_PANELS:
            step = q_cut / MAX_OSCILLATION_PANELS
            warnings.warn(
                f"q-grid at X/Z+ = {x / zp:.5g}: more than "
                f"MAX_OSCILLATION_PANELS = {MAX_OSCILLATION_PANELS} half "
                f"periods of J_nu(qX) lie below the cut, so the oscillation "
                f"step is widened to {step * x / np.pi:.2g} pi/X",
                RuntimeWarning, stacklevel=2)
        breaks += np.arange(step, q_cut, step).tolist()
    return breaks


def _image(g: GreenComponents, medium: HalfSpaceMedium) -> GreenComponents:
    """-+ g . diag(1, 1, -1): the image signs of a perfect reflector, upper
    sign for the conducting plate."""
    # Negation is the product with -1 to the bit, and the product with +1
    # is the element itself.
    if medium.reflection_sign > 0:
        return GreenComponents(gxx=-g.gxx, gyy=-g.gyy, gxz=g.gxz,
                               gzx=-g.gzx, gzz=g.gzz)
    return GreenComponents(gxx=g.gxx, gyy=g.gyy, gxz=-g.gxz, gzx=g.gzx,
                           gzz=-g.gzz)


def halfspace_scattering(geom: PlanarGeometry, u,
                         medium: HalfSpaceMedium,
                         spec: QuadSpec | None = None, wrt=None):
    """Scattering Green tensor G1 between the two atoms at iu, or its
    derivative with respect to X (``wrt="X"``) or Z+ (``wrt="Z_plus"``).
    A tuple ``wrt`` asks for a family of these, returned as a tuple in its
    order, each member to the bit the call with its own ``wrt``.

    A perfect reflector takes the exact image closed form
    G1(rA, rB) = -+ G0(rho_image) . diag(1, 1, -1), rho_image = (X, 0, Z+),
    upper sign for the conducting plate: the value of the q-integrals when
    the reflection coefficients are constant.  Its derivatives are the
    image signs of dG0/dx or dG0/dz at (X, Z+), and a family is the image
    of one ``free_space_green`` family.  A finite medium takes the
    Sommerfeld q-quadratures of ``_sommerfeld``, one run per member, in
    chunks of consecutive u-nodes that share a q-grid; a vacuum has
    r_s = r_p = 0, so each of its q-integrals is 0 in its first round.
    Every medium takes one u, which gives floats, or an array of u, which
    gives arrays of its shape; an entry that is not positive (NaN
    included) raises ``ValueError``.  The gxz element carries the upper
    (minus) sign of the xz/zx pair, gzx the lower.  Swapping the atoms
    transposes the tensor.
    """
    members = _members(wrt, (None, "X", "Z_plus"))
    if not medium.is_perfect:
        family = [_sommerfeld(geom, u, medium, spec, w) for w in members]
        return tuple(family) if isinstance(wrt, tuple) else family[0]
    # d/dZ+ of the image is the image of dG0/dz at (X, Z+).
    g0_wrt = ["Z" if w == "Z_plus" else w for w in members]
    if not isinstance(wrt, tuple):
        return _image(free_space_green(geom.X, geom.Z_plus, u, g0_wrt[0]),
                      medium)
    return tuple([_image(g, medium) for g in free_space_green(
        geom.X, geom.Z_plus, u, tuple(g0_wrt))])


# J2(t) = t^2/8 sum_k c_k t^(2k), c_k = (-1)^k 2/(4^k k! (k+2)!), highest
# k first; nine terms reach double precision for |t| < 1.
_J2_SERIES = [2.0 * (-0.25) ** k / (math.factorial(k) * math.factorial(k + 2))
              for k in range(8, -1, -1)]


def _bessel(q, x: float, wrt: str | None, orders: tuple):
    """Bessel factors (c0, c1, c2) on q, ``None`` at each order nu not in
    ``orders``: J_nu(t) at t = qX, or q J_nu'(t) = d/dX J_nu(qX) at
    ``wrt="X"``, with J0' = -J1, J1' = J0 - J1/t and J2' = J1 - 2 J2/t
    (J1'(0) = 1/2, J2'(0) = 0); only the J_k that these read are formed.
    J2 is 2 J1(t)/t - J0(t) for |t| >= 1 and its even power series below,
    where that recurrence cancels to t^2/8: J2 is within 4e-15 relative for
    0 < |t| <= 2, J2(0) = 0, and J0, J2 are even and J1 odd to the bit.
    """
    # scipy.special loads here, on a finite medium's first G1: free-space
    # and perfect-plate runs never need it.
    from scipy import special

    t = q * x
    at_x = wrt == "X"
    # c_nu reads J_nu, or at "X" J1 and, for nu = 1 or 2, J0 or J2 too; J2
    # reads J0 and J1.
    j0 = special.j0(t) if 2 in orders or (1 if at_x else 0) in orders else None
    j1 = special.j1(t) if at_x or orders != (0,) else None
    j2 = None
    if 2 in orders:
        small = np.abs(t) < 1.0
        j2 = 2.0 * j1 / np.where(small, 1.0, t) - j0
        if small.any():
            s = t[small] ** 2
            series = _J2_SERIES[0]
            for c in _J2_SERIES[1:]:  # Horner, elementwise: parity to the bit
                series = series * s + c
            j2[small] = s / 8.0 * series
    if not at_x:
        return tuple(j if nu in orders else None
                     for nu, j in enumerate((j0, j1, j2)))
    nonzero = t != 0.0
    safe_t = np.where(nonzero, t, 1.0)
    return (-q * j1 if 0 in orders else None,
            q * (j0 - np.where(nonzero, j1 / safe_t, 0.5))
            if 1 in orders else None,
            q * (j1 - 2.0 * np.where(nonzero, j2 / safe_t, 0.0))
            if 2 in orders else None)


def _xx_yy(sign):
    return lambda q, rs, rp, b, d, kk, c: q * d * (
        (c[0] + sign * c[2]) / b * rs
        - b * (c[0] - sign * c[2]) / kk * rp) / (8.0 * np.pi)


# The lanes of ``_sommerfeld``: the q-kernels of gxx, gyy, -gzz and i1 from
# r_s, r_p, b, the decay d and k^2 = kk (at one u or a column of u) and the
# Bessel factors c, each with the orders nu of c that it reads.
_LANES = ((_xx_yy(+1.0), (0, 2)), (_xx_yy(-1.0), (0, 2)),
          (lambda q, rs, rp, b, d, kk, c:
           q**3 * d * c[0] * rp / (b * kk) / FOUR_PI, (0,)),
          (lambda q, rs, rp, b, d, kk, c:
           q**2 * d * c[1] * rp / kk / FOUR_PI, (1,)))
# Consecutive u-nodes that share one q-grid and its Bessel factors.
_U_CHUNK = 8
# Entries of one (u, q) table: the rows of a chunk are tabulated in blocks
# of at most this many values, so a grid of many oscillation panels (X >>
# Z+) holds the tables of a few rows at a time, not of the whole chunk.
_TABLE_ENTRIES = 1 << 16


def _sommerfeld(geom: PlanarGeometry, u, medium: HalfSpaceMedium,
                spec: QuadSpec | None, wrt: str | None) -> GreenComponents:
    """Sommerfeld q-integrals of the scattering tensor elements, or of their
    derivatives with respect to X or Z+ (``wrt`` as in
    ``halfspace_scattering``), at one u (floats) or each u of an array.

    The derivative kernels stay on the same grid: d/dZ+ multiplies the
    decay e^{-b Z+} by -b, d/dX replaces J_nu(qX) by q J_nu'(qX).  The
    lanes of a u-node are scalar q-integrals of the ``_LANES`` kernels:
    gxx, gyy, gzz and i1 (gxz = -i1, gzx = +i1), which carries J1(qX), odd
    in X, and is 0 on the axis X = 0 (its X-derivative is not).  All lanes
    of a chunk of up to ``_U_CHUNK`` nodes take one grid, ``q_breakpoints``
    of its u-range (a geometric run over 0.1 u_lo ... 10 u_hi and 1/Z+, the
    cut of u_hi and the half periods), so each first integrand call gets
    the panel set that ``integrate_semiinf`` builds from those breakpoints
    alone.  There the chunk's Bessel factors are computed once, and r_s,
    r_p, b, the decay and the lanes as (u, q) tables of a block of rows.
    Every later call refines one lane at one u, with its own Bessel orders.
    """
    us = np.asarray(u, dtype=float)
    if not np.all(us > 0):  # "not > 0" also turns away NaN
        raise ValueError("u must be positive")
    x, zp = geom.X, geom.Z_plus
    lanes = _LANES[:3] if x == 0.0 and wrt != "X" else _LANES

    def kernel(q, u, kk):  # at one u, or a column of u (one row each)
        rs, rp = reflection(q, u, medium)
        b = np.sqrt(kk + q**2)
        d = np.exp(-b * zp)
        return rs, rp, b, -b * d if wrt == "Z_plus" else d, kk

    def f(q):
        nonlocal calls, bessel, block, table
        calls += 1
        if calls > 1:  # a refinement: this lane at this u alone
            return element(q, *kernel(q, u_row, k2[row]),
                           _bessel(q, x, wrt, orders))
        if bessel is None:
            bessel = _bessel(q, x, wrt, (0, 1, 2))
        if row not in block:
            table = None  # the last block's tables go before the next
            block = range(row, min(len(chunk), row + max(
                1, _TABLE_ENTRIES // q.size)))
            shared = kernel(q, u_col[block], k2[block])
            table = [e(q, *shared, bessel) for e, _ in lanes]
        return table[lane][row - block.start]

    nodes = us.ravel().tolist()
    values = []
    for start in range(0, len(nodes), _U_CHUNK):
        chunk = nodes[start:start + _U_CHUNK]
        # u and u^2 as columns: each (u, q) entry is, to the bit, u's alone.
        u_col = np.array(chunk)[:, None]
        k2 = u_col * u_col
        breaks = np.asarray(q_breakpoints(geom, chunk))
        bessel, block, table = None, range(0), None
        for row, u_row in enumerate(chunk):
            values.append([0.0] * len(_LANES))
            for lane, (element, orders) in enumerate(lanes):
                calls = 0
                values[-1][lane] = integrate_semiinf(
                    f, spec, breakpoints=breaks, axis="q").value
    gxx, gyy, zz, i1 = (np.reshape(col, us.shape) if us.ndim else col[0]
                        for col in zip(*values))
    return GreenComponents(gxx=gxx, gyy=gyy, gxz=-i1, gzx=+i1, gzz=-zz)
