"""Electromagnetic Green tensors on the imaginary frequency axis.

Covers the free-space (bulk) tensor G0, Fresnel reflection coefficients of
a magneto-electric half space, the half-space scattering tensor G1 (the
image closed form for a perfect reflector, Sommerfeld-type q-quadrature
for a finite medium), and the Bessel factors J0, J1, J2 of its kernels.
Each tensor has one function, ``free_space_green`` and
``halfspace_scattering``, whose ``wrt`` argument selects the tensor or
one of the derivatives that the forces need.

Geometry convention: the half-space surface is the z = 0 plane, atoms sit
in the vacuum region z > 0, both atoms lie in the xz plane.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .materials import VACUUM, LorentzMedium, permeability_iu, \
    permittivity_iu
from .quadrature import QuadSpec, integrate_semiinf

__all__ = [
    "PlanarGeometry",
    "GreenComponents",
    "HalfSpaceMedium",
    "bessel_j0_j1_j2",
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

    def __post_init__(self):
        # "not" also turns away NaN; l is NaN or inf if any coordinate is.
        if not (self.z_a > 0 and self.z_b > 0):
            raise ValueError("both atoms must sit above the surface (z > 0)")
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

    @property
    def l(self) -> float:
        return float(np.hypot(self.X, self.Z))

    @property
    def l_plus(self) -> float:
        return float(np.hypot(self.X, self.Z_plus))

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
    or an array over frequency nodes."""

    gxx: float | np.ndarray
    gyy: float | np.ndarray
    gxz: float | np.ndarray
    gzx: float | np.ndarray
    gzz: float | np.ndarray

    def trace(self, other: "GreenComponents"):
        """Tr[self . other], summed row by row over the product's diagonal."""
        return (self.gxx * other.gxx + self.gxz * other.gzx
                + self.gyy * other.gyy
                + (self.gzx * other.gxz + self.gzz * other.gzz))

    def transpose(self) -> "GreenComponents":
        """The transposed tensor: gxz and gzx exchanged."""
        return GreenComponents(gxx=self.gxx, gyy=self.gyy, gxz=self.gzx,
                               gzx=self.gxz, gzz=self.gzz)


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

    @property
    def is_vacuum(self) -> bool:
        if self.is_perfect:
            return False
        eps_vac = self.eps is None or self.eps.omegaP == 0.0
        mu_vac = self.mu is None or self.mu.omegaP == 0.0
        return eps_vac and mu_vac

    def eps_iu(self, u):
        return permittivity_iu(self.eps or VACUUM, u)

    def mu_iu(self, u):
        return permeability_iu(self.mu or VACUUM, u)


def free_space_green(x: float, z: float, u,
                     wrt: str | None = None) -> GreenComponents:
    """Bulk Green tensor G0 at imaginary frequency iu for the in-plane
    separation (x, 0, z), or its derivative with respect to x (``wrt="X"``)
    or z (``wrt="Z"``); closed form, vectorized in u.

    G0_ij = p (a delta_ij - b e_i e_j) with p = e^{-u rho}/(4 pi rho),
    xi = 1/(u rho), a = 1 + xi + xi^2 and b = 1 + 3 xi + 3 xi^2.  With
    d_k rho = e_k and d_k e_i = (delta_ik - e_i e_k)/rho:
    d_k G0_ij = e_k (A delta_ij - B e_i e_j)
                - (p b/rho)(delta_ik e_j + delta_jk e_i - 2 e_i e_j e_k),
    where A = d(p a)/d rho and B = d(p b)/d rho follow from
    dp/d rho = -p (u + 1/rho), da/d rho = -(xi + 2 xi^2)/rho and
    db/d rho = -(3 xi + 6 xi^2)/rho.
    """
    if wrt not in (None, "X", "Z"):
        raise ValueError("wrt must be None, 'X' or 'Z'")
    rho = np.sqrt(x * x + z * z)
    if rho == 0.0:
        raise ValueError("free-space Green tensor is singular at zero separation")
    if not np.all(np.asarray(u) > 0):  # "not > 0" also turns away NaN
        raise ValueError("u must be positive")
    ex, ez = x / rho, z / rho
    xi = 1.0 / (u * rho)
    a = 1.0 + xi + xi**2
    b = 1.0 + 3.0 * xi + 3.0 * xi**2
    p = np.exp(-u * rho) / (FOUR_PI * rho)
    if wrt is None:
        gxz = -p * (b * (ex * ez))
        return GreenComponents(gxx=p * (a - b * (ex * ex)), gyy=p * a,
                               gxz=gxz, gzx=gxz, gzz=p * (a - b * (ez * ez)))
    dp = -p * (u + 1.0 / rho)
    big_a = dp * a - p * (xi + 2.0 * xi**2) / rho
    big_b = dp * b - p * (3.0 * xi + 6.0 * xi**2) / rho
    c = p * b / rho
    # ek = e_k of the direction k; dxk, dzk: the Kronecker deltas delta_xk,
    # delta_zk.
    ek, dxk, dzk = (ex, 1.0, 0.0) if wrt == "X" else (ez, 0.0, 1.0)
    gxz = -ek * big_b * (ex * ez) - c * (dxk * ez + dzk * ex
                                         - 2.0 * ex * ez * ek)
    return GreenComponents(
        gxx=ek * (big_a - big_b * ex * ex) - 2.0 * c * ex * (dxk - ex * ek),
        gyy=ek * big_a,
        gxz=gxz, gzx=gxz,
        gzz=ek * (big_a - big_b * ez * ez) - 2.0 * c * ez * (dzk - ez * ek))


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
    fallen to e^{-45} there, at any u (q_cut -> 45/Z+ as u -> 0).  A range
    ends at q_cut(u_hi), holds the u-points of u_lo and of u_hi, and fills
    [3 u_lo, 0.1 u_hi], where the u-points of the nodes in between lie,
    with 2 points per decade; one u gives the grid of that u alone.  Above
    ``MAX_OSCILLATION_PANELS`` half periods the oscillation step is
    widened, with a ``RuntimeWarning``.
    """
    u_lo, u_hi = float(np.min(u)), float(np.max(u))
    zp = geom.Z_plus
    c = 45.0 / zp
    q_cut = float(np.sqrt(c * (2.0 * u_hi + c)))
    breaks = list(np.array([0.05, 0.15, 0.4, 1.0, 2.5, 6.0, 15.0, 30.0]) / zp)
    breaks.append(q_cut)
    # The integrand changes character at q ~ u (b crosses over from u to q)
    # and can carry slow algebraic tails between u and the decay scale;
    # resolve that whole range geometrically when it lies below the grid.
    lo_decay = 0.05 / zp
    for v in dict.fromkeys((u_lo, u_hi)):
        breaks += [s * v for s in (0.1, 0.3, 1.0, 3.0) if s * v < q_cut]
        if lo_decay <= 10.0 * v < q_cut:
            breaks.append(10.0 * v)
    if 10.0 * u_lo < lo_decay:
        n_dec = int(np.ceil(4.0 * np.log10(lo_decay / (10.0 * u_lo))))
        breaks += list(np.geomspace(10.0 * u_lo, lo_decay, max(n_dec, 2)))
    if 0.1 * u_hi > 3.0 * u_lo:
        n_fill = int(np.ceil(2.0 * np.log10(u_hi / (30.0 * u_lo))))
        breaks += [q for q in np.geomspace(3.0 * u_lo, 0.1 * u_hi,
                                           n_fill + 1)[1:-1] if q < q_cut]
    x = abs(geom.X)
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
        if step < q_cut:
            breaks += list(np.arange(step, q_cut, step))
    return breaks


def _image(g: GreenComponents, medium: HalfSpaceMedium) -> GreenComponents:
    """-+ g . diag(1, 1, -1): the image signs of a perfect reflector, upper
    sign for the conducting plate."""
    sign = -medium.reflection_sign
    return GreenComponents(gxx=sign * g.gxx, gyy=sign * g.gyy,
                           gxz=-sign * g.gxz, gzx=sign * g.gzx,
                           gzz=-sign * g.gzz)


def halfspace_scattering(geom: PlanarGeometry, u,
                         medium: HalfSpaceMedium,
                         spec: QuadSpec | None = None,
                         wrt: str | None = None) -> GreenComponents:
    """Scattering Green tensor G1 between the two atoms at iu, or its
    derivative with respect to X (``wrt="X"``) or Z+ (``wrt="Z_plus"``).

    A perfect reflector takes the exact image closed form
    G1(rA, rB) = -+ G0(rho_image) . diag(1, 1, -1), rho_image = (X, 0, Z+),
    upper sign for the conducting plate: the value of the q-integrals when
    the reflection coefficients are constant.  Its derivatives are the
    image signs of dG0/dx or dG0/dz at (X, Z+).  A finite medium takes the
    Sommerfeld q-quadratures of ``_sommerfeld``, in chunks of consecutive
    u-nodes that share a q-grid; a vacuum gives zeros, with no q-integral,
    so every plate part of it is 0.  Every medium takes one u, which gives
    floats, or an array of u, which gives arrays of its shape; an entry
    that is not positive (NaN included) raises ``ValueError``.  The gxz
    element carries the upper (minus) sign of the xz/zx pair, gzx the
    lower.  Swapping the atoms transposes the tensor.
    """
    if wrt not in (None, "X", "Z_plus"):
        raise ValueError("wrt must be None, 'X' or 'Z_plus'")
    if medium.is_perfect:
        g0_wrt = "Z" if wrt == "Z_plus" else wrt
        return _image(free_space_green(geom.X, geom.Z_plus, u, g0_wrt), medium)
    return _sommerfeld(geom, u, medium, spec, wrt)


# J2(t) = t^2/8 sum_k c_k t^(2k), c_k = (-1)^k 2/(4^k k! (k+2)!), highest
# k first; nine terms reach double precision for |t| < 1.
_J2_SERIES = [2.0 * (-0.25) ** k / (math.factorial(k) * math.factorial(k + 2))
              for k in range(8, -1, -1)]


def bessel_j0_j1_j2(t):
    """(J0(t), J1(t), J2(t)) on an array of signed t.

    J2 is the recurrence 2 J1(t)/t - J0(t) for |t| >= 1 and its even power
    series for |t| < 1, where the recurrence cancels to t^2/8 and keeps only
    absolute accuracy.  J2 is within 4e-15 relative of the exact value for
    0 < |t| <= 2, J2(0) = 0 exactly, and J0, J2 are even and J1 odd to the
    bit.
    """
    # scipy.special loads here, on a finite medium's first G1: free-space
    # and perfect-plate runs never need it.
    from scipy import special

    t = np.asarray(t, dtype=float)
    j0, j1 = special.j0(t), special.j1(t)
    small = np.abs(t) < 1.0
    j2 = 2.0 * j1 / np.where(small, 1.0, t) - j0
    if small.any():
        s = t[small] ** 2
        series = _J2_SERIES[0]
        for c in _J2_SERIES[1:]:  # Horner, elementwise: parity to the bit
            series = series * s + c
        j2[small] = s / 8.0 * series
    return j0, j1, j2


def _bessel_x_derivatives(q, x: float):
    """d/dX of J0(qX), J1(qX), J2(qX): q J_nu'(t) at t = qX, with
    J0' = -J1, J1' = J0 - J1/t, J2' = J1 - 2 J2/t (J1'(0) = 1/2,
    J2'(0) = 0)."""
    t = q * x
    j0, j1, j2 = bessel_j0_j1_j2(t)
    nonzero = t != 0.0
    safe_t = np.where(nonzero, t, 1.0)
    j1_t = np.where(nonzero, j1 / safe_t, 0.5)
    j2_t = np.where(nonzero, j2 / safe_t, 0.0)
    return -q * j1, q * (j0 - j1_t), q * (j1 - 2.0 * j2_t)


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
    ``halfspace_scattering``), at one u or at each u of an array.

    The derivative kernels stay on the same grid: d/dZ+ multiplies the
    decay e^{-b Z+} by -b, d/dX replaces J_nu(qX) by q J_nu'(qX).  The
    u-nodes go in chunks of up to ``_U_CHUNK``; every element at every u
    of a chunk is one scalar q-integral on the chunk's grid
    (``q_breakpoints`` of its u-range), so all of them start from the same
    first panel set, on which the Bessel factors and, as (u, q) tables,
    r_s, r_p, b, the decay and the elements are computed once, for the
    length of the chunk only.  One u is a chunk of one.
    """
    us = np.asarray(u, dtype=float)
    if not np.all(us > 0):  # "not > 0" also turns away NaN
        raise ValueError("u must be positive")
    if medium.is_vacuum:
        zero = np.zeros(us.shape) if us.ndim else 0.0
        return GreenComponents(zero, zero, zero, zero, zero)
    nodes = us.ravel().tolist()
    rows = [row for i in range(0, len(nodes), _U_CHUNK)
            for row in _sommerfeld_chunk(geom, nodes[i:i + _U_CHUNK],
                                         medium, spec, wrt)]
    gxx, gyy, i1, gzz = (np.reshape(col, us.shape) if us.ndim else col[0]
                         for col in zip(*rows))
    return GreenComponents(gxx=gxx, gyy=gyy, gxz=-i1, gzx=+i1, gzz=gzz)


def _sommerfeld_chunk(geom: PlanarGeometry, us: list, medium: HalfSpaceMedium,
                      spec: QuadSpec | None, wrt: str | None) -> list:
    """(gxx, gyy, i1, gzz) at each u of ``us`` (floats), with gxz = -i1 and
    gzx = +i1, from the q-integrals of one chunk (see ``_sommerfeld``)."""
    x = geom.X
    # i1 (gxz = -i1, gzx = +i1) carries J1(qX), odd in X, so it vanishes on
    # the axis X = 0; its X-derivative does not.
    axis_i1_zero = x == 0.0 and wrt != "X"
    zp = geom.Z_plus
    # u and u^2 of each node as a column: every (u, q) entry is the value
    # that one u alone gives, to the bit.
    u_col = np.array(us)[:, None]
    k2 = u_col * u_col
    breaks = np.asarray(q_breakpoints(geom, us))

    def bessel_factors(q, k=0):
        # J_nu(qX), or q J_nu'(qX) at "X", for nu = 0, 1, 2; zz (k = 2) reads
        # nu = 0 and xz (k = 3) nu = 1, each one Bessel function but xz at X.
        from scipy import special
        if k == 2:
            return (-q * special.j1(q * x) if wrt == "X"
                    else special.j0(q * x)), None, None
        if k == 3 and wrt != "X":
            return None, special.j1(q * x), None
        return (_bessel_x_derivatives(q, x) if wrt == "X"
                else bessel_j0_j1_j2(q * x))

    def kernel(q, u, kk, bessel):
        """r_s, r_p, b, the decay and k^2 = kk on q at u (one node, or a
        column of them, one row each), and the Bessel factors on q."""
        rs, rp = reflection(q, u, medium)
        b = np.sqrt(kk + q**2)
        d = np.exp(-b * zp)
        if wrt == "Z_plus":
            d = -b * d
        return rs, rp, b, d, kk, bessel

    def xx_yy(sign):
        def element(q, rs, rp, b, d, kk, bessel):
            c0, _, c2 = bessel
            damp = q * d
            return damp * ((c0 + sign * c2) / b * rs
                           - b * (c0 - sign * c2) / kk * rp) / (8.0 * np.pi)
        return element

    def xz(q, rs, rp, b, d, kk, bessel):
        return q**2 * d * bessel[1] * rp / kk / FOUR_PI

    def zz(q, rs, rp, b, d, kk, bessel):
        return q**3 * d * bessel[0] * rp / (b * kk) / FOUR_PI

    elements = [xx_yy(+1.0), xx_yy(-1.0), zz] + ([] if axis_i1_zero
                                                 else [xz])
    # The engine's first-panel cache hands every integral of the chunk the
    # same first node array, recognised by identity.  Its Bessel factors are
    # computed at the first call, and the elements on it as tables of a
    # block of rows, kept until the integrals of those rows are done.
    # Refinements rarely coincide between integrals, so they are evaluated
    # per integral.
    first = {}

    def integral(row: int, k: int) -> float:
        def f(q):
            if not first:
                first.update(q=q, bessel=bessel_factors(q), rows=range(0))
            if q is not first["q"]:
                return elements[k](q, *kernel(q, us[row], k2[row],
                                              bessel_factors(q, k)))
            rows = first["rows"]
            if row not in rows:
                first.pop("table", None)
                rows = range(row, min(len(us), row + max(
                    1, _TABLE_ENTRIES // q.size)))
                factors = kernel(q, u_col[rows], k2[rows], first["bessel"])
                first.update(rows=rows,
                             table=[e(q, *factors) for e in elements])
            return first["table"][k][row - rows.start]
        return integrate_semiinf(f, spec, breakpoints=breaks, axis="q").value

    return [(integral(row, 0), integral(row, 1),
             0.0 if axis_i1_zero else integral(row, 3), -integral(row, 2))
            for row in range(len(us))]
