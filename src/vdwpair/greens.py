"""Electromagnetic Green tensors on the imaginary frequency axis.

Covers the free-space (bulk) tensor, Fresnel reflection coefficients of a
magneto-electric half space, the half-space scattering tensor obtained by
Sommerfeld-type q-quadrature, and its closed-form nonretarded
approximations.

Geometry convention: the half-space surface is the z = 0 plane, atoms sit
in the vacuum region z > 0, both atoms lie in the xz plane.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .materials import LorentzMedium, permeability_iu, permittivity_iu
from .quadrature import QuadSpec, integrate_semiinf
from .specfun import bessel_j0_j1_j2

__all__ = [
    "PlanarGeometry",
    "GreenComponents",
    "HalfSpaceMedium",
    "free_space_green",
    "free_space_green_gradient",
    "reflection",
    "reflection_expansion",
    "static_reflection",
    "perfect_image_scattering",
    "halfspace_scattering",
    "halfspace_scattering_quadrature",
    "halfspace_scattering_derivative",
    "nonretarded_scattering",
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
        if self.z_a <= 0 or self.z_b <= 0:
            raise ValueError("both atoms must sit above the surface (z > 0)")
        if self.l <= 0:
            raise ValueError("atom positions must not coincide")

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

    def swapped(self) -> "PlanarGeometry":
        """Geometry with the two atoms exchanged."""
        return PlanarGeometry(self.x_b, self.z_b, self.x_a, self.z_a)

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
    def perfect_permeable(cls) -> "HalfSpaceMedium":
        return cls(perfect="permeable")

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
    def is_vacuum(self) -> bool:
        if self.is_perfect:
            return False
        eps_vac = self.eps is None or self.eps.omegaP == 0.0
        mu_vac = self.mu is None or self.mu.omegaP == 0.0
        return eps_vac and mu_vac

    def eps_iu(self, u):
        if self.eps is None:
            return np.ones_like(np.asarray(u, dtype=float)) if np.ndim(u) else 1.0
        return permittivity_iu(self.eps, u)

    def mu_iu(self, u):
        if self.mu is None:
            return np.ones_like(np.asarray(u, dtype=float)) if np.ndim(u) else 1.0
        return permeability_iu(self.mu, u)


def _free_space_factors(x: float, z: float, u):
    """rho, the unit vector (ex, ez), a(xi), b(xi) and the prefactor
    p = e^{-u rho}/(4 pi rho) of G0_ij = p (a delta_ij - b e_i e_j), with
    xi = 1/(u rho)."""
    rho = np.sqrt(x * x + z * z)
    if rho == 0.0:
        raise ValueError("free-space Green tensor is singular at zero separation")
    if np.any(np.asarray(u) <= 0):
        raise ValueError("u must be positive")
    xi = 1.0 / (u * rho)
    a = 1.0 + xi + xi**2
    b = 1.0 + 3.0 * xi + 3.0 * xi**2
    pref = np.exp(-u * rho) / (FOUR_PI * rho)
    return rho, x / rho, z / rho, xi, a, b, pref


def free_space_green(x: float, z: float, u) -> GreenComponents:
    """Bulk Green tensor at imaginary frequency iu for the in-plane
    separation (x, 0, z); vectorized in u."""
    _, ex, ez, _, a, b, pref = _free_space_factors(x, z, u)
    gxz = -pref * (b * (ex * ez))
    return GreenComponents(gxx=pref * (a - b * (ex * ex)), gyy=pref * a,
                           gxz=gxz, gzx=gxz, gzz=pref * (a - b * (ez * ez)))


def free_space_green_gradient(x: float, z: float, u):
    """(dG0/dx, dG0/dz) at the in-plane separation (x, 0, z), in closed
    form and vectorized in u.

    With G0_ij = p (a delta_ij - b e_i e_j), d_k rho = e_k and
    d_k e_i = (delta_ik - e_i e_k)/rho:
    d_k G0_ij = e_k (A delta_ij - B e_i e_j)
                - (p b/rho)(delta_ik e_j + delta_jk e_i - 2 e_i e_j e_k),
    where A = d(p a)/d rho and B = d(p b)/d rho follow from
    dp/d rho = -p (u + 1/rho), da/d rho = -(xi + 2 xi^2)/rho and
    db/d rho = -(3 xi + 6 xi^2)/rho.
    """
    rho, ex, ez, xi, a, b, p = _free_space_factors(x, z, u)
    dp = -p * (u + 1.0 / rho)
    big_a = dp * a - p * (xi + 2.0 * xi**2) / rho
    big_b = dp * b - p * (3.0 * xi + 6.0 * xi**2) / rho
    c = p * b / rho

    def along(ek, dxk, dzk):
        # dxk, dzk: the Kronecker deltas delta_xk, delta_zk.
        gxz = -ek * big_b * (ex * ez) - c * (dxk * ez + dzk * ex
                                             - 2.0 * ex * ez * ek)
        return GreenComponents(
            gxx=ek * (big_a - big_b * ex * ex) - 2.0 * c * ex * (dxk - ex * ek),
            gyy=ek * big_a,
            gxz=gxz, gzx=gxz,
            gzz=ek * (big_a - big_b * ez * ez) - 2.0 * c * ez * (dzk - ez * ek))

    return along(ex, 1.0, 0.0), along(ez, 0.0, 1.0)


def reflection(q, u: float, medium: HalfSpaceMedium):
    """Fresnel coefficients (r_s, r_p) at imaginary frequency, vectorized in q."""
    q = np.asarray(q, dtype=float)
    if np.any(q < 0):
        raise ValueError("q must be >= 0")
    if u <= 0:
        raise ValueError("u must be positive")
    if medium.is_perfect:
        sign = 1.0 if medium.perfect == "conducting" else -1.0
        shape = q.shape
        rs = np.full(shape, -sign) if shape else -sign
        rp = np.full(shape, sign) if shape else sign
        return rs, rp
    eps = medium.eps_iu(u)
    mu = medium.mu_iu(u)
    b = np.sqrt(u**2 + q**2)
    b_m = np.sqrt(eps * mu * u**2 + q**2)
    # Rationalized numerators: x*b - b_m = (x^2 b^2 - b_m^2)/(x*b + b_m)
    # avoids catastrophic cancellation at q >> u, where the direct
    # difference loses the digits that the 1/u^2 kernels amplify.
    rs = (mu * (mu - eps) * u**2 + (mu**2 - 1.0) * q**2) / (mu * b + b_m) ** 2
    rp = (eps * (eps - mu) * u**2 + (eps**2 - 1.0) * q**2) / (eps * b + b_m) ** 2
    if q.ndim == 0:
        return float(rs), float(rp)
    return rs, rp


def reflection_expansion(q, u: float, medium: HalfSpaceMedium):
    """Leading nonretarded expansion of (r_s, r_p) in powers of u/b."""
    if medium.is_perfect:
        raise ValueError("expansion is ill-defined for a perfect reflector")
    q = np.asarray(q, dtype=float)
    eps = medium.eps_iu(u)
    mu = medium.mu_iu(u)
    b2 = u**2 + q**2
    ratio = u**2 / b2
    rs = (mu - 1.0) / (mu + 1.0) - mu * (eps * mu - 1.0) / (mu + 1.0) ** 2 * ratio
    rp = (eps - 1.0) / (eps + 1.0) - eps * (eps * mu - 1.0) / (eps + 1.0) ** 2 * ratio
    if q.ndim == 0:
        return float(rs), float(rp)
    return rs, rp


def static_reflection(v, eps0: float, mu0: float):
    """Static-limit reflection coefficients as functions of v = b/k >= 1."""
    v = np.asarray(v, dtype=float)
    if np.any(v < 1.0):
        raise ValueError("v must be >= 1")
    radicand = eps0 * mu0 - 1.0 + v**2
    if np.any(radicand < 0):
        raise ValueError("negative radicand: eps0*mu0 - 1 + v^2 must be >= 0")
    root = np.sqrt(radicand)
    # Rationalized as in ``reflection``: x v - root = ((x^2 - 1) v^2 -
    # (eps0 mu0 - 1))/(x v + root) keeps the digits that the direct
    # difference loses at v >> 1.
    rs = ((mu0**2 - 1.0) * v**2 - (eps0 * mu0 - 1.0)) / (mu0 * v + root) ** 2
    rp = ((eps0**2 - 1.0) * v**2 - (eps0 * mu0 - 1.0)) / (eps0 * v + root) ** 2
    if v.ndim == 0:
        return float(rs), float(rp)
    return rs, rp


MAX_OSCILLATION_PANELS = 20000


def q_breakpoints(geom: PlanarGeometry, u: float):
    """Initial q-grid resolving the e^{-b Z+} decay and J_nu(qX) oscillations.

    The grid ends at q_cut = sqrt(c (2u + c)), c = 45/Z+, where b - u = c:
    relative to its peak e^{-u Z+}, every kernel's envelope e^{-b Z+} has
    fallen to e^{-45} there, at any u (q_cut -> 45/Z+ as u -> 0).
    """
    zp = geom.Z_plus
    c = 45.0 / zp
    q_cut = float(np.sqrt(c * (2.0 * u + c)))
    breaks = list(np.array([0.05, 0.15, 0.4, 1.0, 2.5, 6.0, 15.0, 30.0]) / zp)
    breaks.append(q_cut)
    # The integrand changes character at q ~ u (b crosses over from u to q)
    # and can carry slow algebraic tails between u and the decay scale;
    # resolve that whole range geometrically when it lies below the grid.
    breaks += [s * u for s in (0.1, 0.3, 1.0, 3.0) if s * u < q_cut]
    lo_decay = 0.05 / zp
    if 10.0 * u < lo_decay:
        n_dec = int(np.ceil(4.0 * np.log10(lo_decay / (10.0 * u))))
        breaks += list(np.geomspace(10.0 * u, lo_decay, max(n_dec, 2)))
    elif 10.0 * u < q_cut:
        breaks.append(10.0 * u)
    x = abs(geom.X)
    if x > 0:
        step = np.pi / x
        n = int(q_cut / step)
        if n > MAX_OSCILLATION_PANELS:
            step = q_cut / MAX_OSCILLATION_PANELS
        if step < q_cut:
            breaks += list(np.arange(step, q_cut, step))
    return breaks


def _scattering_spec(spec: QuadSpec | None, n_breaks: int) -> QuadSpec:
    spec = spec or QuadSpec()
    min_subdiv = max(spec.max_subdivisions, n_breaks // 2 + 50, 800)
    if min_subdiv != spec.max_subdivisions:
        spec = replace(spec, max_subdivisions=min_subdiv)
    return spec


def _image(g: GreenComponents, medium: HalfSpaceMedium) -> GreenComponents:
    """-+ g . diag(1, 1, -1): the image signs of a perfect reflector, upper
    sign for the conducting plate."""
    if not medium.is_perfect:
        raise ValueError("image closed form exists only for perfect reflectors")
    sign = -1.0 if medium.perfect == "conducting" else 1.0
    return GreenComponents(gxx=sign * g.gxx, gyy=sign * g.gyy,
                           gxz=-sign * g.gxz, gzx=sign * g.gzx,
                           gzz=-sign * g.gzz)


def perfect_image_scattering(geom: PlanarGeometry, u,
                             medium: HalfSpaceMedium) -> GreenComponents:
    """Exact scattering tensor of a perfect reflector by image construction,
    vectorized in u.

    G1(rA, rB) = -+ G0(rho_image) . diag(1, 1, -1) with
    rho_image = (X, 0, Z+), upper sign for the conducting plate; this is
    the closed form of the q-integrals when the reflection coefficients
    are constant.
    """
    return _image(free_space_green(geom.X, geom.Z_plus, u), medium)


def halfspace_scattering(geom: PlanarGeometry, u,
                         medium: HalfSpaceMedium,
                         spec: QuadSpec | None = None) -> GreenComponents:
    """Scattering Green tensor elements between the two atoms at iu.

    Each element is a Bessel-weighted semi-infinite q-integral damped by
    e^{-b Z+}; the gxz element carries the upper (minus) sign of the
    xz/zx pair, gzx the lower.  Perfect reflectors short-circuit to the
    exact image closed form, which takes an array of u; finite media take
    a single u.  ``halfspace_scattering_quadrature`` keeps the
    integral route available for cross-validation.  Swapping the atoms
    transposes the tensor.
    """
    if medium.is_perfect:
        return perfect_image_scattering(geom, u, medium)
    return halfspace_scattering_quadrature(geom, u, medium, spec=spec)


def halfspace_scattering_derivative(geom: PlanarGeometry, u,
                                    medium: HalfSpaceMedium, wrt: str,
                                    spec: QuadSpec | None = None) -> GreenComponents:
    """Derivative of ``halfspace_scattering`` with respect to X
    (``wrt="X"``) or Z+ (``wrt="Z_plus"``).

    Perfect reflectors take the image signs of dG0/dx or dG0/dz at
    (X, Z+), vectorized in u.  Finite media take a single u and integrate
    derivative q-kernels on the same grid: d/dZ+ multiplies a kernel by -b,
    d/dX replaces J_nu(qX) by q J_nu'(qX).
    """
    if wrt not in ("X", "Z_plus"):
        raise ValueError("wrt must be 'X' or 'Z_plus'")
    if medium.is_perfect:
        grad = free_space_green_gradient(geom.X, geom.Z_plus, u)
        return _image(grad[0 if wrt == "X" else 1], medium)
    if wrt == "Z_plus":
        zp = geom.Z_plus
        return _sommerfeld(geom, u, medium, spec,
                           decay=lambda b: -b * np.exp(-b * zp))
    x = geom.X
    return _sommerfeld(geom, u, medium, spec,
                       bessel=lambda q: _bessel_x_derivatives(q, x))


def _bessel_x_derivatives(q, x: float):
    """d/dX of J0(qX), J1(qX), J2(qX): q J_nu'(t) at t = qX, with
    J0' = -J1, J1' = J0 - J1/t, J2' = J1 - 2 J2/t (J1'(0) = 1/2,
    J2'(0) = 0) and J2 = 2 J1/t - J0 by recurrence."""
    t = q * x
    j0, j1, j2 = bessel_j0_j1_j2(t)
    nonzero = t != 0.0
    safe_t = np.where(nonzero, t, 1.0)
    j1_t = np.where(nonzero, j1 / safe_t, 0.5)
    j2_t = np.where(nonzero, j2 / safe_t, 0.0)
    return -q * j1, q * (j0 - j1_t), q * (j1 - 2.0 * j2_t)


def halfspace_scattering_quadrature(geom: PlanarGeometry, u: float,
                                    medium: HalfSpaceMedium,
                                    spec: QuadSpec | None = None) -> GreenComponents:
    """Scattering tensor elements by direct Sommerfeld q-quadrature."""
    return _sommerfeld(geom, u, medium, spec)


def _sommerfeld(geom: PlanarGeometry, u: float, medium: HalfSpaceMedium,
                spec: QuadSpec | None, decay=None,
                bessel=None) -> GreenComponents:
    """Sommerfeld q-integrals of the scattering tensor elements.

    ``decay(b)`` stands for e^{-b Z+} and ``bessel(q)`` for (J0(qX),
    J1(qX), J2(qX)); a derivative of the tensor replaces them by their
    derivatives.  Every element is one scalar q-integral on the same
    breakpoints, so all of them start from the same first grid of
    q-nodes; r_s, r_p, b, decay(b) and the Bessel factors on it are
    computed once and kept for the length of this call only.
    """
    if u <= 0:
        raise ValueError("u must be positive")
    if medium.is_vacuum:
        return GreenComponents(0.0, 0.0, 0.0, 0.0, 0.0)
    x = geom.X
    # i1 (gxz = -i1, gzx = +i1) carries J1(qX), odd in X, so it vanishes on
    # the axis X = 0; its X-derivative does not.
    axis_i1_zero = x == 0.0 and bessel is None
    zp = geom.Z_plus
    k2 = u**2
    decay = decay or (lambda b: np.exp(-b * zp))
    bessel = bessel or (lambda q: bessel_j0_j1_j2(q * x))
    breaks = q_breakpoints(geom, u)
    spec = _scattering_spec(spec, len(breaks))
    # The first grid, keyed by its nodes' bytes: every element integral
    # starts from it.  Refinements rarely coincide between elements (0.3 %
    # of the kernel nodes of a u_total at parallel(0.6, 0.01), rel_tol
    # 1e-8), so they are not kept and the memo holds one grid at most.
    first_grid = {}

    def kernel(q):
        key = q.tobytes()
        k = first_grid.get(key)
        if k is None:
            rs, rp = reflection(q, u, medium)
            b = np.sqrt(u**2 + q**2)
            k = (rs, rp, b, decay(b), *bessel(q))
            if not first_grid:
                first_grid[key] = k
        return k

    def xx_yy(q, sign):
        rs, rp, b, d, c0, _, c2 = kernel(q)
        damp = q * d
        return damp * ((c0 + sign * c2) / b * rs
                       - b * (c0 - sign * c2) / k2 * rp) / (8.0 * np.pi)

    def xz(q):
        _, rp, _, d, _, j1, _ = kernel(q)
        return q**2 * d * j1 * rp / k2 / FOUR_PI

    def zz(q):
        _, rp, b, d, j0, _, _ = kernel(q)
        return q**3 * d * j0 * rp / (b * k2) / FOUR_PI

    gxx = integrate_semiinf(lambda q: xx_yy(q, +1.0), spec, breakpoints=breaks,
                            axis="q").value
    gyy = integrate_semiinf(lambda q: xx_yy(q, -1.0), spec, breakpoints=breaks,
                            axis="q").value
    gzz = -integrate_semiinf(zz, spec, breakpoints=breaks, axis="q").value
    if axis_i1_zero:
        i1 = 0.0
    else:
        i1 = integrate_semiinf(xz, spec, breakpoints=breaks, axis="q").value
    return GreenComponents(gxx=gxx, gyy=gyy, gxz=-i1, gzx=+i1, gzz=gzz)


def nonretarded_scattering(geom: PlanarGeometry, u: float,
                           medium: HalfSpaceMedium) -> GreenComponents:
    """Closed-form nonretarded approximations of the scattering tensor.

    Valid for purely electric media, purely magnetic media, and perfect
    reflectors; asymptotic references only (recommended guard
    u * l_plus < 0.1).
    """
    if u <= 0:
        raise ValueError("u must be positive")
    x = geom.X
    zp = geom.Z_plus
    lp = geom.l_plus

    if medium.is_perfect or medium.mu is None or medium.mu.omegaP == 0.0:
        # Perfect reflector or purely electric half space: same tensor
        # structure, with r_p replaced by (eps-1)/(eps+1) in the finite case.
        if medium.is_perfect:
            rp = 1.0 if medium.perfect == "conducting" else -1.0
        else:
            eps = medium.eps_iu(u)
            rp = (eps - 1.0) / (eps + 1.0)
        c = rp / (u**2 * FOUR_PI)
        gxx = (2.0 * x**2 - zp**2) / lp**5 * c
        gyy = -1.0 / lp**3 * c
        i1 = 3.0 * x * zp / lp**5 * c
        gzz = (x**2 - 2.0 * zp**2) / lp**5 * c
        return GreenComponents(gxx=gxx, gyy=gyy, gxz=-i1, gzx=+i1, gzz=gzz)

    if medium.eps is not None and medium.eps.omegaP != 0.0:
        raise ValueError("nonretarded closed forms exist only for purely "
                         "electric or purely magnetic half spaces")
    mu = medium.mu_iu(u)
    frac = (mu - 1.0) / (mu + 1.0)
    if x == 0.0:
        # l_plus - Z_plus ~ X^2/(2 Z_plus): finite X -> 0 limits
        gxx = frac / (8.0 * np.pi * zp) + (mu - 1.0) / (32.0 * np.pi * zp)
        gyy = (mu - 1.0) / (32.0 * np.pi * zp) + frac / (8.0 * np.pi * zp)
        i1 = 0.0
    else:
        gxx = ((lp - zp) / (FOUR_PI * x**2) * frac
               + (zp * lp - zp**2) / (16.0 * np.pi * x**2 * lp) * (mu - 1.0))
        gyy = ((lp - zp) / (16.0 * np.pi * x**2) * (mu - 1.0)
               + (zp * lp - zp**2) / (FOUR_PI * x**2 * lp) * frac)
        i1 = -(lp - zp) / (16.0 * np.pi * x * lp) * (mu - 1.0)
    gzz = (mu - 1.0) / (16.0 * np.pi * lp)
    # xz carries the upper (plus) sign here, opposite to the exact tensor's
    # minus convention; i1 above is defined so that gxz = -i1 stays uniform.
    return GreenComponents(gxx=gxx, gyy=gyy, gxz=-i1, gzx=+i1, gzz=gzz)
