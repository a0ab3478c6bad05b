"""Special functions and Bessel-weighted auxiliary integrals.

Provides J0, J1 and J2 together by recurrence, and the closed forms of the
exponentially damped Bessel moments A_{k+-}(lambda, zeta) and
B_k(lambda, zeta) with a direct quadrature of the same integrals for
cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .quadrature import QuadSpec, integrate_semiinf

__all__ = [
    "WeightedIntegralKey",
    "bessel_j0_j1_j2",
    "weighted_AB",
]


def bessel_j0_j1_j2(t):
    """(J0(t), J1(t), J2(t)) at signed t, with J2 from the recurrence
    2 J1(t)/t - J0(t) and J2(0) = 0 exactly.

    J0 is even and J1 odd to the bit, so J2 is even to the bit.  J2 stays
    within 1e-14 absolute of ``scipy.special.jn(2, t)`` at one J0 and one
    J1 evaluation.
    """
    t = np.asarray(t, dtype=float)
    j0, j1 = special.j0(t), special.j1(t)
    nonzero = t != 0.0
    j2 = np.where(nonzero, 2.0 * j1 / np.where(nonzero, t, 1.0) - j0, 0.0)
    return j0, j1, j2


@dataclass(frozen=True)
class WeightedIntegralKey:
    """Selects one member of the A+-/B families of weighted integrals."""

    family: str  # "A+", "A-", or "B"
    order: int

    def __post_init__(self):
        if self.family not in ("A+", "A-", "B"):
            raise ValueError("family must be 'A+', 'A-', or 'B'")
        if self.order not in (3, 4, 5):
            raise ValueError(f"{self.family} admits orders 3, 4, 5")


def _closed_form(family: str, k: int, lam: float, zeta: float) -> float:
    d = lam**2 + zeta**2
    if family == "A+":
        if k == 3:
            return 6.0 * lam / d**2.5
        if k == 4:
            return 6.0 * (4.0 * lam**2 - zeta**2) / d**3.5
        return 30.0 * (4.0 * lam**3 - 3.0 * lam * zeta**2) / d**4.5
    if family == "A-":
        if k == 3:
            return 6.0 * (lam**3 - 4.0 * lam * zeta**2) / d**3.5
        if k == 4:
            return 6.0 * (4.0 * lam**4 - 27.0 * lam**2 * zeta**2
                          + 4.0 * zeta**4) / d**4.5
        return 30.0 * (4.0 * lam**5 - 41.0 * lam**3 * zeta**2
                       + 18.0 * lam * zeta**4) / d**5.5
    # family "B"
    if k == 3:
        return 3.0 * lam * (2.0 * lam**2 - 3.0 * zeta**2) / d**3.5
    if k == 4:
        return 3.0 * (8.0 * lam**4 - 24.0 * lam**2 * zeta**2
                      + 3.0 * zeta**4) / d**4.5
    return 15.0 * lam * (8.0 * lam**4 - 40.0 * lam**2 * zeta**2
                         + 15.0 * zeta**4) / d**5.5


def weighted_AB(key: WeightedIntegralKey, lam: float, zeta: float = 0.0) -> float:
    """Closed form of int_0^inf x^k e^{-lam x} [J0(zeta x) +- J2(zeta x)] dx
    (A families) or of the same integral with J0 alone (B family)."""
    if lam <= 0:
        raise ValueError("lam must be positive (integral diverges otherwise)")
    return _closed_form(key.family, key.order, float(lam), float(zeta))


def weighted_AB_quadrature(key: WeightedIntegralKey, lam: float,
                           zeta: float = 0.0, spec: QuadSpec | None = None):
    """Direct quadrature of the defining integral, for cross-validation."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    spec = spec or QuadSpec(rel_tol=1e-11, abs_tol=1e-16, max_subdivisions=2000)
    k = key.order

    def f(x):
        w = x**k * np.exp(-lam * x)
        if key.family == "B":
            return w * special.j0(zeta * x)
        j = special.j0(zeta * x)
        j2 = special.jn(2, zeta * x)
        return w * (j + j2) if key.family == "A+" else w * (j - j2)

    breaks = list((k + 1) / lam * np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0]))
    if zeta > 0:
        step = np.pi / zeta
        breaks += list(np.arange(step, 60.0 / lam, step)[:4000])
    return integrate_semiinf(f, spec, breakpoints=breaks)
