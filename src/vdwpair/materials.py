"""Atom and medium linear response on the positive imaginary frequency axis.

Reduced units throughout: hbar = c = eps0 = mu0 = 1, frequencies in units
of a reference resonance frequency, response strengths (polarizability or
magnetizability) carrying dimension length^3.  On the imaginary axis all
response functions are real, positive and strictly decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ResonanceAtom",
    "LorentzMedium",
    "VACUUM",
    "response_iu",
    "response_product",
    "permittivity_iu",
    "permeability_iu",
]

_ATOM_KINDS = ("electric", "magnetic")


@dataclass(frozen=True)
class ResonanceAtom:
    """Single-resonance atom: response alpha0 * w10^2 / (w10^2 + u^2) at iu.

    ``kind`` selects whether the response acts as a polarizability or a
    magnetizability; the functional form is the same single-resonance model
    in both cases.
    """

    omega10: float = 1.0
    alpha0: float = 1.0
    kind: str = "electric"

    def __post_init__(self):
        if not 0.0 < self.omega10 < np.inf:
            raise ValueError("omega10 must be positive and finite")
        if not 0.0 < self.alpha0 < np.inf:
            raise ValueError("alpha0 must be positive and finite")
        if self.kind not in _ATOM_KINDS:
            raise ValueError(f"kind must be one of {_ATOM_KINDS}")


@dataclass(frozen=True)
class LorentzMedium:
    """Lorentz oscillator medium: 1 + wP^2/(wT^2 + u^2 + u*gamma) at iu."""

    omegaP: float = 0.0
    omegaT: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.omegaT < np.inf:
            raise ValueError("omegaT must be positive and finite")
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError("gamma must be >= 0 and finite")
        if not 0.0 <= self.omegaP < np.inf:
            raise ValueError("omegaP must be >= 0 and finite")


VACUUM = LorentzMedium()


def _check_u(u):
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("imaginary-axis frequency u must be >= 0")
    return u


def response_iu(atom: ResonanceAtom, u):
    """Atomic polarizability/magnetizability at omega = iu (real, > 0)."""
    u = _check_u(u)
    out = atom.alpha0 * atom.omega10**2 / (atom.omega10**2 + u**2)
    return float(out) if out.ndim == 0 else out


def response_product(atom_a: ResonanceAtom, atom_b: ResonanceAtom, u):
    """alpha_A(iu) alpha_B(iu) for u >= 0, unchecked: the frequency weight
    of every two-atom integrand, evaluated on quadrature nodes."""
    wa2, wb2, u2 = atom_a.omega10**2, atom_b.omega10**2, u**2
    return atom_a.alpha0 * atom_b.alpha0 * wa2 * wb2 / ((wa2 + u2) * (wb2 + u2))


def _susceptibility_iu(m: LorentzMedium, u):
    u = _check_u(u)
    out = 1.0 + m.omegaP**2 / (m.omegaT**2 + u**2 + u * m.gamma)
    return float(out) if out.ndim == 0 else out


def permittivity_iu(m: LorentzMedium, u):
    """Relative permittivity at omega = iu; real and >= 1."""
    return _susceptibility_iu(m, u)


def permeability_iu(m: LorentzMedium, u):
    """Relative permeability at omega = iu; identical Lorentz form."""
    return _susceptibility_iu(m, u)
