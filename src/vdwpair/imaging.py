"""Image-dipole sign rules for the cross term near perfect reflectors.

The cross contribution U1 can be read as the interaction of each atom
with the image of the other.  A conducting surface images an electric
dipole with reversed horizontal components, a permeable one with reversed
vertical component, which fixes the sign of U1 by alignment:

    conducting + parallel alignment  -> repulsive cross term (+)
    conducting + vertical alignment  -> attractive cross term (-)
    permeable  + parallel alignment  -> attractive cross term (-)
    permeable  + vertical alignment  -> repulsive cross term (+)

The rule reflects the static dipole picture and therefore governs the
nonretarded closed forms; it is a qualitative predictor and never feeds
numerical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .greens import PlanarGeometry
from .materials import ResonanceAtom
from .potentials import perfect_nonretarded_closed

__all__ = ["ImageCase", "SIGN_TABLE", "predict_u1_sign",
           "verify_against_closed_forms"]

_PLATES = ("conducting", "permeable")
_ALIGNMENTS = ("parallel", "vertical")


@dataclass(frozen=True)
class ImageCase:
    """One of the four plate/alignment combinations of the sign table."""

    plate: str
    alignment: str

    def __post_init__(self):
        if self.plate not in _PLATES:
            raise ValueError(f"plate must be one of {_PLATES}")
        if self.alignment not in _ALIGNMENTS:
            raise ValueError(f"alignment must be one of {_ALIGNMENTS}")


SIGN_TABLE: dict[tuple[str, str], int] = {
    ("conducting", "parallel"): +1,
    ("conducting", "vertical"): -1,
    ("permeable", "parallel"): -1,
    ("permeable", "vertical"): +1,
}


def predict_u1_sign(case: ImageCase) -> int:
    """Sign of the nonretarded cross term U1 from the image-dipole rule."""
    return SIGN_TABLE[(case.plate, case.alignment)]


def verify_against_closed_forms(n_geometries: int = 10,
                                seed: int = 7) -> list[dict]:
    """Compare the predicted signs with the nonretarded closed-form cross
    term at random aligned geometries.

    Returns one record per case with the predicted sign, the evaluated
    signs, and an ``ok`` flag; any mismatch marks a formula regression.
    """
    rng = np.random.default_rng(seed)
    atom = ResonanceAtom()
    report = []
    for (plate, alignment), sign in SIGN_TABLE.items():
        got = []
        for _ in range(n_geometries):
            z = float(rng.uniform(0.5, 3.0))
            l = float(rng.uniform(0.2, 2.0))
            if alignment == "parallel":
                geom = PlanarGeometry.parallel(l, z)
            else:
                geom = PlanarGeometry.vertical(z, l)
            bd = perfect_nonretarded_closed(geom, atom, atom, plate)
            got.append(int(np.sign(bd.u1)))
        report.append({
            "plate": plate,
            "alignment": alignment,
            "predicted": sign,
            "evaluated": got,
            "ok": all(g == sign for g in got),
        })
    return report
