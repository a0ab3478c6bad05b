"""Write ``tests/golden_values.json``: U0, U1 and U2 of ``u_total`` at
rel_tol 1e-12 for every case of ``CASES``, the reference values of
``tests/test_golden.py``.

Run from the root of a checkout:

    PYTHONPATH=src python tests/make_golden.py

pytest does not collect this file.  Regenerate the values only from a
commit whose results are trusted, and say which one in the commit message.
"""

import json
import time
from pathlib import Path

from vdwpair import HalfSpaceMedium, LorentzMedium, PlanarGeometry, \
    ResonanceAtom, u_total
from vdwpair.quadrature import QuadSpec

REL_TOL = 1e-12
LORENTZ = {"omegaP": 3.0, "omegaT": 1.0, "gamma": 1e-3}
MEDIA = ("dielectric", "magnetic")
# (family, args of the PlanarGeometry constructor of that name)
GEOMETRIES = [("parallel", [1e-3, 0.01]), ("parallel", [0.1, 0.01]),
              ("parallel", [1.0, 0.01]), ("vertical", [0.01, 0.01])]
CASES = [(medium, family, args) for medium in MEDIA
         for family, args in GEOMETRIES]
PATH = Path(__file__).with_name("golden_values.json")


def medium_of(kind: str) -> HalfSpaceMedium:
    return getattr(HalfSpaceMedium, kind)(LorentzMedium(**LORENTZ))


def geometry_of(family: str, args) -> PlanarGeometry:
    return getattr(PlanarGeometry, family)(*args)


def main() -> None:
    cases = []
    for medium, family, args in CASES:
        t0 = time.perf_counter()
        bd = u_total(geometry_of(family, args), ResonanceAtom(),
                     ResonanceAtom(), medium_of(medium),
                     spec=QuadSpec(rel_tol=REL_TOL))
        print(f"{medium} {family}{tuple(args)}: "
              f"{time.perf_counter() - t0:.2f} s")
        cases.append({"medium": medium, "family": family, "args": args,
                      "U0": bd.u0, "U1": bd.u1, "U2": bd.u2})
    head = {"rel_tol": REL_TOL, "lorentz": LORENTZ,
            "atoms": "two default ResonanceAtom()"}
    # one case per line
    body = ",\n".join("  " + json.dumps(case) for case in cases)
    PATH.write_text(json.dumps(head)[:-1] + ',\n "cases": [\n' + body
                    + "\n ]}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
