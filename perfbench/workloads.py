"""Seeded workload generation and the fixed anchor calls.

A workload is a list of CLI calls.  Each call is a subcommand plus a JSON
config for ``vdwpair.cli``; the program never sees the seed, only these
configs.  The same (workload, seed) pair always yields byte-identical
config files (``config_text``).

Costs on the seed code are nearly scale invariant: the q-grid is set by
Z+ = z_a + z_b and the number of Bessel oscillation panels by X / Z+.  So
the seed draws heights freely but keeps X / Z+ in narrow bands, which keeps
the work per run steady from seed to seed.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("halfspace-oscillatory", "halfspace-forces", "image-and-free")

REL_TOL = {
    "halfspace-oscillatory": 1e-6,
    "halfspace-forces": 1e-8,
    "image-and-free": 1e-8,
}

_ATOMS_EE = [{"omega10": 1.0, "alpha0": 1.0, "kind": "electric"},
             {"omega10": 1.0, "alpha0": 1.0, "kind": "electric"}]
_ATOMS_EM = [{"omega10": 1.0, "alpha0": 1.0, "kind": "electric"},
             {"omega10": 1.0, "alpha0": 1.0, "kind": "magnetic"}]
_DEFAULT_LORENTZ = {"omegaP": 3.0, "omegaT": 1.0, "gamma": 0.001}


def _sig(x: float) -> float:
    """Round to four significant digits, so configs stay readable."""
    return float(f"{x:.4g}")


class _Draw:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}/{seed}")

    def log_uniform(self, lo: float, hi: float) -> float:
        return _sig(math.exp(self.rng.uniform(math.log(lo), math.log(hi))))

    def uniform(self, lo: float, hi: float) -> float:
        return _sig(self.rng.uniform(lo, hi))

    def lorentz(self) -> dict:
        return {"omegaP": self.uniform(2.5, 3.5),
                "omegaT": self.uniform(0.8, 1.25),
                "gamma": self.log_uniform(5e-4, 2e-3)}


def _config(*, medium: dict, geometry: dict, start: float, stop: float,
            points: int, rel_tol: float, atoms=_ATOMS_EE,
            forces: bool = False) -> dict:
    return {
        "atoms": atoms,
        "medium": medium,
        "geometry": geometry,
        "sweep": {"variable": "l", "start": start, "stop": stop,
                  "points": points, "scale": "log"},
        "rel_tol": rel_tol,
        "forces": forces,
        "workers": 1,
    }


def _call(name: str, command: str, config: dict) -> dict:
    return {"name": name, "command": command, "config": config}


def _oscillatory(d: _Draw) -> list[dict]:
    tol = REL_TOL["halfspace-oscillatory"]
    calls = []
    # Two rows, about 6 s a pass, so a run holds several passes.  A
    # parallel row costs about 2 s before the Bessel oscillation panels
    # add to it; at X / Z+ = 3 they are about a third of the q-work.
    for kind, ratio in (("dielectric", 3.0), ("magnetic", 1.5)):
        z = d.log_uniform(0.005, 0.02)
        l = _sig(2 * z * ratio * d.uniform(0.98, 1.02))
        calls.append(_call(f"{kind}-parallel", "half-space", _config(
            medium={"kind": kind, **d.lorentz()},
            geometry={"family": "parallel", "z": z},
            start=l, stop=l, points=1, rel_tol=tol)))
    return calls


def _forces(d: _Draw) -> list[dict]:
    tol = REL_TOL["halfspace-forces"]
    plates = ["conducting", "permeable"]
    d.rng.shuffle(plates)
    # Perfect plates, so the 16 u_total calls of each force row are all of
    # its cost (about 1 s a row; a Lorentz-medium force row takes 13-30 s,
    # too long to repeat within a run).  One parallel and one vertical row
    # at small separation; the seed decides which plate each gets.
    z = d.log_uniform(0.005, 0.02)
    par = _call(f"{plates[0]}-parallel-forces", "half-space", _config(
        medium={"kind": "perfect", "perfect": plates[0]},
        geometry={"family": "parallel", "z": z},
        start=d.log_uniform(1e-3, 1e-2), stop=0.01, points=1,
        rel_tol=tol, forces=True))
    z_a = d.log_uniform(0.005, 0.02)
    vert = _call(f"{plates[1]}-vertical-forces", "half-space", _config(
        medium={"kind": "perfect", "perfect": plates[1]},
        geometry={"family": "vertical", "z_a": z_a},
        start=d.log_uniform(1e-3, 1e-2), stop=0.01, points=1,
        rel_tol=tol, forces=True))
    return [par, vert]


def _image_and_free(d: _Draw) -> list[dict]:
    tol = REL_TOL["image-and-free"]
    calls = []
    # Perfect plates: l from the nonretarded (l << 1) to the retarded
    # (l >> 1) regime, at one low and one high atom height per plate.
    for plate, family, height in (("conducting", "parallel", 0.05),
                                  ("conducting", "vertical", 2.0),
                                  ("permeable", "parallel", 2.0),
                                  ("permeable", "vertical", 0.05)):
        key = "z" if family == "parallel" else "z_a"
        calls.append(_call(f"{plate}-{family}", "half-space", _config(
            medium={"kind": "perfect", "perfect": plate},
            geometry={"family": family,
                      key: _sig(height * d.log_uniform(0.9, 1.1))},
            start=_sig(0.01 * d.log_uniform(0.9, 1.1)),
            stop=_sig(10.0 * d.log_uniform(0.9, 1.1)),
            points=6, rel_tol=tol)))
    for pair, atoms in (("ee", _ATOMS_EE), ("em", _ATOMS_EM)):
        calls.append(_call(f"free-space-{pair}", "free-space", _config(
            medium={"kind": "free-space"},
            geometry={"family": "parallel", "z": 1.0},
            start=_sig(0.01 * d.log_uniform(0.9, 1.1)),
            stop=_sig(100.0 * d.log_uniform(0.9, 1.1)),
            points=16, rel_tol=tol, atoms=atoms)))
    return calls


_GENERATORS = {
    "halfspace-oscillatory": _oscillatory,
    "halfspace-forces": _forces,
    "image-and-free": _image_and_free,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The seeded CLI calls of one workload."""
    return _GENERATORS[workload](_Draw(workload, seed))


def _single(name, command, medium, geometry, l, rel_tol, atoms=_ATOMS_EE,
            forces=False) -> dict:
    return _call(name, command, _config(
        medium=medium, geometry=geometry, start=l, stop=l, points=1,
        rel_tol=rel_tol, atoms=atoms, forces=forces))


# Fixed (unseeded) anchor calls with stored references.  The first anchor
# of each workload is the one whose traced counts are reported as
# ``anchor.*``; for halfspace-oscillatory it is the l = 0.1, z = 0.01
# dielectric row whose seed counts the self-test pins.
ANCHORS = {
    "halfspace-oscillatory": [
        _single("anchor-dielectric-parallel", "half-space",
                {"kind": "dielectric", **_DEFAULT_LORENTZ},
                {"family": "parallel", "z": 0.01}, 0.1, 1e-8),
        _single("anchor-magnetic-vertical", "half-space",
                {"kind": "magnetic", **_DEFAULT_LORENTZ},
                {"family": "vertical", "z_a": 0.01}, 0.01,
                REL_TOL["halfspace-oscillatory"]),
    ],
    "halfspace-forces": [
        _single("anchor-conducting-parallel-forces", "half-space",
                {"kind": "perfect", "perfect": "conducting"},
                {"family": "parallel", "z": 0.01}, 0.005,
                REL_TOL["halfspace-forces"], forces=True),
        _single("anchor-permeable-vertical-forces", "half-space",
                {"kind": "perfect", "perfect": "permeable"},
                {"family": "vertical", "z_a": 0.01}, 0.005,
                REL_TOL["halfspace-forces"], forces=True),
    ],
    "image-and-free": [
        _single("anchor-conducting-parallel", "half-space",
                {"kind": "perfect", "perfect": "conducting"},
                {"family": "parallel", "z": 0.05}, 0.1,
                REL_TOL["image-and-free"]),
        _single("anchor-permeable-vertical", "half-space",
                {"kind": "perfect", "perfect": "permeable"},
                {"family": "vertical", "z_a": 0.5}, 2.0,
                REL_TOL["image-and-free"]),
        _single("anchor-free-space-ee", "free-space",
                {"kind": "free-space"}, {"family": "parallel", "z": 1.0},
                0.5, REL_TOL["image-and-free"]),
        _single("anchor-free-space-em", "free-space",
                {"kind": "free-space"}, {"family": "parallel", "z": 1.0},
                0.5, REL_TOL["image-and-free"], atoms=_ATOMS_EM),
    ],
}


def config_text(config: dict) -> str:
    """Canonical file text of a config: same config, same bytes."""
    return json.dumps(config, indent=2, sort_keys=True) + "\n"
