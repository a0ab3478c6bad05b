"""Batch command-line front end.

Subcommands
-----------
free-space   sweep the interatomic separation in free space
half-space   sweep the separation near a half space (U0/U1/U2 breakdown)
limits       print the closed-form limit ratios and sign thresholds
thresholds   print only the sign-change thresholds
validate     run the acceptance validation suite

Configuration is a JSON file merged over ``DEFAULT_CONFIG`` and checked
against ``_SCHEMA``; command-line flags override file values.  Sweep
points run in this process by default; with ``workers`` > 1 they are
dispatched to a process pool.  Rows are emitted in input order either way,
so the output is deterministic for a fixed config and tolerance.
Exit codes: 0 success, 1 config error, 2 numerical failure, 3 validation
failure.

All quantities are in reduced units hbar = c = eps0 = mu0 = 1; lengths in
units of c/omega10 of atom A, energies in units of hbar*omega10.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from collections import namedtuple

import numpy as np

from . import __version__
from .forces import free_space_force, halfspace_forces
from .greens import HalfSpaceMedium, PlanarGeometry
from .materials import LorentzMedium, ResonanceAtom
from .potentials import (
    FREE_SPACE_PAIRS,
    HALF_SPACE_PAIRS,
    LIMIT_RATIOS,
    THRESHOLD_CASES,
    asymptotic_coefficients,
    threshold,
    u0_ee,
    u0_em,
    u_total,
)
from .quadrature import QuadSpec

__all__ = ["main", "ConfigError", "load_config", "DEFAULT_CONFIG"]


class ConfigError(ValueError):
    """Invalid or inconsistent scenario configuration."""


DEFAULT_CONFIG: dict = {
    "atoms": [
        {"omega10": 1.0, "alpha0": 1.0, "kind": "electric"},
        {"omega10": 1.0, "alpha0": 1.0, "kind": "electric"},
    ],
    # the single-resonance dielectric of the reference scenarios
    "medium": {"kind": "dielectric", "omegaP": 3.0, "omegaT": 1.0,
               "gamma": 0.001},
    "geometry": {"family": "parallel", "z": 0.01},
    "sweep": {"variable": "l", "start": 0.001, "stop": 1.0, "points": 20,
              "scale": "log"},
    "output": {"path": None, "format": "csv"},
    "rel_tol": 1e-8,
    "forces": False,
    "workers": 1,
}
_DEFAULT_TEXT = json.dumps(DEFAULT_CONFIG)

FREE_COLUMNS = ("l", "U", "U_retarded_asymptote", "U_nonretarded_asymptote",
                "force", "error")
HALF_COLUMNS = ("l", "U0", "U1", "U2", "U", "ratio", "F_on_A_x", "F_on_A_z",
                "F_on_B_x", "F_on_B_z", "error")

def _number(val, path: str) -> None:
    # abs(val) <= max float also turns away NaN, +-inf and ints too large
    # for a float.
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not abs(val) <= sys.float_info.max:
        raise ConfigError(f"field {path} must be a finite number")


def _positive(val, path: str) -> None:
    _number(val, path)
    if val <= 0:
        raise ConfigError(f"field {path} must be positive")


def _count(val, path: str) -> None:
    if isinstance(val, bool) or not isinstance(val, int) or val < 1:
        name = path if "." in path else f"field {path!r}"
        raise ConfigError(f"{name} must be a positive integer")


# The sweep grid and its row tasks are built before the first row.
MAX_POINTS = 100_000


def _points(val, path: str) -> None:
    _count(val, path)
    if val > MAX_POINTS:
        raise ConfigError(f"{path} must be at most {MAX_POINTS}")


def _flag(val, path: str) -> None:
    if not isinstance(val, bool):
        raise ConfigError(f"field {path!r} must be true or false")


def _output_path(val, path: str) -> None:
    if val is not None and not (isinstance(val, str) and os.path.isdir(
            os.path.dirname(val) or ".")):
        raise ConfigError(f"{path} {val!r} is not in an existing directory")
    if val is not None and os.path.isdir(val):
        raise ConfigError(f"{path} {val!r} is a directory")


# A table field that may be absent, and a table chosen by the string in its
# field ``key``.
_Optional = namedtuple("_Optional", "rule")
_Select = namedtuple("_Select", "key tables")

# The config schema.  A rule is a check function, a tuple of allowed
# strings, a dict (a table: exactly these fields), a list (exactly these
# entries) or a _Select; ``_walk`` applies it.
_LORENTZ = {"omegaP": _number, "omegaT": _positive, "gamma": _number}
_ATOM = {"omega10": _positive, "alpha0": _positive,
         "kind": _Optional(("electric", "magnetic"))}
_SCHEMA = {
    "atoms": [_ATOM, _ATOM],
    "medium": _Select("kind", {
        "free-space": {},
        "perfect": {"perfect": ("conducting", "permeable")},
        "dielectric": _LORENTZ,
        "magnetic": _LORENTZ,
        "magneto-electric": {"eps": _Optional(_LORENTZ),
                             "mu": _Optional(_LORENTZ)},
    }),
    "geometry": _Select("family", {
        # z is required in an l sweep (see _validate_config); l, default
        # 1.0, is the separation a z sweep holds.
        "parallel": {"z": _Optional(_positive), "l": _Optional(_positive)},
        "vertical": {"z_a": _positive},
        "general": {"x_a": _number, "z_a": _positive, "x_b": _number,
                    "z_b": _positive},
    }),
    "sweep": {"variable": ("l", "z"), "start": _positive, "stop": _positive,
              "points": _points, "scale": ("log", "linear")},
    "output": {"path": _output_path, "format": ("csv", "json")},
    "rel_tol": _positive,
    "forces": _flag,
    "workers": _count,
}


def _walk(rule, val, path: str) -> None:
    """Check ``val`` at ``path`` against a schema rule, raising ConfigError
    at the first field that breaks it."""
    if isinstance(rule, (dict, _Select)):  # before tuple: _Select is one
        if not isinstance(val, dict):
            raise ConfigError(f"{path} must be an object")
        prefix = f"{path}." if path else ""
        if isinstance(rule, _Select):
            choices = tuple(rule.tables)
            _walk(choices, val.get(rule.key), prefix + rule.key)
            rule = {rule.key: choices, **rule.tables[val[rule.key]]}
        unknown = sorted(set(val) - set(rule))
        if unknown:
            raise ConfigError(f"unknown config field '{prefix}{unknown[0]}'")
        for name, entry in rule.items():
            if name in val:
                _walk(getattr(entry, "rule", entry), val[name], prefix + name)
            elif not isinstance(entry, _Optional):
                raise ConfigError(f"missing field {prefix}{name}")
    elif isinstance(rule, list):
        if not isinstance(val, list) or len(val) != len(rule):
            raise ConfigError(f"{path} must list {len(rule)} entries")
        for i, (entry, item) in enumerate(zip(rule, val)):
            _walk(entry, item, f"{path}[{i}]")
    elif isinstance(rule, tuple):
        if not isinstance(val, str) or val not in rule:
            *head, last = map(repr, rule)
            sep = ", or " if len(head) > 1 else " or "
            raise ConfigError(f"{path} must be {', '.join(head)}{sep}{last}")
    else:
        rule(val, path)


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    """Effective configuration: defaults <- file <- flag overrides."""
    cfg = json.loads(_DEFAULT_TEXT)  # a fresh copy, cheaper than deepcopy
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"config {path!r} is not valid JSON at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path!r} must be a JSON object")
        # sweep and output merge field by field; every other block replaces
        # its default, as the fields it may hold depend on its kind.
        for key, val in data.items():
            merge = key in ("sweep", "output") and isinstance(val, dict)
            cfg[key] = {**cfg[key], **val} if merge else val
    for key, val in (overrides or {}).items():
        block, _, field = key.rpartition(".")
        node = cfg[block] if block else cfg
        if val is not None and isinstance(node, dict):
            node[field] = val
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: dict) -> None:
    _walk(_SCHEMA, cfg, "")
    sweep, geom = cfg["sweep"], cfg["geometry"]
    if sweep["stop"] < sweep["start"]:
        raise ConfigError("sweep.stop must be >= sweep.start")
    if cfg["rel_tol"] >= 1.0:
        raise ConfigError("field rel_tol must be below 1")
    if sweep["variable"] == "z" and geom["family"] != "parallel":
        raise ConfigError("sweep.variable 'z' requires the parallel family")
    if sweep["variable"] == "l" and geom["family"] == "parallel" \
            and "z" not in geom:
        raise ConfigError("missing field geometry.z")
    if geom["family"] == "general" and sweep["points"] != 1:
        raise ConfigError("a 'general' geometry supports only a "
                          "single-point sweep")
    try:  # the constructors' own rules, such as omegaP >= 0
        _build_medium(cfg["medium"])
        _geometry_at(cfg, sweep["start"])
    except ValueError as exc:
        raise ConfigError(f"invalid medium or geometry: {exc}") from exc


def _check_atom_pair(cfg: dict, command: str) -> None:
    pair = tuple(a.get("kind", "electric") for a in cfg["atoms"])
    supported = list(FREE_SPACE_PAIRS if command == "free-space"
                     else HALF_SPACE_PAIRS)
    if pair not in supported:
        raise ConfigError(f"{command} cannot compute atom kinds (A, B) = "
                          f"{pair}; supported: {supported}")


def _build_medium(block: dict) -> HalfSpaceMedium | None:
    def lorentz(fields: dict) -> LorentzMedium:
        return LorentzMedium(**{f: float(fields[f]) for f in _LORENTZ})

    kind = block["kind"]
    if kind == "free-space":
        return None
    if kind == "perfect":
        return HalfSpaceMedium(perfect=block["perfect"])
    if kind == "dielectric":
        return HalfSpaceMedium.dielectric(lorentz(block))
    if kind == "magnetic":
        return HalfSpaceMedium.magnetic(lorentz(block))
    return HalfSpaceMedium(**{key: lorentz(block[key])
                              for key in ("eps", "mu") if key in block})


def _sweep_values(cfg: dict) -> list[float]:
    """np.geomspace or np.linspace to the bit, without their set-up cost."""
    sweep, points = cfg["sweep"], cfg["sweep"]["points"]
    start, stop = float(sweep["start"]), float(sweep["stop"])
    if points == 1:
        return [start]
    if sweep["scale"] == "linear":
        return np.linspace(start, stop, points).tolist()
    values = 10.0 ** np.linspace(np.log10(start), np.log10(stop), points)
    values[0], values[-1] = start, stop  # as np.geomspace pins its ends
    return values.tolist()


def _geometry_at(cfg: dict, value: float) -> PlanarGeometry:
    geom = cfg["geometry"]
    family = geom["family"]
    if family == "general":
        return PlanarGeometry(geom["x_a"], geom["z_a"], geom["x_b"],
                              geom["z_b"])
    if cfg["sweep"]["variable"] == "z":
        return PlanarGeometry.parallel(geom.get("l", 1.0), value)
    if family == "parallel":
        return PlanarGeometry.parallel(value, geom["z"])
    return PlanarGeometry.vertical(geom["z_a"], value)


def _free_space_row(task) -> dict:
    (_cfg, atom_a, atom_b, _medium, spec), l = task
    row = dict.fromkeys(FREE_COLUMNS, "")
    row["l"] = l
    try:
        co = asymptotic_coefficients(atom_a, atom_b)
        if atom_b.kind == "magnetic":
            row["U"] = u0_em(l, atom_a, atom_b, spec=spec)
            row["U_retarded_asymptote"] = co.c7_em / l**7
            row["U_nonretarded_asymptote"] = co.c4 / l**4
        else:
            row["U"] = u0_ee(l, atom_a, atom_b, spec=spec)
            row["U_retarded_asymptote"] = -co.c7_ee / l**7
            row["U_nonretarded_asymptote"] = -co.c6 / l**6
        row["force"] = free_space_force(l, atom_a, atom_b, spec=spec)
    except Exception as exc:  # noqa: BLE001 - row-level error marker
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _half_space_row(task) -> dict:
    (cfg, atom_a, atom_b, medium, spec), value = task
    row = dict.fromkeys(HALF_COLUMNS, "")
    row["l"] = value
    try:
        geom = _geometry_at(cfg, value)
        if cfg["forces"]:
            forces = halfspace_forces(geom, atom_a, atom_b, medium, spec=spec)
            bd = forces.potential
            row.update(F_on_A_x=forces.f_a[0], F_on_A_z=forces.f_a[1],
                       F_on_B_x=forces.f_b[0], F_on_B_z=forces.f_b[1])
        else:
            bd = u_total(geom, atom_a, atom_b, medium, spec=spec)
        row.update(U0=bd.u0, U1=bd.u1, U2=bd.u2, U=bd.total, ratio=bd.ratio)
    except Exception as exc:  # noqa: BLE001 - row-level error marker
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _compute_rows(cfg: dict, worker) -> list[dict]:
    # A row task: ((cfg, atom A, atom B, medium, QuadSpec), sweep value).
    scenario = (cfg, *(ResonanceAtom(**a) for a in cfg["atoms"]),
                _build_medium(cfg["medium"]), QuadSpec(rel_tol=cfg["rel_tol"]))
    tasks = [(scenario, v) for v in _sweep_values(cfg)]
    workers = min(cfg["workers"], len(tasks))
    if workers > 1:  # only a pool that may start asks for the cores
        workers = min(workers, os.cpu_count() or 1)
    if workers == 1:
        return [worker(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        # Executor.map yields results in submission order, so rows come out
        # in input order regardless of completion order.
        return list(pool.map(worker, tasks))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12e}"
    return str(value)


def _emit(cfg: dict, command: str, columns, rows) -> None:
    out_cfg = cfg["output"]
    if out_cfg["format"] == "json":
        payload = {
            "tool": f"vdwpair {__version__}",
            "command": command,
            "units": "reduced: hbar = c = eps0 = mu0 = 1; lengths in "
                     "c/omega10, energies in hbar*omega10",
            "rel_tol": cfg["rel_tol"],
            "effective_config": cfg,
            "columns": list(columns),
            "rows": [{c: r[c] for c in columns} for r in rows],
        }
        text = json.dumps(payload) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# vdwpair {__version__} {command}\n")
        buf.write("# units: reduced, hbar = c = eps0 = mu0 = 1; "
                  "lengths in c/omega10, energies in hbar*omega10\n")
        buf.write(f"# rel_tol: {cfg['rel_tol']:g}\n")
        buf.write("# effective config: "
                  + json.dumps(cfg, separators=(",", ":")) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])
        text = buf.getvalue()
    if out_cfg["path"]:
        with open(out_cfg["path"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_sweep(args) -> int:
    """Run the free-space or half-space sweep that ``args.command`` names."""
    cfg = load_config(args.config, _flag_overrides(args))
    _check_atom_pair(cfg, args.command)
    if args.command == "free-space":
        worker, columns = _free_space_row, FREE_COLUMNS
    else:
        if cfg["medium"]["kind"] == "free-space":
            raise ConfigError("half-space command requires a non-vacuum medium")
        worker, columns = _half_space_row, HALF_COLUMNS
    rows = _compute_rows(cfg, worker)
    _emit(cfg, args.command, columns, rows)
    return 2 if any(r["error"] for r in rows) else 0


def cmd_limits(args) -> int:
    cases = [*LIMIT_RATIOS, *THRESHOLD_CASES]
    if args.case is not None:
        if args.case not in cases:
            print(f"unknown case {args.case!r}; choose from: "
                  + ", ".join(cases), file=sys.stderr)
            return 1
        cases = [args.case]
    print(f"{'case':42s} {'value':>14s}  exact")
    for case in cases:
        if case in LIMIT_RATIOS:
            num, den = LIMIT_RATIOS[case]
            value, exact = num / den, f"{num}/{den}"
        else:
            value, exact = threshold(case), "root"
        print(f"{case:42s} {value:14.10f}  {exact}")
    return 0


def cmd_thresholds(_args) -> int:
    print(f"{'case':42s} {'z_B/z_A':>12s}")
    for case in THRESHOLD_CASES:
        print(f"{case:42s} {threshold(case):12.6f}")
    return 0


def cmd_validate(_args) -> int:
    from .validate import run_all
    results = run_all()
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 3 if failed else 0


def _flag_overrides(args) -> dict:
    # A sweep flag's dest is the config path it sets; None, a flag not
    # given, leaves the file's value.
    return {key: val for key, val in vars(args).items()
            if key.partition(".")[0] in DEFAULT_CONFIG}


def _add_sweep_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH",
                   help="JSON scenario config (defaults are built in)")
    p.add_argument("--rel-tol", dest="rel_tol", type=float, metavar="R",
                   help="relative quadrature tolerance")
    p.add_argument("--points", dest="sweep.points", type=int, metavar="N",
                   help="number of sweep points")
    scale = p.add_mutually_exclusive_group()
    scale.add_argument("--log", dest="sweep.scale", action="store_const",
                       const="log", help="logarithmic sweep spacing")
    scale.add_argument("--linear", dest="sweep.scale", action="store_const",
                       const="linear", help="linear sweep spacing")
    p.add_argument("--output", dest="output.path", metavar="PATH",
                   help="write results to PATH instead of stdout")
    p.add_argument("--format", dest="output.format", choices=("csv", "json"),
                   help="output format")
    p.add_argument("--workers", type=int, metavar="N",
                   help="worker processes for sweep points")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each build costs
    about a millisecond and leaves reference cycles for the collector."""
    parser = argparse.ArgumentParser(
        prog="vdwpair",
        description="Two-atom van der Waals potentials and forces in free "
                    "space and near a half space (reduced units).")
    parser.add_argument("--version", action="version",
                        version=f"vdwpair {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("free-space",
                       help="sweep the free-space potential and force")
    _add_sweep_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("half-space",
                       help="sweep the potential breakdown near a half space")
    _add_sweep_flags(p)
    p.add_argument("--forces", action="store_true", default=None,
                   help="also compute per-atom forces")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("limits",
                       help="closed-form limit ratios and thresholds")
    p.add_argument("case", nargs="?",
                   help="one case name (default: all)")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("thresholds", help="sign-change thresholds")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("validate", help="run the acceptance checks")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - numerical failure
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
